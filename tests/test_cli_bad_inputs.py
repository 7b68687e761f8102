"""Malformed inputs through the in-process CLI: each ends in an exit code.

One table per artefact. A case corrupts one input, runs one command on it
and checks that ``main`` returns 1 or 2 without raising, prints
``error: ...`` naming the file, and writes no output. Only the checkpoint
table exists so far.
"""

import struct

import pytest

from rqspeech import cli, datapipe, finetune, pretrain
from rqspeech.cli import main
from rqspeech.config import load_config

from conftest import rewrite_checkpoint_header
from test_cli import write_corpus, write_pretrain_config


def _header_len(raw):
    return struct.unpack("<I", raw[8:12])[0]


def _negate_first_dim(path):
    def edit(header):
        first = header["tensors"][0]
        first["shape"][0] = -first["shape"][0]
    rewrite_checkpoint_header(path, edit)


# name -> make(path, raw): leave at ``path`` a corrupt copy of the
# checkpoint whose bytes are ``raw`` (or nothing at all)
CHECKPOINT_CORRUPTIONS = {
    "missing": lambda path, raw: None,
    "directory": lambda path, raw: path.mkdir(),
    "empty": lambda path, raw: path.write_bytes(b""),
    "magic_only": lambda path, raw: path.write_bytes(raw[:4]),
    "header_cut": lambda path, raw: path.write_bytes(raw[:12 + _header_len(raw) // 2]),
    "header_not_utf8": lambda path, raw: path.write_bytes(
        raw[:12] + b"\xff" * _header_len(raw) + raw[12 + _header_len(raw):]),
    "shape_negated": lambda path, raw: (path.write_bytes(raw), _negate_first_dim(path)),
    "data_cut_at_half": lambda path, raw: path.write_bytes(
        raw[:12 + _header_len(raw) + (len(raw) - 12 - _header_len(raw)) // 2]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A corpus, its configs and manifest, and intact pretrain and finetune
    checkpoints that fit the configs."""
    root = tmp_path_factory.mktemp("bad_inputs")
    corpus = root / "corpus"
    write_corpus(corpus, [0.6, 0.8, 1.0])
    transcripts = root / "transcripts.tsv"
    transcripts.write_text("utt00\tab\nutt01\tba\nutt02\tabba\n", encoding="utf-8")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(f"{u.utt_id}\t{u.path}\t{u.duration}\n"
                                for u in datapipe.scan_corpus(corpus).entries),
                        encoding="utf-8")
    pre_ini = root / "pre.ini"
    write_pretrain_config(pre_ini, corpus, root / "pre_out")
    cfg = load_config(pre_ini)
    pre_ckpt = root / "pre.msec"
    pretrain.save_checkpoint(
        pretrain.init_train_state(cfg.encoder_config(), cfg.pretrain_config()), pre_ckpt)
    ft_ckpt = root / "ft.msec"
    finetune.save_finetune_checkpoint(
        finetune.init_finetune_state(pre_ckpt, finetune.FinetuneConfig(),
                                     finetune.CharTokenizer.from_texts(["ab"])), ft_ckpt)
    return {"corpus": corpus, "transcripts": transcripts, "manifest": manifest,
            "pretrain": pre_ckpt.read_bytes(),
            "finetune": ft_ckpt.read_bytes()}


def _finetune_config(path, inputs, ckpt, out_dir):
    path.write_text(f"""
[run]
output_dir = {out_dir}

[corpus]
root = {inputs['corpus']}
transcripts = {inputs['transcripts']}

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[finetune]
checkpoint = {ckpt}
total_steps = 1
""", encoding="utf-8")


def _pretrain_from(mode):
    def command(inputs, ckpt, tmp):
        ini = tmp / "pre.ini"
        write_pretrain_config(ini, inputs["corpus"], tmp / "out")
        return ["pretrain", "--config", str(ini), "--init-from", str(ckpt),
                "--init-mode", mode], [tmp / "out"]
    return command


def _finetune(inputs, ckpt, tmp):
    ini = tmp / "ft.ini"
    _finetune_config(ini, inputs, ckpt, tmp / "out")
    return ["finetune", "--config", str(ini)], [tmp / "out"]


def _decode(inputs, ckpt, tmp):
    return ["decode", "--ckpt", str(ckpt), "--manifest", str(inputs["manifest"]),
            "--out", str(tmp / "hyp.tsv")], [tmp / "hyp.tsv"]


def _inspect(inputs, ckpt, tmp):
    return ["inspect", "--ckpt", str(ckpt)], []


# name -> (checkpoint kind the command reads,
#          command(inputs, checkpoint path, scratch dir) -> (argv, output paths))
CHECKPOINT_COMMANDS = {
    "inspect": ("pretrain", _inspect),
    "decode": ("finetune", _decode),
    "finetune": ("pretrain", _finetune),
    "pretrain_full": ("pretrain", _pretrain_from("full")),
    "pretrain_feature_extractor_only": ("pretrain", _pretrain_from("feature_extractor_only")),
}


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
@pytest.mark.parametrize("corruption", CHECKPOINT_CORRUPTIONS)
def test_corrupt_checkpoint_exits_with_message(inputs, tmp_path, capsys, command, corruption):
    kind, make_command = CHECKPOINT_COMMANDS[command]
    ckpt = tmp_path / "ckpt.msec"
    CHECKPOINT_CORRUPTIONS[corruption](ckpt, inputs[kind])
    argv, outputs = make_command(inputs, ckpt, tmp_path)
    assert main(argv) in (1, 2)
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(ckpt) in err
    assert out == ""
    assert [p for p in outputs if p.exists()] == []


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
def test_intact_checkpoint_gets_past_loading(inputs, tmp_path, capsys, monkeypatch, command):
    """The table's checkpoints and configs fit each other: uncorrupted, each
    command loads its checkpoint and goes on to train, decode or print."""
    kind, make_command = CHECKPOINT_COMMANDS[command]
    ckpt = tmp_path / "ckpt.msec"
    ckpt.write_bytes(inputs[kind])
    argv, _ = make_command(inputs, ckpt, tmp_path)

    class Loaded(Exception):
        pass

    def stop(*args, **kwargs):
        raise Loaded
    monkeypatch.setattr(cli, "_train", stop)
    monkeypatch.setattr(finetune, "transcribe", stop)
    if command == "inspect":
        assert main(argv) == 0
        assert "parameters: " in capsys.readouterr().out
    else:
        with pytest.raises(Loaded):
            main(argv)
