"""Malformed inputs through the in-process CLI: each ends in an exit code.

One table per artefact: checkpoints, transcripts, corpus manifests, config
files, label caches and WAV files. A case corrupts one input, runs one
command on it and checks that ``main`` returns 1 or 2 without raising,
prints ``error: ...`` naming the file, and writes no output (a failed
pretrain run saves its last completed step). Two last tables set each
numeric config key to 0 and -1, then to a huge value, and check that
``main`` exits 0, 1 or 2, naming the section and the config file for a
refused value; a run that diverges exits 1 and saves its last step.
"""

import configparser
import struct

import numpy as np
import pytest

from rqspeech import cli, datapipe, finetune, pretrain, quantizer
from rqspeech.cli import main
from rqspeech.config import SCHEMA, ConfigError, load_config

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

[datapipe]
num_buckets = 1
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


def _assert_refused(argv, bad, outputs, capsys):
    assert main(argv) in (1, 2)
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(bad) in err
    assert out == ""
    assert [p for p in outputs if p.exists()] == []


# transcripts ------------------------------------------------------------------

GOOD_TRANSCRIPTS = b"utt00\tab\nutt01\tba\nutt02\tabba\n"

# name -> make(path): leave a corrupt transcripts file at ``path``, or nothing
TRANSCRIPT_CORRUPTIONS = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "no_tab": lambda path: path.write_bytes(GOOD_TRANSCRIPTS.replace(b"utt01\t", b"utt01 ")),
    "repeated_id": lambda path: path.write_bytes(GOOD_TRANSCRIPTS.replace(b"utt01", b"utt00")),
    "not_utf8": lambda path: path.write_bytes(b"utt00\t\xff\xfe\n"),
    "nul_bytes": lambda path: path.write_bytes(GOOD_TRANSCRIPTS.replace(b"ba", b"b\0a")),
}

# corruptions that only training refuses: ``score`` reads an empty file as no
# utterances and an empty text as a hypothesis with no symbol
TRAINING_TRANSCRIPT_CORRUPTIONS = {
    "empty": lambda path: path.write_bytes(b""),
    "empty_text": lambda path: path.write_bytes(GOOD_TRANSCRIPTS.replace(b"\tba", b"\t")),
}


def _finetune_on(transcripts):
    def command(inputs, tmp):
        ckpt = tmp / "pre.msec"
        ckpt.write_bytes(inputs["pretrain"])
        ini = tmp / "ft.ini"
        _finetune_config(ini, {**inputs, "transcripts": transcripts}, ckpt, tmp / "out")
        return ["finetune", "--config", str(ini)], [tmp / "out"]
    return command


def _score_with(refs, hyps):
    def command(inputs, tmp):
        return ["score", "--refs", str(refs or inputs["transcripts"]),
                "--hyps", str(hyps or inputs["transcripts"]),
                "--report", str(tmp / "report.csv")], [tmp / "report.csv"]
    return command


# name -> command(bad transcripts path) -> command(inputs, scratch dir)
TRANSCRIPT_COMMANDS = {
    "finetune": _finetune_on,
    "score_refs": lambda bad: _score_with(bad, None),
    "score_hyps": lambda bad: _score_with(None, bad),
}


@pytest.mark.parametrize("command, corruption", [
    *((c, k) for c in TRANSCRIPT_COMMANDS for k in TRANSCRIPT_CORRUPTIONS),
    *(("finetune", k) for k in TRAINING_TRANSCRIPT_CORRUPTIONS)])
def test_bad_transcripts_exit_with_message(inputs, tmp_path, capsys, command, corruption):
    bad = tmp_path / "transcripts.tsv"
    {**TRANSCRIPT_CORRUPTIONS, **TRAINING_TRANSCRIPT_CORRUPTIONS}[corruption](bad)
    argv, outputs = TRANSCRIPT_COMMANDS[command](bad)(inputs, tmp_path)
    _assert_refused(argv, bad, outputs, capsys)


@pytest.mark.parametrize("read", [finetune.read_transcripts, datapipe.read_manifest])
def test_non_utf8_line_is_named(tmp_path, read):
    bad = tmp_path / "list.tsv"
    bad.write_bytes(b"utt00\ta.wav\t1.0\n\nutt03\t\xff\xfe\t1.0\n")
    with pytest.raises(ValueError, match=f"^{bad}:3: not valid UTF-8$"):
        read(bad)


# corpus manifests ---------------------------------------------------------------

def _manifest_corruption(edit):
    def make(path, good):
        path.write_text(edit(good.splitlines(keepends=True)), encoding="utf-8")
    return make


def _set_duration(value):
    return _manifest_corruption(
        lambda lines: "".join(line.rsplit("\t", 1)[0] + f"\t{value}\n" for line in lines))


# name -> make(path, good manifest text): leave a corrupt manifest at ``path``
MANIFEST_CORRUPTIONS = {
    "missing": lambda path, good: None,
    "directory": lambda path, good: path.mkdir(),
    "no_tab": _manifest_corruption(lambda lines: "".join(
        [lines[0].replace("\t", " ", 1), *lines[1:]])),
    "duration_not_a_number": _set_duration("abc"),
    "duration_nan": _set_duration("nan"),
    "duration_inf": _set_duration("inf"),
    "repeated_id": _manifest_corruption(lambda lines: "".join([*lines, lines[0]])),
    "not_utf8": lambda path, good: path.write_bytes(
        good.encode("utf-8") + b"\xff\xfe\tx.wav\t1.0\n"),
}


def _pretrain_on(manifest, inputs, tmp):
    ini = tmp / "pre.ini"
    write_pretrain_config(ini, inputs["corpus"], tmp / "out")
    ini.write_text(ini.read_text(encoding="utf-8").replace(
        f"root = {inputs['corpus']}", f"manifest = {manifest}"), encoding="utf-8")
    return ["pretrain", "--config", str(ini)], [tmp / "out"]


def _decode_on(manifest, inputs, tmp):
    ckpt = tmp / "ft.msec"
    ckpt.write_bytes(inputs["finetune"])
    return ["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
            "--out", str(tmp / "hyp.tsv")], [tmp / "hyp.tsv"]


# name -> command(bad manifest path, inputs, scratch dir) -> (argv, output paths)
MANIFEST_COMMANDS = {"pretrain": _pretrain_on, "decode": _decode_on}


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
@pytest.mark.parametrize("corruption", MANIFEST_CORRUPTIONS)
def test_bad_manifest_exits_with_message(inputs, tmp_path, capsys, command, corruption):
    bad = tmp_path / "manifest.tsv"
    MANIFEST_CORRUPTIONS[corruption](bad, inputs["manifest"].read_text(encoding="utf-8"))
    argv, outputs = MANIFEST_COMMANDS[command](bad, inputs, tmp_path)
    _assert_refused(argv, bad, outputs, capsys)


# config files -------------------------------------------------------------------

# name -> make(path, good config text): leave a corrupt config at ``path``
CONFIG_CORRUPTIONS = {
    "missing": lambda path, good: None,
    "directory": lambda path, good: path.mkdir(),
    "not_utf8": lambda path, good: path.write_bytes(
        good.encode("utf-8") + b"# caf\xe9\n"),
    "no_section_header": lambda path, good: path.write_text(
        "seed = 3\n" + good, encoding="utf-8"),
    "unknown_section": lambda path, good: path.write_text(
        good + "[nosuch]\nkey = 1\n", encoding="utf-8"),
    "duplicate_section": lambda path, good: path.write_text(
        good + "[encoder]\nheads = 2\n", encoding="utf-8"),
    "duplicate_key": lambda path, good: path.write_text(
        good.replace("[encoder]\n", "[encoder]\nheads = 2\n"), encoding="utf-8"),
}


def _pretrain_config_text(inputs, tmp):
    good = tmp / "good.ini"
    write_pretrain_config(good, inputs["corpus"], tmp / "out")
    return good.read_text(encoding="utf-8")


def _finetune_config_text(inputs, tmp):
    ckpt = tmp / "pre.msec"
    ckpt.write_bytes(inputs["pretrain"])
    good = tmp / "good.ini"
    _finetune_config(good, inputs, ckpt, tmp / "out")
    return good.read_text(encoding="utf-8")


# name -> (good config text(inputs, scratch dir), argv(bad config path, output path));
# each good config writes to <scratch dir>/out
CONFIG_COMMANDS = {
    "pretrain": (_pretrain_config_text, lambda ini, out: ["pretrain", "--config", str(ini)]),
    "quantize": (_pretrain_config_text,
                 lambda ini, out: ["quantize", "--config", str(ini), "--out", str(out)]),
    "finetune": (_finetune_config_text, lambda ini, out: ["finetune", "--config", str(ini)]),
}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("corruption", CONFIG_CORRUPTIONS)
def test_bad_config_exits_2_with_message(inputs, tmp_path, capsys, command, corruption):
    good_text, make_argv = CONFIG_COMMANDS[command]
    bad = tmp_path / "bad.ini"
    CONFIG_CORRUPTIONS[corruption](bad, good_text(inputs, tmp_path))
    out = tmp_path / "out"
    assert main(make_argv(bad, out)) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()


def test_non_utf8_config_names_its_line(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[run]\nseed = 3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=f"^cannot parse {bad}:3: not valid UTF-8$"):
        load_config(bad)


# label caches -------------------------------------------------------------------

def _lab_header_field(index, edit):
    """corrupt(raw) that replaces header field ``index`` by ``edit(field)``."""
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        fields = header.split()
        fields[index] = edit(fields[index])
        return b" ".join(fields) + b"\n" + payload
    return corrupt


def _plus_one(field):
    return str(int(field) + 1).encode()


def _first_label_at_vocab_size(raw):
    start = raw.index(b"\n") + 1
    return raw[:start] + struct.pack("<H", 32) + raw[start + 2:]


# name -> corrupt(raw .lab bytes) -> bytes; the run's quantizer has 32 labels
LABEL_CACHE_CORRUPTIONS = {
    "header_only": lambda raw: raw[:raw.index(b"\n") + 1],
    "cut_at_half": lambda raw: raw[:len(raw) // 2],
    "magic_changed": _lab_header_field(0, lambda field: b"MSEQ2"),
    "frames_changed": _lab_header_field(1, _plus_one),
    "codebooks_changed": _lab_header_field(2, _plus_one),
    "vocab_changed": _lab_header_field(3, lambda field: b"1"),
    "label_at_vocab_size": _first_label_at_vocab_size,
}


@pytest.fixture(scope="module")
def label_caches(inputs, tmp_path_factory):
    """``{file name: bytes}`` of the .lab files ``quantize`` writes for the
    table's corpus under the pretrain config."""
    root = tmp_path_factory.mktemp("label_caches")
    ini = root / "pre.ini"
    write_pretrain_config(ini, inputs["corpus"], root / "out")
    assert main(["quantize", "--config", str(ini), "--out", str(root / "cache")]) == 0
    return {p.name: p.read_bytes() for p in (root / "cache").iterdir()}


def _pretrain_on_cache(inputs, label_caches, tmp, corrupt):
    """argv of a pretrain run into <tmp>/out warmed from a copy of
    ``label_caches`` whose utt01.lab is ``corrupt(its bytes)``, and that
    file's path."""
    cache = tmp / "cache"
    cache.mkdir()
    for name, raw in label_caches.items():
        (cache / name).write_bytes(corrupt(raw) if name == "utt01.lab" else raw)
    ini = tmp / "pre.ini"
    write_pretrain_config(ini, inputs["corpus"], tmp / "out", label_cache_dir=cache)
    return ["pretrain", "--config", str(ini)], cache / "utt01.lab"


@pytest.mark.parametrize("corruption", LABEL_CACHE_CORRUPTIONS)
def test_bad_label_cache_exits_1_with_message(inputs, label_caches, tmp_path, capsys,
                                              corruption):
    argv, bad = _pretrain_on_cache(inputs, label_caches, tmp_path,
                                   LABEL_CACHE_CORRUPTIONS[corruption])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(bad) in err
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_intact_label_cache_gets_past_loading(inputs, label_caches, tmp_path, monkeypatch):
    """Uncorrupted, the table's caches fit the run: all three warm its label
    cache and it goes on to train."""
    argv, _ = _pretrain_on_cache(inputs, label_caches, tmp_path, lambda raw: raw)
    warmed = {}

    def stop(cfg, index, state, *args):
        warmed.update(state.label_cache)
        return 0
    monkeypatch.setattr(cli, "_train", stop)
    assert main(argv) == 0
    assert sorted(warmed) == ["utt00", "utt01", "utt02"]
    for utt_id, labels in warmed.items():
        assert np.array_equal(labels, quantizer.read_label_cache(
            tmp_path / "cache" / f"{utt_id}.lab"))


# WAV files ------------------------------------------------------------------------

def _wav_field(offset, fmt, value):
    """corrupt(raw) that packs ``value`` at byte ``offset`` of the header."""
    def corrupt(raw):
        return raw[:offset] + struct.pack(fmt, value) + raw[offset + struct.calcsize(fmt):]
    return corrupt


# name -> corrupt(raw) -> bytes, for a 16-bit mono PCM WAV with the 44-byte
# header ``frontend.write_wav`` writes: fmt fields from byte 20, data from 44
WAV_CORRUPTIONS = {
    "riff_header_cut": lambda raw: raw[:8],
    "data_cut_short": lambda raw: raw[:44 + (len(raw) - 44) // 2],
    "sample_rate_0": _wav_field(24, "<I", 0),
    "8_bit_samples": _wav_field(34, "<H", 8),
    "format_tag_3": _wav_field(20, "<H", 3),
    "3_channels": _wav_field(22, "<H", 3),
    "zero_length_data": lambda raw: _wav_field(40, "<I", 0)(raw)[:44],
}


def _quantize_on(manifest, inputs, tmp):
    argv, _ = _pretrain_on(manifest, inputs, tmp)
    return ["quantize", "--config", argv[2], "--out", str(tmp / "labels")], [tmp / "labels"]


# name -> command(manifest path, inputs, scratch dir) -> (argv, output paths)
WAV_COMMANDS = {**MANIFEST_COMMANDS, "quantize": _quantize_on}


@pytest.mark.filterwarnings("ignore:merged 1 degenerate buckets")  # one utterance
@pytest.mark.parametrize("command", WAV_COMMANDS)
@pytest.mark.parametrize("corruption", WAV_CORRUPTIONS)
def test_bad_wav_exits_1_naming_utterance_and_file(inputs, tmp_path, capsys, command,
                                                   corruption):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(WAV_CORRUPTIONS[corruption]((inputs["corpus"] / "utt00.wav").read_bytes()))
    manifest = tmp_path / "bad_manifest.tsv"
    manifest.write_text(f"uttbad\t{bad}\t1.0\n", encoding="utf-8")
    argv, outputs = WAV_COMMANDS[command](manifest, inputs, tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "uttbad" in err and str(bad) in err
    assert "Traceback" not in err and out == ""
    if command == "pretrain":
        # a failed run saves its last completed step, here the first
        run_dir, = outputs
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.ini", "final.msec",
                                                            "metrics.csv"]
        assert pretrain.read_checkpoint(run_dir / "final.msec")[0]["step"] == 0
        assert (run_dir / "metrics.csv").read_text(encoding="utf-8").count("\n") == 1
    elif command == "quantize":
        assert [p for p in outputs if p.exists()] == []  # not even the empty labels/
    else:
        assert [p for out in outputs for p in [out, *out.rglob("*")] if p.is_file()] == []


# numeric config keys at 0 and -1 --------------------------------------------------

NUMERIC_KEYS = [(section, key) for section, body in SCHEMA.items()
                for key, (kind, _) in body.items() if kind in (int, float)]
# values a sign typo gives that would run a job that trains nothing: refused
REFUSED_VALUES = {("pretrain", "total_steps"): ("0", "-1"),
                  ("finetune", "total_steps"): ("0", "-1"),
                  ("datapipe", "tokens_per_batch"): ("0", "-1"),
                  ("datapipe", "workers"): ("-1",)}


def _short_run(inputs, tmp, command):
    """A config at <tmp>/c.ini for a short ``command`` run into <tmp>/out."""
    ini = tmp / "c.ini"
    if command == "finetune":
        ckpt = tmp / "pre.msec"
        ckpt.write_bytes(inputs["pretrain"])
        _finetune_config(ini, inputs, ckpt, tmp / "out")
    else:
        write_pretrain_config(ini, inputs["corpus"], tmp / "out", total_steps=2)
    return ini


def _set_keys(ini, section, **values):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ini, encoding="utf-8")
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section].update(values)
    with open(ini, "w", encoding="utf-8") as f:
        parser.write(f)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_numeric_key_at_zero_or_negative_exits_0_or_2(inputs, tmp_path, capsys,
                                                     section, key, value):
    """Pins what each key does at 0 and -1: it runs (exit 0) or is refused
    before any output (exit 2), naming its section and the config file; the
    values in ``REFUSED_VALUES`` are refused."""
    command = "finetune" if section == "finetune" else "pretrain"
    ini = _short_run(inputs, tmp_path, command)
    _set_keys(ini, section, **{key: value})
    code = main([command, "--config", str(ini)])
    if value in REFUSED_VALUES.get((section, key), ()):
        assert code == 2
    assert code in (0, 2)
    if code == 2:
        err = capsys.readouterr().err
        assert f"[{section}]" in err or f'"{section}.{key}"' in err
        assert str(ini) in err
        assert not (tmp_path / "out").exists()


# numeric config keys at huge values -----------------------------------------------

# keys that size an allocation or a thread count (the encoder and quantizer
# sizes, ``workers``) or the length of the run (``total_steps``), and the two
# SpecAugment mask counts, each of which runs a loop of random draws per mask,
# stay out of the huge-values table
HUGE_LEFT_OUT = {"encoder", "quantizer", ("datapipe", "workers"),
                 ("pretrain", "total_steps"), ("finetune", "total_steps"),
                 ("finetune", "time_masks"), ("finetune", "freq_masks")}
HUGE_KEYS = [(section, key) for section, key in NUMERIC_KEYS
             if section not in HUGE_LEFT_OUT and (section, key) not in HUGE_LEFT_OUT]
# exit codes other than 0: a probability above 1 is refused, and a learning
# rate of 1e30 diverges at the second step
HUGE_EXIT_CODES = {("masking", "prob"): 2, ("finetune", "time_apply_prob"): 2,
                   ("pretrain", "peak_lr"): 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is what diverges
@pytest.mark.filterwarnings("ignore:merged .* degenerate buckets")  # num_buckets
@pytest.mark.parametrize("section, key", HUGE_KEYS)
def test_numeric_key_at_huge_value_exits_with_code(inputs, tmp_path, capsys, section, key):
    """Pins what each key does at 10^18 (integers) or 1e30 (floats): a run
    that ends in exit 0, or exit 1 or 2 with an ``error:`` line and no
    traceback, never an exception or a hang."""
    command = "finetune" if section == "finetune" else "pretrain"
    ini = _short_run(inputs, tmp_path, command)
    kind = SCHEMA[section][key][0]
    _set_keys(ini, section, **{key: "1000000000000000000" if kind is int else "1e30"})
    code = main([command, "--config", str(ini)])
    err = capsys.readouterr().err
    assert code == HUGE_EXIT_CODES.get((section, key), 0), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is what diverges
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_diverged_run_exits_1_and_saves_last_step(inputs, tmp_path, capsys, command):
    # a learning rate of 1e30 takes one step to parameters whose next
    # forward overflows; the run saves the step it completed, whose
    # parameters need not be finite
    ini = _short_run(inputs, tmp_path, command)
    if command == "finetune":
        _set_keys(ini, "finetune", encoder_lr="1e30", freeze_steps="0", total_steps="4")
        final = tmp_path / "out" / "finetuned.msec"
    else:
        _set_keys(ini, "pretrain", peak_lr="1e30", total_steps="4")
        final = tmp_path / "out" / "final.msec"
    assert main([command, "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and "non-finite" in err
    assert "Traceback" not in err
    header, _ = pretrain.read_checkpoint(final)
    assert 1 <= header["step"] < 4
    assert f"error: step {header['step'] + 1}: " in err
