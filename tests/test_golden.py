"""End-to-end bytes of CLI runs, pinned against tests/golden_digests.json.

The first chain is one run of ``quantize`` -> ``pretrain`` (reading the label
cache) -> ``finetune`` (``freeze_steps = 2``) -> ``decode --beam 8`` on a
three-utterance corpus. The second, digested under ``gates/``, runs at the
shapes where the program's size gates switch paths: ``quantize`` ->
``pretrain`` -> a ``--init-mode full`` continuation -> a ``--init-mode
feature_extractor_only`` start -> ``finetune`` across ``freeze_steps``, on
~42 s of audio in one batch, with a 2048-word head. Each ``.lab`` file, each
metrics CSV, each tensor of each checkpoint and the transcripts has its own
digest, so a failure names what moved.

The bits depend on numpy and on the BLAS kernels it runs, so the file records
both; on another build the test fails and says so. To rewrite the file after
a change that moves bits on purpose, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rqspeech import autodiff as ad
from rqspeech import datapipe, frontend, parallel, pretrain
from rqspeech.cli import main

from conftest import make_speechlike

GOLDEN = Path(__file__).with_name("golden_digests.json")
REWRITE = "PYTHONPATH=src python tests/test_golden.py"
TEXTS = {"utt00": "ab", "utt01": "ba", "utt02": "abba"}

ENCODER = """
[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[datapipe]
num_buckets = 1
tokens_per_batch = 1000
"""


def build_info() -> dict:
    """numpy's version and the BLAS its products run on: the configuration
    of numpy's bundled OpenBLAS, which names the kernel it chose for this
    CPU, or else the BLAS that numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = f"{blas.get('name')} {blas.get('version')} (build)"
    get = getattr(parallel.openblas_library(), "scipy_openblas_get_config64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        config = get().decode()
    return {"numpy": np.__version__, "blas": config}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def write_corpus(root: Path, seconds) -> tuple[Path, Path]:
    """(corpus directory, transcript file) of one utterance per duration,
    with ``TEXTS``' transcripts."""
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(0)
    for i, duration in enumerate(seconds):
        frontend.write_wav(corpus / f"utt{i:02d}.wav", make_speechlike(rng, duration), 16000)
    transcripts = root / "transcripts.tsv"
    transcripts.write_text("".join(f"{k}\t{v}\n" for k, v in TEXTS.items()), encoding="utf-8")
    return corpus, transcripts


def digest_outputs(root: Path, files, checkpoints, prefix: str = "") -> dict:
    """{``prefix`` + path under ``root``: digest} of each file, and of each
    tensor of each checkpoint, named ``<checkpoint>:<tensor>``."""
    digests = {prefix + str(p.relative_to(root)): digest(p.read_bytes()) for p in files}
    for ckpt in checkpoints:
        _, tensors = pretrain.read_checkpoint(ckpt)
        for name in sorted(tensors):
            digests[f"{prefix}{ckpt.relative_to(root)}:{name}"] = digest(tensors[name].tobytes())
    return digests


def run_chain(root: Path) -> dict:
    """{artefact name: digest} of one CLI run under ``root``; a tensor is
    named ``<checkpoint>:<tensor>``."""
    corpus, transcripts = write_corpus(root, [0.6, 0.8, 1.0])
    labels, pre_out, ft_out = root / "labels", root / "pre_out", root / "ft_out"

    pre_cfg = root / "pre.ini"
    pre_cfg.write_text(f"""
[run]
seed = 3
output_dir = {pre_out}

[corpus]
root = {corpus}

[quantizer]
num_codebooks = 2
vocab_size = 32
dim = 4

[masking]
prob = 0.4
span_frames = 10

[pretrain]
peak_lr = 1e-3
warmup_steps = 2
total_steps = 2
checkpoint_every = 2
label_cache_dir = {labels}
{ENCODER}""", encoding="utf-8")
    ft_cfg = root / "ft.ini"
    ft_cfg.write_text(f"""
[run]
seed = 5
output_dir = {ft_out}

[corpus]
root = {corpus}
transcripts = {transcripts}

[finetune]
checkpoint = {pre_out / 'final.msec'}
encoder_lr = 1e-3
decoder_lr = 5e-3
warmup_steps = 5
freeze_steps = 2
total_steps = 3
time_apply_prob = 0.0
max_freq_width = 0
{ENCODER}""", encoding="utf-8")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(f"{u.utt_id}\t{u.path}\t{u.duration}\n"
                                for u in datapipe.scan_corpus(corpus).entries),
                        encoding="utf-8")
    hyps = root / "hyps.tsv"
    for argv in (["quantize", "--config", str(pre_cfg), "--out", str(labels)],
                 ["pretrain", "--config", str(pre_cfg)],
                 ["finetune", "--config", str(ft_cfg)],
                 ["decode", "--ckpt", str(ft_out / "finetuned.msec"),
                  "--manifest", str(manifest), "--out", str(hyps), "--beam", "8"]):
        assert main(argv) == 0, argv

    files = [*sorted(labels.glob("*.lab")), pre_out / "metrics.csv",
             ft_out / "finetune_metrics.csv", hyps]
    return digest_outputs(root, files, (pre_out / "ckpt_000002.msec", pre_out / "final.msec",
                                        ft_out / "finetuned.msec"))


GATES = "gates/"  # the prefix of the second chain's digests
# One 1-layer encoder of hidden 16 under a 4 x 2048 head: a (16, 8192) head
# weight, above pretrain.ADAM_BLOCK_VALUES, and more than 512 target rows, a
# head row block at V = 2048. The three utterances share one batch of 1077
# padded label frames, above the encoder's 1024-frame split.
GATE_SECONDS = [13.6, 14.0, 14.4]
GATE_MODEL = """
[quantizer]
num_codebooks = 4
vocab_size = 2048

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[datapipe]
num_buckets = 1
tokens_per_batch = 4500
"""


def run_gate_chain(root: Path) -> dict:
    """{``gates/<artefact>``: digest} of the second CLI run under ``root``:
    ``pretrain`` for 2 steps, a ``full`` continuation for 1 step, a
    ``feature_extractor_only`` start for 1 step, and ``finetune`` for 2
    steps from the continuation, the first with the encoder frozen."""
    corpus, transcripts = write_corpus(root, GATE_SECONDS)
    labels = root / "labels"

    def pretrain_config(name, steps):
        path = root / f"{name}.ini"
        path.write_text(f"""
[run]
seed = 3
output_dir = {root / name}

[corpus]
root = {corpus}

[pretrain]
peak_lr = 1e-3
warmup_steps = 2
total_steps = {steps}
checkpoint_every = 100
label_cache_dir = {labels}
{GATE_MODEL}""", encoding="utf-8")
        return str(path)

    ft_cfg = root / "ft.ini"
    ft_cfg.write_text(f"""
[run]
seed = 5
output_dir = {root / 'ft'}

[corpus]
root = {corpus}
transcripts = {transcripts}

[finetune]
checkpoint = {root / 'full' / 'final.msec'}
encoder_lr = 1e-3
decoder_lr = 5e-3
warmup_steps = 5
freeze_steps = 1
total_steps = 2
{GATE_MODEL}""", encoding="utf-8")
    pre, start = pretrain_config("pre", 2), str(root / "pre" / "final.msec")
    for argv in (["quantize", "--config", pre, "--out", str(labels)],
                 ["pretrain", "--config", pre],
                 ["pretrain", "--config", pretrain_config("full", 3),
                  "--init-from", start, "--init-mode", "full"],
                 ["pretrain", "--config", pretrain_config("fe", 1),
                  "--init-from", start, "--init-mode", "feature_extractor_only"],
                 ["finetune", "--config", str(ft_cfg)]):
        assert main(argv) == 0, argv

    runs = ("pre", "full", "fe")
    files = [*sorted(labels.glob("*.lab")), *(root / run / "metrics.csv" for run in runs),
             root / "ft" / "finetune_metrics.csv"]
    return digest_outputs(root, files, [*(root / run / "final.msec" for run in runs),
                                        root / "ft" / "finetuned.msec"], GATES)


def chain(golden: dict, gates: bool) -> dict:
    """``golden`` with the digests of one chain: the gate chain's or the first."""
    return {**golden, "digests": {k: v for k, v in golden["digests"].items()
                                  if k.startswith(GATES) == gates}}


def mismatch(golden: dict, build: dict, digests: dict) -> str | None:
    """Why ``digests`` of a run under ``build`` do not pass against the
    ``golden`` record, or None when they do. A run under another numpy or
    BLAS fails whatever its digests, since equal bits there prove nothing
    about this build."""
    moved = sorted(k for k in golden["digests"].keys() | digests.keys()
                   if golden["digests"].get(k) != digests.get(k))
    recorded = {key: golden.get(key) for key in build}
    problems = []
    if build != recorded:
        problems.append(f"{GOLDEN.name} was written under {recorded}, "
                        f"this run is under {build}")
    if moved:
        problems.append(f"{len(moved)} of {len(golden['digests'])} digests moved: "
                        f"{', '.join(moved[:8])}{', ...' if len(moved) > 8 else ''}")
    return "; ".join(problems) + f". Rewrite the file with `{REWRITE}`." if problems else None


def test_cli_run_matches_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = run_chain(tmp_path)
    capsys.readouterr()
    problem = mismatch(chain(golden, gates=False), build_info(), digests)
    assert problem is None, problem


def test_gate_chain_matches_golden_digests_past_every_gate(tmp_path, capsys, monkeypatch):
    """The second chain's digests, from a run that took the split encoder,
    more than one head row block per codebook, and more than one Adam and
    clipping block of one tensor; a gate moved past the chain's shapes fails
    here, not silently."""
    seen = {"halves": 0, "head": [], "blocks": 0, "adam": 0}
    real_halves, real_head = ad.batch_halves, ad.multi_softmax_nll
    real_xent, real_adam = ad._softmax_xent, pretrain.adam_step

    def halves(*args):
        seen["halves"] += 1
        return real_halves(*args)

    def head(x, w, b, labels, num_codebooks):
        seen["head"].append((len(labels), w.data.shape[1] // num_codebooks, num_codebooks))
        return real_head(x, w, b, labels, num_codebooks)

    def xent(*args):
        seen["blocks"] += 1
        return real_xent(*args)

    def adam(params, *args):
        seen["adam"] = max(seen["adam"], *(p.data.size for p in params.values()))
        return real_adam(params, *args)
    monkeypatch.setattr(ad, "batch_halves", halves)
    monkeypatch.setattr(ad, "multi_softmax_nll", head)
    monkeypatch.setattr(ad, "_softmax_xent", xent)
    monkeypatch.setattr(pretrain, "adam_step", adam)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = run_gate_chain(tmp_path)
    capsys.readouterr()

    # 4 pretrain steps and 2 finetune steps split the batch; each of the 4
    # head calls has more rows than one (rows, 2048) block holds, so every
    # codebook runs in at least 2 blocks
    assert seen["halves"] == 6
    assert len(seen["head"]) == 4
    assert all(rows > ad._HEAD_BLOCK_BYTES // (vocab * 4) and (vocab, codebooks) == (2048, 4)
               for rows, vocab, codebooks in seen["head"])
    assert seen["blocks"] >= 2 * 4 * 4
    assert seen["adam"] == 16 * 4 * 2048 > pretrain.ADAM_BLOCK_VALUES
    frozen = [row.split(",")[4] for row in
              (tmp_path / "ft" / "finetune_metrics.csv").read_text().splitlines()[1:]]
    assert frozen == ["1", "0"]
    problem = mismatch(chain(golden, gates=True), build_info(), digests)
    assert problem is None, problem


def test_another_build_fails_naming_both_builds():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    other = {**build_info(), "blas": "OpenBLAS 0.0 Zen"}
    problem = mismatch(golden, other, golden["digests"])
    assert f"written under {({k: golden[k] for k in other})}" in problem
    assert f"this run is under {other}" in problem
    assert "moved" not in problem and problem.endswith(f"`{REWRITE}`.")
    moved = {**golden["digests"], "hyps.tsv": "0" * 16}
    problem = mismatch(golden, build_info(), moved)
    assert problem.startswith(f"1 of {len(moved)} digests moved: hyps.tsv.")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as gate_tmp:
        digests = {**run_chain(Path(tmp)), **run_gate_chain(Path(gate_tmp))}
    GOLDEN.write_text(json.dumps({**build_info(), "digests": digests}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
