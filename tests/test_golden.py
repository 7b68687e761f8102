"""End-to-end bytes of a CLI run, pinned against tests/golden_digests.json.

One run of ``quantize`` -> ``pretrain`` (reading the label cache) ->
``finetune`` (``freeze_steps = 2``) -> ``decode --beam 8`` on a three-utterance
corpus. Each ``.lab`` file, each metrics CSV, each tensor of each checkpoint
and the transcripts has its own digest, so a failure names what moved.

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


def run_chain(root: Path) -> dict:
    """{artefact name: digest} of one CLI run under ``root``; a tensor is
    named ``<checkpoint>:<tensor>``."""
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(0)
    for i, seconds in enumerate([0.6, 0.8, 1.0]):
        frontend.write_wav(corpus / f"utt{i:02d}.wav", make_speechlike(rng, seconds), 16000)
    transcripts = root / "transcripts.tsv"
    transcripts.write_text("".join(f"{k}\t{v}\n" for k, v in TEXTS.items()), encoding="utf-8")
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
    digests = {str(p.relative_to(root)): digest(p.read_bytes()) for p in files}
    for ckpt in (pre_out / "ckpt_000002.msec", pre_out / "final.msec",
                 ft_out / "finetuned.msec"):
        _, tensors = pretrain.read_checkpoint(ckpt)
        for name in sorted(tensors):
            digests[f"{ckpt.relative_to(root)}:{name}"] = digest(tensors[name].tobytes())
    return digests


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
    problem = mismatch(golden, build_info(), digests)
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
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp))
    GOLDEN.write_text(json.dumps({**build_info(), "digests": digests}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
