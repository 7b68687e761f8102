"""A seeded contract fuzzer for ``cli.main``: two faults at a time.

``test_cli_bad_inputs`` corrupts one input per case. Here each case draws,
with ``random.Random(seed)``, two of its corruption tables (checkpoint,
transcripts, manifest, config, label cache, WAV), one corruption from each,
and a command that reads both inputs. The command runs on copies of intact
inputs that carry the two faults, and the case asserts the contract:

- ``main`` returns 0, 1 or 2, and no exception escapes it;
- every line on stderr starts with ``error:`` or ``warning:``;
- the run leaves no output, or output that loads: a training run's final
  checkpoint, ``quantize``'s label files, and ``decode``'s transcripts
  only when it exits 0.

Warnings print as the installed command prints them, rather than raising as
elsewhere in the tests. Time budget: 15 s of tier-1; the 120 seeds take
about 3 s on a 2-vCPU machine.
"""

import random

import pytest

from rqspeech import pretrain, quantizer
from rqspeech.cli import main

from test_cli import write_pretrain_config
from test_cli_bad_inputs import (CHECKPOINT_CORRUPTIONS, CONFIG_CORRUPTIONS,
                                 GOOD_TRANSCRIPTS, LABEL_CACHE_CORRUPTIONS,
                                 MANIFEST_CORRUPTIONS, TRAINING_TRANSCRIPT_CORRUPTIONS,
                                 TRANSCRIPT_CORRUPTIONS, WAV_CORRUPTIONS, _finetune_config)
from test_cli_bad_inputs import inputs, label_caches  # noqa: F401  the cases' fixtures

TABLES = {
    "checkpoint": CHECKPOINT_CORRUPTIONS,
    "config": CONFIG_CORRUPTIONS,
    "lab": LABEL_CACHE_CORRUPTIONS,
    "manifest": MANIFEST_CORRUPTIONS,
    "transcripts": {**TRANSCRIPT_CORRUPTIONS, **TRAINING_TRANSCRIPT_CORRUPTIONS},
    "wav": WAV_CORRUPTIONS,
}
# command -> the inputs it reads; the corpus comes through the manifest
READS = {
    "decode": {"checkpoint", "manifest", "wav"},
    "finetune": {"checkpoint", "config", "manifest", "transcripts", "wav"},
    "pretrain": {"checkpoint", "config", "lab", "manifest", "wav"},
    "quantize": {"config", "manifest", "wav"},
}
SEEDS = range(120)
# FOUND: configparser's message for a config line before any section header
# spans three lines, and ``load_config`` passes it on whole, so two of the
# three lines on stderr start with neither ``error:`` nor ``warning:``
MULTI_LINE_ERRORS = {("config", "no_section_header")}


def draw(seed):
    """(command, {input: corruption name}) of case ``seed``."""
    rng = random.Random(seed)
    while True:
        kinds = sorted(rng.sample(sorted(TABLES), 2))
        commands = [c for c in sorted(READS) if READS[c].issuperset(kinds)]
        if commands:
            return rng.choice(commands), {k: rng.choice(sorted(TABLES[k])) for k in kinds}


def build(command, faults, inputs, label_caches, tmp):
    """argv of ``command`` on copies in ``tmp`` of the intact inputs with
    ``faults``; the pretrain config writes to ``tmp/out``, as the finetune one does."""
    corpus = inputs["corpus"]
    good_manifest = inputs["manifest"].read_text(encoding="utf-8")
    if "wav" in faults:
        bad = tmp / "bad.wav"
        bad.write_bytes(WAV_CORRUPTIONS[faults["wav"]]((corpus / "utt01.wav").read_bytes()))
        good_manifest = good_manifest.replace(str(corpus / "utt01.wav"), str(bad))
    manifest = tmp / "manifest.tsv"
    if "manifest" in faults:
        MANIFEST_CORRUPTIONS[faults["manifest"]](manifest, good_manifest)
    else:
        manifest.write_text(good_manifest, encoding="utf-8")

    ckpt = tmp / "ckpt.msec"
    raw = inputs["finetune" if command == "decode" else "pretrain"]
    if "checkpoint" in faults:
        CHECKPOINT_CORRUPTIONS[faults["checkpoint"]](ckpt, raw)
    else:
        ckpt.write_bytes(raw)

    transcripts = tmp / "transcripts.tsv"
    if "transcripts" in faults:
        TABLES["transcripts"][faults["transcripts"]](transcripts)
    else:
        transcripts.write_bytes(GOOD_TRANSCRIPTS)

    cache = ""
    if "lab" in faults:
        cache = tmp / "cache"
        cache.mkdir()
        corrupt = LABEL_CACHE_CORRUPTIONS[faults["lab"]]
        for name, lab in label_caches.items():
            (cache / name).write_bytes(corrupt(lab) if name == "utt01.lab" else lab)

    good_ini = tmp / "good.ini"
    if command == "finetune":
        _finetune_config(good_ini, {**inputs, "transcripts": transcripts}, ckpt, tmp / "out")
    else:
        write_pretrain_config(good_ini, corpus, tmp / "out", total_steps=2,
                              label_cache_dir=cache)
    good_text = good_ini.read_text(encoding="utf-8").replace(
        f"root = {corpus}", f"manifest = {manifest}")
    ini = tmp / "c.ini"
    if "config" in faults:
        CONFIG_CORRUPTIONS[faults["config"]](ini, good_text)
    else:
        ini.write_text(good_text, encoding="utf-8")

    return {
        "decode": ["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                   "--out", str(tmp / "hyp.tsv")],
        "finetune": ["finetune", "--config", str(ini)],
        "pretrain": ["pretrain", "--config", str(ini),
                     *(["--init-from", str(ckpt), "--init-mode", "full"]
                       if "checkpoint" in faults else [])],
        "quantize": ["quantize", "--config", str(ini), "--out", str(tmp / "labels")],
    }[command]


def assert_outputs_usable(command, code, tmp):
    assert not list(tmp.rglob("*.tmp"))
    if command in ("pretrain", "finetune"):
        out = tmp / "out"
        if out.exists():
            pretrain.read_checkpoint(out / ("final.msec" if command == "pretrain"
                                            else "finetuned.msec"))
    elif command == "quantize":
        for lab in (tmp / "labels").glob("*.lab"):
            quantizer.read_label_cache(lab)
    else:
        assert (tmp / "hyp.tsv").exists() == (code == 0)


def _case_id(seed):
    command, faults = draw(seed)
    return f"{seed}-{command}-" + "-".join(f"{k}:{v}" for k, v in faults.items())


def _case(seed):
    found = MULTI_LINE_ERRORS.intersection(draw(seed)[1].items())
    return pytest.param(seed, id=_case_id(seed), marks=[
        pytest.mark.xfail(strict=True, reason="FOUND: multi-line config parse error")
    ] if found else [])


@pytest.mark.filterwarnings("always")
@pytest.mark.parametrize("seed", [_case(seed) for seed in SEEDS])
def test_two_faults_keep_the_exit_contract(inputs, label_caches, tmp_path, capsys, seed):
    command, faults = draw(seed)
    argv = build(command, faults, inputs, label_caches, tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines()), err
    assert_outputs_usable(command, code, tmp_path)


def test_draws_cover_every_table_and_command():
    drawn = [draw(seed) for seed in SEEDS]
    assert {command for command, _ in drawn} == set(READS)
    assert {kind for _, faults in drawn for kind in faults} == set(TABLES)
