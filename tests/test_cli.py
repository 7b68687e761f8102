import configparser
import csv
import dataclasses
import errno
import inspect
import io
import os
import pathlib
import signal
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from rqspeech import config as cfgmod
from rqspeech import (cli, datapipe, encoder, finetune, frontend, masking, parallel, pretrain,
                      quantizer, records)
from rqspeech.cli import main

from conftest import blas_threads, make_speechlike, rewrite_checkpoint_header


def write_corpus(root, durations, seed=0):
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i, seconds in enumerate(durations):
        frontend.write_wav(root / f"utt{i:02d}.wav", make_speechlike(rng, seconds), 16000)


def write_pretrain_config(path, corpus, out_dir, seed=3, total_steps=4,
                          label_cache_dir=""):
    path.write_text(f"""
[run]
seed = {seed}
output_dir = {out_dir}

[corpus]
root = {corpus}

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

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
total_steps = {total_steps}
checkpoint_every = 2
label_cache_dir = {label_cache_dir}

[datapipe]
num_buckets = 2
tokens_per_batch = 400
""", encoding="utf-8")


def truncate_after_step(monkeypatch, module, step_fn, step, wav, samples=None):
    """Patch ``module.<step_fn>`` to cut ``wav`` to 30 bytes, or with
    ``samples`` to a WAV of that many samples, once the run has completed
    ``step`` steps, so a later batch finds it unreadable or too short."""
    real = getattr(module, step_fn)

    def patched(state, *args):
        out = real(state, *args)
        if state.step == step and samples is None:
            wav.write_bytes(wav.read_bytes()[:30])
        elif state.step == step:
            frontend.write_wav(wav, np.zeros(samples), 16000)
        return out

    monkeypatch.setattr(module, step_fn, patched)


def raise_after_step(monkeypatch, module, step_fn, step, error):
    """Patch ``module.<step_fn>`` to raise ``error`` once the run has
    completed ``step`` steps, as a step that fails before its update does."""
    real = getattr(module, step_fn)

    def patched(state, *args):
        if state.step == step:
            raise error
        return real(state, *args)

    monkeypatch.setattr(module, step_fn, patched)


def metric_steps(path):
    """The step column of a metrics CSV, after checking its single header."""
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("step,loss,")
    return [int(line.split(",")[0]) for line in lines[1:]]


def full_disk():
    """The OSError a write meets on a full disk."""
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# the config.ini a run writes with every key at its default, byte for byte;
# a key with an empty value is written "key = ", with a trailing space
DEFAULT_CONFIG_INI = """\
[run]
seed = 0
output_dir =

[corpus]
root =
manifest =
transcripts =

[encoder]
num_layers = 4
hidden = 64
ffn = 256
heads = 4
conv_kernel = 5
dropout = 0.0

[quantizer]
num_codebooks = 32
vocab_size = 2048
dim = 16

[masking]
prob = 0.4
span_frames = 40
noise_mean = 0.0
noise_std = 0.1

[pretrain]
peak_lr = 0.0008
warmup_steps = 4000
total_steps = 1000
checkpoint_every = 500
label_cache_dir =

[datapipe]
num_buckets = 6
tokens_per_batch = 16000
workers = 1

[finetune]
checkpoint =
encoder_lr = 0.0002
decoder_lr = 0.002
warmup_steps = 1000
freeze_steps = 1500
total_steps = 1000
time_masks = 2
max_time_width = 80
time_apply_prob = 0.2
freq_masks = 2
max_freq_width = 27

""".replace(" =\n", " = \n")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseeed = 3\n")
        with pytest.raises(cfgmod.ConfigError, match="run.seeed"):
            cfgmod.load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nx = 1\n")
        with pytest.raises(cfgmod.ConfigError, match="training"):
            cfgmod.load_config(path)

    def test_type_error_names_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[encoder]\nhidden = lots\n")
        with pytest.raises(cfgmod.ConfigError, match="encoder.hidden"):
            cfgmod.load_config(path)

    def test_effective_config_round_trips(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 7\n[encoder]\ndropout = 0.1\n")
        cfg = cfgmod.load_config(path)
        out = tmp_path / "effective.ini"
        cfgmod.write_config(cfg, out)
        again = cfgmod.load_config(out)
        assert again.values == cfg.values

    def test_schema_defaults_equal_program_defaults(self):
        # a run with no config file gets what the typed configs and the data
        # pipeline default to
        cfg = cfgmod.default_config()
        assert cfg.encoder_config() == encoder.EncoderConfig()
        assert cfg.quantizer_config() == quantizer.QuantizerConfig()
        assert cfg.mask_config() == masking.MaskConfig()
        assert cfg.pretrain_config() == pretrain.PretrainConfig()
        assert cfg.finetune_config() == finetune.FinetuneConfig()
        workers = inspect.signature(datapipe.iter_epoch).parameters["workers"].default
        assert cfg["datapipe"] == {"num_buckets": datapipe.DEFAULT_NUM_BUCKETS,
                                   "tokens_per_batch": datapipe.DEFAULT_TOKENS_PER_BATCH,
                                   "workers": workers}

    def test_written_default_config_is_pinned(self, tmp_path):
        # sections, key order and float repr of every run's config.ini
        path = tmp_path / "c.ini"
        cfgmod.write_config(cfgmod.default_config(), path)
        assert path.read_bytes() == DEFAULT_CONFIG_INI.encode("utf-8")

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 7\n")
        monkeypatch.setenv(cfgmod.SEED_ENV_VAR, "42")
        assert cfgmod.load_config(path).seed == 42

    def test_non_integer_seed_env_exit_2(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        monkeypatch.setenv("RQSPEECH_SEED", "abc")
        assert main(["pretrain", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: RQSPEECH_SEED must be an integer, got 'abc'\n"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, key, value, message", [
        ("pretrain", "encoder", "heads", "3", "[encoder] hidden must be divisible by heads"),
        ("inspect", "encoder", "heads", "3", "[encoder] hidden must be divisible by heads"),
        ("inspect", "encoder", "heads", "0", "[encoder] heads must be >= 1"),
        ("pretrain", "encoder", "hidden", "0", "[encoder] hidden must be >= 1"),
        ("pretrain", "encoder", "num_layers", "0", "[encoder] num_layers must be >= 1"),
        ("pretrain", "encoder", "ffn", "0", "[encoder] ffn must be >= 1"),
        ("pretrain", "encoder", "conv_kernel", "-1", "[encoder] conv_kernel must be >= 1"),
        ("pretrain", "encoder", "dropout", "1.0", "[encoder] dropout must be in [0, 1)"),
        ("pretrain", "encoder", "dropout", "-0.1", "[encoder] dropout must be in [0, 1)"),
        ("pretrain", "masking", "prob", "1.5", "[masking] prob must be in [0, 1]"),
        ("pretrain", "pretrain", "peak_lr", "0", "[pretrain] peak_lr must be positive"),
        ("pretrain", "quantizer", "num_codebooks", "0", "[quantizer] num_codebooks must be >= 1"),
        ("quantize", "quantizer", "num_codebooks", "0", "[quantizer] num_codebooks must be >= 1"),
        ("finetune", "finetune", "encoder_lr", "0", "[finetune] learning rates must be positive"),
        ("finetune", "finetune", "warmup_steps", "0", "[finetune] warmup_steps must be >= 1"),
        ("finetune", "finetune", "max_freq_width", "-2",
         "[finetune] mask counts and widths must be >= 0"),
        ("finetune", "finetune", "time_masks", "-1",
         "[finetune] mask counts and widths must be >= 0"),
        ("finetune", "finetune", "time_apply_prob", "1.5",
         "[finetune] time_apply_prob must be in [0, 1]"),
        ("finetune", "finetune", "time_masks", "3999",
         "[finetune] time_masks must be <= 3998, the frames of a 40 s utterance"),
        ("finetune", "finetune", "freq_masks", "81",
         "[finetune] freq_masks must be <= 80, the Mel bins of a frame"),
        ("quantize", "quantizer", "vocab_size", "70000",
         "[quantizer] vocab_size 70000 exceeds the label cache format's 65536"),
        ("pretrain", "quantizer", "vocab_size", "65537",
         "[quantizer] vocab_size 65537 exceeds the label cache format's 65536"),
        ("pretrain", "datapipe", "num_buckets", "0", 'key "datapipe.num_buckets" must be >= 1'),
        ("pretrain", "pretrain", "checkpoint_every", "0",
         'key "pretrain.checkpoint_every" must be >= 1'),
    ])
    def test_invalid_value_exit_2_before_output(self, tmp_path, capsys, command, section,
                                                key, value, message):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(path, corpus, out_dir)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path, encoding="utf-8")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
        with open(path, "w", encoding="utf-8") as f:
            parser.write(f)
        extra = ["--out", str(tmp_path / "cache")] if command == "quantize" else []
        assert main([command, "--config", str(path), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not (out_dir / "config.ini").exists()
        assert not (tmp_path / "cache").exists()


class TestPretrainCommand:
    def test_missing_corpus_root_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[run]\noutput_dir = out\n")
        assert main(["pretrain", "--config", str(path)]) == 2
        assert 'corpus.root' in capsys.readouterr().err

    def test_init_mode_requires_init_from(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        code = main(["pretrain", "--config", str(path),
                     "--init-mode", "feature_extractor_only"])
        assert code == 2
        assert "--init-from" in capsys.readouterr().err

    def test_init_from_requires_init_mode(self, tmp_path, capsys):
        # under the default --init-mode none the checkpoint would be ignored
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        code = main(["pretrain", "--config", str(path),
                     "--init-from", str(tmp_path / "missing.msec")])
        assert code == 2
        assert "--init-mode full or feature_extractor_only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("layers, codebooks, vocab, named", [
        (2, 2, 32, "num_layers 2 (run: 1)"),
        # the run's 2 x 32 head outputs, read as 4 codebooks of 16
        (1, 4, 16, "num_codebooks 4 (run: 2), vocab_size 16 (run: 32)"),
    ])
    def test_full_init_from_another_model_exit_1(self, tmp_path, capsys, layers, codebooks,
                                                 vocab, named):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        cfg = cfgmod.load_config(path)
        other = pretrain.PretrainConfig(quantizer=quantizer.QuantizerConfig(codebooks, vocab, 4))
        ckpt = tmp_path / "other.msec"
        pretrain.save_checkpoint(pretrain.init_train_state(
            dataclasses.replace(cfg.encoder_config(), num_layers=layers), other), ckpt)
        code = main(["pretrain", "--config", str(path), "--init-from", str(ckpt),
                     "--init-mode", "full"])
        assert code == 1
        assert f"checkpoint {ckpt} holds another model: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def manifest_config(tmp_path, duration):
        """Config whose one-line manifest gives ``duration``; pretrain and finetune read it."""
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"utt00\t{corpus / 'utt00.wav'}\t{duration}\n")
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"\n[finetune]\ncheckpoint = {tmp_path / 'p.msec'}\n")
        path.write_text(path.read_text().replace(
            f"root = {corpus}", f"manifest = {manifest}\ntranscripts = {tmp_path / 't.tsv'}"))
        return path

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_manifest_duration_exit_2_before_output(self, tmp_path, capsys,
                                                               command, duration):
        path = self.manifest_config(tmp_path, duration)
        assert main([command, "--config", str(path)]) == 2
        assert "manifest.tsv:1: duration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_non_numeric_manifest_duration_exit_2_before_output(self, tmp_path, capsys,
                                                                command):
        path = self.manifest_config(tmp_path, "abc")
        assert main([command, "--config", str(path)]) == 2
        assert "manifest.tsv:1: duration 'abc' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_of_only_short_entries_exit_2(self, tmp_path, capsys):
        path = self.manifest_config(tmp_path, "0.2")
        assert main(["pretrain", "--config", str(path)]) == 2
        assert "corpus contains no usable utterances" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_finetune_manifest_of_only_short_entries_exit_2(self, tmp_path, capsys):
        # transcripts and a checkpoint that fit: the corpus is all that is wrong
        path = self.manifest_config(tmp_path, "0.2")
        (tmp_path / "t.tsv").write_text("utt00\tab\n", encoding="utf-8")
        cfg = cfgmod.load_config(path)
        pretrain.save_checkpoint(pretrain.init_train_state(cfg.encoder_config(),
                                                           cfg.pretrain_config()),
                                 tmp_path / "p.msec")
        assert main(["finetune", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: corpus contains no usable utterances\n"
        assert not (tmp_path / "out").exists()

    def test_quantize_manifest_of_only_short_entries_exit_0(self, tmp_path, capsys):
        path = self.manifest_config(tmp_path, "0.2")
        labels = tmp_path / "labels"
        assert main(["quantize", "--config", str(path), "--out", str(labels)]) == 0
        assert capsys.readouterr().out == f"quantize done: 0 label files in {labels}\n"
        assert list(labels.iterdir()) == []

    @staticmethod
    def guard_steps(monkeypatch, limit):
        """Make ``pretrain.train_step`` raise after ``limit`` calls, so a run
        that loops without end fails instead of hanging."""
        real, calls = pretrain.train_step, []

        def guarded(state, *args):
            calls.append(state.step)
            if len(calls) > limit:
                raise AssertionError(f"train_step called {len(calls)} times")
            return real(state, *args)
        monkeypatch.setattr(pretrain, "train_step", guarded)
        return calls

    def write_mask_prob_config(self, tmp_path, prob):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out")
        path.write_text(path.read_text().replace("prob = 0.4", f"prob = {prob}"))
        return path

    def test_zero_mask_prob_exit_2_before_output(self, tmp_path, capsys, monkeypatch):
        calls = self.guard_steps(monkeypatch, 0)
        path = self.write_mask_prob_config(tmp_path, "0")
        assert main(["pretrain", "--config", str(path)]) == 2
        assert "[masking] prob must be > 0" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_epoch_without_update_saves_and_exits_1(self, tmp_path, capsys, monkeypatch):
        # at this prob no utterance draws a mask start, so no batch has a target
        calls = self.guard_steps(monkeypatch, 50)
        path = self.write_mask_prob_config(tmp_path, "1e-300")
        assert main(["pretrain", "--config", str(path)]) == 1
        assert "epoch 0 made no update" in capsys.readouterr().err
        assert 0 < len(calls) <= 2 and set(calls) == {0}
        assert metric_steps(tmp_path / "out" / "metrics.csv") == []
        header, _ = pretrain.read_checkpoint(tmp_path / "out" / "final.msec")
        assert header["step"] == 0

    def test_smoke_produces_artifacts(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir)
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        assert (out_dir / "final.msec").is_file()
        assert (out_dir / "ckpt_000002.msec").is_file()
        assert (out_dir / "config.ini").is_file()
        lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("step,loss")
        assert len(lines) == 5  # header + 4 steps

    def test_merged_buckets_warn_in_one_plain_line(self, tmp_path, capsys):
        # equal durations give both buckets one edge
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [1.0, 1.0, 1.0])
        cfg_path = tmp_path / "c.ini"
        write_pretrain_config(cfg_path, corpus, tmp_path / "out", total_steps=1)
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines().count("warning: merged 1 degenerate buckets") == 1
        assert "UserWarning" not in err and "datapipe.py" not in err

    def test_init_from_full_resumes_step(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cfg_path = tmp_path / "c.ini"
        out1 = tmp_path / "out1"
        write_pretrain_config(cfg_path, corpus, out1, total_steps=2)
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        header, _ = pretrain.read_checkpoint(out1 / "final.msec")
        assert header["step"] == 2
        cfg2 = tmp_path / "c2.ini"
        out2 = tmp_path / "out2"
        write_pretrain_config(cfg2, corpus, out2, total_steps=4)
        assert main(["pretrain", "--config", str(cfg2),
                     "--init-from", str(out1 / "final.msec"),
                     "--init-mode", "full"]) == 0
        header2, _ = pretrain.read_checkpoint(out2 / "final.msec")
        assert header2["step"] == 4

    def test_fresh_rerun_replaces_metrics(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=3)
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        first = (out_dir / "metrics.csv").read_text()
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        header, _ = pretrain.read_checkpoint(out_dir / "final.msec")
        assert metric_steps(out_dir / "metrics.csv") == list(range(1, header["step"] + 1))
        assert (out_dir / "metrics.csv").read_text() == first

    def test_prefetch_workers_do_not_change_outputs(self, tmp_path):
        # prefetch threads call BLAS in log_mel while the head maps on the
        # pool; features, metrics and checkpoints must not notice
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2, 0.8])
        outputs = []
        for workers in (1, 2):
            cfg_path = tmp_path / f"w{workers}.ini"
            out_dir = tmp_path / f"out{workers}"
            write_pretrain_config(cfg_path, corpus, out_dir)
            with open(cfg_path, "a", encoding="utf-8") as f:
                f.write(f"workers = {workers}\n")
            assert main(["pretrain", "--config", str(cfg_path)]) == 0
            # the header differs only in run_config (workers, output_dir)
            raw = (out_dir / "final.msec").read_bytes()
            (header_len,) = struct.unpack("<I", raw[8:12])
            outputs.append(((out_dir / "metrics.csv").read_bytes(), raw[12 + header_len:]))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(parallel.openblas_threads() is None or parallel.cores() < 2,
                        reason="needs numpy's OpenBLAS and two usable cores")
    def test_outputs_do_not_depend_on_the_starting_blas_count(self, tmp_path):
        # an unsplit batch of 4 x 5 s, whose weight gradients differ in the
        # last bits at two OpenBLAS threads; the run holds one thread, so a
        # process started on two cores writes the bytes of one started on one
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [5.0] * 4)
        outputs = []
        for threads in (2, 1):
            cfg_path = tmp_path / f"b{threads}.ini"
            out_dir = tmp_path / f"out{threads}"
            write_pretrain_config(cfg_path, corpus, out_dir, total_steps=2)
            cfg_path.write_text(cfg_path.read_text().replace(
                "tokens_per_batch = 400", "tokens_per_batch = 2400"))
            with blas_threads(threads):  # as in a process started on that many cores
                parallel.hold_one_blas_thread.cache_clear()
                assert main(["pretrain", "--config", str(cfg_path)]) == 0
            raw = (out_dir / "final.msec").read_bytes()
            (header_len,) = struct.unpack("<I", raw[8:12])
            outputs.append(((out_dir / "metrics.csv").read_bytes(), raw[12 + header_len:]))
        assert outputs[0] == outputs[1]

    def test_full_continuation_appends_metrics(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        out_dir = tmp_path / "out"
        first = tmp_path / "first.ini"
        write_pretrain_config(first, corpus, out_dir, total_steps=2)
        assert main(["pretrain", "--config", str(first)]) == 0
        second = tmp_path / "second.ini"
        write_pretrain_config(second, corpus, out_dir, total_steps=5)
        assert main(["pretrain", "--config", str(second),
                     "--init-from", str(out_dir / "final.msec"),
                     "--init-mode", "full"]) == 0
        header, _ = pretrain.read_checkpoint(out_dir / "final.msec")
        assert header["step"] == 5
        assert metric_steps(out_dir / "metrics.csv") == [1, 2, 3, 4, 5]

    def test_resume_from_earlier_checkpoint_drops_later_rows(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=4)
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        first = (out_dir / "metrics.csv").read_text().splitlines()
        assert main(["pretrain", "--config", str(cfg_path),
                     "--init-from", str(out_dir / "ckpt_000002.msec"),
                     "--init-mode", "full"]) == 0
        assert metric_steps(out_dir / "metrics.csv") == [1, 2, 3, 4]
        assert (out_dir / "metrics.csv").read_text().splitlines()[:3] == first[:3]

    def test_unreadable_wav_mid_run_saves_final_and_exits_1(self, tmp_path, capsys,
                                                            monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=50)
        truncate_after_step(monkeypatch, pretrain, "train_step", 2, corpus / "utt01.wav")
        assert main(["pretrain", "--config", str(cfg_path)]) == 1
        assert "utterance utt01 unreadable" in capsys.readouterr().err
        rows = (out_dir / "metrics.csv").read_text().strip().splitlines()[1:]
        cfg = cfgmod.load_config(cfg_path)
        state = pretrain.load_checkpoint(out_dir / "final.msec", "full",
                                         cfg.encoder_config(), cfg.pretrain_config())
        assert 2 <= state.step == len(rows) < 50

    @pytest.mark.parametrize("samples", [300, 1000])
    def test_short_wav_mid_run_saves_final_and_exits_1(self, tmp_path, capsys,
                                                       monkeypatch, samples):
        # the manifest declares 0.9 s, the file later holds too few samples
        # for one Mel frame (300) or for the encoder's 8 input frames (1000)
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"utt{i:02d}\t{corpus / f'utt{i:02d}.wav'}\t{d}\n"
                                    for i, d in enumerate([0.6, 0.9, 1.2])))
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=50)
        cfg_path.write_text(cfg_path.read_text().replace(f"root = {corpus}",
                                                         f"manifest = {manifest}"))
        truncate_after_step(monkeypatch, pretrain, "train_step", 2, corpus / "utt01.wav",
                            samples)
        assert main(["pretrain", "--config", str(cfg_path)]) == 1
        assert "utterance utt01 at " in capsys.readouterr().err
        rows = (out_dir / "metrics.csv").read_text().strip().splitlines()[1:]
        cfg = cfgmod.load_config(cfg_path)
        state = pretrain.load_checkpoint(out_dir / "final.msec", "full",
                                         cfg.encoder_config(), cfg.pretrain_config())
        assert 2 <= state.step == len(rows) < 50

    def test_non_finite_loss_mid_run_saves_final_and_exits_1(self, tmp_path, capsys,
                                                             monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=50)
        raise_after_step(monkeypatch, pretrain, "train_step", 2,
                         pretrain.NonFiniteLossError("non-finite loss at step 3: nan"))
        assert main(["pretrain", "--config", str(cfg_path)]) == 1
        assert "non-finite loss at step 3" in capsys.readouterr().err
        rows = (out_dir / "metrics.csv").read_text().strip().splitlines()[1:]
        cfg = cfgmod.load_config(cfg_path)
        state = pretrain.load_checkpoint(out_dir / "final.msec", "full",
                                         cfg.encoder_config(), cfg.pretrain_config())
        assert state.step == len(rows) == 2

    def test_corrupt_label_cache_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "utt00.lab").write_bytes(b"garbage!")
        cfg = tmp_path / "c.ini"
        write_pretrain_config(cfg, corpus, tmp_path / "out", label_cache_dir=cache)
        assert main(["pretrain", "--config", str(cfg)]) == 1
        assert "utt00.lab" in capsys.readouterr().err

    # (2, 16): every label also fits under the run's 32, but names another codeword
    @pytest.mark.parametrize("codebooks, vocab", [(8, 32), (2, 64), (2, 16)])
    def test_label_cache_of_another_quantizer_exit_1(self, tmp_path, capsys,
                                                     codebooks, vocab):
        # the run's quantizer has 2 codebooks of 32 labels
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        cache.mkdir()
        labels = np.random.default_rng(0).integers(0, vocab, size=(14, codebooks))
        labels[0, 0] = vocab - 1
        records.write_label_cache(cache / "utt01.lab", labels, vocab)
        cfg = tmp_path / "c.ini"
        write_pretrain_config(cfg, corpus, tmp_path / "out", label_cache_dir=cache)
        assert main(["pretrain", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "utt01.lab" in err and "2 codebooks of 32 labels" in err
        assert f"{codebooks} codebooks of {vocab} labels" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", [5, 60])
    def test_label_cache_of_another_length_saves_and_exits_1(self, tmp_path, capsys, rows):
        # utt01 (0.9 s) has 22 label frames; 5 rows ran off the end of the
        # cache mid-run, 60 rows trained silently on the wrong targets
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        cache.mkdir()
        labels = np.random.default_rng(0).integers(0, 32, size=(rows, 2))
        records.write_label_cache(cache / "utt01.lab", labels, 32)
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir, total_steps=50,
                              label_cache_dir=cache)
        assert main(["pretrain", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"utterance utt01 has {rows} label frames, its audio has 22" in err
        rows_written = (out_dir / "metrics.csv").read_text().strip().splitlines()[1:]
        cfg = cfgmod.load_config(cfg_path)
        state = pretrain.load_checkpoint(out_dir / "final.msec", "full",
                                         cfg.encoder_config(), cfg.pretrain_config())
        assert state.step == len(rows_written) < 50


    # the file in the way -> (the checkpoint saved at the end, its step)
    BLOCKED_WRITES = {"ckpt_000002.msec": ("final.msec", 2),
                      "metrics.csv": ("final.msec", 0),
                      "final.msec": ("ckpt_000004.msec", 4)}

    @pytest.mark.parametrize("blocked", BLOCKED_WRITES)
    def test_failed_write_saves_and_exits_2(self, tmp_path, capsys, blocked):
        # a directory in the way stops the run, which saves where it still
        # can and names the file it could not write
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.8, 1.0, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir)
        (out_dir / blocked).mkdir(parents=True)
        assert main(["pretrain", "--config", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: cannot write {out_dir / blocked}: Is a directory\n"
        assert out == ""
        saved, step = self.BLOCKED_WRITES[blocked]
        header, _ = pretrain.read_checkpoint(out_dir / saved)
        assert header["step"] == step
        if blocked != "metrics.csv":
            assert metric_steps(out_dir / "metrics.csv")[-1] == step
        assert not list(out_dir.glob("*.tmp"))


    def test_failed_metrics_row_names_it_and_the_saved_step(self, tmp_path, capsys,
                                                            monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.8, 1.0, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir)
        real = pretrain.MetricsWriter.write

        def full_disk_at_step_2(writer, m):
            if m.step == 2:
                raise full_disk()
            real(writer, m)
        monkeypatch.setattr(pretrain.MetricsWriter, "write", full_disk_at_step_2)
        assert main(["pretrain", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out_dir / 'metrics.csv'}: No space left on device; "
            "it lacks the row of step 2, which final.msec holds\n")
        assert metric_steps(out_dir / "metrics.csv") == [1]
        assert pretrain.read_checkpoint(out_dir / "final.msec")[0]["step"] == 2

    def test_failed_final_save_prints_after_the_run_error(self, tmp_path, capsys,
                                                          monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.8, 1.0, 1.2])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir)
        (out_dir / "final.msec").mkdir(parents=True)
        raise_after_step(monkeypatch, pretrain, "train_step", 1,
                         pretrain.NonFiniteLossError("step 2: non-finite loss"))
        assert main(["pretrain", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: step 2: non-finite loss\n"
            f"error: cannot write {out_dir / 'final.msec'}: Is a directory\n")
        assert metric_steps(out_dir / "metrics.csv") == [1]
        assert not list(out_dir.glob("*.tmp"))

    def test_config_failing_midway_keeps_previous_file(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.8])
        cfg_path = tmp_path / "c.ini"
        out_dir = tmp_path / "out"
        write_pretrain_config(cfg_path, corpus, out_dir)
        out_dir.mkdir()
        (out_dir / "config.ini").write_bytes(b"[run]\nseed = 1\n")
        real = configparser.ConfigParser.write

        def half_then_full_disk(parser, f, *args):
            text = io.StringIO()
            real(parser, text, *args)
            f.write(text.getvalue()[:len(text.getvalue()) // 2])
            raise full_disk()
        monkeypatch.setattr(configparser.ConfigParser, "write", half_then_full_disk)
        assert main(["pretrain", "--config", str(cfg_path)]) == 2
        assert (out_dir / "config.ini").read_bytes() == b"[run]\nseed = 1\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["config.ini"]
        assert capsys.readouterr().err == (
            f"error: cannot write {out_dir / 'config.ini'}: No space left on device\n")


class TestQuantizeCommand:
    def test_writes_one_file_per_utterance_deterministically(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.5, 0.8, 1.1])
        cfg_path = tmp_path / "c.ini"
        write_pretrain_config(cfg_path, corpus, tmp_path / "out")
        cache1 = tmp_path / "cache1"
        cache2 = tmp_path / "cache2"
        assert main(["quantize", "--config", str(cfg_path), "--out", str(cache1)]) == 0
        assert main(["quantize", "--config", str(cfg_path), "--out", str(cache2)]) == 0
        files1 = sorted(cache1.glob("*.lab"))
        assert len(files1) == 3
        for f1 in files1:
            assert f1.read_bytes() == (cache2 / f1.name).read_bytes()

    def test_non_finite_features_exit_1(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.5, 0.8])
        cfg_path = tmp_path / "c.ini"
        write_pretrain_config(cfg_path, corpus, tmp_path / "out")
        real = frontend.log_mel

        def poisoned(w):
            mel = real(w)
            if w.duration > 0.6:
                mel[9, 3] = np.nan
            return mel

        monkeypatch.setattr(frontend, "log_mel", poisoned)
        assert main(["quantize", "--config", str(cfg_path), "--out",
                     str(tmp_path / "cache")]) == 1
        assert "utterance utt01: Mel frame 9 is not finite" in capsys.readouterr().err

    @staticmethod
    def ids_config(tmp_path, ids, label_cache_dir=""):
        """Config whose manifest lists one 0.6 s WAV under each of ``ids``."""
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"{utt_id}\t{corpus / 'utt00.wav'}\t0.6\n"
                                    for utt_id in ids), encoding="utf-8")
        path = tmp_path / "c.ini"
        write_pretrain_config(path, corpus, tmp_path / "out", label_cache_dir=label_cache_dir)
        path.write_text(path.read_text().replace(f"root = {corpus}", f"manifest = {manifest}"))
        return path

    @pytest.mark.parametrize("command", ["quantize", "pretrain"])
    @pytest.mark.parametrize("escape", ["../x", "a/../../x", "absolute"])
    def test_id_naming_a_file_outside_the_label_directory_exit_2(self, tmp_path, capsys,
                                                                 monkeypatch, command, escape):
        # every escape would name <tmp>/run/x.lab, so a regression writes or
        # reads inside this test's own directory only
        labels = tmp_path / "run" / "labels"
        utt_id = str(tmp_path / "run" / "x") if escape == "absolute" else escape
        path = self.ids_config(tmp_path, ["ok", utt_id],
                               label_cache_dir=labels if command == "pretrain" else "")
        computed = []
        monkeypatch.setattr(quantizer, "labels_for_mel", lambda *args: computed.append(args))
        out_arg = ["--out", str(labels)] if command == "quantize" else []
        assert main([command, "--config", str(path), *out_arg]) == 2
        assert capsys.readouterr().err == (f"error: utterance id {utt_id!r} names a label "
                                           f"file outside {labels}\n")
        assert computed == []
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["quantize", "pretrain"])
    @pytest.mark.parametrize("respelled", ["a//b", "a/./b", "./a/b", "a/b/"])
    def test_ids_spelling_one_label_file_two_ways_exit_2(self, tmp_path, capsys, monkeypatch,
                                                        command, respelled):
        # each spelling names labels/a/b.lab, which a/b names too: one
        # utterance's labels would overwrite or stand in for the other's
        labels = tmp_path / "labels"
        path = self.ids_config(tmp_path, ["a/b", respelled],
                               label_cache_dir=labels if command == "pretrain" else "")
        computed = []
        monkeypatch.setattr(quantizer, "labels_for_mel", lambda *args: computed.append(args))
        out_arg = ["--out", str(labels)] if command == "quantize" else []
        assert main([command, "--config", str(path), *out_arg]) == 2
        assert capsys.readouterr().err == (f"error: utterance id {respelled!r} is not spelled "
                                           f"as the path 'a/b' that names its label file "
                                           f"in {labels}\n")
        assert computed == []
        assert not labels.exists() and not (tmp_path / "out").exists()

    def test_ids_with_subdirectories_or_inner_dots_stay_inside(self, tmp_path, monkeypatch):
        labels = tmp_path / "labels"
        path = self.ids_config(tmp_path, ["spk1/utt1", "a..b"], label_cache_dir=labels)
        assert main(["quantize", "--config", str(path), "--out", str(labels)]) == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.lab")) == [
            "labels/a..b.lab", "labels/spk1/utt1.lab"]
        warmed = {}

        def stop(cfg, index, state, *args):
            warmed.update(state.label_cache)
        monkeypatch.setattr(cli, "_train", stop)
        assert main(["pretrain", "--config", str(path)]) == 0
        assert sorted(warmed) == ["a..b", "spk1/utt1"]

    def test_pretrain_with_warm_label_cache_matches_online(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        base = tmp_path / "base.ini"
        write_pretrain_config(base, corpus, tmp_path / "out_a", total_steps=3)
        assert main(["quantize", "--config", str(base), "--out", str(cache)]) == 0
        assert main(["pretrain", "--config", str(base)]) == 0

        cached_cfg = tmp_path / "cached.ini"
        write_pretrain_config(cached_cfg, corpus, tmp_path / "out_b", total_steps=3,
                              label_cache_dir=cache)
        assert main(["pretrain", "--config", str(cached_cfg)]) == 0
        a = (tmp_path / "out_a" / "metrics.csv").read_text()
        b = (tmp_path / "out_b" / "metrics.csv").read_text()
        assert a == b

    def test_understated_manifest_cached_labels_match_online(self, tmp_path):
        # the manifest declares 2.0 s for 2.056 s WAVs: batches keep every
        # frame, as quantize labels the whole audio
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(8)
        manifest = tmp_path / "manifest.tsv"
        for i in range(2):
            wav = corpus / f"u{i}.wav"
            frontend.write_wav(wav, make_speechlike(rng, 2.056), 16000)
            with open(manifest, "a", encoding="utf-8") as f:
                f.write(f"u{i}\t{wav}\t2.0\n")
        cache = tmp_path / "cache"
        for name, cache_dir in (("a", ""), ("b", cache)):
            path = tmp_path / f"{name}.ini"
            write_pretrain_config(path, corpus, tmp_path / f"out_{name}", total_steps=3,
                                  label_cache_dir=cache_dir)
            path.write_text(path.read_text().replace(f"root = {corpus}",
                                                     f"manifest = {manifest}"))
            if name == "b":
                assert main(["quantize", "--config", str(path), "--out", str(cache)]) == 0
            assert main(["pretrain", "--config", str(path)]) == 0
        a = (tmp_path / "out_a" / "metrics.csv").read_text()
        b = (tmp_path / "out_b" / "metrics.csv").read_text()
        assert a == b

    def test_non_16k_audio_labels_match_pretrain_frames(self, tmp_path):
        # 8 kHz and 22.05 kHz files are resampled to 16 kHz by quantize and by
        # the pretrain batch loader alike, so each gets one label per 4 frames
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(4)
        for name, rate, seconds in [("narrow", 8000, 0.7), ("wide", 22050, 0.9)]:
            frontend.write_wav(corpus / f"{name}.wav", make_speechlike(rng, seconds, rate),
                               rate)
        cfg_path = tmp_path / "c.ini"
        write_pretrain_config(cfg_path, corpus, tmp_path / "out")
        cache = tmp_path / "cache"
        assert main(["quantize", "--config", str(cfg_path), "--out", str(cache)]) == 0

        cfg = cfgmod.load_config(cfg_path)
        index = datapipe.scan_corpus(corpus)
        spec = datapipe.build_buckets(index, 1, 10000)
        (batch,) = datapipe.iter_epoch(spec, index, cfg.seed, 0)
        assert sorted(batch.utt_ids) == ["narrow", "wide"]
        for i, utt_id in enumerate(batch.utt_ids):
            frames = int(batch.lengths[i])
            utt = next(u for u in index.entries if u.utt_id == utt_id)
            assert frames == datapipe.frames_for_duration(utt.duration)
            labels = records.read_label_cache(cache / (utt_id + ".lab"))
            assert labels.shape[0] == frames // 4

    def test_offline_cache_matches_online_labels(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.5, 0.8])
        cfg_path = tmp_path / "c.ini"
        write_pretrain_config(cfg_path, corpus, tmp_path / "out")
        cache = tmp_path / "cache"
        assert main(["quantize", "--config", str(cfg_path), "--out", str(cache)]) == 0

        cfg = cfgmod.load_config(cfg_path)
        qs = quantizer.init_quantizer(cfg.seed, cfg.quantizer_config())
        index = datapipe.scan_corpus(corpus)
        for utt in index.entries:
            w = frontend.load_audio(utt.path)
            online = quantizer.labels_for_mel(qs, frontend.log_mel(w))
            cached = records.read_label_cache(cache / (utt.utt_id + ".lab"))
            assert np.array_equal(online, cached)


def write_finetune_config(path, corpus, trans, checkpoint, out_dir, freeze_steps=1,
                          total_steps=3):
    path.write_text(f"""
[run]
seed = 5
output_dir = {out_dir}

[corpus]
root = {corpus}
transcripts = {trans}

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[finetune]
checkpoint = {checkpoint}
encoder_lr = 1e-3
decoder_lr = 5e-3
warmup_steps = 5
freeze_steps = {freeze_steps}
total_steps = {total_steps}
time_apply_prob = 0.0
max_freq_width = 0

[datapipe]
num_buckets = 1
tokens_per_batch = 1000
""", encoding="utf-8")


def pretrained_corpus(tmp_path):
    """(corpus, transcripts file, 2-step pretrain checkpoint), made via the CLI."""
    corpus = tmp_path / "corpus"
    write_corpus(corpus, [0.6, 0.8, 1.0])
    texts = {"utt00": "ab", "utt01": "ba", "utt02": "abba"}
    trans = tmp_path / "transcripts.tsv"
    trans.write_text("".join(f"{k}\t{v}\n" for k, v in texts.items()), encoding="utf-8")

    pre_cfg = tmp_path / "pre.ini"
    pre_out = tmp_path / "pre_out"
    write_pretrain_config(pre_cfg, corpus, pre_out, total_steps=2)
    assert main(["pretrain", "--config", str(pre_cfg)]) == 0
    return corpus, trans, pre_out / "final.msec"


@pytest.fixture
def finetuned_setup(tmp_path):
    """Corpus + transcripts + a finetuned checkpoint produced via the CLI."""
    corpus, trans, pre_ckpt = pretrained_corpus(tmp_path)

    ft_cfg = tmp_path / "ft.ini"
    ft_out = tmp_path / "ft_out"
    write_finetune_config(ft_cfg, corpus, trans, pre_ckpt, ft_out)
    assert main(["finetune", "--config", str(ft_cfg)]) == 0
    ckpt = ft_out / "finetuned.msec"
    assert ckpt.is_file()

    manifest = tmp_path / "manifest.tsv"
    index = datapipe.scan_corpus(corpus)
    manifest.write_text("".join(f"{u.utt_id}\t{u.path}\t{u.duration}\n"
                                for u in index.entries), encoding="utf-8")
    return ckpt, manifest, trans, tmp_path


class TestDecodeAndScore:
    def test_decode_writes_hypotheses(self, finetuned_setup):
        ckpt, manifest, _, tmp = finetuned_setup
        hyp = tmp / "hyp.tsv"
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(hyp), "--greedy"]) == 0
        got = finetune.read_transcripts(hyp)
        assert set(got) == {"utt00", "utt01", "utt02"}

    @pytest.mark.skipif(parallel.openblas_threads() is None or parallel.cores() < 2,
                        reason="needs numpy's OpenBLAS and two usable cores")
    def test_decode_runs_openblas_at_one_thread(self, finetuned_setup, monkeypatch):
        # decode never maps on the pool, so only main sets the count
        ckpt, manifest, _, tmp = finetuned_setup
        counts = []
        real = finetune.transcribe

        def spy(*args, **kwargs):
            counts.append(parallel.blas_thread_count())
            return real(*args, **kwargs)
        monkeypatch.setattr(finetune, "transcribe", spy)
        with blas_threads(2):  # as in a process started on two cores
            parallel.hold_one_blas_thread.cache_clear()
            assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                         "--out", str(tmp / "hyp.tsv")]) == 0
        assert counts == [1, 1, 1]

    def test_decode_reads_no_moment_and_matches_full_state(self, finetuned_setup,
                                                          monkeypatch):
        ckpt, manifest, _, tmp = finetuned_setup
        read = []
        real = records.read_checkpoint

        def spy(*args, **kwargs):
            header, tensors = real(*args, **kwargs)
            read.extend(tensors)
            return header, tensors
        monkeypatch.setattr(records, "read_checkpoint", spy)
        hyp = tmp / "hyp.tsv"
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(hyp), "--beam", "4"]) == 0
        assert read and not any(name.startswith("opt.") for name in read)
        # the same bytes as a decode with every tensor of the file restored
        state = finetune.load_finetune_checkpoint(ckpt)
        lines = []
        for utt in datapipe.read_manifest(manifest).entries:
            mel = frontend.log_mel(datapipe.load_utterance(utt))
            text = finetune.transcribe(state, mel[None], np.array([len(mel)]), 4)[0]
            lines.append(f"{utt.utt_id}\t{text}\n")
        assert hyp.read_bytes() == "".join(lines).encode("utf-8")

    def test_decode_out_failing_midway_keeps_previous_file(self, finetuned_setup, capsys,
                                                           monkeypatch):
        ckpt, manifest, _, tmp = finetuned_setup
        hyp = tmp / "hyp.tsv"
        hyp.write_bytes(b"utt00\tprevious\n")
        real = pathlib.Path.write_text

        def half_then_full_disk(path, text, *args, **kwargs):
            real(path, text[:len(text) // 2], *args, **kwargs)
            raise full_disk()
        monkeypatch.setattr(pathlib.Path, "write_text", half_then_full_disk)
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(hyp), "--greedy"]) == 2
        assert hyp.read_bytes() == b"utt00\tprevious\n"
        assert not list(tmp.glob("*.tmp"))
        assert capsys.readouterr().err == (
            f"error: cannot write {hyp}: No space left on device\n")

    def test_score_report_failing_midway_keeps_previous_file(self, finetuned_setup, capsys,
                                                             monkeypatch):
        _, _, trans, tmp = finetuned_setup
        report = tmp / "report.csv"
        report.write_bytes(b"utt_id,previous\n")
        real = csv.writer

        class HalfThenFullDisk:
            def __init__(self, f):
                self._writer = real(f)

            def writerows(self, rows):
                self._writer.writerows(rows[:len(rows) // 2])
                raise full_disk()
        monkeypatch.setattr(csv, "writer", HalfThenFullDisk)
        assert main(["score", "--refs", str(trans), "--hyps", str(trans),
                     "--report", str(report)]) == 2
        assert report.read_bytes() == b"utt_id,previous\n"
        assert not list(tmp.glob("*.tmp"))
        out, err = capsys.readouterr()
        assert err == f"error: cannot write {report}: No space left on device\n" and out == ""

    def test_beam_one_equals_greedy(self, finetuned_setup):
        ckpt, manifest, _, tmp = finetuned_setup
        h1 = tmp / "h1.tsv"
        h2 = tmp / "h2.tsv"
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(h1), "--greedy"]) == 0
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(h2), "--beam", "1"]) == 0
        assert finetune.read_transcripts(h1) == finetune.read_transcripts(h2)

    def test_decode_without_out_writes_stdout(self, finetuned_setup, capsys):
        ckpt, manifest, _, tmp = finetuned_setup
        hyp = tmp / "hyp.tsv"
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(hyp), "--greedy"]) == 0
        capsys.readouterr()
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--greedy"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3 and out == hyp.read_text(encoding="utf-8")

    def test_score_all_empty_references_exit_2(self, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("a\t\nb\t\n", encoding="utf-8")
        hyps.write_text("a\tx\nb\t\n", encoding="utf-8")
        assert main(["score", "--refs", str(refs), "--hyps", str(hyps)]) == 2
        assert "total reference length is zero" in capsys.readouterr().err

    def test_score_identical_files_zero(self, finetuned_setup, capsys):
        _, _, trans, tmp = finetuned_setup
        report = tmp / "report.csv"
        assert main(["score", "--refs", str(trans), "--hyps", str(trans),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "WER 0.00" in out and "CER 0.00" in out
        assert report.read_text().splitlines()[-1].startswith("TOTAL")

    def test_score_mismatched_ids_exit_2(self, finetuned_setup, capsys):
        _, _, trans, tmp = finetuned_setup
        partial = tmp / "partial.tsv"
        lines = trans.read_text().splitlines()
        partial.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert main(["score", "--refs", str(trans), "--hyps", str(partial)]) == 2
        assert "utt02" in capsys.readouterr().err

    def test_repeated_transcript_id_exit_2(self, finetuned_setup, capsys):
        _, _, trans, base = finetuned_setup
        dup = base / "dup.tsv"
        dup.write_text(trans.read_text() + "utt00\tb\n", encoding="utf-8")
        assert main(["score", "--refs", str(trans), "--hyps", str(dup)]) == 2
        assert "dup.tsv:4: utterance id 'utt00' repeats line 1" in capsys.readouterr().err
        cfg = base / "ft_dup.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(str(trans), str(dup)).replace(
            str(base / "ft_out"), str(base / "ft_dup")), encoding="utf-8")
        assert main(["finetune", "--config", str(cfg)]) == 2
        assert "dup.tsv:4: utterance id 'utt00' repeats line 1" in capsys.readouterr().err
        assert not (base / "ft_dup").exists()

    def test_finetune_empty_transcript_exit_2_before_output(self, finetuned_setup, capsys):
        _, _, trans, base = finetuned_setup
        empty = base / "empty.tsv"
        empty.write_text(trans.read_text().replace("utt01\tba", "utt01\t"), encoding="utf-8")
        cfg = base / "ft_empty.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(str(trans), str(empty)).replace(
            str(base / "ft_out"), str(base / "ft_empty")), encoding="utf-8")
        assert main(["finetune", "--config", str(cfg)]) == 2
        assert "empty.tsv:2: utterance 'utt01' has an empty transcript" in \
            capsys.readouterr().err
        assert not (base / "ft_empty").exists()
        # an empty hypothesis is a decoding result, and scores as all deletions
        assert main(["score", "--refs", str(trans), "--hyps", str(empty)]) == 0
        assert "CER 25.00" in capsys.readouterr().out

    def test_finetune_infeasible_transcript_exit_1(self, finetuned_setup, tmp_path, capsys):
        # a transcript far longer than the utterance's label frames cannot align
        _, _, _, base = finetuned_setup
        bad_trans = tmp_path / "bad.tsv"
        bad_trans.write_text("utt00\t" + "ab " * 80 + "\nutt01\tba\nutt02\tab\n",
                             encoding="utf-8")
        cfg = tmp_path / "bad_ft.ini"
        cfg.write_text(f"""
[run]
seed = 5
output_dir = {tmp_path / 'bad_out'}

[corpus]
root = {base / 'corpus'}
transcripts = {bad_trans}

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[finetune]
checkpoint = {base / 'pre_out' / 'final.msec'}
total_steps = 2

[datapipe]
num_buckets = 1
tokens_per_batch = 1000
""", encoding="utf-8")
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert "utt00" in capsys.readouterr().err

    def test_finetune_metrics_carry_grad_norm(self, finetuned_setup):
        _, _, _, base = finetuned_setup
        lines = (base / "ft_out" / "finetune_metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss,lr_encoder,lr_head,frozen,grad_norm"
        assert len(lines) == 4
        for line in lines[1:]:
            grad_norm = float(line.split(",")[-1])
            assert np.isfinite(grad_norm) and grad_norm > 0

    def test_finetune_metrics_rows_reach_disk_per_step(self, finetuned_setup, monkeypatch):
        _, _, _, base = finetuned_setup
        out_dir = base / "ft_flush"
        cfg = base / "ft_flush.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(
            str(base / "ft_out"), str(out_dir)), encoding="utf-8")
        real = finetune.finetune_step
        on_disk = {}

        def patched(state, *args):
            on_disk[state.step] = (out_dir / "finetune_metrics.csv").read_text()
            return real(state, *args)

        monkeypatch.setattr(finetune, "finetune_step", patched)
        assert main(["finetune", "--config", str(cfg)]) == 0
        lines = on_disk[1].splitlines()
        assert lines[0] == "step,loss,lr_encoder,lr_head,frozen,grad_norm"
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]

    @pytest.mark.parametrize("blocked", ["finetune_metrics.csv", "finetuned.msec"])
    def test_finetune_failed_write_saves_and_exits_2(self, finetuned_setup, capsys, blocked):
        _, _, _, base = finetuned_setup
        out_dir = base / "ft_blocked"
        cfg = base / "ft_blocked.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(
            str(base / "ft_out"), str(out_dir)), encoding="utf-8")
        (out_dir / blocked).mkdir(parents=True)
        assert main(["finetune", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: cannot write {out_dir / blocked}: Is a directory\n"
        assert out == ""
        if blocked == "finetuned.msec":  # every step ran, and none could be saved
            assert metric_steps(out_dir / "finetune_metrics.csv") == [1, 2, 3]
        else:
            assert finetune.load_finetune_checkpoint(out_dir / "finetuned.msec").step == 0
        assert not list(out_dir.glob("*.tmp"))

    def test_finetune_unreadable_wav_mid_run_saves_and_exits_1(self, finetuned_setup,
                                                               capsys, monkeypatch):
        _, _, _, base = finetuned_setup
        out_dir = base / "ft_broken"
        cfg = base / "ft_broken.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(
            str(base / "ft_out"), str(out_dir)), encoding="utf-8")
        truncate_after_step(monkeypatch, finetune, "finetune_step", 1,
                            base / "corpus" / "utt01.wav")
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert "utterance utt01 unreadable" in capsys.readouterr().err
        rows = (out_dir / "finetune_metrics.csv").read_text().strip().splitlines()[1:]
        state = finetune.load_finetune_checkpoint(out_dir / "finetuned.msec")
        assert state.step == len(rows) == 1

    def test_finetune_infeasible_target_mid_run_saves_and_exits_1(self, finetuned_setup,
                                                                  capsys, monkeypatch):
        _, _, _, base = finetuned_setup
        out_dir = base / "ft_infeasible"
        cfg = base / "ft_infeasible.ini"
        cfg.write_text((base / "ft.ini").read_text().replace(
            str(base / "ft_out"), str(out_dir)), encoding="utf-8")
        raise_after_step(monkeypatch, finetune, "finetune_step", 1,
                         finetune.InfeasibleTargetError("utterance utt01: too short"))
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert "utterance utt01: too short" in capsys.readouterr().err
        rows = (out_dir / "finetune_metrics.csv").read_text().strip().splitlines()[1:]
        state = finetune.load_finetune_checkpoint(out_dir / "finetuned.msec")
        assert state.step == len(rows) == 1

    def test_decode_non_finite_manifest_duration_exit_2(self, finetuned_setup, capsys):
        ckpt, manifest, _, tmp = finetuned_setup
        utt_id, wav, _ = manifest.read_text().splitlines()[0].split("\t")
        for duration in ("nan", "inf", "abc"):
            bad = tmp / f"{duration}.tsv"
            bad.write_text(f"{utt_id}\t{wav}\t{duration}\n")
            assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(bad)]) == 2
            assert "cannot read manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [300, 1000])
    def test_decode_short_wav_exit_1_naming_it(self, finetuned_setup, capsys, samples):
        ckpt, manifest, _, tmp = finetuned_setup
        short = tmp / "short.wav"
        frontend.write_wav(short, np.zeros(samples), 16000)
        bad = tmp / "short.tsv"
        bad.write_text(manifest.read_text() + f"short\t{short}\t1.0\n")
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(bad)]) == 1
        assert (f"utterance short at {short} holds {samples / 16000:.4f} s of audio, "
                "less than the 0.3 s minimum") in capsys.readouterr().err

    def test_decode_corrupt_checkpoint_exit_1(self, finetuned_setup):
        ckpt, manifest, _, tmp = finetuned_setup
        bad = tmp / "bad.msec"
        bad.write_bytes(ckpt.read_bytes()[:50])
        assert main(["decode", "--ckpt", str(bad), "--manifest", str(manifest)]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN is on purpose
    @pytest.mark.parametrize("weight, message", [
        ("layers.0.ffn1.w1.weight", "encoder produced non-finite values"),
        ("ctc_head.weight", "log-probs hold NaN or +inf")])
    def test_decode_non_finite_checkpoint_exit_1_naming_utterance(
            self, finetuned_setup, capsys, weight, message):
        ckpt, manifest, _, tmp = finetuned_setup
        state = finetune.load_finetune_checkpoint(ckpt)
        state.params[weight].data[0, 0] = np.nan
        bad = tmp / "nan.msec"
        finetune.save_finetune_checkpoint(state, bad)
        out = tmp / "hyp.tsv"
        assert main(["decode", "--ckpt", str(bad), "--manifest", str(manifest),
                     "--out", str(out)]) == 1
        assert f"error: utterance utt00: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beam", ["0", "-3"])
    def test_decode_beam_below_one_exit_2_before_reading(self, tmp_path, capsys, beam):
        out = tmp_path / "hyp.tsv"
        assert main(["decode", "--ckpt", str(tmp_path / "absent.msec"),
                     "--manifest", str(tmp_path / "absent.tsv"), "--out", str(out),
                     "--beam", beam]) == 2
        assert f"--beam must be >= 1, got {beam}; use --greedy" in capsys.readouterr().err
        assert not out.exists()

    def test_decode_header_without_encoder_config_exit_1(self, finetuned_setup, capsys):
        ckpt, manifest, _, _ = finetuned_setup
        rewrite_checkpoint_header(ckpt, lambda h: h.pop("encoder_config"))
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest)]) == 1
        assert "missing header key 'encoder_config'" in capsys.readouterr().err

    def test_finetune_header_without_encoder_config_exit_1(self, finetuned_setup, capsys):
        _, _, _, base = finetuned_setup
        rewrite_checkpoint_header(base / "pre_out" / "final.msec",
                                  lambda h: h.pop("encoder_config"))
        assert main(["finetune", "--config", str(base / "ft.ini")]) == 1
        assert "missing header key 'encoder_config'" in capsys.readouterr().err


class TestInspectCommand:
    def test_checkpoint_listing(self, finetuned_setup, capsys):
        ckpt, _, _, _ = finetuned_setup
        assert main(["inspect", "--ckpt", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "extractor.conv1.weight\t240x16" in out
        assert "step: 3" in out
        assert "parameters:" in out

    def test_corrupt_checkpoint_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.msec"
        bad.write_bytes(b"garbage")
        assert main(["inspect", "--ckpt", str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_reference_scale_count_from_config(self, tmp_path, capsys):
        path = tmp_path / "reference.ini"
        path.write_text("""
[encoder]
num_layers = 24
hidden = 1024
ffn = 4096
heads = 8
conv_kernel = 5
dropout = 0.1
""", encoding="utf-8")
        assert main(["inspect", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        total = int(out.strip().splitlines()[-1].split(":")[1])
        assert abs(total - 630e6) / 630e6 < 0.05

    def test_desk_scale_count_matches_shape_sum(self, tmp_path, capsys):
        path = tmp_path / "desk.ini"
        path.write_text("[encoder]\n", encoding="utf-8")
        assert main(["inspect", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if "\t" in l]
        total = int(out.strip().splitlines()[-1].split(":")[1])
        assert total == sum(int(l.split("\t")[1]) for l in lines)


@pytest.mark.parametrize("args, code", [(["--help"], 0), ([], 2)])
def test_module_entry_exits_with_the_command_code(args, code):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-m", "rqspeech.cli", *args], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == code
    if code == 0:
        assert run.stdout.startswith("usage: ")


def signal_after_rows(args, metrics, rows, signum):
    """Start CLI ``args`` as a child process, send it ``signum`` once
    ``metrics`` holds ``rows`` complete rows, and return (exit code, stderr)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    child = subprocess.Popen([sys.executable, "-m", "rqspeech.cli", *args],
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
    try:
        deadline = time.monotonic() + 120
        while not metrics.is_file() or metrics.read_text().count("\n") <= rows:
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, f"no {rows} rows in {metrics}"
            time.sleep(0.02)
        child.send_signal(signum)
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    return child.returncode, err


class TestStopSignal:
    """A SIGINT or SIGTERM ends ``pretrain`` and ``finetune`` after the step in
    progress, with that step saved; exit 1 keeps the 0/1/2 contract."""

    def assert_stopped_at_last_row(self, code, err, metrics, final, signum, capsys):
        assert code == 1
        assert "Traceback" not in err
        last = metric_steps(metrics)[-1]
        name = signal.Signals(signum).name
        assert f"error: stopped by {name} after step {last}; {final} holds it" in err
        assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines())
        assert records.read_checkpoint(final, want=lambda header: {})[0]["step"] == last
        capsys.readouterr()
        assert main(["inspect", "--ckpt", str(final)]) == 0
        assert f"step: {last}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
    def test_pretrain_saves_the_last_completed_step(self, tmp_path, capsys, signum):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9, 1.2])
        out_dir = tmp_path / "out"
        write_pretrain_config(tmp_path / "c.ini", corpus, out_dir, total_steps=10**6)
        code, err = signal_after_rows(["pretrain", "--config", str(tmp_path / "c.ini")],
                                      out_dir / "metrics.csv", 3, signum)
        self.assert_stopped_at_last_row(code, err, out_dir / "metrics.csv",
                                        out_dir / "final.msec", signum, capsys)
        assert metric_steps(out_dir / "metrics.csv")[-1] >= 3

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
    def test_finetune_past_its_freeze_saves_the_last_completed_step(self, tmp_path, capsys,
                                                                    signum):
        corpus, trans, pre_ckpt = pretrained_corpus(tmp_path)
        out_dir = tmp_path / "ft_out"
        write_finetune_config(tmp_path / "ft.ini", corpus, trans, pre_ckpt, out_dir,
                              freeze_steps=2, total_steps=10**6)
        metrics = out_dir / "finetune_metrics.csv"
        code, err = signal_after_rows(["finetune", "--config", str(tmp_path / "ft.ini")],
                                      metrics, 4, signum)
        self.assert_stopped_at_last_row(code, err, metrics, out_dir / "finetuned.msec",
                                        signum, capsys)
        assert metric_steps(metrics)[-1] >= 4

    def test_handlers_restored_after_the_run(self, tmp_path):
        before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        write_pretrain_config(tmp_path / "c.ini", corpus, tmp_path / "out", total_steps=1)
        assert main(["pretrain", "--config", str(tmp_path / "c.ini")]) == 0
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before

    def test_run_off_the_main_thread(self, tmp_path):
        # no handler can be installed there, and the run goes on without one
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        write_pretrain_config(tmp_path / "c.ini", corpus, tmp_path / "out", total_steps=2)
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(main(["pretrain", "--config", str(tmp_path / "c.ini")])))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and codes == [0]
        assert metric_steps(tmp_path / "out" / "metrics.csv") == [1, 2]

    def test_interrupt_outside_a_run_prints_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_score", interrupted)
        assert main(["score", "--refs", "r.tsv", "--hyps", "h.tsv"]) == 1
        assert capsys.readouterr().err == "error: interrupted\n"
