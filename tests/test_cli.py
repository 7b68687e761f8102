import configparser
import struct

import numpy as np
import pytest

from rqspeech import config as cfgmod
from rqspeech import datapipe, finetune, frontend, pretrain, quantizer
from rqspeech.cli import main

from conftest import make_speechlike, rewrite_checkpoint_header


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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 7\n")
        monkeypatch.setenv(cfgmod.SEED_ENV_VAR, "42")
        assert cfgmod.load_config(path).seed == 42

    @pytest.mark.parametrize("command, section, key, value, message", [
        ("pretrain", "encoder", "heads", "3", "[encoder] hidden must be divisible by heads"),
        ("inspect", "encoder", "heads", "3", "[encoder] hidden must be divisible by heads"),
        ("pretrain", "masking", "prob", "1.5", "[masking] prob must be in [0, 1]"),
        ("pretrain", "pretrain", "peak_lr", "0", "[pretrain] peak_lr must be positive"),
        ("pretrain", "quantizer", "num_codebooks", "0", "[quantizer] num_codebooks must be >= 1"),
        ("quantize", "quantizer", "num_codebooks", "0", "[quantizer] num_codebooks must be >= 1"),
        ("finetune", "finetune", "encoder_lr", "0", "[finetune] learning rates must be positive"),
        ("finetune", "finetune", "max_freq_width", "-2",
         "[finetune] mask counts and widths must be >= 0"),
        ("finetune", "finetune", "time_masks", "-1",
         "[finetune] mask counts and widths must be >= 0"),
        ("finetune", "finetune", "time_apply_prob", "1.5",
         "[finetune] time_apply_prob must be in [0, 1]"),
        ("quantize", "quantizer", "vocab_size", "70000",
         "[quantizer] vocab_size 70000 exceeds the label cache format's 65536"),
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
        # prefetch threads call BLAS in log_mel while the head holds OpenBLAS
        # at one thread; features, metrics and checkpoints must not notice
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

    @pytest.mark.parametrize("codebooks, vocab", [(8, 32), (2, 64)])
    def test_label_cache_of_another_quantizer_exit_1(self, tmp_path, capsys,
                                                     codebooks, vocab):
        # the run's quantizer has 2 codebooks of 32 labels
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        cache.mkdir()
        labels = np.random.default_rng(0).integers(0, vocab, size=(14, codebooks))
        labels[0, 0] = vocab - 1
        quantizer.write_label_cache(cache / "utt01.lab", labels, vocab)
        cfg = tmp_path / "c.ini"
        write_pretrain_config(cfg, corpus, tmp_path / "out", label_cache_dir=cache)
        assert main(["pretrain", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "utt01.lab" in err and "2 codebooks of 32 labels" in err

    @pytest.mark.parametrize("rows", [5, 60])
    def test_label_cache_of_another_length_saves_and_exits_1(self, tmp_path, capsys, rows):
        # utt01 (0.9 s) has 22 label frames; 5 rows ran off the end of the
        # cache mid-run, 60 rows trained silently on the wrong targets
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [0.6, 0.9])
        cache = tmp_path / "cache"
        cache.mkdir()
        labels = np.random.default_rng(0).integers(0, 32, size=(rows, 2))
        quantizer.write_label_cache(cache / "utt01.lab", labels, 32)
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
            labels = quantizer.read_label_cache(cache / (utt_id + ".lab"))
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
            cached = quantizer.read_label_cache(cache / (utt.utt_id + ".lab"))
            assert np.array_equal(online, cached)


@pytest.fixture
def finetuned_setup(tmp_path):
    """Corpus + transcripts + a finetuned checkpoint produced via the CLI."""
    corpus = tmp_path / "corpus"
    write_corpus(corpus, [0.6, 0.8, 1.0])
    texts = {"utt00": "ab", "utt01": "ba", "utt02": "abba"}
    trans = tmp_path / "transcripts.tsv"
    trans.write_text("".join(f"{k}\t{v}\n" for k, v in texts.items()), encoding="utf-8")

    pre_cfg = tmp_path / "pre.ini"
    pre_out = tmp_path / "pre_out"
    write_pretrain_config(pre_cfg, corpus, pre_out, total_steps=2)
    assert main(["pretrain", "--config", str(pre_cfg)]) == 0

    ft_cfg = tmp_path / "ft.ini"
    ft_out = tmp_path / "ft_out"
    ft_cfg.write_text(f"""
[run]
seed = 5
output_dir = {ft_out}

[corpus]
root = {corpus}
transcripts = {trans}

[encoder]
num_layers = 1
hidden = 16
ffn = 32
heads = 2

[finetune]
checkpoint = {pre_out / 'final.msec'}
encoder_lr = 1e-3
decoder_lr = 5e-3
warmup_steps = 5
freeze_steps = 1
total_steps = 3
time_apply_prob = 0.0
max_freq_width = 0

[datapipe]
num_buckets = 1
tokens_per_batch = 1000
""", encoding="utf-8")
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

    def test_beam_one_equals_greedy(self, finetuned_setup):
        ckpt, manifest, _, tmp = finetuned_setup
        h1 = tmp / "h1.tsv"
        h2 = tmp / "h2.tsv"
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(h1), "--greedy"]) == 0
        assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out", str(h2), "--beam", "1"]) == 0
        assert finetune.read_transcripts(h1) == finetune.read_transcripts(h2)

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
