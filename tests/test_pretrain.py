import tracemalloc

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import encoder as enc
from rqspeech import masking, pretrain
from rqspeech import quantizer as quant
from rqspeech.autodiff import Tensor
from rqspeech.datapipe import Batch
from rqspeech.pretrain import (CheckpointError, NonFiniteLossError, PretrainConfig,
                               lr_schedule, multi_softmax_loss)

from conftest import rewrite_checkpoint_header

TINY_ENC = enc.EncoderConfig(num_layers=2, hidden=32, ffn=64, heads=4, dropout=0.0)
TINY_Q = quant.QuantizerConfig(num_codebooks=2, vocab_size=64, dim=8)


def tiny_config(seed=0, **kw):
    defaults = dict(peak_lr=1e-3, warmup_steps=20, total_steps=1000, seed=seed,
                    mask=masking.MaskConfig(prob=0.4, span_frames=10),
                    quantizer=TINY_Q)
    defaults.update(kw)
    return PretrainConfig(**defaults)


def random_batch(rng, n_utts=4, frames=64):
    feats = rng.standard_normal((n_utts, frames, 80)).astype(np.float32)
    return Batch(features=feats,
                 lengths=np.full(n_utts, frames, dtype=np.int64),
                 utt_ids=[f"utt{i}" for i in range(n_utts)],
                 epoch=0, bucket_id=0)


class TestLoss:
    def test_uniform_logits_equal_log_vocab(self):
        logits = np.zeros((3, 4, 2048))
        labels = np.zeros((3, 4), dtype=np.int64)
        mask = np.ones(3, dtype=bool)
        loss = multi_softmax_loss(logits, labels, mask).item()
        assert abs(loss - np.log(2048)) < 1e-6

    def test_saturated_logits_near_zero(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 8, size=(5, 2))
        logits = np.zeros((5, 2, 8))
        for l in range(5):
            for j in range(2):
                logits[l, j, labels[l, j]] = 1e4
        loss = multi_softmax_loss(logits, labels, np.ones(5, bool)).item()
        assert loss < 1e-3

    def test_hand_computed_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((2, 2, 3))
        labels = np.array([[0, 2], [1, 1]])
        mask = np.array([True, True])
        # independent softmax/cross-entropy arithmetic
        want = 0.0
        for l in range(2):
            for j in range(2):
                row = logits[l, j]
                p = np.exp(row) / np.exp(row).sum()
                want -= np.log(p[labels[l, j]])
        want /= 4
        got = multi_softmax_loss(logits, labels, mask).item()
        assert abs(got - want) < 1e-9

    def test_masked_rows_excluded(self):
        logits = np.zeros((2, 1, 4))
        logits[1, 0, 2] = 1e4
        labels = np.array([[0], [2]])
        only_second = multi_softmax_loss(logits, labels, np.array([False, True])).item()
        assert only_second < 1e-3

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError, match="skip"):
            multi_softmax_loss(np.zeros((2, 1, 4)), np.zeros((2, 1), np.int64),
                               np.zeros(2, bool))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((3, 2, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=(3, 2))
        mask = np.array([True, False, True])
        loss = multi_softmax_loss(logits, labels, mask)
        loss.backward()
        step = 1e-6
        flat = logits.data.reshape(-1)
        g = logits.grad.reshape(-1)
        for i in rng.choice(flat.size, 8, replace=False):
            saved = flat[i]
            flat[i] = saved + step
            hi = multi_softmax_loss(logits.data, labels, mask).item()
            flat[i] = saved - step
            lo = multi_softmax_loss(logits.data, labels, mask).item()
            flat[i] = saved
            assert abs(g[i] - (hi - lo) / (2 * step)) < 1e-6

    def test_fused_head_matches_composed_path(self):
        rng = np.random.default_rng(3)
        rows, hidden, n, v = 7, 5, 3, 6
        arrays = (rng.standard_normal((rows, hidden)), rng.standard_normal((hidden, n * v)),
                  rng.standard_normal(n * v))
        labels = rng.integers(0, v, size=(rows, n))

        def run(head):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            loss = head(x, w, b)
            loss.backward()
            return [loss.data, x.grad, w.grad, b.grad]

        fused = run(lambda x, w, b: ad.multi_softmax_nll(x, w, b, labels, n))
        composed = run(lambda x, w, b: pretrain._nll_mean(
            ad.reshape(ad.linear(x, w, b), (rows, n, v)), labels))
        for got, want in zip(fused, composed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSchedule:
    def test_peak_at_warmup(self):
        assert lr_schedule(4000, 8e-4, 4000) == pytest.approx(8e-4)

    def test_linear_ramp(self):
        assert lr_schedule(2000, 8e-4, 4000) == pytest.approx(4e-4)

    def test_sqrt_decay(self):
        assert lr_schedule(16000, 8e-4, 4000) == pytest.approx(4e-4)

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 8e-4, 4000)


class TestUtilization:
    def test_single_label(self):
        labels = np.zeros((7, 1), dtype=np.int64)
        assert pretrain.codebook_utilization(labels, 1, 64) == pytest.approx(1 / 64)

    def test_full_coverage(self):
        labels = np.arange(16)[:, None].repeat(2, axis=1)
        assert pretrain.codebook_utilization(labels, 2, 16) == 1.0

    def test_coupon_collector_expectation(self):
        hits = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 16, size=(64, 1))
            hits.append(pretrain.codebook_utilization(labels, 1, 16))
        expected = 1 - (15 / 16) ** 64
        assert abs(np.mean(hits) - expected) < 0.02


class TestAdam:
    def test_zero_gradient_fresh_state_no_motion(self):
        params = {"w": Tensor(np.ones((3, 3), np.float32), requires_grad=True)}
        state = pretrain.AdamState.init(params)
        before = params["w"].data.copy()
        pretrain.adam_step(params, {"w": np.zeros((3, 3), np.float32)}, state,
                           lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-8)
        assert np.array_equal(params["w"].data, before)

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = pretrain.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        new_norm = np.sqrt(sum(np.sum(g**2) for g in grads.values()))
        assert new_norm == pytest.approx(1.0)

    def test_clip_leaves_small_gradients(self):
        grads = {"a": np.array([0.1, 0.2])}
        pretrain.clip_global_norm(grads, 1.0)
        assert np.allclose(grads["a"], [0.1, 0.2])


class TestTrainStep:
    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(0)
        batches = [random_batch(rng) for _ in range(3)]

        def run():
            state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=9))
            return [pretrain.train_step(state, b, epoch=0).loss for b in batches]

        a, b = run(), run()
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_zero_target_batch_skipped(self):
        state = pretrain.init_train_state(
            TINY_ENC, tiny_config(mask=masking.MaskConfig(prob=1e-300)))  # no mask start
        batch = random_batch(np.random.default_rng(1))
        before = state.step
        assert pretrain.train_step(state, batch, epoch=0) is None
        assert state.step == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_without_update(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config())
        state.params["head.weight"].data[:] = np.inf
        batch = random_batch(np.random.default_rng(2))
        snapshot = {k: p.data.copy() for k, p in state.params.items()
                    if not k.startswith("head.")}
        with pytest.raises(NonFiniteLossError):
            pretrain.train_step(state, batch, epoch=0)
        assert state.step == 0
        for k, arr in snapshot.items():
            assert np.array_equal(state.params[k].data, arr)

    def test_initial_loss_near_log_vocab(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=4))
        batch = random_batch(np.random.default_rng(3))
        metrics = pretrain.train_step(state, batch, epoch=0)
        assert abs(metrics.loss - np.log(TINY_Q.vocab_size)) < 0.5
        assert 0.0 < metrics.codebook_utilization <= 1.0
        assert metrics.masked_label_frames > 0

    def test_loss_decreases_on_fixed_batch(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=5, peak_lr=3e-3))
        batch = random_batch(np.random.default_rng(4), n_utts=2, frames=32)
        losses = [pretrain.train_step(state, batch, epoch=0).loss for _ in range(60)]
        assert np.mean(losses[-10:]) < losses[0] - 0.5

    def test_cropped_utterances_bypass_label_cache(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=11))
        rng = np.random.default_rng(9)
        mel = rng.standard_normal((40, 80)).astype(np.float32)
        labels = pretrain._labels_for(state, "longutt", mel, cropped=True)
        assert "longutt" not in state.label_cache
        cached = pretrain._labels_for(state, "shortutt", mel, cropped=False)
        assert "shortutt" in state.label_cache
        assert np.array_equal(labels, cached)  # same features, same targets

    def test_quantizer_untouched_by_training(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=6))
        fp = state.quantizer_state.fingerprint()
        batch = random_batch(np.random.default_rng(5))
        for _ in range(3):
            pretrain.train_step(state, batch, epoch=0)
        assert state.quantizer_state.fingerprint() == fp

    def test_grad_norm_is_pre_clip_norm(self):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=12, grad_clip=1e-3))
        metrics = pretrain.train_step(state, random_batch(np.random.default_rng(8)), epoch=0)
        assert metrics.grad_norm > 1e-3  # reported before clipping scales it down
        clipped = np.sqrt(sum(np.sum(p.grad.astype(np.float64) ** 2)
                              for p in state.params.values()))
        assert clipped == pytest.approx(1e-3, rel=1e-4)

    def test_peak_memory_below_full_logits(self):
        # the head dominates: 800 target rows x 16 x 512 float32 logits are
        # 26 MB, while the rest of the step, one (rows, 512) block included,
        # peaks near 16 MB, so a step that built the full logits exceeds the bound
        qcfg = quant.QuantizerConfig(num_codebooks=16, vocab_size=512, dim=8)
        enc_cfg = enc.EncoderConfig(num_layers=1, hidden=16, ffn=32, heads=2, dropout=0.0)
        state = pretrain.init_train_state(
            enc_cfg, tiny_config(seed=13, quantizer=qcfg,
                                 mask=masking.MaskConfig(prob=1.0, span_frames=4)))
        batch = random_batch(np.random.default_rng(10), n_utts=8, frames=400)
        pretrain.train_step(state, batch, epoch=0)  # fills the label cache
        tracemalloc.start()
        try:
            metrics = pretrain.train_step(state, batch, epoch=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        logit_bytes = metrics.masked_label_frames * qcfg.num_codebooks * qcfg.vocab_size * 4
        assert metrics.masked_label_frames == 800
        assert peak < logit_bytes


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=7),
                                          run_config={"note": "a"})
        batch = random_batch(np.random.default_rng(6))
        pretrain.train_step(state, batch, epoch=0)
        p1 = tmp_path / "a.msec"
        p2 = tmp_path / "b.msec"
        pretrain.save_checkpoint(state, p1)
        loaded = pretrain.load_checkpoint(p1, "full", TINY_ENC, tiny_config(seed=7),
                                          run_config={"note": "a"})
        assert loaded.step == state.step
        pretrain.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=7))
        path = tmp_path / "a.msec"
        pretrain.save_checkpoint(state, path)
        before = path.read_bytes()

        class Unwritable:
            shape = (2,)

            def astype(self, dtype):
                raise OSError("disk full")
        with pytest.raises(OSError, match="disk full"):
            pretrain.write_checkpoint(path, 5, TINY_ENC, {"a": np.zeros(3), "b": Unwritable()},
                                      {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.msec"]
        loaded = pretrain.load_checkpoint(path, "full", TINY_ENC, tiny_config(seed=7))
        assert loaded.step == state.step

    def test_full_load_draws_no_random_init(self, tmp_path, monkeypatch):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=7))
        pretrain.train_step(state, random_batch(np.random.default_rng(6)), epoch=0)
        path = tmp_path / "a.msec"
        pretrain.save_checkpoint(state, path)

        def no_init(*args, **kwargs):
            raise AssertionError("a full load initialised a parameter at random")
        monkeypatch.setattr(enc, "init_param", no_init)
        loaded = pretrain.load_checkpoint(path, "full", TINY_ENC, tiny_config(seed=7))
        assert list(loaded.params) == list(state.params)
        assert list(loaded.adam.m) == list(loaded.adam.v) == list(state.adam.m)
        again = tmp_path / "b.msec"
        pretrain.save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_feature_extractor_only_restores_exact_subset(self, tmp_path):
        cfg = tiny_config(seed=8)
        state = pretrain.init_train_state(TINY_ENC, cfg)
        batch = random_batch(np.random.default_rng(7))
        for _ in range(2):
            pretrain.train_step(state, batch, epoch=0)
        path = tmp_path / "fe.msec"
        pretrain.save_checkpoint(state, path)

        fresh_cfg = tiny_config(seed=123)
        loaded = pretrain.load_checkpoint(path, "feature_extractor_only",
                                          TINY_ENC, fresh_cfg)
        fresh = pretrain.init_train_state(TINY_ENC, fresh_cfg)
        restored = {name for name, p in loaded.params.items()
                    if np.array_equal(p.data, state.params[name].data)
                    and not np.array_equal(p.data, fresh.params[name].data)}
        extractor = {n for n in state.params if n.startswith("extractor.")}
        assert restored == extractor
        for name, p in loaded.params.items():
            if not name.startswith("extractor."):
                assert np.array_equal(p.data, fresh.params[name].data), name
        assert loaded.step == 0
        assert loaded.adam.count == 0
        assert np.all(loaded.adam.m["head.weight"] == 0)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        state = pretrain.init_train_state(TINY_ENC, tiny_config())
        path = tmp_path / "s.msec"
        pretrain.save_checkpoint(state, path)
        other = enc.EncoderConfig(num_layers=2, hidden=16, ffn=64, heads=4)
        with pytest.raises(CheckpointError, match="extractor.conv1.weight"):
            pretrain.load_checkpoint(path, "full", other, tiny_config())

    def test_quantizer_from_run_config_not_checkpoint(self, tmp_path):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=1))
        path = tmp_path / "q.msec"
        pretrain.save_checkpoint(state, path)
        loaded = pretrain.load_checkpoint(path, "full", TINY_ENC, tiny_config(seed=2))
        want = quant.init_quantizer(2, TINY_Q)
        assert loaded.quantizer_state.fingerprint() == want.fingerprint()
        assert loaded.quantizer_state.fingerprint() != state.quantizer_state.fingerprint()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.msec"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            pretrain.read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        state = pretrain.init_train_state(TINY_ENC, tiny_config())
        path = tmp_path / "t.msec"
        pretrain.save_checkpoint(state, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            pretrain.read_checkpoint(path)

    @pytest.mark.parametrize("key", ["tensors", "step", "name", "shape", "offset"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        state = pretrain.init_train_state(TINY_ENC, tiny_config())
        path = tmp_path / "k.msec"
        pretrain.save_checkpoint(state, path)
        rewrite_checkpoint_header(
            path, lambda header: (header if key in header else header["tensors"][0]).pop(key))
        with pytest.raises(CheckpointError, match=f"missing header key '{key}'"):
            pretrain.read_checkpoint(path)
        with pytest.raises(CheckpointError, match=f"missing header key '{key}'"):
            pretrain.load_checkpoint(path, "full", TINY_ENC, tiny_config())

    @pytest.mark.parametrize("key, edit", [
        ("adam_count", lambda h: h.pop("adam_count")),
        ("step", lambda h: h.update(step="x")),
    ])
    def test_bad_counter_rejected(self, tmp_path, key, edit):
        state = pretrain.init_train_state(TINY_ENC, tiny_config())
        path = tmp_path / "c.msec"
        pretrain.save_checkpoint(state, path)
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(CheckpointError, match=key):
            pretrain.load_checkpoint(path, "full", TINY_ENC, tiny_config())

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="load mode"):
            pretrain.load_checkpoint(tmp_path / "x", "partial", TINY_ENC, tiny_config())


class TestMetricsWriter:
    def test_csv_rows(self, tmp_path):
        path = tmp_path / "metrics.csv"
        with pretrain.MetricsWriter(path) as w:
            w.write(pretrain.StepMetrics(step=1, loss=2.5, learning_rate=1e-4,
                                         masked_label_frames=10,
                                         codebook_utilization=0.25, grad_norm=3.5))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr,masked_frames,utilization,grad_norm"
        assert lines[1].startswith("1,2.5")
        assert lines[1].endswith(",3.500000")
