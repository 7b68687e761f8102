import gc
import json
import os
import struct
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

    def test_init_moments_are_zero_and_unshared(self):
        params = {"w": Tensor(np.ones((3, 4), np.float32)),
                  "b": Tensor(np.ones(5, np.float64))}
        state = pretrain.AdamState.init(params)
        moments = [*state.m.values(), *state.v.values()]
        for name, p in params.items():
            for moment in (state.m[name], state.v[name]):
                assert moment.shape == p.data.shape and moment.dtype == p.data.dtype
                assert moment.flags.writeable and not moment.any()
        for i, a in enumerate(moments):
            assert not any(np.shares_memory(a, b) for b in moments[i + 1:])

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

    def test_clip_norm_bitwise_equal_to_squared_copies(self):
        rng = np.random.default_rng(3)
        grads = {"a": rng.standard_normal((40, 30)).astype(np.float32),
                 "b": rng.standard_normal(70), "c": rng.standard_normal((9, 4)).T}
        want = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
        before = {name: g.copy() for name, g in grads.items()}
        assert pretrain.clip_global_norm(grads, 0.0) == want
        for name, g in grads.items():
            assert g.tobytes() == before[name].tobytes(), name

    @staticmethod
    def whole_tensor_adam(params, grads, state, lr, beta1, beta2, eps):
        """``adam_step`` as the whole-tensor formula it was before it ran in
        blocks."""
        state.count += 1
        t = state.count
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name, p in params.items():
            g, m, v = grads[name], state.m[name], state.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_bitwise_equal_to_whole_tensor_formula(self, dtype):
        # two whole blocks and a part, less than a block, and a transposed
        # parameter that the blocks update through a copy
        n = pretrain.ADAM_BLOCK_VALUES
        rng = np.random.default_rng(4)
        arrays = {"big": rng.standard_normal(2 * n + 123), "small": rng.standard_normal((7, 5)),
                  "transposed": rng.standard_normal((300, 250)).T}
        runs = []
        for step_fn in (pretrain.adam_step, self.whole_tensor_adam):
            params = {k: Tensor(a.astype(dtype)) for k, a in arrays.items()}
            params["transposed"].data = arrays["transposed"].astype(dtype).T.copy().T
            state = pretrain.AdamState.init(params)
            grad_rng = np.random.default_rng(5)
            for step in range(1, 4):
                grads = {k: grad_rng.standard_normal(a.shape).astype(dtype)
                         for k, a in arrays.items()}
                step_fn(params, grads, state, lr_schedule(step, 1e-3, 2), 0.9, 0.98, 1e-8)
            runs.append((params, state))
        (params, state), (want_params, want_state) = runs
        assert not params["transposed"].data.flags.c_contiguous
        assert state.count == want_state.count == 3
        for name in arrays:
            for got, want in ((params[name].data, want_params[name].data),
                              (state.m[name], want_state.m[name]),
                              (state.v[name], want_state.v[name])):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes(), name


def resident_bytes():
    """This process's resident set size from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_init_train_state_touches_only_parameters_and_quantizer():
    """A default-config start-up makes resident its parameters and quantizer,
    not its Adam moments (touched at the first step) or full-size float64
    init draws."""
    gc.collect()
    before = resident_bytes()
    state = pretrain.init_train_state(enc.DESK_SCALE, PretrainConfig())
    grown = resident_bytes() - before
    qs = state.quantizer_state
    used = (sum(p.data.nbytes for p in state.params.values())
            + qs.projections.nbytes + qs.codebooks.nbytes)
    assert grown <= used + 8 * 2**20, (grown, used)


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

    def test_grad_norm_is_pre_clip_norm(self, monkeypatch):
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=12, grad_clip=1e-3))
        received = []
        adam_step = pretrain.adam_step

        def keep_grads(params, grads, *args):
            received.extend(grads.values())
            return adam_step(params, grads, *args)

        monkeypatch.setattr(pretrain, "adam_step", keep_grads)
        metrics = pretrain.train_step(state, random_batch(np.random.default_rng(8)), epoch=0)
        assert metrics.grad_norm > 1e-3  # reported before clipping scales it down
        assert len(received) == len(state.params)
        clipped = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in received))
        assert clipped == pytest.approx(1e-3, rel=1e-4)

    def test_step_leaves_no_gradient_on_parameters(self):
        # the step's gradients are freed with its dict, not kept alive
        # through the next step's forward
        state = pretrain.init_train_state(TINY_ENC, tiny_config(seed=12))
        assert pretrain.train_step(state, random_batch(np.random.default_rng(8)), 0) is not None
        assert [name for name, p in state.params.items() if p.grad is not None] == []

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

            def __array__(self, dtype=None, copy=None):
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


def old_write_checkpoint(path, step, encoder_cfg, tensors, fields):
    """Reference MSEC writer that copies each tensor through
    ``astype("<f4").tobytes()``; ``write_checkpoint`` must match it byte for byte."""
    entries = []
    offset = 0
    for name in sorted(tensors):
        shape = list(tensors[name].shape)
        entries.append({"name": name, "shape": shape, "offset": offset})
        offset += int(np.prod(shape)) * 4
    header = {**fields, "format_version": 1, "step": step,
              "encoder_config": encoder_cfg.to_dict(), "tensors": entries}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"MSEC" + struct.pack("<II", 1, len(blob)) + blob)
        for entry in entries:
            f.write(tensors[entry["name"]].astype("<f4").tobytes())


def record_input(kind):
    rng = np.random.default_rng(31)
    return {
        "float32": lambda: rng.standard_normal((3, 5)).astype(np.float32),
        "float64": lambda: rng.standard_normal((4, 2)),
        "big_endian": lambda: rng.standard_normal((2, 3)).astype(">f4"),
        "transposed_view": lambda: rng.standard_normal((3, 5)).astype(np.float32).T,
        "scalar": lambda: np.array(2.5, dtype=np.float32),
        "zero_size": lambda: np.zeros((0, 3), dtype=np.float32),
    }[kind]()


RECORD_KINDS = ["float32", "float64", "big_endian", "transposed_view", "scalar", "zero_size"]


class TestCheckpointRecord:
    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_file_matches_copying_writer(self, tmp_path, kind):
        tensors = {"a": record_input(kind), "b": np.arange(3, dtype=np.float32)}
        pretrain.write_checkpoint(tmp_path / "new.msec", 4, TINY_ENC, tensors, {"note": kind})
        old_write_checkpoint(tmp_path / "old.msec", 4, TINY_ENC, tensors, {"note": kind})
        assert (tmp_path / "new.msec").read_bytes() == (tmp_path / "old.msec").read_bytes()

    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_loaded_arrays_own_writeable_float32(self, tmp_path, kind):
        tensors = {"a": record_input(kind), "b": np.arange(3, dtype=np.float32)}
        path = tmp_path / "r.msec"
        pretrain.write_checkpoint(path, 4, TINY_ENC, tensors, {})
        header, loaded = pretrain.read_checkpoint(path)
        assert header["step"] == 4 and list(loaded) == ["a", "b"]
        for name, arr in loaded.items():
            assert arr.dtype == np.float32 and arr.shape == tensors[name].shape
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
            assert arr.tobytes() == tensors[name].astype("<f4").tobytes()

    def test_keep_reads_only_accepted_names(self, tmp_path):
        path = tmp_path / "k.msec"
        tensors = {name: np.full(2, i, dtype=np.float32)
                   for i, name in enumerate(["extractor.x", "head.w", "opt.m.head.w"])}
        pretrain.write_checkpoint(path, 1, TINY_ENC, tensors, {})
        header, loaded = pretrain.read_checkpoint(path, keep=lambda n: n.startswith("head."))
        assert list(loaded) == ["head.w"] and loaded["head.w"].tolist() == [1.0, 1.0]
        assert len(header["tensors"]) == 3

    def test_skipped_tensor_cut_is_truncated_data(self, tmp_path):
        path = tmp_path / "t.msec"
        pretrain.write_checkpoint(path, 1, TINY_ENC, {"a": np.ones(4, np.float32),
                                                      "z": np.ones(4, np.float32)}, {})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match=r"\(truncated data\)"):
            pretrain.read_checkpoint(path, keep=lambda name: name == "a")
        with pytest.raises(CheckpointError, match=r"\(truncated data\)"):
            pretrain.read_checkpoint(path, keep=lambda name: False)

    @staticmethod
    def corrupt(raw, how):
        (header_len,) = struct.unpack("<I", raw[8:12])
        return {
            "bad magic": lambda: b"MSEX" + raw[4:],
            "version": lambda: raw[:4] + struct.pack("<I", 9) + raw[8:],
            "truncated header": lambda: raw[: 12 + header_len - 1],
            "bad header": lambda: raw[:12] + b"\xff" * header_len + raw[12 + header_len:],
            "truncated data": lambda: raw[:-1],
        }[how]()

    @pytest.mark.parametrize("how, message", [
        ("bad magic", "corrupt checkpoint: {path} (bad magic)"),
        ("version", "checkpoint version 9 unsupported (expected 1): {path}"),
        ("truncated header", "corrupt checkpoint: {path} (truncated header)"),
        ("bad header", "corrupt checkpoint: {path} (bad header)"),
        ("truncated data", "corrupt checkpoint: {path} (truncated data)"),
    ])
    def test_corruption_messages(self, tmp_path, how, message):
        path = tmp_path / "c.msec"
        pretrain.write_checkpoint(path, 1, TINY_ENC, {"a": np.ones(4, np.float32)}, {})
        path.write_bytes(self.corrupt(path.read_bytes(), how))
        with pytest.raises(CheckpointError) as err:
            pretrain.read_checkpoint(path)
        assert str(err.value) == message.format(path=path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("mode", pretrain.LOAD_MODES)
    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(tensors=[e for e in h["tensors"]
                                     if e["name"] != "extractor.proj.bias"]),
         "checkpoint missing tensor extractor.proj.bias: {path}"),
        (lambda h: [e.update(shape=[2, e["shape"][0] // 2]) for e in h["tensors"]
                    if e["name"] == "extractor.proj.bias"],
         "shape mismatch for tensor extractor.proj.bias: checkpoint {path} has (2, 16), "
         "config (32,)"),
    ])
    def test_restore_messages_name_the_file(self, tmp_path, mode, edit, message):
        path = tmp_path / "r.msec"
        pretrain.save_checkpoint(pretrain.init_train_state(TINY_ENC, tiny_config()), path)
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(CheckpointError) as err:
            pretrain.load_checkpoint(path, mode, TINY_ENC, tiny_config())
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("shape, offset", [([-4], 0), ([4.0], 0), ("4", 0), ([4], -4)])
    def test_bad_tensor_entry_rejected(self, tmp_path, shape, offset):
        path = tmp_path / "e.msec"
        pretrain.write_checkpoint(path, 1, TINY_ENC, {"a": np.ones(4, np.float32)}, {})
        rewrite_checkpoint_header(path, lambda h: h["tensors"][0].update(shape=shape,
                                                                         offset=offset))
        with pytest.raises(CheckpointError, match=r"\(bad tensor entry 'a'\)"):
            pretrain.read_checkpoint(path, keep=lambda name: False)

    def test_unreadable_path_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            pretrain.read_checkpoint(tmp_path)
        assert str(err.value).startswith(f"cannot read checkpoint: {tmp_path} (")
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            pretrain.read_checkpoint(tmp_path / "absent.msec")

    def test_feature_extractor_only_reads_extractor_tensors(self, tmp_path, monkeypatch):
        path = tmp_path / "fe.msec"
        pretrain.save_checkpoint(pretrain.init_train_state(TINY_ENC, tiny_config()), path)
        read = []
        real = pretrain.read_checkpoint

        def spy(*args, **kwargs):
            header, tensors = real(*args, **kwargs)
            read.extend(tensors)
            return header, tensors
        monkeypatch.setattr(pretrain, "read_checkpoint", spy)
        pretrain.load_checkpoint(path, "feature_extractor_only", TINY_ENC, tiny_config())
        assert read and all(name.startswith("extractor.") for name in read)


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
