import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import encoder
from rqspeech.autodiff import Tensor
from rqspeech.encoder import EncoderConfig

TINY = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, conv_kernel=5, dropout=0.0)


def make_params(cfg, seed=0, dtype=np.float32):
    return encoder.params_to_tensors(encoder.init_encoder_params(cfg, seed, dtype))


class TestConfig:
    def test_rejects_bad_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(hidden=10, heads=4)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            EncoderConfig(conv_kernel=4)

    def test_rejects_odd_hidden(self):
        with pytest.raises(ValueError, match="even"):
            EncoderConfig(hidden=63, heads=1)


class TestExtract:
    def test_stride_arithmetic(self):
        params = make_params(TINY)
        mel = np.zeros((1, 100, 80), dtype=np.float32)
        feats, lens = encoder.extract(params, TINY, mel)
        assert feats.shape == (1, 25, 8)
        assert lens[0] == 25

    def test_length_formula_matches_quantizer_exhaustively(self):
        params = make_params(TINY)
        for t in range(8, 201, 3):
            mel = np.zeros((1, t, 80), dtype=np.float32)
            _, lens = encoder.extract(params, TINY, mel)
            assert lens[0] == t // 4, t

    def test_zero_input_finite(self):
        params = make_params(TINY)
        out = encoder.encode(params, TINY, np.zeros((2, 40, 80), dtype=np.float32))
        for state in out.layer_states:
            assert np.all(np.isfinite(state.data))

    def test_too_short_raises(self):
        params = make_params(TINY)
        with pytest.raises(ValueError, match="too short"):
            encoder.extract(params, TINY, np.zeros((1, 7, 80), dtype=np.float32))


class TestForward:
    def test_padded_matches_unpadded(self):
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2, dropout=0.0)
        params = make_params(cfg, seed=5)
        rng = np.random.default_rng(0)
        short = rng.standard_normal((40, 80)).astype(np.float32)
        long = rng.standard_normal((100, 80)).astype(np.float32)

        solo = encoder.encode(params, cfg, short[None], np.array([40]))
        # pad with garbage, not zeros: the contract is that anything past the
        # valid length is ignored
        padded = rng.standard_normal((2, 100, 80)).astype(np.float32)
        padded[0, :40] = short
        padded[1] = long
        batch = encoder.encode(params, cfg, padded, np.array([40, 100]))

        l = 40 // 4
        for s_state, b_state in zip(solo.layer_states, batch.layer_states):
            np.testing.assert_allclose(b_state.data[0, :l], s_state.data[0, :l],
                                       rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(batch.final.data[0, :l], solo.final.data[0, :l],
                                   rtol=1e-5, atol=1e-6)

    def test_singleton_attention_weight_is_one(self):
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=1, dropout=0.0)
        params = make_params(cfg)
        feats = Tensor(np.random.default_rng(0).standard_normal((1, 1, 8)).astype(np.float32))
        sink = []
        encoder.forward(params, cfg, feats, np.array([1]), attn_sink=sink)
        assert sink[0].shape == (1, 1, 1, 1)
        assert sink[0][0, 0, 0, 0] == 1.0

    def test_deterministic_without_dropout(self):
        params = make_params(TINY, seed=3)
        mel = np.random.default_rng(1).standard_normal((2, 48, 80)).astype(np.float32)
        a = encoder.encode(params, TINY, mel)
        b = encoder.encode(params, TINY, mel)
        assert np.array_equal(a.final.data, b.final.data)
        # raw arrays work as params too: every op wraps its inputs
        raw = encoder.encode(encoder.init_encoder_params(TINY, 3), TINY, mel)
        assert np.array_equal(a.final.data, raw.final.data)

    def test_attention_rows_sum_to_one_over_valid_keys(self):
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=4, dropout=0.0)
        params = make_params(cfg, seed=7)
        mel = np.random.default_rng(2).standard_normal((2, 60, 80)).astype(np.float32)
        sink = []
        out = encoder.encode(params, cfg, mel, np.array([33, 60]), attn_sink=sink)
        for attn in sink:
            sums = attn.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-6)
            # masked keys beyond each utterance's length carry no probability
            l0 = out.lengths[0]
            assert np.all(attn[0, :, :, l0:] == 0.0)

    def test_layer_state_count(self):
        params = make_params(TINY)
        out = encoder.encode(params, TINY, np.zeros((1, 16, 80), np.float32))
        assert len(out.layer_states) == TINY.num_layers + 1

    def test_dropout_changes_training_forward(self):
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.5)
        params = make_params(cfg)
        mel = np.random.default_rng(3).standard_normal((1, 24, 80)).astype(np.float32)
        a = encoder.encode(params, cfg, mel, train=True, rng=np.random.default_rng(1))
        b = encoder.encode(params, cfg, mel, train=True, rng=np.random.default_rng(2))
        c = encoder.encode(params, cfg, mel, train=False)
        assert not np.array_equal(a.final.data, b.final.data)
        assert np.array_equal(c.final.data,
                              encoder.encode(params, cfg, mel, train=False).final.data)


class TestRelativeAttentionOracle:
    """Independent reimplementation of the attention scoring semantics:
    softmax_j[((q_i+u).k_j + (q_i+v).W_pos pe(i-j)) / sqrt(d)] over valid keys."""

    def reference(self, arrays, cfg, x, lengths):
        h, heads, d = cfg.hidden, cfg.heads, cfg.head_dim
        b, l, _ = x.shape
        pre = "layers.0.attn."
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        y = (x - mu) / np.sqrt(var + 1e-5) * arrays[pre + "ln.gamma"] + arrays[pre + "ln.beta"]

        def heads_of(mat):
            return mat.reshape(b, l, heads, d)

        q = heads_of(y @ arrays[pre + "wq.weight"] + arrays[pre + "wq.bias"])
        k = heads_of(y @ arrays[pre + "wk.weight"] + arrays[pre + "wk.bias"])
        v = heads_of(y @ arrays[pre + "wv.weight"] + arrays[pre + "wv.bias"])
        u = arrays[pre + "bias_u"]
        vb = arrays[pre + "bias_v"]

        def pe(offset):
            enc = np.zeros(h)
            for kk in range(0, h, 2):
                angle = offset / (10000.0 ** (kk / h))
                enc[kk] = np.sin(angle)
                enc[kk + 1] = np.cos(angle)
            return enc

        out = np.zeros((b, l, h))
        for bi in range(b):
            valid = lengths[bi]
            for hd in range(heads):
                for i in range(l):
                    scores = np.full(l, -np.inf)
                    for j in range(valid):
                        r = (pe(i - j) @ arrays[pre + "pos.weight"]).reshape(heads, d)[hd]
                        scores[j] = ((q[bi, i, hd] + u[hd]) @ k[bi, j, hd]
                                     + (q[bi, i, hd] + vb[hd]) @ r) / np.sqrt(d)
                    weights = np.exp(scores - scores[:valid].max())
                    weights[valid:] = 0.0
                    weights = weights / weights.sum()
                    ctx = sum(weights[j] * v[bi, j, hd] for j in range(valid))
                    out[bi, i, hd * d: (hd + 1) * d] = ctx
        return out @ arrays[pre + "wo.weight"] + arrays[pre + "wo.bias"]

    def test_module_matches_reference(self):
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.0)
        arrays = encoder.init_encoder_params(cfg, seed=9, dtype=np.float64)
        params = encoder.params_to_tensors(arrays)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 5, 8))
        lengths = np.array([4, 5])

        l = x.shape[1]
        key_mask = np.where(np.arange(l)[None, :] < lengths[:, None], 0.0, -np.inf)
        key_mask = key_mask[:, None, None, :]
        pos_enc = encoder.sinusoid_offsets(l - 1, cfg.hidden, np.float64)
        got = encoder._rel_attention(params, "layers.0.attn.", cfg, Tensor(x),
                                     key_mask, pos_enc, False, None, None)
        want = self.reference(arrays, cfg, x, lengths)
        # rows for padded queries attend over valid keys in both, so compare all
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def recorded_nodes(out: Tensor) -> int:
    """Number of tape nodes reachable from ``out``."""
    recorded, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in recorded:
            recorded.add(id(node))
            stack.extend(node._parents)
    return len(recorded)


class TestAttentionTape:
    def test_attention_core_is_one_node(self):
        # layer norm, the q/k/v linears, rel_attention and the output linear;
        # the same attention built from generic ops records 29
        params = make_params(TINY)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        key_mask = np.zeros((2, 1, 1, 5), np.float32)
        pos_enc = encoder.sinusoid_offsets(4, TINY.hidden, np.float32)
        out = encoder._rel_attention(params, "layers.0.attn.", TINY, x, key_mask,
                                     pos_enc, True, np.random.default_rng(0), None)
        assert recorded_nodes(out) <= 6


class TestConvTape:
    def test_conv_norm_is_one_node(self):
        # the masked per-utterance norm is one layer_norm node; built from
        # generic ops it recorded 14, and the block 30
        params = make_params(TINY)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        mask = encoder._valid_mask(np.array([5, 3]), 5, np.float32)
        out = encoder._conv_block(params, "layers.0.conv.", TINY, x, mask, True,
                                  np.random.default_rng(0))
        assert recorded_nodes(out) <= 17


class TestConvBlockOracle:
    """Loop-based reference for the convolution block: LN, pointwise + GLU,
    zero-masked depthwise conv ('same' padding), per-(utterance, channel)
    statistics over valid frames, swish, pointwise."""

    def reference(self, arrays, cfg, x, lengths):
        h, k = cfg.hidden, cfg.conv_kernel
        b, l, _ = x.shape
        pre = "layers.0.conv."
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        y = (x - mu) / np.sqrt(var + 1e-5) * arrays[pre + "ln.gamma"] + arrays[pre + "ln.beta"]

        y = y @ arrays[pre + "pw1.weight"] + arrays[pre + "pw1.bias"]
        gate = 1.0 / (1.0 + np.exp(-y[:, :, h:]))
        y = y[:, :, :h] * gate

        for bi in range(b):
            y[bi, lengths[bi]:] = 0.0
        half = (k - 1) // 2
        conv = np.zeros_like(y)
        for bi in range(b):
            for t in range(l):
                for tap in range(k):
                    src = t + tap - half
                    if 0 <= src < l:
                        conv[bi, t] += y[bi, src] * arrays[pre + "dw.weight"][tap]
        conv += arrays[pre + "dw.bias"]

        out = np.zeros_like(conv)
        for bi in range(b):
            n = lengths[bi]
            mean = conv[bi, :n].sum(axis=0) / n
            centered = np.zeros_like(conv[bi])
            centered[:n] = conv[bi, :n] - mean
            variance = (centered[:n] ** 2).sum(axis=0) / n
            normed = centered / np.sqrt(variance + 1e-5)
            out[bi] = normed * arrays[pre + "norm.gamma"] + arrays[pre + "norm.beta"]

        out = out * (1.0 / (1.0 + np.exp(-out)))  # swish
        return out @ arrays[pre + "pw2.weight"] + arrays[pre + "pw2.bias"]

    def test_module_matches_reference(self):
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.0)
        arrays = encoder.init_encoder_params(cfg, seed=21, dtype=np.float64)
        params = encoder.params_to_tensors(arrays)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 6, 8))
        lengths = np.array([4, 6])

        mask = (np.arange(6)[None, :] < lengths[:, None]).astype(np.float64)[:, :, None]
        got = encoder._conv_block(params, "layers.0.conv.", cfg, Tensor(x), mask, False, None)
        want = self.reference(arrays, cfg, x.copy(), lengths)
        valid0 = lengths[0]
        np.testing.assert_allclose(got.data[0, :valid0], want[0, :valid0], atol=1e-10)
        np.testing.assert_allclose(got.data[1], want[1], atol=1e-10)


class TestWeightedSum:
    def test_saturated_logits_pick_one_layer(self):
        states = [Tensor(np.full((1, 2, 3), float(i))) for i in range(4)]
        logits = np.array([0.0, 1e6, 0.0, 0.0])
        out = encoder.weighted_sum(states, logits)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    def test_equal_logits_average(self):
        states = [Tensor(np.full((1, 2, 2), float(i))) for i in range(3)]
        out = encoder.weighted_sum(states, np.zeros(3))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-7)

    def test_hand_computed_mixture(self):
        rng = np.random.default_rng(0)
        states = [Tensor(rng.standard_normal((1, 2, 2))) for _ in range(3)]
        logits = rng.standard_normal(3)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        want = sum(wi * s.data for wi, s in zip(w, states))
        out = encoder.weighted_sum(states, logits)
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="layer weights"):
            encoder.weighted_sum([Tensor(np.zeros((1, 2, 2)))], np.zeros(3))


class TestGradients:
    """Spot FD checks per parameter family; the full sweep runs in acceptance."""

    def loss_fn(self, params, cfg, mel, lengths, wlogits, probe):
        out = encoder.encode(params, cfg, mel, lengths)
        mixed = encoder.weighted_sum(out.layer_states, wlogits)
        return ad.add(ad.sum_(ad.mul(out.final, probe)),
                      ad.sum_(ad.mul(mixed, probe)))

    def test_selected_params_match_finite_differences(self):
        cfg = TINY
        params = make_params(cfg, seed=2, dtype=np.float64)
        rng = np.random.default_rng(4)
        mel = rng.standard_normal((2, 16, 80))
        lengths = np.array([12, 16])
        probe = rng.standard_normal((2, 4, cfg.hidden))
        wlogits = Tensor(rng.standard_normal(cfg.num_layers + 1), requires_grad=True)

        loss = self.loss_fn(params, cfg, mel, lengths, wlogits, probe)
        loss.backward()

        picks = ["extractor.conv1.weight", "extractor.proj.bias",
                 "layers.0.ffn1.w1.weight", "layers.0.attn.wq.weight",
                 "layers.0.attn.pos.weight", "layers.0.attn.bias_u",
                 "layers.0.conv.dw.weight", "layers.0.conv.norm.gamma",
                 "layers.0.out_ln.beta", "final_ln.gamma"]
        step = 1e-5
        for name in picks:
            t = params[name]
            assert t.grad is not None, name
            flat = t.data.reshape(-1)
            gflat = t.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                saved = flat[i]
                flat[i] = saved + step
                with ad.no_grad():
                    hi = self.loss_fn(params, cfg, mel, lengths, wlogits, probe).item()
                flat[i] = saved - step
                with ad.no_grad():
                    lo = self.loss_fn(params, cfg, mel, lengths, wlogits, probe).item()
                flat[i] = saved
                fd = (hi - lo) / (2 * step)
                assert abs(gflat[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (name, i)

        # weighted-sum logits gradient
        wl_grad = wlogits.grad.copy()
        for i in range(wlogits.data.size):
            saved = wlogits.data[i]
            wlogits.data[i] = saved + step
            with ad.no_grad():
                hi = self.loss_fn(params, cfg, mel, lengths, wlogits, probe).item()
            wlogits.data[i] = saved - step
            with ad.no_grad():
                lo = self.loss_fn(params, cfg, mel, lengths, wlogits, probe).item()
            wlogits.data[i] = saved
            fd = (hi - lo) / (2 * step)
            assert abs(wl_grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestParamCount:
    def test_reference_scale_near_published_size(self):
        total, breakdown = encoder.count_params(encoder.REFERENCE_SCALE)
        assert sum(breakdown.values()) == total
        assert abs(total - 630e6) / 630e6 < 0.05

    def test_breakdown_matches_materialized_params(self):
        params = encoder.init_encoder_params(TINY, 0)
        _, breakdown = encoder.count_params(TINY)
        assert set(breakdown) == set(params)
        for name, n in breakdown.items():
            assert params[name].size == n
