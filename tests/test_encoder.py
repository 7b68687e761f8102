import math
import sys
import threading

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import encoder, parallel, pretrain
from rqspeech.autodiff import Tensor
from rqspeech.encoder import EncoderConfig
from rqspeech.quantizer import QuantizerConfig
from rqspeech.seeding import keyed_rng

from conftest import (float_dropout, masked_norm_node, relu_node, traced_bytes,
                      unfold_time_node)

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

    @pytest.mark.parametrize("name, value", [("hidden", 64.0), ("num_layers", True),
                                             ("heads", "4")])
    def test_rejects_size_that_is_not_an_int(self, name, value):
        # a checkpoint header's JSON can carry any of these
        with pytest.raises(ValueError, match=f"^{name} must be an int$"):
            EncoderConfig(**{name: value})


class TestExtract:
    def test_stride_arithmetic(self):
        params = make_params(TINY)
        mel = np.zeros((1, 100, 80), dtype=np.float32)
        out = encoder.encode(params, TINY, mel, np.array([100]))
        assert out.layer_states[0].shape == out.final.shape == (1, 25, 8)
        assert out.lengths[0] == 25

    def test_length_formula_matches_quantizer_exhaustively(self):
        params = make_params(TINY)
        for t in range(8, 201, 3):
            mel = np.zeros((1, t, 80), dtype=np.float32)
            out = encoder.encode(params, TINY, mel, np.array([t]))
            assert out.final.shape[1] == out.lengths[0] == t // 4, t

    def test_zero_input_finite(self):
        params = make_params(TINY)
        out = encoder.encode(params, TINY, np.zeros((2, 40, 80), dtype=np.float32),
                             np.array([40, 40]))
        for state in out.layer_states:
            assert np.all(np.isfinite(state.data))

    def test_too_short_raises(self):
        params = make_params(TINY)
        with pytest.raises(ValueError, match="too short"):
            encoder.encode(params, TINY, np.zeros((1, 7, 80), dtype=np.float32),
                           np.array([7]))

    @pytest.mark.parametrize("mel_shape, lengths", [
        ((40, 80), [40]),        # one utterance without its batch axis
        ((2, 40, 80), [40]),     # a length short
        ((2, 40, 80), [40, 41]),  # a length past the padded frames
    ])
    def test_rejects_malformed_batch(self, mel_shape, lengths):
        params = make_params(TINY)
        with pytest.raises(ValueError, match="log-Mel batch"):
            encoder.encode(params, TINY, np.zeros(mel_shape, np.float32), np.array(lengths))


class TestOffsetTable:
    @staticmethod
    def fresh(max_offset, hidden, dtype):
        """The encodings of offsets -M..M computed on their own, as every
        encode computed them before the table was shared."""
        offsets = np.arange(-max_offset, max_offset + 1, dtype=np.float64)
        inv_freq = 1.0 / (10000.0 ** (np.arange(0, hidden, 2, dtype=np.float64) / hidden))
        angles = offsets[:, None] * inv_freq[None, :]
        enc = np.zeros((len(offsets), hidden))
        enc[:, 0::2] = np.sin(angles)
        enc[:, 1::2] = np.cos(angles)
        return enc.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grown_table_slices_equal_fresh_tables(self, monkeypatch, dtype):
        monkeypatch.setattr(encoder, "_OFFSET_TABLES", {})
        encoder.sinusoid_offsets(4, 64, dtype)
        longest = encoder.sinusoid_offsets(799, 64, dtype)
        assert not longest.flags.writeable
        for l in range(1, 801):
            got = encoder.sinusoid_offsets(l - 1, 64, dtype)
            want = self.fresh(l - 1, 64, dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), l
            assert not got.flags.writeable
        # one table per (hidden, dtype), grown once and sliced since
        assert list(encoder._OFFSET_TABLES) == [(64, np.dtype(dtype))]
        assert encoder.sinusoid_offsets(3, 64, dtype).base is longest.base

    def test_shorter_request_keeps_the_longer_table(self, monkeypatch):
        monkeypatch.setattr(encoder, "_OFFSET_TABLES", {})
        long = encoder.sinusoid_offsets(50, 16, np.float32)
        encoder.sinusoid_offsets(10, 16, np.float32)
        assert encoder._OFFSET_TABLES[(16, np.dtype(np.float32))] is long.base
        with pytest.raises(ValueError):
            long[0, 0] = 1.0


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
        # a lone frame attends to itself with weight exactly 1: its context is its value
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 1, 8)).astype(np.float32) for _ in range(3))
        pos_enc = encoder.sinusoid_offsets(0, 8, np.float32)
        bias = rng.standard_normal((1, 8)).astype(np.float32)
        ctx, _ = ad._rel_attention(q, k, v, pos_enc, np.eye(8, dtype=np.float32), bias, bias,
                                   np.zeros((1, 1, 1, 1), np.float32), 1, 0.0, None)
        assert np.array_equal(ctx, v)

    def test_deterministic_without_dropout(self):
        params = make_params(TINY, seed=3)
        mel = np.random.default_rng(1).standard_normal((2, 48, 80)).astype(np.float32)
        lengths = np.array([48, 30])
        a = encoder.encode(params, TINY, mel, lengths)
        b = encoder.encode(params, TINY, mel, lengths)
        assert np.array_equal(a.final.data, b.final.data)
        # raw arrays work as params too: every op wraps its inputs
        raw = encoder.encode(encoder.init_encoder_params(TINY, 3), TINY, mel, lengths)
        assert np.array_equal(a.final.data, raw.final.data)

    def test_attention_rows_sum_to_one_over_valid_keys(self):
        # the context of all-one values is each row's total weight; values that
        # are one only on utterance 0's padded keys show the weight on them
        rng = np.random.default_rng(2)
        b, l, heads, lengths = 2, 15, 4, np.array([8, 15])
        q, k = (rng.standard_normal((b, l, 16)).astype(np.float32) for _ in range(2))
        key_mask = np.where(np.arange(l)[None, :] < lengths[:, None], 0.0, -np.inf)
        key_mask = key_mask.astype(np.float32)[:, None, None, :]
        rest = (encoder.sinusoid_offsets(l - 1, 16, np.float32),
                rng.standard_normal((16, 16)).astype(np.float32),
                rng.standard_normal((heads, 4)).astype(np.float32),
                rng.standard_normal((heads, 4)).astype(np.float32), key_mask, heads, 0.0, None)
        ones, _ = ad._rel_attention(q, k, np.ones((b, l, 16), np.float32), *rest)
        assert np.all(np.abs(ones - 1.0) < 1e-6)
        padded = np.zeros((b, l, 16), np.float32)
        padded[0, lengths[0]:] = 1.0
        assert np.all(ad._rel_attention(q, k, padded, *rest)[0][0] == 0.0)

    def test_layer_state_count(self):
        params = make_params(TINY)
        out = encoder.encode(params, TINY, np.zeros((1, 16, 80), np.float32), np.array([16]))
        assert len(out.layer_states) == TINY.num_layers + 1

    def test_dropout_changes_training_forward(self):
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.5)
        params = make_params(cfg)
        mel = np.random.default_rng(3).standard_normal((1, 24, 80)).astype(np.float32)
        lengths = np.array([24])
        a = encoder.encode(params, cfg, mel, lengths, train=True, rng=np.random.default_rng(1))
        b = encoder.encode(params, cfg, mel, lengths, train=True, rng=np.random.default_rng(2))
        c = encoder.encode(params, cfg, mel, lengths, train=False)
        assert not np.array_equal(a.final.data, b.final.data)
        assert np.array_equal(c.final.data,
                              encoder.encode(params, cfg, mel, lengths, train=False).final.data)


class TestRelativeAttentionOracle:
    """Independent reimplementation of the attention scoring semantics:
    softmax_j[((q_i+u).k_j + (q_i+v).W_pos pe(i-j)) / sqrt(d)] over valid keys;
    the block's node adds its input, the residual, to the result."""

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
        k = heads_of(y @ arrays[pre + "wk.weight"])
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
        got = ad.attention_block(Tensor(x), key_mask, pos_enc,
                                 *encoder._block_params(params, "layers.0.attn.", encoder._ATTN),
                                 cfg.heads, encoder.LN_EPS, 0.0, None)
        want = x + self.reference(arrays, cfg, x, lengths)
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
        # built from generic ops the block recorded 29 nodes; with the
        # relative attention one node, 7: layer norm, the q/k/v linears, the
        # attention, the output linear and the output dropout
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.1)
        params = make_params(cfg)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        key_mask = np.zeros((2, 1, 1, 5), np.float32)
        pos_enc = encoder.sinusoid_offsets(4, cfg.hidden, np.float32)
        out = ad.attention_block(x, key_mask, pos_enc,
                                 *encoder._block_params(params, "layers.0.attn.", encoder._ATTN),
                                 cfg.heads, encoder.LN_EPS, cfg.dropout, np.random.default_rng(0))
        assert recorded_nodes(out) == 1


class TestConvTape:
    def test_conv_module_is_one_node_with_dropout(self):
        # built from generic ops the norm recorded 14 nodes and the block 30;
        # with the GLU, depthwise convolution and swish as chains the block
        # was 15, with each of its seven steps one node 7, and 2 while its
        # dropout was a node of its own
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.1)
        params = make_params(cfg)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        mask = encoder._valid_mask(np.array([5, 3]), 5, np.float32)
        out = ad.conv_module(x, mask,
                             *encoder._block_params(params, "layers.0.conv.", encoder._CONV),
                             encoder.LN_EPS, encoder.CONV_NORM_EPS, cfg.dropout,
                             np.random.default_rng(0))
        assert recorded_nodes(out) == 1


class TestFfnTape:
    def test_half_ffn_is_one_node_with_dropout(self):
        # layer norm, w1, swish, dropout, w2, dropout and the halving were
        # seven nodes
        cfg = EncoderConfig(num_layers=1, hidden=8, ffn=16, heads=2, dropout=0.1)
        params = make_params(cfg)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        out = ad.half_ffn(x, *encoder._block_params(params, "layers.0.ffn1.", encoder._FFN),
                          encoder.LN_EPS, cfg.dropout, np.random.default_rng(0))
        assert recorded_nodes(out) == 1


class TestExtractorTape:
    def test_extractor_is_one_node(self):
        # the windows, reshape, linear, ReLU and mask product of each
        # convolution, then the projection and its mask product, were ten
        params = make_params(TINY)
        mel = np.random.default_rng(0).standard_normal((2, 40, 80)).astype(np.float32)
        out, lengths = encoder._extract(params, mel, np.array([40, 23]))
        assert recorded_nodes(out) == 1
        assert out.shape == (2, 10, TINY.hidden) and list(lengths) == [10, 5]


class TestExtractorGradients:
    """The extractor node alone, in float64, on a ragged batch whose lengths
    are not all multiples of 4."""

    lengths = np.array([23, 16, 9])
    names = [name for name in encoder.param_shapes(TINY) if name.startswith("extractor.")]

    def run(self, mel, probe, params):
        out, _ = encoder._extract(params, mel, self.lengths)
        return ad.sum_(ad.mul(out, probe))

    def problem(self):
        rng = np.random.default_rng(9)
        mel = rng.standard_normal((3, 23, 80))
        probe = rng.standard_normal((3, 5, TINY.hidden))
        # biases of zero would leave the ReLUs' kinks where the inputs are
        params = {name: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
                  for name, shape in encoder.param_shapes(TINY).items()
                  if name in self.names}
        return mel, probe, params

    def test_all_six_gradients_match_finite_differences(self):
        mel, probe, params = self.problem()
        self.run(mel, probe, params).backward()
        assert len(self.names) == 6
        step = 1e-6
        for name in self.names:
            t = params[name]
            want = np.zeros_like(t.data)
            flat, wflat = t.data.reshape(-1), want.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + step
                with ad.no_grad():
                    hi = self.run(mel, probe, params).item()
                flat[i] = saved - step
                with ad.no_grad():
                    lo = self.run(mel, probe, params).item()
                flat[i] = saved
                wflat[i] = (hi - lo) / (2 * step)
            np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-6, err_msg=name)

    def test_padded_frames_change_nothing(self):
        mel, probe, params = self.problem()
        garbage = mel.copy()
        for b, length in enumerate(self.lengths):
            garbage[b, length:] = 1e3 * np.random.default_rng(b).standard_normal(
                (mel.shape[1] - length, 80))
        results = []
        for x in (mel, garbage):
            for t in params.values():
                t.zero_grad()
            out, _ = encoder._extract(params, x, self.lengths)
            ad.sum_(ad.mul(out, probe)).backward()
            results.append([out.data] + [params[name].grad for name in self.names])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()


class TestEncoderTape:
    def test_default_encoder_node_count(self):
        # 172 nodes while the convolutions recorded separate padding and
        # weight-reshape nodes, 163 while swish, the GLU and the depthwise
        # convolution were chains of generic ops, 123 while each step of the
        # FFNs and the conv modules was a node of its own, 67 while each
        # attention block was six, 47 while each sub-block's residual was an
        # add node of its own, 31 while the extractor was ten
        cfg = EncoderConfig()
        params = make_params(cfg)
        mel = np.random.default_rng(0).standard_normal((2, 40, 80)).astype(np.float32)
        out = encoder.encode(params, cfg, mel, np.array([40, 23]))
        assert recorded_nodes(out.final) <= 22


class TestRetainedMemory:
    """What a training forward leaves alive for the backward, and the most
    the backward holds on top of it."""

    def tape_bytes_per_label_frame(self, b, t, dropout=0.0, ffn=256):
        cfg = EncoderConfig(ffn=ffn, dropout=dropout)
        params = make_params(cfg)
        mel = np.random.default_rng(0).standard_normal((b, t, 80)).astype(np.float32)
        out, retained, _ = traced_bytes(lambda: encoder.encode(
            params, cfg, mel, np.full(b, t), train=True, rng=np.random.default_rng(1)))
        return retained / int(out.lengths.sum())

    def test_training_tape_bytes_per_label_frame(self):
        # a default pretraining batch (two halves): ~73 KB per label frame
        # while each step of the FFNs and the conv modules was a node that
        # kept its output, ~38 KB with each of them one node that recomputes
        # its elementwise activations and each layer norm keeping statistics,
        # ~31 KB with attention keeping row statistics, not probabilities,
        # ~16 KB with each node adding its residual and the FFN and conv
        # nodes recomputing their pre-activations, ~12 KB with the extractor
        # one node that keeps its mel input and two masks (as ten nodes it
        # kept 4.5 KB of windows, activations and masked products)
        assert 16 * 100 >= encoder._SPLIT_MIN_FRAMES
        assert self.tape_bytes_per_label_frame(16, 400) <= 14 * 1024

    def test_training_tape_with_dropout_bytes_per_label_frame(self):
        # ~59 KB per label frame while attention kept its probabilities and
        # every dropout mask was float multipliers, ~37 KB with boolean masks,
        # ~36 KB with attention keeping row statistics, ~21 KB with each node
        # adding its residual and recomputing its pre-activations, ~16 KB
        # with the extractor one node
        assert self.tape_bytes_per_label_frame(16, 400, dropout=0.1) <= 19 * 1024

    def test_training_tape_bytes_do_not_grow_with_ffn_width(self):
        # the FFN nodes keep no (N, ffn) activation; while they kept their
        # pre-activation, ffn = 1024 kept ~24 KB per label frame more than 256
        wide = self.tape_bytes_per_label_frame(16, 400, ffn=1024)
        assert abs(wide - self.tape_bytes_per_label_frame(16, 400)) <= 1024

    def test_long_bucket_tape_bytes_near_short_bucket(self):
        # 2 x 3000 frames (30 s) kept 81 KB per label frame against 38 KB at
        # 16 x 400 while attention kept its (B, H, L, L) probabilities
        long = self.tape_bytes_per_label_frame(2, 3000)
        assert long <= 1.25 * self.tape_bytes_per_label_frame(16, 400)

    def test_long_bucket_backward_peak_below_one_layer_of_probabilities(self):
        # the backward recomputes the probabilities one (L, L) score matrix
        # at a time on each half's thread, and frees the tape as it walks it;
        # it went ~51 MB above its start while every layer's whole-batch
        # probabilities and their gradients were alive
        cfg = EncoderConfig()
        params = make_params(cfg)
        mel = np.random.default_rng(0).standard_normal((2, 3000, 80)).astype(np.float32)
        assert 2 * 3000 // 4 >= encoder._SPLIT_MIN_FRAMES

        def train():
            out = encoder.encode(params, cfg, mel, np.full(2, 3000), train=True,
                                 rng=np.random.default_rng(1))
            return traced_bytes(lambda: ad.sum_(out.final).backward())[2]

        peak, _, _ = traced_bytes(train)
        l = 3000 // 4
        assert 0 < peak < 2 * cfg.heads * l * l * 4


def chain_pad_time(a, before, after):
    """The zero-padding node the convolutions recorded before ``unfold_time``
    took ``pad``."""
    t = a.shape[1]
    return ad._make(np.pad(a.data, ((0, 0), (before, after), (0, 0))), (a,),
                    lambda g: (g[:, before: before + t],))


def chain_conv_stride2(x, weight, bias):
    windows = unfold_time_node(chain_pad_time(ad.as_tensor(x), 0, 1), kernel=3, stride=2)
    b, t_out, k, c = windows.shape
    return ad.linear(ad.reshape(windows, (b, t_out, k * c)), weight, bias)


def chain_extract(params, mel, lengths):
    """``_extract`` as the chain of nodes it recorded before it became one
    node: for each convolution the padding, windows, reshape, linear, ReLU
    and mask product, then the projection and its mask product."""
    t = mel.shape[1]
    if int(lengths.min()) < t:
        mel = mel * encoder._valid_mask(lengths, t, mel.dtype)
    h = ad.as_tensor(mel)
    for conv in ("extractor.conv1.", "extractor.conv2."):
        h = relu_node(chain_conv_stride2(h, params[conv + "weight"], params[conv + "bias"]))
        lengths = lengths // 2
        h = ad.mul(h, encoder._valid_mask(lengths, h.shape[1], mel.dtype))
    h = ad.linear(h, params["extractor.proj.weight"], params["extractor.proj.bias"])
    return ad.mul(h, encoder._valid_mask(lengths, h.shape[1], mel.dtype)), lengths


def chain_sigmoid(a):
    """The sigmoid node that swish and the GLU recorded before each became one
    node."""
    y = 1.0 / (1.0 + np.exp(-a.data))
    return ad._make(y, (a,), lambda g: (g * y * (1.0 - y),))


def chain_swish(a):
    return ad.mul(a, chain_sigmoid(a))


def chain_layer_norm(x, gamma, beta, eps):
    """The layer norm as a node that keeps its normalized input, as it did
    before its backward recomputed it from the statistics."""
    norm, _, inv, _ = ad._norm_forward(x.data, eps)
    return ad._make(norm * gamma.data + beta.data, (x, gamma, beta),
                    lambda g: ad._norm_grad(g, norm, inv, gamma.data))


def chain_half_ffn(x, gamma, beta, w1, b1, w2, b2, eps, drop, rng):
    """``ad.half_ffn`` as a chain of nodes: layer norm, linear, swish as
    sigmoid and product, dropout, linear, dropout, the halving and the
    residual's add."""
    y = chain_layer_norm(x, gamma, beta, eps)
    y = chain_swish(ad.linear(y, w1, b1))
    y = float_dropout(y, drop, rng)
    y = ad.linear(y, w2, b2)
    return ad.add(x, ad.mul(float_dropout(y, drop, rng), 0.5))


def chain_conv_module(x, mask, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2,
                      eps, norm_eps, drop, rng):
    """``ad.conv_module`` as a chain of nodes: layer norm, linear, the GLU as
    slices, sigmoid and product, the depthwise convolution as mask, pad,
    unfold, a reshaped weight, product and sum, the masked norm, swish
    as sigmoid and product, linear, dropout and the residual's add."""
    k, h = dw.shape
    y = chain_layer_norm(x, gamma, beta, eps)
    y = ad.linear(y, w1, b1)
    y = ad.mul(ad.mul(y[:, :, :h], chain_sigmoid(y[:, :, h:])), mask)
    windows = unfold_time_node(chain_pad_time(y, (k - 1) // 2, (k - 1) // 2), k, 1)
    dw = ad.reshape(dw, (1, 1, k, h))
    y = ad.sum_(ad.mul(windows, dw), axis=2)
    y = masked_norm_node(y, norm_gamma, norm_beta, norm_eps, mask)
    y = ad.linear(chain_swish(y), w2, b2)
    return ad.add(x, float_dropout(y, drop, rng))


def chain_rel_attention(q, k, v, offsets, w_pos, bias_u, bias_v, key_mask, heads, drop, rng):
    """The relative attention node that the attention block recorded before
    it became one node: it kept the (B, H, L, L) probabilities and a float
    dropout multiplier as large as them."""
    b, l, hd = q.shape
    d, n_off = hd // heads, len(offsets)
    scale = float(1.0 / math.sqrt(d))

    def split(x):
        return x.reshape(b, l, heads, d).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, l, hd)

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    u, vb = bias_u.data.reshape(1, heads, 1, d), bias_v.data.reshape(1, heads, 1, d)
    r = (offsets @ w_pos.data).reshape(n_off, heads, d).transpose(1, 2, 0)
    s = (q4 + u) @ k4.transpose(0, 1, 3, 2)
    s += ad._rel_shift((q4 + vb) @ r)
    s *= scale
    s += key_mask
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    mult = None
    if drop > 0.0:
        mult = (rng.random(s.shape) >= drop).astype(s.dtype) / (1.0 - drop)

    def backward(g):
        g4 = split(g)
        gs = g4 @ np.swapaxes(v4, -1, -2)
        if mult is not None:
            gs *= mult
        gs = (gs - (gs * s).sum(axis=-1, keepdims=True)) * s * scale
        gpos = np.zeros(gs.shape[:-1] + (n_off,), gs.dtype)
        ad._rel_shift(gpos, True)[...] = gs
        gqu, gqv = gs @ k4, gpos @ np.swapaxes(r, -1, -2)
        gk = np.swapaxes(np.swapaxes(q4 + u, -1, -2) @ gs, -1, -2)
        gr = (np.swapaxes(q4 + vb, -1, -2) @ gpos).sum(axis=0).transpose(2, 0, 1)
        attn = s if mult is None else s * mult
        return (merge(gqu + gqv), merge(gk), merge(np.swapaxes(attn, -1, -2) @ g4),
                offsets.T @ gr.reshape(n_off, hd), ad._unbroadcast(gqu, u.shape).reshape(heads, d),
                ad._unbroadcast(gqv, vb.shape).reshape(heads, d))

    attn = s if mult is None else s * mult
    return ad._make(merge(attn @ v4), (q, k, v, w_pos, bias_u, bias_v), backward)


def chain_matmul(x, w):
    """``x @ w`` for a 2-D ``w`` as one node: the key projection, which has
    no bias."""
    return ad._make(x.data @ w.data, (x, w),
                    lambda g: ad._linear_grad(g, x.data, w.data, nb=False)[:2])


def chain_attention(x, key_mask, offsets, gamma, beta, wq, bq, wk, wv, bv, wo, bo,
                    w_pos, bias_u, bias_v, heads, eps, drop, rng):
    """``ad.attention_block`` as six nodes, a dropout and the residual's add:
    layer norm, the q, k and v projections, ``chain_rel_attention`` (which
    always adds its key mask), the output linear and dropout."""
    y = ad.layer_norm(x, gamma, beta, eps)
    q, v = ad.linear(y, wq, bq), ad.linear(y, wv, bv)
    k = chain_matmul(y, wk)
    ctx = chain_rel_attention(q, k, v, offsets, w_pos, bias_u, bias_v, key_mask, heads,
                              drop, rng)
    out = ad.linear(ctx, wo, bo)
    return ad.add(x, float_dropout(out, drop, rng))


def chain_encoder_run(monkeypatch, cfg, arrays, mel, lengths, probe, dropout_seed=None):
    """States and parameter gradients of the encoder, then of the encoder with
    the chains that its fused nodes replaced swapped back in: the FFNs, the
    attention blocks, the conv modules, their residual adds, float dropout
    multipliers, layer norms that keep their normalized input and the
    extractor as padding, windows, linears, ReLUs and mask products. A
    ``dropout_seed`` runs both in training mode from the same generator
    seed."""
    def run():
        params = encoder.params_to_tensors(arrays)
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        out = encoder.encode(params, cfg, mel, lengths, train=rng is not None, rng=rng)
        ad.sum_(ad.mul(out.final, probe)).backward()
        return out.layer_states + [out.final], params

    got = run()
    monkeypatch.setattr(encoder, "_extract", chain_extract)
    monkeypatch.setattr(ad, "conv_module", chain_conv_module)
    monkeypatch.setattr(ad, "half_ffn", chain_half_ffn)
    monkeypatch.setattr(ad, "attention_block", chain_attention)
    monkeypatch.setattr(ad, "layer_norm", chain_layer_norm)
    return got, run()


def assert_same_bits(got, want, dtype):
    (got_states, got_params), (want_states, want_params) = got, want
    for g, w in zip(got_states, want_states):
        assert g.data.dtype == dtype
        assert g.data.tobytes() == w.data.tobytes()
    for name in got_params:
        assert got_params[name].grad.tobytes() == want_params[name].grad.tobytes(), name


class TestPaddedWindowsOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoder_bitwise_equal_to_pad_chain(self, dtype, monkeypatch):
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2)
        arrays = encoder.init_encoder_params(cfg, 4, dtype)
        rng = np.random.default_rng(6)
        mel = rng.standard_normal((3, 90, 80)).astype(dtype)
        lengths = np.array([9, 90, 41])
        probe = rng.standard_normal((3, 22, 16)).astype(dtype)
        assert_same_bits(*chain_encoder_run(monkeypatch, cfg, arrays, mel, lengths, probe),
                         dtype)

    def test_split_batch_with_dropout_bitwise_equal_to_pad_chain(self, monkeypatch):
        # 8 x 130 label frames is above the gate, so the batch runs as two
        # halves, and each dropout mask is drawn by the same calls in both
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2, dropout=0.1)
        arrays = encoder.init_encoder_params(cfg, 5, np.float32)
        rng = np.random.default_rng(7)
        mel = rng.standard_normal((8, 520, 80)).astype(np.float32)
        lengths = np.array([520, 17, 300, 520, 64, 411, 9, 250])
        assert len(lengths) * (mel.shape[1] // 4) >= encoder._SPLIT_MIN_FRAMES
        probe = rng.standard_normal((8, 130, 16)).astype(np.float32)
        assert_same_bits(*chain_encoder_run(monkeypatch, cfg, arrays, mel, lengths, probe,
                                            dropout_seed=8), np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    @pytest.mark.parametrize("lengths", [[90], [9, 90, 41], [90, 90, 90],
                                         [520, 17, 300, 9, 520, 64, 411, 250]],
                             ids=["one", "whole", "unpadded", "split"])
    @pytest.mark.parametrize("matrices", [1, 3, 8, None])
    def test_attention_groups_bitwise_equal_to_six_node_chain(self, monkeypatch, dtype, drop,
                                                              lengths, matrices):
        # groups of one (L, L) score matrix, of three of an utterance's four
        # heads, of two utterances, and the default; 8 x 520 frames run as
        # two halves, the others whole, and a batch of one lets numpy take
        # some gradient reshapes as views. Without padding the block skips
        # its key mask, which the chain adds
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=4, dropout=drop)
        arrays = encoder.init_encoder_params(cfg, 11, dtype)
        rng = np.random.default_rng(12)
        lengths = np.array(lengths)
        mel = rng.standard_normal((len(lengths), lengths.max(), 80)).astype(dtype)
        l = mel.shape[1] // 4
        assert (len(lengths) * l >= encoder._SPLIT_MIN_FRAMES) == (len(lengths) == 8)
        if matrices is not None:
            monkeypatch.setattr(ad, "_ATTENTION_GROUP_BYTES",
                                matrices * l * l * np.dtype(dtype).itemsize)
        probe = rng.standard_normal((len(lengths), l, 16)).astype(dtype)
        assert_same_bits(*chain_encoder_run(monkeypatch, cfg, arrays, mel, lengths, probe,
                                            dropout_seed=13 if drop else None), dtype)


class TestConvBlockOracle:
    """Loop-based reference for the convolution block: LN, pointwise + GLU,
    zero-masked depthwise conv ('same' padding), per-(utterance, channel)
    statistics over valid frames, swish, pointwise; the block's node adds
    its input, the residual, to the result."""

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
        got = ad.conv_module(Tensor(x), mask,
                             *encoder._block_params(params, "layers.0.conv.", encoder._CONV),
                             encoder.LN_EPS, encoder.CONV_NORM_EPS, 0.0, None)
        want = x + self.reference(arrays, cfg, x.copy(), lengths)
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


def chain_weighted_sum(states, logits):
    """Reference: the weighted sum as a chain of nodes, a softmax node over
    the logits, then a getitem, a mul and an add per state."""
    logits = ad.as_tensor(logits)
    e = np.exp(logits.data - np.max(logits.data, axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    weights = ad._make(y, (logits,),
                       lambda g: ((g - (g * y).sum(axis=-1, keepdims=True)) * y,))
    out = None
    for i, state in enumerate(states):
        term = ad.mul(ad.as_tensor(state), weights[i])
        out = term if out is None else ad.add(out, term)
    return out


def mix_run(mix, arrays, logits, g):
    """(output, logits' gradient, each state's gradient) of ``mix`` over
    fresh leaves, walked from the upstream gradient ``g``."""
    states = [Tensor(a, requires_grad=True) for a in arrays]
    wl = Tensor(logits, requires_grad=True)
    out = mix(states, wl)
    out.backward(g)
    return out.data, wl.grad, [s.grad for s in states]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLayerMix:
    """``ad.layer_mix``, the one node behind ``weighted_sum``, against the
    chain of nodes it replaced."""

    def test_bitwise_equal_to_chain(self):
        dtypes = [np.float32, np.float64]
        for case in range(200):
            rng = np.random.default_rng(case)
            k = int(rng.integers(1, 8))
            shape = tuple(rng.integers(1, 6, size=int(rng.integers(2, 4))))
            # float32, float64, or each state and the logits a dtype of their own
            kind = case % 3
            state_dtypes = ([dtypes[kind]] * k if kind < 2
                            else [dtypes[i] for i in rng.integers(0, 2, size=k)])
            logit_dtype = dtypes[kind] if kind < 2 else dtypes[int(rng.integers(0, 2))]
            arrays = [rng.standard_normal(shape).astype(dt) for dt in state_dtypes]
            logits = (3 * rng.standard_normal(k)).astype(logit_dtype)
            g = rng.standard_normal(shape)
            got = mix_run(encoder.weighted_sum, arrays, logits, g)
            want = mix_run(chain_weighted_sum, arrays, logits, g)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), case
            assert all(same_bits(a, b) for a, b in zip(got[2], want[2])), case

    def test_split_batch_states_bitwise_equal_to_chain(self, monkeypatch):
        # the states are getitems of one ``ad.batch_halves`` node, whose
        # backward adds their gradients
        arrays, mel, lengths, probe = split_problem(b=3)
        wl = np.random.default_rng(5).standard_normal(SPLIT_CFG.num_layers + 1)
        runs = []
        for mix in (encoder.weighted_sum, chain_weighted_sum):
            monkeypatch.setattr(encoder, "_SPLIT_MIN_FRAMES", 0)
            params = encoder.params_to_tensors(arrays)
            logits = Tensor(wl.astype(np.float32), requires_grad=True)
            out = encoder.encode(params, SPLIT_CFG, mel, lengths)
            assert len({id(s._parents[0]) for s in out.layer_states}) == 1
            mixed = mix(out.layer_states, logits)
            ad.sum_(ad.mul(mixed, probe)).backward()
            runs.append((mixed.data, logits.grad, {n: t.grad for n, t in params.items()}))
        (out_a, gl_a, grads_a), (out_b, gl_b, grads_b) = runs
        assert same_bits(out_a, out_b) and same_bits(gl_a, gl_b)
        assert all(same_bits(grads_a[n], grads_b[n]) for n in grads_b)

    def test_one_node_over_logits_and_states(self):
        states = [Tensor(np.ones((2, 3, 4)), requires_grad=True) for _ in range(5)]
        logits = Tensor(np.zeros(5), requires_grad=True)
        out = encoder.weighted_sum(states, logits)
        assert out._parents == (logits, *states)
        assert all(p._backward is None for p in out._parents)

    def test_keeps_no_product_or_partial_sum(self):
        # the default encoder's five states of 8 x 400 mel frames: the chain
        # held its five products and four partial sums, ~9 states
        rng = np.random.default_rng(0)
        states = [Tensor(rng.standard_normal((8, 100, 64)).astype(np.float32),
                         requires_grad=True) for _ in range(5)]
        logits = Tensor(np.zeros(5, np.float32), requires_grad=True)
        out, retained, _ = traced_bytes(lambda: encoder.weighted_sum(states, logits))
        state_bytes = states[0].data.nbytes
        assert out.data.nbytes == state_bytes
        assert retained <= state_bytes + 4096

    def test_neginf_logit_weighs_zero_with_finite_gradients(self):
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal((2, 3)) for _ in range(3)]
        logits = np.array([0.0, -np.inf, 1.0])
        out, gl, gs = mix_run(encoder.weighted_sum, arrays, logits, rng.standard_normal((2, 3)))
        w = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
        np.testing.assert_allclose(out, w[0] * arrays[0] + w[1] * arrays[2], rtol=1e-12)
        assert np.all(np.isfinite(gl)) and gl[1] == 0.0
        assert all(np.all(np.isfinite(g)) for g in gs)
        assert np.all(gs[1] == 0.0)


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


class TestNoDeadParameters:
    def test_every_tensor_gradient_above_rounding(self):
        # a bias that the softmax or a norm right after it cancels gets only
        # rounding noise, ~1e-17 of the largest gradient in float64
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2)
        params = make_params(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(5)
        mel = rng.standard_normal((2, 40, 80))
        probe = rng.standard_normal((2, 10, cfg.hidden))
        wlogits = Tensor(rng.standard_normal(cfg.num_layers + 1), requires_grad=True)
        TestGradients().loss_fn(params, cfg, mel, np.array([32, 40]), wlogits,
                                probe).backward()
        peaks = {name: np.abs(t.grad).max() for name, t in params.items()}
        top = max(peaks.values())
        assert [name for name, peak in peaks.items() if peak < 1e-8 * top] == []


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


class TestParamOrder:
    """``param_shapes`` order is the order of the training params dict, and
    ``pretrain.clip_global_norm`` adds squared norms as Python floats in that
    order, so it sets the bits of ``grad_norm`` and of every clipped update."""

    # a DESK_SCALE layer (hidden 64, ffn 256, 4 heads of 16, kernel 5)
    LAYER = [("ffn1.ln.gamma", (64,)), ("ffn1.ln.beta", (64,)),
             ("ffn1.w1.weight", (64, 256)), ("ffn1.w1.bias", (256,)),
             ("ffn1.w2.weight", (256, 64)), ("ffn1.w2.bias", (64,)),
             ("ffn2.ln.gamma", (64,)), ("ffn2.ln.beta", (64,)),
             ("ffn2.w1.weight", (64, 256)), ("ffn2.w1.bias", (256,)),
             ("ffn2.w2.weight", (256, 64)), ("ffn2.w2.bias", (64,)),
             ("attn.ln.gamma", (64,)), ("attn.ln.beta", (64,)),
             ("attn.wq.weight", (64, 64)), ("attn.wq.bias", (64,)),
             ("attn.wk.weight", (64, 64)),
             ("attn.wv.weight", (64, 64)), ("attn.wv.bias", (64,)),
             ("attn.wo.weight", (64, 64)), ("attn.wo.bias", (64,)),
             ("attn.pos.weight", (64, 64)), ("attn.bias_u", (4, 16)), ("attn.bias_v", (4, 16)),
             ("conv.ln.gamma", (64,)), ("conv.ln.beta", (64,)),
             ("conv.pw1.weight", (64, 128)), ("conv.pw1.bias", (128,)),
             ("conv.dw.weight", (5, 64)), ("conv.norm.gamma", (64,)), ("conv.norm.beta", (64,)),
             ("conv.pw2.weight", (64, 64)), ("conv.pw2.bias", (64,)),
             ("out_ln.gamma", (64,)), ("out_ln.beta", (64,))]

    def test_desk_scale_keys_shapes_and_order(self):
        want = [("extractor.conv1.weight", (240, 64)), ("extractor.conv1.bias", (64,)),
                ("extractor.conv2.weight", (192, 64)), ("extractor.conv2.bias", (64,)),
                ("extractor.proj.weight", (64, 64)), ("extractor.proj.bias", (64,))]
        want += [(f"layers.{i}.{name}", shape) for i in range(4) for name, shape in self.LAYER]
        want += [("final_ln.gamma", (64,)), ("final_ln.beta", (64,))]
        assert list(encoder.param_shapes(encoder.DESK_SCALE).items()) == want

    def test_training_params_follow_it(self):
        cfg = pretrain.PretrainConfig(quantizer=QuantizerConfig(num_codebooks=1, vocab_size=4,
                                                                dim=4))
        state = pretrain.init_train_state(encoder.DESK_SCALE, cfg)
        assert list(state.params) == [*encoder.param_shapes(encoder.DESK_SCALE), "head.weight",
                                      "head.bias"]


class TestInitParam:
    """``init_param`` draws in blocks; its bits are those of one full draw."""

    @staticmethod
    def one_draw(name, shape, seed, dtype):
        if name.endswith(".gamma"):
            return np.ones(shape, dtype=dtype)
        if name.endswith((".bias", ".beta")):
            return np.zeros(shape, dtype=dtype)
        fan_in, fan_out = shape if len(shape) == 2 else (math.prod(shape[:-1]), shape[-1])
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        rng = keyed_rng(seed, "param", name)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    # the encoder's tensors, the default pretrain head (64 x 32 * 2048, 32
    # draw blocks) and a CTC head
    SHAPES = {**encoder.param_shapes(encoder.DESK_SCALE),
              "head.weight": (64, 32 * 2048), "head.bias": (32 * 2048,),
              "ctc_head.weight": (64, 30)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_one_full_draw(self, dtype):
        for name, shape in self.SHAPES.items():
            got = encoder.init_param(name, shape, 5, dtype)
            want = self.one_draw(name, shape, 5, dtype)
            assert got.dtype == dtype and got.shape == shape, name
            assert got.tobytes() == want.tobytes(), name


SPLIT_CFG = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2)


def split_problem(dtype=np.float32, b=5):
    rng = np.random.default_rng(11)
    mel = rng.standard_normal((b, 60, 80)).astype(dtype)
    lengths = np.array([60, 13, 41, 60, 8, 27, 33][:b])
    probe = rng.standard_normal((b, 15, SPLIT_CFG.hidden)).astype(dtype)
    return encoder.init_encoder_params(SPLIT_CFG, 7, dtype), mel, lengths, probe


def run_encoder(monkeypatch, split, arrays, mel, lengths, probe, cfg=SPLIT_CFG, **kw):
    """Outputs and parameter gradients of one forward and backward, with the
    batch split into halves or not."""
    monkeypatch.setattr(encoder, "_SPLIT_MIN_FRAMES", 0 if split else 1 << 62)
    params = encoder.params_to_tensors(arrays)
    out = encoder.encode(params, cfg, mel, lengths, **kw)
    ad.sum_(ad.mul(out.final, probe)).backward()
    return out, {name: t.grad for name, t in params.items()}


class TestBatchSplit:
    """A batch at or above the gate runs as two halves on the pool."""

    @pytest.mark.parametrize("b", [2, 5])
    def test_outputs_bitwise_equal_and_gradients_close(self, monkeypatch, b):
        problem = split_problem(b=b)
        whole, whole_grads = run_encoder(monkeypatch, False, *problem)
        halves, split_grads = run_encoder(monkeypatch, True, *problem)
        for w, s in zip(whole.layer_states + [whole.final], halves.layer_states + [halves.final]):
            assert s.data.dtype == np.float32
            assert s.data.tobytes() == w.data.tobytes()
        assert np.array_equal(halves.lengths, whole.lengths)
        # every parameter learns, so each tensor is compared at its own scale
        for name, want in whole_grads.items():
            got = split_grads[name]
            assert got.dtype == want.dtype == np.float32, name
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6 * np.abs(want).max(),
                                       err_msg=name)

    def test_finite_differences_through_halves(self, monkeypatch):
        monkeypatch.setattr(encoder, "_SPLIT_MIN_FRAMES", 0)
        arrays, mel, lengths, probe = split_problem(np.float64, b=3)
        cfg = SPLIT_CFG
        params = encoder.params_to_tensors(arrays)
        wlogits = Tensor(np.random.default_rng(2).standard_normal(cfg.num_layers + 1),
                         requires_grad=True)

        def loss_of():  # every state reaches the loss, through weighted_sum
            out = encoder.encode(params, cfg, mel, lengths)
            mixed = encoder.weighted_sum(out.layer_states, wlogits)
            return ad.add(ad.sum_(ad.mul(out.final, probe)), ad.sum_(ad.mul(mixed, probe)))
        loss_of().backward()
        rng = np.random.default_rng(3)
        step = 1e-5
        for name, t in params.items():
            assert t.grad.dtype == np.float64, name
            flat, gflat = t.data.reshape(-1), t.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                saved = flat[i]
                flat[i] = saved + step
                with ad.no_grad():
                    hi = loss_of().item()
                flat[i] = saved - step
                with ad.no_grad():
                    lo = loss_of().item()
                flat[i] = saved
                fd = (hi - lo) / (2 * step)
                assert abs(gflat[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (name, i)

    def test_pool_and_one_core_paths_give_the_same_bits(self, monkeypatch):
        problem = split_problem()
        pooled, pooled_grads = run_encoder(monkeypatch, True, *problem)
        monkeypatch.setattr(parallel, "hold_one_blas_thread", lambda: False)
        serial, serial_grads = run_encoder(monkeypatch, True, *problem)
        assert pooled.final.data.tobytes() == serial.final.data.tobytes()
        for name, grad in pooled_grads.items():
            assert grad.tobytes() == serial_grads[name].tobytes(), name

    def test_bits_hold_under_frequent_thread_switches(self, monkeypatch):
        problem = split_problem()
        want, want_grads = run_encoder(monkeypatch, True, *problem)
        got = []
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                runner = threading.Thread(
                    target=lambda: got.append(run_encoder(monkeypatch, True, *problem)),
                    daemon=True)
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert len(got) == 3
        for out, grads in got:
            assert out.final.data.tobytes() == want.final.data.tobytes()
            for name, grad in want_grads.items():
                assert grads[name].tobytes() == grad.tobytes(), name

    def test_halves_run_on_pool_threads_at_one_blas_thread(self, monkeypatch):
        blas = parallel.openblas_threads()
        if blas is None or parallel.cores() < 2:
            pytest.skip("the halves run serially here")
        seen = []
        real = encoder._encode

        def spy(params, cfg, mel, lengths, train, rng):
            seen.append((len(lengths), threading.current_thread().name, blas[0]()))
            return real(params, cfg, mel, lengths, train, rng)
        monkeypatch.setattr(encoder, "_encode", spy)
        run_encoder(monkeypatch, True, *split_problem())
        assert sorted(n for n, _, _ in seen) == [2, 3]
        for _, name, threads in seen:
            assert name.startswith("encode_") and threads == 1

    def test_dropout_draws_one_spawned_stream_per_half(self, monkeypatch):
        cfg = EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2, dropout=0.3)
        arrays, mel, lengths, probe = split_problem()

        def train(split):
            return run_encoder(monkeypatch, split, arrays, mel, lengths, probe, cfg,
                               train=True, rng=np.random.default_rng(4))

        first, first_grads = train(True)
        again, again_grads = train(True)
        assert first.final.data.tobytes() == again.final.data.tobytes()
        for name, grad in first_grads.items():
            assert grad.tobytes() == again_grads[name].tobytes(), name
        streams = np.random.default_rng(4).spawn(2)
        params = encoder.params_to_tensors(arrays)
        for k, rows in enumerate((slice(0, 3), slice(3, 5))):
            half = encoder._encode(params, cfg, mel[rows], lengths[rows], True, streams[k])
            assert half.final.data.tobytes() == first.final.data[rows].tobytes()
        assert not np.array_equal(first.final.data, train(False)[0].final.data)

    def test_forward_error_in_one_half_reraised(self, monkeypatch):
        real = encoder._encode

        def failing(params, cfg, mel, lengths, train, rng):
            if len(lengths) == 2:
                raise FloatingPointError("encoder produced non-finite values")
            return real(params, cfg, mel, lengths, train, rng)
        monkeypatch.setattr(encoder, "_encode", failing)
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_encoder(monkeypatch, True, *split_problem())
        assert not any(t.name.startswith("encode") for t in threading.enumerate())

    def test_backward_error_in_one_half_reraised(self, monkeypatch):
        # the loss's walk is call 1 and the halves' walks are calls 2 and 3
        calls, lock = [], threading.Lock()
        real = ad._backprop

        def failing(root, grad):
            with lock:
                calls.append(root)
                n = len(calls)
            if n == 3:
                raise MemoryError("half walk")
            return real(root, grad)
        monkeypatch.setattr(ad, "_backprop", failing)
        with pytest.raises(MemoryError, match="half walk"):
            run_encoder(monkeypatch, True, *split_problem())
        assert len(calls) == 3
        assert not any(t.name.startswith("encode") for t in threading.enumerate())

    @pytest.mark.parametrize("shape, splits", [
        ((40, 400), True),    # the pretrain benchmark's batch: 40 x 100 label frames
        ((2, 20), False),     # acceptance criterion 03's batch
        ((1, 8000), False),   # one utterance, as decode runs it
        ((10, 408), False),   # 10 x 102 = 1020 label frames, just below the gate
        ((8, 512), True),     # 8 x 128 = 1024
    ])
    def test_gate(self, monkeypatch, shape, splits):
        ran = []
        monkeypatch.setattr(encoder, "_encode", lambda *a: ran.append("whole"))
        monkeypatch.setattr(encoder, "_encode_halves", lambda *a: ran.append("halves"))
        b, t = shape
        encoder.encode({}, EncoderConfig(), np.zeros((b, t, 80), np.float32), np.full(b, t))
        assert ran == ["halves" if splits else "whole"]
