import inspect
import math
import sys
import threading
import time

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import parallel, pretrain
from rqspeech.autodiff import Tensor

from conftest import (float_dropout, masked_norm_node, relu_node, traced_bytes,
                      unfold_time_node)


def numeric_grad(fn, x, step=1e-6):
    """Central finite differences of a scalar fn over every entry of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        hi = fn()
        flat[i] = saved - step
        lo = fn()
        flat[i] = saved
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """build(tensors) must return a Tensor; checks grads of every input."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = build(*tensors)
    weights = rng.standard_normal(out.data.shape)
    loss = ad.sum_(ad.mul(out, weights))
    loss.backward()

    for t in tensors:
        def fn(t=t):
            with ad.no_grad():
                return float(np.sum(build(*tensors).data * weights))
        want = numeric_grad(fn, t.data)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, want, rtol=tol, atol=tol)
    return tensors


class TestPrimitives:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.add(a, b), (3, 4), (1, 4))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.mul(a, b), (2, 3, 4), (4,))

    def test_linear(self):
        check_op(lambda x, w, b: ad.linear(x, w, b), (2, 5, 4), (4, 3), (3,))

    def test_relu(self):
        check_op(relu_node, (4, 7), seed=3)

    def test_glu(self):
        check_op(glu_node, (2, 3, 6))

    def test_swish(self):
        check_op(swish_node, (3, 4))

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (4, 6)), (2, 3, 4))

    def test_getitem_slice(self):
        check_op(lambda a: a[:, 1:3], (4, 5))

    def test_unfold_time_padded(self):
        check_op(lambda a: unfold_time_node(a, kernel=3, stride=2, pad=(2, 1)), (2, 6, 4))

    @pytest.mark.parametrize("kernel", [1, 5])
    def test_depthwise_conv(self, kernel):
        # utterance 1's last two frames are padding: the output never reads
        # them, so their input gradient is exactly zero
        mask = ragged_mask([6, 4], 6, np.float64)
        x, _ = check_op(lambda x, w: depthwise_node(x, mask, w), (2, 6, 3), (kernel, 3))
        assert np.all(x.grad[mask[..., 0] == 0] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 4, 15])
    def test_depthwise_pad_bitwise_equal_to_np_pad(self, kernel, dtype):
        # the masked product written into a zeroed array, against np.pad of it
        x = np.random.default_rng(kernel).standard_normal((3, 11, 5)).astype(dtype)
        mask = ragged_mask([11, 7, 1], 11, dtype)
        half = (kernel - 1) // 2
        want = np.pad(x * mask, ((0, 0), (half, kernel - 1 - half), (0, 0)))
        got = ad._depthwise_pad(x, mask, kernel)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("drop", [0.0, 0.3])
    def test_half_ffn(self, drop):
        # a fresh rng per build draws the same two dropout masks every time
        def build(*tensors):
            return ad.half_ffn(*tensors, 1e-5, drop, np.random.default_rng(0))

        check_op(build, (2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,))

    @pytest.mark.parametrize("kernel, drop", [(1, 0.0), (3, 0.0), (3, 0.3)])
    def test_conv_module(self, kernel, drop):
        # utterances of 5, 3 and 1 valid frames; padded frames reach neither
        # the depthwise convolution nor the norm's statistics, so their input
        # gradient is exactly the upstream gradient, the residual's identity
        # path (it was exactly zero while the module left its residual to an
        # add node). A fresh rng per build draws the same dropout mask every
        # time
        mask = ragged_mask([5, 3, 1], 5, np.float64)

        def build(x, *p):
            return ad.conv_module(x, mask, *p, 1e-5, 1e-5, drop, np.random.default_rng(0))

        x, *p = check_op(build, (3, 5, 4), (4,), (4,), (4, 8), (8,), (kernel, 4), (4,), (4,),
                         (4, 4), (4,))
        g = np.random.default_rng(1).standard_normal(x.shape)
        x.zero_grad()
        build(x, *p).backward(g)
        padded = mask[..., 0] == 0
        assert np.all(x.grad[padded] == g[padded])

    def test_take_rows(self):
        idx = np.array([0, 3, 1])
        check_op(lambda a: ad.take_rows(a, idx), (4, 3))

    @pytest.mark.parametrize("idx", [[0, 2, 2, 1], [2, -1]])
    def test_take_rows_refuses_a_repeated_row(self, idx):
        with pytest.raises(ValueError, match="distinct rows"):
            ad.take_rows(Tensor(np.zeros((3, 4)), requires_grad=True), idx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_rows_gradient_equals_scatter_add(self, dtype):
        # the scatter-add that take_rows' backward ran before it took distinct
        # rows only; on distinct rows, and a gradient without -0.0, the bits
        # are the same
        rng = np.random.default_rng(7)
        for rows, cols, picked in ((1, 1, 1), (9, 4, 5), (200, 64, 57), (64, 3, 64)):
            idx = rng.permutation(rows)[:picked]
            g = rng.standard_normal((picked, cols)).astype(dtype)
            g[rng.random(g.shape) < 0.2] = 0.0
            want = np.zeros((rows, cols), dtype)
            np.add.at(want, idx, g)
            a = Tensor(rng.standard_normal((rows, cols)).astype(dtype), requires_grad=True)
            ad.take_rows(a, idx).backward(g)
            assert a.grad.dtype == dtype
            assert a.grad.tobytes() == want.tobytes()

    def test_rel_attention(self):
        # B=2, L=4, heads=2, d=3; the last key of utterance 1 is masked, and a
        # fresh rng per build draws the same dropout mask every time
        offsets = np.random.default_rng(1).standard_normal((7, 6))
        key_mask = np.zeros((2, 1, 1, 4))
        key_mask[1, ..., 3] = -np.inf

        def build(q, k, v, w_pos, u, vb):
            return rel_attention_node(q, k, v, offsets, w_pos, u, vb, key_mask, 2, 0.3,
                                      np.random.default_rng(0))

        check_op(build, (2, 4, 6), (2, 4, 6), (2, 4, 6), (6, 6), (2, 3), (2, 3))

    @pytest.mark.parametrize("group_bytes", [1, 2 * 4 * 4 * 8, 1 << 20])
    def test_attention_block(self, group_bytes, monkeypatch):
        # three utterances of 4 frames, 2 heads: groups of one (L, L) score
        # matrix, of one utterance's two heads, and the whole batch; the last
        # key of utterance 1 is masked
        monkeypatch.setattr(ad, "_ATTENTION_GROUP_BYTES", group_bytes)
        offsets = np.random.default_rng(1).standard_normal((7, 6))
        key_mask = np.zeros((3, 1, 1, 4))
        key_mask[1, ..., 3] = -np.inf

        def build(x, *p):
            return ad.attention_block(x, key_mask, offsets, *p, 2, 1e-5, 0.3,
                                      np.random.default_rng(0))

        # x, the norm's gamma and beta, wq, bq, wk (no bias), wv, bv, wo, bo,
        # w_pos and the two head biases
        check_op(build, (3, 4, 6), (6,), (6,), (6, 6), (6,), (6, 6), (6, 6), (6,), (6, 6),
                 (6,), (6, 6), (2, 3), (2, 3))

    def test_sum_mean(self):
        check_op(lambda a: ad.sum_(a, axis=1, keepdims=True), (3, 4, 2))
        check_op(lambda a: ad.mean(a, axis=-1), (3, 4))
        check_op(lambda a: ad.mean(a), (3, 4))

    def test_unfold_time(self):
        check_op(lambda a: unfold_time_node(a, kernel=3, stride=2), (2, 9, 4))

    def test_log_softmax(self):
        check_op(lambda a: ad.log_softmax(a, axis=-1), (3, 5))

    def test_cross_entropy_mean(self):
        labels = np.array([[0, 3], [2, 1]])
        check_op(lambda a: ad.cross_entropy_mean(a, labels), (2, 2, 4))

    def test_multi_softmax_nll(self):
        # three codebooks of 4; every codebook repeats a label across rows
        labels = np.array([[0, 3, 1], [2, 3, 1], [0, 1, 1], [2, 0, 3], [0, 3, 2]])
        check_op(lambda x, w, b: ad.multi_softmax_nll(x, w, b, labels, 3),
                 (5, 6), (6, 12), (12,))

    def test_layer_norm(self):
        check_op(lambda x, g, b: ad.layer_norm(x, g, b), (2, 3, 8), (8,), (8,))

    def test_masked_layer_norm(self):
        mask = ragged_mask([6, 2, 4], 6, np.float64)
        x, _, _ = check_op(lambda x, g, b: masked_norm_node(x, g, b, 1e-5, mask),
                           (3, 6, 4), (4,), (4,))
        assert np.all(x.grad[mask[..., 0] == 0] == 0.0)


def rel_attention_node(q, k, v, offsets, w_pos, u, vb, key_mask, heads, drop, rng):
    """``_rel_attention`` as one node over (q, k, v, w_pos, u, vb)."""
    ctx, grad = ad._rel_attention(q.data, k.data, v.data, offsets, w_pos.data, u.data, vb.data,
                                  key_mask, heads, drop, rng)
    return ad._make(ctx, (q, k, v, w_pos, u, vb), grad)


def swish_node(a):
    """Swish as one node over the numpy pieces the fused nodes share."""
    y = ad._sigmoid(a.data)
    return ad._make(a.data * y, (a,), lambda g: (ad._swish_grad(g, a.data, y),))


def glu_node(a):
    """The GLU as one node over the numpy pieces the conv module shares."""
    x, y = ad._glu_halves(a.data)
    return ad._make(x * y, (a,), lambda g: (ad._glu_grad(g, x, y),))


def depthwise_node(x, mask, w):
    """The masked depthwise convolution as one node over the numpy pieces the
    conv module shares."""
    padded = ad._depthwise_pad(x.data, mask, len(w.data))
    return ad._make(ad._depthwise(padded, w.data), (x, w),
                    lambda g: ad._depthwise_grad(g, padded, mask, w.data))


def ragged_mask(lengths, frames, dtype):
    """(B, frames, 1) 0/1 mask of each utterance's first ``lengths[b]`` frames."""
    return (np.arange(frames)[None, :] < np.asarray(lengths)[:, None]).astype(dtype)[:, :, None]


def chain_masked_norm(y, gamma, beta, mask, eps):
    """The masked norm over axis 1 as the chain of generic ops that the
    convolution block recorded before its norm became one node."""
    def rsqrt(a):
        out = 1.0 / np.sqrt(a.data)
        return ad._make(out, (a,), lambda g: (g * (-0.5) * out / a.data,))

    lengths = mask.sum(axis=(1, 2)).astype(np.int64)
    inv_len = (1.0 / np.maximum(lengths, 1)).astype(y.dtype)[:, None, None]
    mu = ad.mul(ad.sum_(ad.mul(y, mask), axis=1, keepdims=True), inv_len)
    centered = ad.mul(ad.add(y, ad.mul(mu, -1.0)), mask)
    var = ad.mul(ad.sum_(ad.mul(centered, centered), axis=1, keepdims=True), inv_len)
    y = ad.mul(centered, rsqrt(ad.add(var, eps)))
    return ad.add(ad.mul(y, gamma), beta)


class TestMaskedLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_generic_op_chain(self, dtype):
        rng = np.random.default_rng(5)
        lengths = [400, 37, 2, 255, 399, 128]
        mask = ragged_mask(lengths, 400, dtype)
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((6, 400, 64), (64,), (64,))]
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        chain = [Tensor(a, requires_grad=True) for a in arrays]
        got = masked_norm_node(*fused, 1e-5, mask)
        want = chain_masked_norm(*chain, mask, 1e-5)
        assert got.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        if dtype == np.float64:
            weights = rng.standard_normal(got.shape)
            ad.sum_(ad.mul(got, weights)).backward()
            ad.sum_(ad.mul(want, weights)).backward()
            scale = max(np.abs(t.grad).max() for t in chain)
            for f, c in zip(fused, chain):
                np.testing.assert_allclose(f.grad, c.grad, rtol=0, atol=1e-12 * scale)


def gather_rel_shift(a):
    """The relative shift (..., L, 2L-1) -> (..., L, L) as an index gather."""
    l = a.shape[-2]
    idx = np.arange(l)[:, None] - np.arange(l)[None, :] + (l - 1)
    return np.take_along_axis(a, np.broadcast_to(idx, a.shape[:-1] + (l,)), axis=-1)


def reference_attention(q, k, v, offsets, w_pos, u, vb, key_mask, heads):
    """``_rel_attention``'s forward without dropout, in numpy, with the position
    scores taken by ``gather_rel_shift``."""
    b, l, hd = q.shape
    d = hd // heads

    def split(x):
        return x.reshape(b, l, heads, d).transpose(0, 2, 1, 3)

    q4, k4, v4 = split(q), split(k), split(v)
    r = (offsets @ w_pos).reshape(2 * l - 1, heads, d).transpose(1, 2, 0)
    pos = gather_rel_shift((q4 + vb.reshape(1, heads, 1, d)) @ r)
    content = (q4 + u.reshape(1, heads, 1, d)) @ k4.transpose(0, 1, 3, 2)
    scores = (content + pos) * (1.0 / math.sqrt(d)) + key_mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs @ v4).transpose(0, 2, 1, 3).reshape(b, l, hd)


class TestRelShift:
    """The strided relative shift inside ``_rel_attention`` against the gather."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("l", [1, 2, 5, 60])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bitwise_equal_to_gather(self, l, dtype, transposed):
        rng = np.random.default_rng(l)
        if transposed:  # strides are read from the arrays, whatever their layout
            q, k, v = (rng.standard_normal((l, 2, 6)).astype(dtype).transpose(1, 0, 2)
                       for _ in range(3))
        else:
            q, k, v = (rng.standard_normal((2, l, 6)).astype(dtype) for _ in range(3))
        offsets, w_pos = (rng.standard_normal(s).astype(dtype) for s in ((2 * l - 1, 6), (6, 6)))
        u, vb = (rng.standard_normal((3, 2)).astype(dtype) for _ in range(2))
        key_mask = np.zeros((2, 1, 1, l), dtype)
        key_mask[1, ..., l // 2 + 1:] = -np.inf
        args = (q, k, v, offsets, w_pos, u, vb, key_mask, 3)
        ctx, _ = ad._rel_attention(*args, 0.0, None)
        assert ctx.dtype == dtype
        assert ctx.tobytes() == reference_attention(*args).tobytes()

    def test_rejects_unshifted_shape(self):
        q = np.zeros((1, 3, 4))
        with pytest.raises(ValueError, match="2L-1"):
            ad._rel_attention(q, q, q, np.zeros((6, 4)), np.zeros((4, 4)),
                              np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 2, 0.0, None)


def float_half_ffn(x, gamma, beta, w1, b1, w2, b2, eps, drop, rng):
    """``half_ffn`` as it was while it kept float dropout multipliers and its
    pre-activation, and left its residual to an add node."""
    def mult_of(shape, dtype):
        return (rng.random(shape) >= drop).astype(dtype) / (1.0 - drop) if drop > 0 else None

    parents = (x, gamma, beta, w1, b1, w2, b2)
    norm, mu, inv, _ = ad._norm_forward(x.data, eps)
    _, a = ad._norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
    h = a * ad._sigmoid(a)
    mult1 = mult_of(h.shape, h.dtype)
    if mult1 is not None:
        h = h * mult1
    z = h @ w2.data + b2.data
    mult2 = mult_of(z.shape, z.dtype)
    if mult2 is not None:
        z = z * mult2

    def backward(g):
        g = g * 0.5
        if mult2 is not None:
            g = g * mult2
        y = ad._sigmoid(a)
        h = a * y
        if mult1 is not None:
            h = h * mult1
        gh, gw2, gb2 = ad._linear_grad(g, h, w2.data)
        if mult1 is not None:
            gh = gh * mult1
        norm = ad._normalized(x.data, mu, inv)
        return (*ad._norm_linear_grad(ad._swish_grad(gh, a, y), norm,
                                      norm * gamma.data + beta.data, inv, gamma.data, w1.data),
                gw2, gb2)

    return ad.add(x, ad._make(z * 0.5, parents, backward))


def conv_block_node(x, mask, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2, eps,
                    norm_eps):
    """``conv_module`` without dropout as it was while it kept its pre-GLU
    activation and depthwise output and left its residual to an add node:
    the block's output alone."""
    parents = (x, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2)
    norm, mu, inv, _ = ad._norm_forward(x.data, eps)
    _, a = ad._norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
    u, y = ad._glu_halves(a)
    c = ad._depthwise(ad._depthwise_pad(u * y, mask, len(dw.data)), dw.data)
    c_norm, c_mu, c_inv, inv_count = ad._norm_forward(c, norm_eps, mask)
    n = c_norm * norm_gamma.data + norm_beta.data

    def backward(g):
        c_norm = ad._normalized(c, c_mu, c_inv, mask)
        n = c_norm * norm_gamma.data + norm_beta.data
        s = ad._sigmoid(n)
        gs, gw2, gb2 = ad._linear_grad(g, n * s, w2.data)
        gc, gng, gnb = ad._norm_grad(ad._swish_grad(gs, n, s), c_norm, c_inv, norm_gamma.data,
                                     mask, inv_count)
        u, y = ad._glu_halves(a)
        gu, gdw = ad._depthwise_grad(gc, ad._depthwise_pad(u * y, mask, len(dw.data)), mask,
                                     dw.data)
        norm = ad._normalized(x.data, mu, inv)
        return (*ad._norm_linear_grad(ad._glu_grad(gu, u, y), norm,
                                      norm * gamma.data + beta.data, inv, gamma.data, w1.data),
                gdw, gng, gnb, gw2, gb2)

    return ad._make((n * ad._sigmoid(n)) @ w2.data + b2.data, parents, backward)


class TestBooleanDropoutMasks:
    """The nodes keep boolean keep masks and rebuild the multipliers in the
    backward, and add their own residual and recompute their pre-activations;
    the bits are those of the float-multiplier nodes that kept their
    activations, followed by an add node."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_module_bitwise_equal_to_float_multiplier(self, dtype):
        # the module's own mask against the block without dropout that kept
        # its activations, followed by a float-multiplier dropout node drawing
        # from the same stream and the residual's add node
        rng = np.random.default_rng(0)
        shapes = ((3, 50, 8), (8,), (8,), (8, 16), (16,), (5, 8), (8,), (8,), (8, 8), (8,))
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        mask = ragged_mask([50, 31, 7], 50, dtype)
        probe = rng.standard_normal((3, 50, 8)).astype(dtype)

        def fused(*tensors):
            return ad.conv_module(tensors[0], mask, *tensors[1:], 1e-5, 1e-5, 0.1,
                                  np.random.default_rng(1))

        def chained(*tensors):
            y = conv_block_node(tensors[0], mask, *tensors[1:], 1e-5, 1e-5)
            return ad.add(tensors[0], float_dropout(y, 0.1, np.random.default_rng(1)))

        results = []
        for node in (fused, chained):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            y = node(*tensors)
            ad.sum_(ad.mul(y, probe)).backward()
            results.append([y.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()
        y = results[0][0]
        assert 0 < np.count_nonzero(y == arrays[0]) < y.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_half_ffn_bitwise_equal_to_float_multipliers(self, dtype):
        rng = np.random.default_rng(2)
        shapes = ((4, 30, 8), (8,), (8,), (8, 32), (32,), (32, 8), (8,))
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        probe = rng.standard_normal((4, 30, 8)).astype(dtype)
        results = []
        for node in (ad.half_ffn, float_half_ffn):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            y = node(*tensors, 1e-5, 0.1, np.random.default_rng(3))
            ad.sum_(ad.mul(y, probe)).backward()
            results.append([y.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestAttentionGroups:
    @pytest.mark.parametrize("b, heads, l, group_bytes", [
        (5, 4, 10, 1), (5, 4, 10, 3 * 400), (5, 4, 10, 4 * 400), (5, 4, 10, 9 * 400),
        (5, 4, 10, 1 << 30), (1, 3, 7, 2 * 196)])
    def test_groups_cover_the_scores_in_c_order(self, monkeypatch, b, heads, l, group_bytes):
        # the dropout masks are drawn group by group, so the groups must walk
        # the (B, H) matrices in the order of one whole-batch draw
        monkeypatch.setattr(ad, "_ATTENTION_GROUP_BYTES", group_bytes)
        walked = []
        for bs, hs in ad._attention_groups(b, heads, l, 4):
            cells = [(i, h) for i in range(b)[bs] for h in range(heads)[hs]]
            assert len(cells) == 1 or len(cells) * l * l * 4 <= group_bytes
            walked += cells
        assert walked == [(i, h) for i in range(b) for h in range(heads)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    def test_bitwise_equal_across_group_sizes(self, monkeypatch, dtype, drop):
        # 5 utterances of 40 frames, 4 heads: one score matrix per group, three
        # heads (groups that split an utterance), two utterances, and all
        rng = np.random.default_rng(4)
        b, l, heads, hd = 5, 40, 4, 32
        q, k, v = (rng.standard_normal((b, l, hd)).astype(dtype) for _ in range(3))
        offsets, w_pos = (rng.standard_normal(s).astype(dtype) for s in ((2 * l - 1, hd), (hd, hd)))
        u, vb = (rng.standard_normal((heads, hd // heads)).astype(dtype) for _ in range(2))
        lengths = np.array([40, 3, 17, 40, 29])
        key_mask = np.where(np.arange(l) < lengths[:, None], 0.0, -np.inf).astype(dtype)
        g = rng.standard_normal((b, l, hd)).astype(dtype)
        per_matrix = l * l * np.dtype(dtype).itemsize
        results = []
        for group_bytes in (1, 3 * per_matrix, 8 * per_matrix, 1 << 30):
            monkeypatch.setattr(ad, "_ATTENTION_GROUP_BYTES", group_bytes)
            ctx, grad = ad._rel_attention(q, k, v, offsets, w_pos, u, vb,
                                          key_mask[:, None, None, :], heads, drop,
                                          np.random.default_rng(5))
            results.append([ctx, *grad(g)])
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()


class TestSemantics:
    def test_strided_views_are_read_only(self):
        # the relative shift of (1, 3, 5) scores; only the backward asks for
        # a view it writes through
        a = np.arange(18.0).reshape(1, 3, 6)[:, :, 1:]
        assert not ad._rel_shift(a).flags.writeable
        assert ad._rel_shift(a, True).flags.writeable
        assert a.flags.writeable

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
        y.backward(np.array([1.0]))
        assert np.isclose(x.grad[0], 5.0)

    def test_backward_releases_the_walked_tape(self):
        # each node drops its closure and parents once it has run, so the
        # arrays the closures hold are freed during the walk
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = swish_node(ad.mul(x, x))
        loss = ad.sum_(y)
        loss.backward()
        u = x.data * x.data
        s = 1 / (1 + np.exp(-u))
        np.testing.assert_allclose(x.grad, 2 * x.data * (s + u * s * (1 - s)))
        for node in (loss, y):
            assert node._backward is None and node._parents == ()
        assert x.requires_grad and x.grad is not None

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, 3.0)
        assert y._backward is None and y._parents == ()

    def test_multi_softmax_nll_no_grad_records_nothing(self):
        x, w, b, labels = head_problem(np.random.default_rng(0), 40, 5, 16, 8, np.float64)
        with ad.no_grad():
            y = ad.multi_softmax_nll(*(Tensor(a, requires_grad=True) for a in (x, w, b)),
                                     labels, 5)
        assert y._backward is None and y._parents == ()
        assert y.data == serial_multi_softmax_nll(x, w, b, labels, 5)[0]

    def test_multi_softmax_nll_labels_shape_rejected(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 6)), np.zeros(6)
        with pytest.raises(ValueError, match="labels shape"):
            ad.multi_softmax_nll(x, w, b, np.zeros((3, 3), np.int64), 2)
        with pytest.raises(ValueError, match="labels shape"):
            ad.cross_entropy_mean(np.zeros((3, 2, 3)), np.zeros((3, 3), np.int64))

    def test_zero_upstream_gives_zero_grads(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
        y = ad.sum_(swish_node(ad.linear(x, x, np.zeros(3))))
        y.backward(np.zeros(()))
        assert np.all(x.grad == 0.0)

    def test_rel_attention_drops_probabilities_after_softmax(self):
        # with head dim = L and one-hot values, head h's context entry j is the
        # weight of key j: the softmax row, then 0 or 1/(1 - p) times it
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 4, 8))
        onehot = np.tile(np.eye(4), (2, 1, 2))
        args = (q, q, onehot, rng.standard_normal((7, 8)), np.eye(8), np.zeros((2, 4)),
                np.zeros((2, 4)), np.zeros((2, 1, 1, 4)), 2)
        plain = ad._rel_attention(*args, 0.0, None)[0]
        dropped = ad._rel_attention(*args, 0.5, np.random.default_rng(1))[0]
        np.testing.assert_allclose(plain.reshape(2, 4, 2, 4).sum(axis=-1), 1.0)
        assert np.all((dropped == 0.0) | (dropped == 2.0 * plain))
        assert 0 < np.count_nonzero(dropped) < dropped.size

    def test_zero_dropout_draws_nothing(self):
        # at drop 0 each Conformer node leaves its generator untouched
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 4))
        mask = ragged_mask([5, 3], 5, np.float64)
        conv = (np.ones(4), np.zeros(4), rng.standard_normal((4, 8)), np.zeros(8),
                rng.standard_normal((3, 4)), np.ones(4), np.zeros(4), np.eye(4), np.zeros(4))
        ffn = (np.ones(4), np.zeros(4), np.eye(4), np.zeros(4), np.eye(4), np.zeros(4))
        attention = (np.ones(4), np.zeros(4), np.eye(4), np.zeros(4), np.eye(4), np.eye(4),
                     np.zeros(4), np.eye(4), np.zeros(4), np.eye(4), np.zeros((2, 2)),
                     np.zeros((2, 2)))
        drawn = np.random.default_rng(1)
        before = drawn.bit_generator.state
        ad.conv_module(x, mask, *conv, 1e-5, 1e-5, 0.0, drawn)
        ad.half_ffn(x, *ffn, 1e-5, 0.0, drawn)
        ad.attention_block(x, np.zeros((2, 1, 1, 5)), rng.standard_normal((9, 4)), *attention,
                           2, 1e-5, 0.0, drawn)
        assert drawn.bit_generator.state == before

    def test_conv_module_dropout_scales_kept_units(self):
        # each output unit is the input plus 0 or 1 / (1 - p) times the
        # undropped block's output
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 25, 4))
        mask = ragged_mask([25, 25, 10, 3], 25, np.float64)
        p = (np.ones(4), np.zeros(4), rng.standard_normal((4, 8)), np.zeros(8),
             rng.standard_normal((3, 4)), np.ones(4), np.zeros(4), rng.standard_normal((4, 4)),
             rng.standard_normal(4))
        plain = conv_block_node(Tensor(x), mask, *map(Tensor, p), 1e-5, 1e-5).data
        dropped = ad.conv_module(x, mask, *p, 1e-5, 1e-5, 0.25, rng).data
        kept = dropped == x + plain * (1.0 / 0.75)
        assert np.all(kept | (dropped == x + plain * 0.0))
        assert 0.65 < np.count_nonzero(kept) / dropped.size < 0.85


def serial_multi_softmax_nll(x, w, b, labels, n):
    """The head's one-buffer serial loop, as the oracle: (loss, gx, gw, gb)."""
    rows, vocab = x.shape[0], w.shape[1] // n
    x1 = np.concatenate([x, np.ones((rows, 1), x.dtype)], axis=1)
    wb = np.concatenate([w, b[None]], axis=0)
    gx, gwb = np.zeros(x.shape, x.dtype), np.empty(wb.shape, x.dtype)
    nll = 0.0
    for j in range(n):
        cols = slice(j * vocab, (j + 1) * vocab)
        z = x1 @ wb[:, cols]
        nll += ad._softmax_xent(z, labels[:, j], 1.0 / labels.size)
        gx += z @ w[:, cols].T
        gwb[:, cols] = x1.T @ z
    return np.asarray(nll / labels.size, x.dtype), gx, gwb[:-1], gwb[-1]


def head_problem(rng, rows, n, vocab, hidden, dtype):
    x = rng.standard_normal((rows, hidden)).astype(dtype)
    w = (0.5 * rng.standard_normal((hidden, n * vocab))).astype(dtype)
    b = (0.5 * rng.standard_normal(n * vocab)).astype(dtype)
    return x, w, b, rng.integers(0, vocab, (rows, n))


def fused_head(x, w, b, labels, n):
    tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    y = ad.multi_softmax_nll(*tensors, labels, n)
    y.backward()
    return (y.data, *(t.grad for t in tensors))


class TestCodebookSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bitwise_equal_to_serial_loop(self, n, dtype):
        rng = np.random.default_rng(n)
        for rows in (1, int(rng.integers(2, 300))):
            vocab, hidden = (int(v) for v in rng.integers(2, 200, 2))
            problem = head_problem(rng, rows, n, vocab, hidden, dtype)
            got = fused_head(*problem, n)
            for a, want in zip(got, serial_multi_softmax_nll(*problem, n)):
                assert a.dtype == want.dtype
                np.testing.assert_array_equal(a, want)

    def test_bitwise_equal_under_frequent_thread_switches(self):
        problem = head_problem(np.random.default_rng(4), 64, 9, 32, 8, np.float32)
        want = serial_multi_softmax_nll(*problem, 9)
        got = []
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                runner = threading.Thread(target=lambda: got.append(fused_head(*problem, 9)),
                                          daemon=True)
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert len(got) == 5
        for result in got:
            for a, b in zip(result, want):
                np.testing.assert_array_equal(a, b)

    def test_every_codebook_runs_on_pool_thread_at_one_blas_thread(self, monkeypatch):
        blas = parallel.openblas_threads()
        if blas is None or parallel.cores() < 2:
            pytest.skip("the head runs serially here")
        seen = {}
        xent = ad._softmax_xent

        def spy(z, labels, scale=None):
            seen[int(labels[0])] = (threading.current_thread().name, blas[0]())
            return xent(z, labels, scale)
        monkeypatch.setattr(ad, "_softmax_xent", spy)
        # labels[0, j] = j identifies the codebook
        x, w, b, _ = head_problem(np.random.default_rng(1), 3, 4, 8, 5, np.float32)
        fused_head(x, w, b, np.tile(np.arange(4), (3, 1)), 4)
        assert sorted(seen) == [0, 1, 2, 3]
        for name, threads in seen.values():
            assert name.startswith("multi_softmax_nll_")
            assert threads == 1

    @pytest.mark.parametrize("bad", [1, 2, 3])
    def test_codebook_error_reraised_and_worker_joined(self, bad):
        # an out-of-range label in a middle or the last codebook
        x, w, b, labels = head_problem(np.random.default_rng(2), 50, 5, 16, 8, np.float32)
        labels[7, bad] = 16
        with pytest.raises(IndexError):
            fused_head(x, w, b, labels, 5)
        assert not any(t.name.startswith("multi_softmax_nll") for t in threading.enumerate())

    def test_failing_codebook_reraised_and_later_codebooks_cancelled(self, monkeypatch):
        # codebooks 1 and 2 fail at once, and a failed codebook must give its
        # block back or later ones wait for a block forever; every later
        # codebook takes 0.2 s, so without cancellation all 32 would run
        started = []
        xent = ad._softmax_xent

        def spy(z, labels, scale=None):
            started.append(int(labels[0]))
            if labels[0] in (1, 2):
                raise RuntimeError(f"codebook {labels[0]}")
            if labels[0] > 2:
                time.sleep(0.2)
            return xent(z, labels, scale)
        monkeypatch.setattr(ad, "_softmax_xent", spy)
        x, w, b, _ = head_problem(np.random.default_rng(5), 3, 32, 8, 5, np.float32)
        errors = []

        def call():
            try:
                fused_head(x, w, b, np.tile(np.arange(32), (3, 1)), 32)
            except RuntimeError as exc:
                errors.append(str(exc))
        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert errors == ["codebook 1"]
        assert {0, 1} <= set(started)
        assert len(started) < 9, started
        assert not any(t.name.startswith("multi_softmax_nll") for t in threading.enumerate())

    def test_public_functions_called_from_calling_thread_only(self, monkeypatch):
        # a tracer that keeps one stack of open spans (bench/spans.py) needs
        # every public call on the thread that made the outer call
        callers = []
        for module in (ad, pretrain):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue

                def spy(*args, _fn=fn, _name=name, **kwargs):
                    callers.append((_name, threading.get_ident()))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, spy)
        problem = head_problem(np.random.default_rng(6), 40, 6, 16, 8, np.float32)
        fused_head(*problem, 6)
        assert "multi_softmax_nll" in {name for name, _ in callers}
        assert {ident for _, ident in callers} == {threading.get_ident()}

    def test_missing_blas_symbol_runs_serially(self, monkeypatch):
        threads = set()
        xent = ad._softmax_xent

        def spy(z, labels, scale=None):
            threads.add(threading.current_thread().name)
            return xent(z, labels, scale)
        monkeypatch.setattr(ad, "_softmax_xent", spy)
        monkeypatch.setattr(parallel, "_OPENBLAS_SET", "no_such_symbol")
        parallel.openblas_threads.cache_clear()
        parallel.hold_one_blas_thread.cache_clear()
        try:
            assert parallel.openblas_threads() is None
            problem = head_problem(np.random.default_rng(3), 30, 3, 16, 8, np.float64)
            got = fused_head(*problem, 3)
        finally:
            parallel.openblas_threads.cache_clear()
            parallel.hold_one_blas_thread.cache_clear()
        assert threads == {threading.current_thread().name}
        for a, want in zip(got, serial_multi_softmax_nll(*problem, 3)):
            np.testing.assert_array_equal(a, want)


def norm_relative(a, want):
    return float(np.linalg.norm(a.astype(np.float64) - want) / np.linalg.norm(want))


@pytest.fixture
def head_row_blocks(monkeypatch):
    """``multi_softmax_nll`` in the smallest row blocks it makes: a budget of
    one byte leaves numpy's 128-value pairwise leaf as the only limit."""
    monkeypatch.setattr(ad, "_HEAD_BLOCK_BYTES", 1)
    return ad._PAIRWISE_LEAF


class TestHeadRowBlocks:
    # gw and gb add one matmul per block instead of one over all rows: the
    # largest norm-relative differences seen over 80 random shapes were
    # 5.8e-7 in float32 and 1.6e-15 in float64
    GRAD_RTOL = {np.float32: 2e-6, np.float64: 1e-14}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pairwise_sum_bitwise_equal_to_np_sum(self, dtype):
        rng = np.random.default_rng(7)
        for n in [*range(1, 1100, 7), 4095, 4096, 65539]:
            a = (3 * rng.standard_normal(n) + 1).astype(dtype)
            for limit in (1, 200, 1024):
                got = ad._pairwise_sum(lambda i, j: float(np.sum(a[i:j])), 0, n, limit,
                                       np.dtype(dtype))
                assert got == float(np.sum(a)), (n, limit)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [450, 777])
    def test_loss_and_gx_bitwise_equal_to_serial_loop(self, head_row_blocks, monkeypatch,
                                                      rows, dtype):
        sizes = []
        xent = ad._softmax_xent

        def spy(z, labels, scale=None):
            sizes.append(len(z))
            return xent(z, labels, scale)
        monkeypatch.setattr(ad, "_softmax_xent", spy)
        problem = head_problem(np.random.default_rng(rows), rows, 3, 128, 32, dtype)
        loss, gx, gw, gb = fused_head(*problem, 3)
        # the three codebooks' blocks, interleaved by the pool
        assert len(sizes) >= 3 * 3 and len(set(sizes)) > 1, sizes
        assert sum(sizes) == 3 * rows and max(sizes) <= head_row_blocks
        want = serial_multi_softmax_nll(*problem, 3)
        assert loss.tobytes() == want[0].tobytes()
        assert gx.tobytes() == want[1].tobytes()
        for got, ref in ((gw, want[2]), (gb, want[3])):
            assert got.dtype == ref.dtype
            assert norm_relative(got, ref) <= self.GRAD_RTOL[dtype]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_hidden_within_rounding(self, head_row_blocks, dtype):
        # the bits of the loss and gx hold where BLAS computes each row of a
        # product the same at the block's row count as at all rows. At hidden
        # 8 numpy's OpenBLAS 0.3.31 does not (its kernel choice depends on the
        # matrix sizes), so gx moves at the rounding level there
        problem = head_problem(np.random.default_rng(8), 450, 3, 128, 8, dtype)
        for got, want in zip(fused_head(*problem, 3), serial_multi_softmax_nll(*problem, 3)):
            assert norm_relative(got, want) <= self.GRAD_RTOL[dtype]

    @pytest.mark.parametrize("block_bytes", [1, None])
    def test_uint16_labels_bitwise_equal_to_int64(self, monkeypatch, block_bytes):
        # labels reach the head at the cache's u16 width; the gather and the
        # scatter must pick the same logits as with int64 indices, in one row
        # block and in many
        if block_bytes:
            monkeypatch.setattr(ad, "_HEAD_BLOCK_BYTES", block_bytes)
        x, w, b, labels = head_problem(np.random.default_rng(16), 333, 3, 2048, 16,
                                       np.float32)
        labels[0] = 2047
        wide = fused_head(x, w, b, labels.astype(np.int64), 3)
        narrow = fused_head(x, w, b, labels.astype(np.uint16), 3)
        for a, want in zip(narrow, wide):
            assert a.dtype == want.dtype and a.tobytes() == want.tobytes()

    def test_peak_at_twice_the_rows_within_one_block(self, head_row_blocks):
        # both sizes run in full blocks, so doubling the rows adds only the
        # arrays with one row per head row: x1, gx and up to one gx part per
        # codebook in flight, never a second (rows, V) buffer
        n, vocab, hidden, itemsize = 4, 512, 32, 4
        peaks = []
        for rows in (1024, 2048):
            problem = head_problem(np.random.default_rng(0), rows, n, vocab, hidden, np.float32)
            peaks.append(traced_bytes(lambda: fused_head(*problem, n))[2])
        block = head_row_blocks * vocab * itemsize
        row_arrays = (2 + n) * 1024 * (hidden + 1) * itemsize
        assert peaks[1] - peaks[0] <= block + row_arrays, peaks


class TestMaskedRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_where_form(self, dtype):
        # the extractor's ReLU as ``np.where(a > 0, a, 0)`` computed it, on
        # signed zeros, NaNs, infinities and subnormals, under both mask values
        info = np.finfo(dtype)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                            info.smallest_subnormal, -info.smallest_subnormal,
                            info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0], dtype)
        rng = np.random.default_rng(3)
        row = np.concatenate([special, rng.standard_normal(1000).astype(dtype)])
        a = np.stack([row, row[::-1]]).reshape(2, -1, 2)
        for mask_dtype in (dtype, np.float32, np.float64):
            mask = np.zeros((2, a.shape[1], 1), mask_dtype)
            mask[0] = 1
            mask[1, ::3] = 1
            with np.errstate(invalid="ignore"):  # inf * 0 on masked frames
                want = np.where(a > 0, a, 0.0).astype(dtype) * mask
                got = ad._masked_relu(a, mask)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), mask_dtype


class TestBatchHalves:
    """``ad.batch_halves`` on a per-row function of its own, not the encoder."""

    B = 5  # odd: the halves are rows [0:3] and [3:5]

    @staticmethod
    def problem(dtype):
        rng = np.random.default_rng(11)
        x, probe = (rng.standard_normal((TestBatchHalves.B, 4, 3)).astype(dtype) for _ in range(2))
        w, b = (rng.standard_normal(3).astype(dtype) for _ in range(2))
        return x, probe, w, b

    @staticmethod
    def half(x):
        # two outputs of one shape; the second reads the first, and the third
        # parent needs no gradient
        def run(k, rows, leaves):
            w, b, c = leaves
            first = ad.mul(ad.mul(x[rows], w), c)
            return [first, ad.add(ad.mul(first, first), b)]
        return run

    @staticmethod
    def parents(w, b):
        return [Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True),
                Tensor(np.full(3, 0.5, w.dtype))]

    @staticmethod
    def backward(outs, probe):
        terms = [ad.sum_(ad.mul(out, probe)) for out in outs]
        ad.add(terms[0], terms[1]).backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_bitwise_equal_to_an_unsplit_run(self, dtype):
        x, _, w, b = self.problem(dtype)
        got = ad.batch_halves(self.half(x), self.parents(w, b), self.B)
        want = self.half(x)(0, slice(0, self.B), self.parents(w, b))
        assert len(got) == len(want) == 2
        for g, o in zip(got, want):
            assert g.data.dtype == dtype and g.data.tobytes() == o.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parent_gradients_add_the_halves_in_order(self, dtype):
        x, probe, w, b = self.problem(dtype)
        parents = self.parents(w, b)
        self.backward(ad.batch_halves(self.half(x), parents, self.B), probe)
        alone = []
        for k, rows in enumerate((slice(0, 3), slice(3, 5))):
            leaves = self.parents(w, b)
            self.backward(self.half(x)(k, rows, leaves), probe[rows])
            alone.append(leaves)
        for p, first, second in zip(parents[:2], *alone):
            assert p.grad.dtype == dtype
            assert p.grad.tobytes() == (first.grad + second.grad).tobytes()
        assert parents[2].grad is None

    def test_records_nothing_under_no_grad(self):
        x, _, w, b = self.problem(np.float64)
        parents = self.parents(w, b)
        with ad.no_grad():
            outs = ad.batch_halves(self.half(x), parents, self.B)
        for out in outs:
            assert out._parents == () and out._backward is None
        assert all(p.grad is None for p in parents)
