import math

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech.autodiff import Tensor


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
        check_op(ad.relu, (4, 7), seed=3)

    def test_sigmoid(self):
        check_op(ad.sigmoid, (5,))

    def test_swish(self):
        check_op(ad.swish, (3, 4))

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (4, 6)), (2, 3, 4))

    def test_getitem_slice(self):
        check_op(lambda a: a[:, 1:3], (4, 5))

    def test_pad_time(self):
        check_op(lambda a: ad.pad_time(a, 2, 1), (2, 3, 4))

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda a: ad.take_rows(a, idx), (3, 4))

    def test_rel_attention(self):
        # B=2, L=4, heads=2, d=3; the last key of utterance 1 is masked, and a
        # fresh rng per build draws the same dropout mask every time
        offsets = np.random.default_rng(1).standard_normal((7, 6))
        key_mask = np.zeros((2, 1, 1, 4))
        key_mask[1, ..., 3] = -np.inf

        def build(q, k, v, w_pos, u, vb):
            return ad.rel_attention(q, k, v, offsets, w_pos, u, vb, key_mask, 2, 0.3,
                                    np.random.default_rng(0))[0]

        check_op(build, (2, 4, 6), (2, 4, 6), (2, 4, 6), (6, 6), (2, 3), (2, 3))

    def test_sum_mean(self):
        check_op(lambda a: ad.sum_(a, axis=1, keepdims=True), (3, 4, 2))
        check_op(lambda a: ad.mean(a, axis=-1), (3, 4))
        check_op(lambda a: ad.mean(a), (3, 4))

    def test_unfold_time(self):
        check_op(lambda a: ad.unfold_time(a, kernel=3, stride=2), (2, 9, 4))

    def test_softmax(self):
        check_op(lambda a: ad.softmax(a, axis=-1), (3, 5))

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
        x, _, _ = check_op(lambda x, g, b: ad.layer_norm(x, g, b, axis=1, mask=mask),
                           (3, 6, 4), (4,), (4,))
        assert np.all(x.grad[mask[..., 0] == 0] == 0.0)


def ragged_mask(lengths, frames, dtype):
    """(B, frames, 1) 0/1 mask of each utterance's first ``lengths[b]`` frames."""
    return (np.arange(frames)[None, :] < np.asarray(lengths)[:, None]).astype(dtype)[:, :, None]


def chain_masked_norm(y, gamma, beta, mask, eps):
    """The masked norm over axis 1 as the chain of generic ops that the
    convolution block recorded before it became one ``layer_norm`` node."""
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
        got = ad.layer_norm(*fused, 1e-5, axis=1, mask=mask)
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
    """rel_attention's forward without dropout, in numpy, with the position
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
    return (probs @ v4).transpose(0, 2, 1, 3).reshape(b, l, hd), probs


class TestRelShift:
    """The strided relative shift inside ``rel_attention`` against the gather."""

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
        want_ctx, want_probs = reference_attention(*args)
        ctx, probs = ad.rel_attention(*args, 0.0, None)
        assert ctx.data.dtype == probs.dtype == dtype
        assert ctx.data.tobytes() == want_ctx.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_rejects_unshifted_shape(self):
        q = np.zeros((1, 3, 4))
        with pytest.raises(ValueError, match="2L-1"):
            ad.rel_attention(q, q, q, np.zeros((6, 4)), np.zeros((4, 4)),
                             np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 2, 0.0, None)


class TestSemantics:
    def test_strided_views_are_read_only(self):
        a = np.arange(18.0).reshape(1, 3, 6)[:, :, 1:]
        assert not ad.unfold_time(a, kernel=2, stride=1).data.flags.writeable
        assert a.flags.writeable

    def test_softmax_with_neginf_keys(self):
        x = Tensor(np.array([[0.0, -np.inf, 1.0]]), requires_grad=True)
        y = ad.softmax(x)
        assert y.data[0, 1] == 0.0
        assert np.isclose(y.data.sum(), 1.0)
        ad.sum_(ad.mul(y, np.array([[1.0, 5.0, 2.0]]))).backward()
        assert np.all(np.isfinite(x.grad[0, [0, 2]]))
        assert x.grad[0, 1] == 0.0

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
        y.backward(np.array([1.0]))
        assert np.isclose(x.grad[0], 5.0)

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, 3.0)
        assert y._backward is None and y._parents == ()

    def test_multi_softmax_nll_no_grad_records_nothing(self):
        rng = np.random.default_rng(0)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((3, 4), (4, 6), (6,)))
        with ad.no_grad():
            y = ad.multi_softmax_nll(x, w, b, np.zeros((3, 2), np.int64), 2)
        assert y._backward is None and y._parents == ()

    def test_multi_softmax_nll_labels_shape_rejected(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 6)), np.zeros(6)
        with pytest.raises(ValueError, match="labels shape"):
            ad.multi_softmax_nll(x, w, b, np.zeros((3, 3), np.int64), 2)
        with pytest.raises(ValueError, match="labels shape"):
            ad.cross_entropy_mean(np.zeros((3, 2, 3)), np.zeros((3, 3), np.int64))

    def test_zero_upstream_gives_zero_grads(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
        y = ad.sum_(ad.swish(ad.linear(x, x, np.zeros(3))))
        y.backward(np.zeros(()))
        assert np.all(x.grad == 0.0)

    def test_rel_attention_returns_pre_dropout_probabilities(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 5, 4))
        args = (q, q, q, rng.standard_normal((9, 4)), np.eye(4), np.zeros((2, 2)),
                np.zeros((2, 2)), np.zeros((2, 1, 1, 5)), 2)
        plain, probs = ad.rel_attention(*args, 0.0, None)
        dropped, dropped_probs = ad.rel_attention(*args, 0.5, np.random.default_rng(1))
        assert np.array_equal(dropped_probs, probs)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)
        assert not np.array_equal(dropped.data, plain.data)

    def test_dropout_zero_prob_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        y = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert y is x

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((100, 100)))
        y = ad.dropout(x, 0.25, rng)
        vals = np.unique(y.data)
        assert set(np.round(vals, 6)) <= {0.0, np.round(1 / 0.75, 6)}
        assert abs(y.data.mean() - 1.0) < 0.05
