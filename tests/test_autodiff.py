import inspect
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import pretrain
from rqspeech.autodiff import Tensor

from conftest import blas_thread_count


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

    def test_unfold_time_padded(self):
        check_op(lambda a: ad.unfold_time(a, kernel=3, stride=2, pad=(2, 1)), (2, 6, 4))

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
                                    np.random.default_rng(0))

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
    return (probs @ v4).transpose(0, 2, 1, 3).reshape(b, l, hd)


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
        ctx = ad.rel_attention(*args, 0.0, None)
        assert ctx.data.dtype == dtype
        assert ctx.data.tobytes() == reference_attention(*args).tobytes()

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

    def test_backward_releases_the_walked_tape(self):
        # each node drops its closure and parents once it has run, so the
        # arrays the closures hold are freed during the walk
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = ad.sigmoid(ad.mul(x, x))
        loss = ad.sum_(y)
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data * y.data * (1 - y.data))
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
        y = ad.sum_(ad.swish(ad.linear(x, x, np.zeros(3))))
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
        plain = ad.rel_attention(*args, 0.0, None).data
        dropped = ad.rel_attention(*args, 0.5, np.random.default_rng(1)).data
        np.testing.assert_allclose(plain.reshape(2, 4, 2, 4).sum(axis=-1), 1.0)
        assert np.all((dropped == 0.0) | (dropped == 2.0 * plain))
        assert 0 < np.count_nonzero(dropped) < dropped.size

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


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, the count the split runs the head at."""
    blas = ad._openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


class TestCodebookSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bitwise_equal_to_serial_loop(self, one_blas_thread, n, dtype):
        rng = np.random.default_rng(n)
        for rows in (1, int(rng.integers(2, 300))):
            vocab, hidden = (int(v) for v in rng.integers(2, 200, 2))
            problem = head_problem(rng, rows, n, vocab, hidden, dtype)
            got = fused_head(*problem, n)
            for a, want in zip(got, serial_multi_softmax_nll(*problem, n)):
                assert a.dtype == want.dtype
                np.testing.assert_array_equal(a, want)

    def test_bitwise_equal_under_frequent_thread_switches(self, one_blas_thread):
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
        blas = ad._openblas_threads()
        if blas is None or len(os.sched_getaffinity(0)) < 2:
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
        before = blas_thread_count()
        with pytest.raises(IndexError):
            fused_head(x, w, b, labels, 5)
        assert not any(t.name.startswith("multi_softmax_nll") for t in threading.enumerate())
        assert blas_thread_count() == before

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
        before = blas_thread_count()
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
        assert blas_thread_count() == before

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
        monkeypatch.setattr(ad, "_OPENBLAS_SET", "no_such_symbol")
        ad._openblas_threads.cache_clear()
        try:
            assert ad._openblas_threads() is None
            problem = head_problem(np.random.default_rng(3), 30, 3, 16, 8, np.float64)
            got = fused_head(*problem, 3)
        finally:
            ad._openblas_threads.cache_clear()
        assert threads == {threading.current_thread().name}
        for a, want in zip(got, serial_multi_softmax_nll(*problem, 3)):
            np.testing.assert_array_equal(a, want)
