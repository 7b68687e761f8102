"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it; calling
``backward`` on a scalar result walks the tape in reverse topological order
(``_backprop``) and accumulates gradients into every Tensor created with
``requires_grad=True``. The walk releases each node's closure once it has run,
so a tape is walked once and its arrays are freed as the walk goes. Gradients
are exact for the recorded computation graph, which is what the
finite-difference test suite checks.

The op set is intentionally small: what the encoder and the losses need,
with normalization, relative-position attention, the pretraining head and the
CTC loss as one fused node each. One normalization node serves the layer norm
over channels and, given a mask, the conv block's norm over valid frames.
Attention's relative shift and the convolution windows are strided read-only
views, not gathers or K-fold copies; the windows op zero-pads its input
itself. All ops keep dtype, so one graph runs in float32 to train and float64
to check gradients. ``_pool_map`` is the one thread pool: the head maps its
codebooks over it, and the encoder its two batch halves, forward and backward.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import glob
import os
import queue

import numpy as np

_grad_enabled = True
_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (inference and finite-difference evaluations)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        _backprop(self, np.ones_like(self.data) if grad is None else grad)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _backprop(root: Tensor, grad) -> None:
    """Walk the tape from ``root`` in reverse topological order, seeded with
    ``grad`` (cast to ``root``'s dtype), and accumulate into every Tensor with
    ``requires_grad``. A node's closure and parents are released once it has
    run, so each array the tape holds is freed as soon as the walk is past it;
    a tape is walked once."""
    # iterative DFS: a deep encoder stack records chains of nodes long
    # enough to overflow the recursion limit
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(root): np.asarray(grad, dtype=root.data.dtype)}
    while topo:
        node = topo.pop()
        parents, backward = node._parents, node._backward
        if backward is not None:
            node._parents, node._backward = (), None
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if backward is None:
            continue
        for parent, pg in zip(parents, backward(g)):
            if pg is None or not _needs_grad(parent):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents) -> bool:
    return _grad_enabled and any(_needs_grad(p) for p in parents)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _recording(parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# elementwise -------------------------------------------------------------

def add(a, b):
    # python scalars stay weak so float32 graphs are not promoted to float64
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        b = float(b)
        return _make(a.data + b, (a,), lambda g: (g,))
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _needs_grad(a), _needs_grad(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape) if na else None,
                            _unbroadcast(g, b.data.shape) if nb else None))


def mul(a, b):
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        b = float(b)
        return _make(a.data * b, (a,), lambda g: (g * b,))
    if isinstance(a, (int, float)):
        return mul(b, a)
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _needs_grad(a), _needs_grad(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape) if na else None,
                            _unbroadcast(g * a.data, b.data.shape) if nb else None))


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0).astype(a.data.dtype), (a,),
                 lambda g: (g * mask,))


def sigmoid(a):
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),))


def swish(a):
    return mul(a, sigmoid(a))


# shape and indexing ------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def getitem(a, idx):
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(a.data[idx], (a,), backward)


def take_rows(a, idx):
    """Select rows of a 2-D tensor by integer index; backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(a.data[idx], (a,), backward)


# reductions ---------------------------------------------------------------

def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        count = a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# linear algebra -----------------------------------------------------------

def linear(x, w, b):
    """Fused x @ w + b for a 2-D weight and 1-D bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    nx, nw, nb = _needs_grad(x), _needs_grad(w), _needs_grad(b)

    def backward(g):
        gx = g @ w.data.T if nx else None
        gw = None
        if nw:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.data.shape[-1])
            gw = x2.T @ g2
        gb = g.reshape(-1, g.shape[-1]).sum(axis=0) if nb else None
        return (gx, gw, gb)

    return _make(x.data @ w.data + b.data, (x, w, b), backward)


def unfold_time(a, kernel: int, stride: int, pad=(0, 0)):
    """Sliding windows over axis 1 of a (B, T, C) input zero-padded by ``pad``
    = (before, after) frames: (B, T_out, K, C), a read-only view of the padded
    copy, not a K-fold copy."""
    a = as_tensor(a)
    before, after = pad
    padded = np.pad(a.data, ((0, 0), (before, after), (0, 0)))
    b, t, c = padded.shape
    t_out = (t - kernel) // stride + 1
    s0, s1, s2 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(b, t_out, kernel, c), strides=(s0, s1 * stride, s1, s2),
        writeable=False)

    def backward(g):
        full = np.zeros_like(padded)
        for k in range(kernel):
            full[:, k: k + stride * t_out: stride] += g[:, :, k]
        return (full[:, before: before + a.data.shape[1]],)

    return _make(windows, (a,), backward)


# softmax family -----------------------------------------------------------

def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _make(y, (a,), backward)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = a.data - m
    e = np.exp(shifted)
    denom = e.sum(axis=axis, keepdims=True)
    y = shifted - np.log(denom)
    probs = e / denom  # cached for the backward pass

    def backward(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _make(y, (a,), backward)


def cross_entropy_mean(logits, labels):
    """Mean of -log softmax(logits)[label] over all leading positions.

    ``logits`` is (..., V), ``labels`` integer with the leading shape; one
    fused op so the softmax probabilities are shared with the backward pass.
    """
    a = as_tensor(logits)
    labels = np.asarray(labels)
    if labels.shape != a.data.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match logits "
                         f"{a.data.shape[:-1]}")
    count = labels.size
    z = a.data.reshape(-1, a.data.shape[-1]).copy()
    nll = _softmax_xent(z, labels.reshape(-1), 1.0 / count if _recording((a,)) else None)
    out = np.asarray(nll / count, dtype=a.data.dtype)
    return _make(out, (a,), lambda g: (z.reshape(a.data.shape) * float(g),))


def multi_softmax_nll(x, w, b, labels, num_codebooks: int):
    """Mean NLL of ``num_codebooks`` independent softmaxes over ``x @ w + b``.

    ``x`` is (rows, H), ``w`` (H, N*V), ``b`` (N*V,) and ``labels`` (rows, N)
    integers. The value is ``cross_entropy_mean`` of ``linear(x, w, b)``
    reshaped to (rows, N, V), but the op runs one codebook at a time in a
    (rows, V) block, so the (rows, N*V) logits are never held (the blockwise
    loss of Wijmans et al., 2024). When the tape records, the gradients are
    computed in the same pass and the backward only scales them. On two cores
    the codebooks run on two threads (``_pool_map``); parts are added in
    codebook order, so the bits do not depend on the split.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    labels = np.asarray(labels)
    rows, n_out = x.data.shape[0], w.data.shape[1]
    if labels.shape != (rows, num_codebooks):
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"(rows, codebooks) {(rows, num_codebooks)}")
    if n_out % num_codebooks:
        raise ValueError(f"{n_out} head outputs do not split into "
                         f"{num_codebooks} codebooks")
    vocab = n_out // num_codebooks
    count = labels.size
    recording = _recording((x, w, b))
    # the bias rides in the matmuls as a last weight row against a ones
    # column, which saves a pass over each block for the add and for gb
    dtype = np.result_type(x.data, w.data, b.data)
    x1 = np.concatenate([x.data, np.ones((rows, 1), dtype)], axis=1, dtype=dtype)
    wb = np.concatenate([w.data, b.data[None]], axis=0, dtype=dtype)
    scale = 1.0 / count if recording else None
    if recording:
        gx = np.zeros(x.data.shape, dtype)
        gwb = np.empty(wb.shape, dtype)
    blocks = queue.SimpleQueue()  # free (rows, V) blocks, one per thread

    def codebook(j):
        # codebook j's summed NLL in a free block; when the tape records, its
        # gwb columns are written and its gx part is returned
        z = blocks.get()
        try:
            cols = slice(j * vocab, (j + 1) * vocab)
            np.matmul(x1, wb[:, cols], out=z)
            nll = _softmax_xent(z, labels[:, j], scale)
            if not recording:
                return nll, None
            gwb[:, cols] = x1.T @ z
            return nll, z @ w.data[:, cols].T
        finally:
            blocks.put(z)

    nll = 0.0
    with _pool_map(num_codebooks, "multi_softmax_nll") as (mapped, threads):
        for _ in range(threads):  # here, not in the pool: see _pool_map
            blocks.put(np.empty((rows, vocab), dtype))
        for part_nll, part_gx in mapped(codebook, range(num_codebooks)):
            nll += part_nll
            if recording:
                gx += part_gx
    out = np.asarray(nll / count, dtype=dtype)
    return _make(out, (x, w, b), lambda g: (gx * float(g), gwb[:-1] * float(g),
                                            gwb[-1] * float(g)))


@contextlib.contextmanager
def _pool_map(n, name):
    """``(map, threads)`` for ``n`` independent tasks: the head's codebooks
    or the encoder's two batch halves.

    With two usable cores and numpy's OpenBLAS at hand, ``map`` is the
    ordered map of a two-thread pool whose threads are named after ``name``,
    and OpenBLAS is held at one thread meanwhile; otherwise it is the builtin
    ``map`` on one thread. Each result is bit-identical to a serial run at one
    BLAS thread. A task enters through a private function, never through
    ``encoder.encode`` or ``Tensor.backward``, so a tracer that keeps one
    stack of open spans around those sees them on the calling thread only.
    The caller allocates the buffers the tasks share: buffers allocated on
    pool threads cost measurably more peak memory.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _openblas_threads() if n > 1 and (cores or 1) > 1 else None
    if blas is None:
        yield map, 1
        return
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    pool = concurrent.futures.ThreadPoolExecutor(2, name)
    try:
        yield pool.map, 2
    finally:
        pool.shutdown(cancel_futures=True)  # joins the threads
        set_threads(saved)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
            get_threads = getattr(dll, _OPENBLAS_GET)
            set_threads = getattr(dll, _OPENBLAS_SET)
        except (OSError, AttributeError):
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        return get_threads, set_threads
    return None


def _softmax_xent(z, labels, scale=None) -> float:
    """Summed softmax cross-entropy of 2-D logits ``z`` against ``labels``.

    Works in place: ``z`` is overwritten with the exponentials of the shifted
    logits and, when ``scale`` is given, then with ``scale * (softmax(z) -
    onehot(labels))``, the gradient of ``scale`` times the returned sum.
    """
    rows = np.arange(z.shape[0])
    chosen = z[rows, labels]
    m = z.max(axis=1, keepdims=True)
    z -= m
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    nll = float(np.sum(np.log(denom[:, 0]) + m[:, 0] - chosen))
    if scale is not None:
        z *= scale / denom
        z[rows, labels] -= scale
    return nll


def ctc_nll(logprobs, ext, allow_skip):
    """CTC negative log-likelihood (Graves et al., 2006) of (T, V) log-probs
    over the extended target ``ext``, where ``allow_skip[s]`` lets state s be
    entered from s - 2; +inf when no alignment fits. The backward gets the
    betas from the same recursion over the reversed lattice."""
    lp = as_tensor(logprobs)
    emit = lp.data[:, ext]
    alphas = _ctc_alphas(emit, allow_skip)
    log_p = np.logaddexp(alphas[-1, -1], alphas[-1, -2])

    def backward(g):
        # reversed state s' may be entered from s' - 2 iff original S+1-s' may
        skip_back = np.concatenate([[False, False], allow_skip[:1:-1]])
        betas = _ctc_alphas(emit[::-1, ::-1], skip_back)[::-1, ::-1]
        # alpha and beta both hold the emission, and are -inf where it is
        post = np.exp(alphas + betas - np.where(np.isneginf(emit), 0.0, emit) - log_p)
        grad = np.zeros_like(lp.data)
        np.add.at(grad, (np.arange(len(emit))[:, None], ext), post * -float(g))
        return (grad,)

    return _make(np.asarray(-log_p), (lp,), backward)


def _ctc_alphas(emit, allow_skip):
    """(T, S) log-space CTC forward variables: paths start in state 0 or 1 and
    move 0, 1 or, where ``allow_skip``, 2 states per frame."""
    alphas = np.full_like(emit, -np.inf)
    alphas[0, :2] = emit[0, :2]
    shifted = np.full(emit.shape[1] + 2, -np.inf, emit.dtype)
    for t in range(1, len(emit)):
        shifted[2:] = alphas[t - 1]
        prev2 = np.where(allow_skip, shifted[:-2], -np.inf)
        alphas[t] = np.logaddexp(np.logaddexp(alphas[t - 1], shifted[1:-1]), prev2) + emit[t]
    return alphas


# composite helpers --------------------------------------------------------

def layer_norm(x, gamma, beta, eps=1e-5, axis=-1, mask=None):
    """Fused normalization over ``axis``, then ``gamma`` and ``beta`` on the
    last axis. With a 0/1 ``mask`` (broadcastable to ``x``) the statistics
    count only entries where it is 1, and the normalized value is 0 elsewhere.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if mask is None:
        def masked(a):
            return a

        def mean(a):
            return a.mean(axis=axis, keepdims=True)
    else:
        count = np.maximum(np.sum(mask, axis=axis, keepdims=True, dtype=np.float64), 1)
        inv_count = (1.0 / count).astype(x.data.dtype)

        def masked(a):
            return a * mask

        def mean(a):  # of an ``a`` that is already zero where the mask is
            return a.sum(axis=axis, keepdims=True) * inv_count

    mu = mean(masked(x.data))
    centered = masked(x.data - mu)
    var = mean(centered * centered)
    inv = 1.0 / np.sqrt(var + eps)
    norm = centered * inv
    out = norm * gamma.data + beta.data
    nx, ng, nb = _needs_grad(x), _needs_grad(gamma), _needs_grad(beta)

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gx = ggamma = gbeta = None
        if ng:
            ggamma = (g * norm).sum(axis=lead)
        if nb:
            gbeta = g.sum(axis=lead)
        if nx:
            gy = masked(g * gamma.data)
            gx = masked(inv * (gy - mean(gy) - norm * mean(gy * norm)))
        return (gx, ggamma, gbeta)

    return _make(out, (x, gamma, beta), backward)


def rel_attention(q, k, v, offsets, w_pos, bias_u, bias_v, key_mask, heads: int,
                  drop: float, rng):
    """Shift-style relative-position self-attention (Dai et al., 2019) as one
    node: head h of query i weights value j by softmax_j(((q_i + u_h) . k_j +
    (q_i + v_h) . (r W)_{i-j}) / sqrt(d) + key_mask_j), then inverted dropout.
    ``q``, ``k``, ``v`` are (B, L, H*d), ``offsets`` r the (2L-1, H*d) encodings
    of offsets -(L-1)..L-1. Returns the (B, L, H*d) context; the backward keeps
    the (B, H, L, L) probabilities and the dropout mask.
    """
    q, k, v, w_pos, bias_u, bias_v = map(as_tensor, (q, k, v, w_pos, bias_u, bias_v))
    b, l, hd = q.data.shape
    d, n_off = hd // heads, len(offsets)
    if n_off != 2 * l - 1:
        raise ValueError(f"rel_attention needs 2L-1 = {2 * l - 1} offset rows, got {n_off}")
    scale = float(1.0 / np.sqrt(d))  # a numpy scalar would promote float32 to float64

    def split(x):  # (B, L, H*d) -> (B, H, L, d)
        return x.reshape(b, l, heads, d).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, l, hd)

    def shifted(x, writeable):
        # (..., L, 2L-1) -> (..., L, L): out[..., i, j] = x[..., i, i - j + L - 1], no repeats
        s_row, s_col = x.strides[-2:]
        return np.lib.stride_tricks.as_strided(
            x[..., l - 1:], shape=x.shape[:-1] + (l,),
            strides=x.strides[:-2] + (s_row + s_col, -s_col), writeable=writeable)

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    u, vb = bias_u.data.reshape(1, heads, 1, d), bias_v.data.reshape(1, heads, 1, d)
    r = (offsets @ w_pos.data).reshape(n_off, heads, d).transpose(1, 2, 0)  # (H, d, 2L-1)
    s = (q4 + u) @ k4.transpose(0, 1, 3, 2)
    s += shifted((q4 + vb) @ r, False)
    s *= scale
    s += key_mask
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)  # s now holds the probabilities
    mult = (rng.random(s.shape) >= drop).astype(s.dtype) / (1.0 - drop) if drop > 0.0 else None

    def backward(g):
        g4 = split(g)
        gs = g4 @ np.swapaxes(v4, -1, -2)
        if mult is not None:
            gs *= mult
        gs = (gs - (gs * s).sum(axis=-1, keepdims=True)) * s * scale
        gpos = np.zeros(gs.shape[:-1] + (n_off,), gs.dtype)
        shifted(gpos, True)[...] = gs
        gqu, gqv = gs @ k4, gpos @ np.swapaxes(r, -1, -2)
        gk = np.swapaxes(np.swapaxes(q4 + u, -1, -2) @ gs, -1, -2)
        gr = (np.swapaxes(q4 + vb, -1, -2) @ gpos).sum(axis=0).transpose(2, 0, 1)
        attn = s if mult is None else s * mult
        return (merge(gqu + gqv), merge(gk), merge(np.swapaxes(attn, -1, -2) @ g4),
                offsets.T @ gr.reshape(n_off, hd), _unbroadcast(gqu, u.shape).reshape(heads, d),
                _unbroadcast(gqv, vb.shape).reshape(heads, d))

    attn = s if mult is None else s * mult
    return _make(merge(attn @ v4), (q, k, v, w_pos, bias_u, bias_v), backward)


def dropout(x, prob: float, rng: np.random.Generator):
    """Inverted dropout; identity when prob == 0."""
    if prob <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= prob).astype(x.data.dtype)
    return mul(x, keep / (1.0 - prob))
