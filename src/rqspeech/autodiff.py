"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it; calling
``backward`` on a scalar result walks the tape in reverse topological order
(``_backprop``) and accumulates gradients into every Tensor created with
``requires_grad=True``. The walk releases each node's closure once it has run,
so a tape is walked once and its arrays are freed as the walk goes. Gradients
are exact for the recorded computation graph, which is what the
finite-difference test suite checks.

The op set is intentionally small: what the encoder and the losses need,
with these as one fused node each: the layer norm, the Conformer's
self-attention block (``attention_block``), macaron half feed-forward
(``half_ffn``) and convolution module (``conv_module``), the pretraining
head, and the CTC loss of a whole padded batch (``ctc_nll``).
The norm and the three Conformer nodes keep statistics, pre-activations and
boolean dropout masks, not their elementwise results, and recompute those in
the backward from the numpy pieces at the bottom of this module, which
``linear`` shares, so each formula exists once. Each Conformer node draws
and keeps its own dropout masks; there is no dropout node. The attention
block keeps q, k, v, its context and each score row's max and exponential
sum, never the (B, H, L, L) probabilities: its forward and backward run over
groups of whole (utterance, head) score matrices, and the backward
recomputes a group's probabilities from those statistics. Attention's
relative shift and the extractor's windows are strided views, not gathers
or K-fold copies. All ops keep dtype, so one graph runs in float32 to train
and float64 to check gradients. ``_pool_map`` is the one pool: the head maps
its codebooks over it, and the encoder its two halves.
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
# bytes of (L, L) attention scores in one group of ``_rel_attention``; a group
# keeps at most three times this alive. Groups this small stay in the cache
# and run as fast as whole batches, where the backward's recomputation would
# otherwise cost more than it saves
_ATTENTION_GROUP_BYTES = 1 << 20
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
    ``requires_grad``. This is the one place that drops the gradients of
    parents that need none. A node's closure and parents are released once it
    has run, so each array the tape holds is freed as soon as the walk is past
    it; a tape is walked once."""
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
    needs = [_needs_grad(t) for t in (x, w, b)]
    return _make(x.data @ w.data + b.data, (x, w, b),
                 lambda g: _linear_grad(g, x.data, w.data, *needs))


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


def ctc_nll(logprobs, frames, ext, allow_skip):
    """Mean CTC negative log-likelihood (Graves et al., 2006) of a padded batch
    as one node, batched as in Deep Speech 2 (Amodei et al., 2016). ``logprobs``
    is (B, T, V), or (T, V) for a batch of one; utterance b has ``frames[b]``
    frames and the extended target ``ext[b]``, padded with -1, whose state s
    may be entered from s - 2 where ``allow_skip[b, s]``. Returns the mean,
    added in batch order, and each -log p (+inf where no alignment fits). The
    backward runs the same recursion over each reversed lattice for the betas."""
    lp = as_tensor(logprobs)
    data = lp.data if lp.data.ndim == 3 else lp.data[None]
    b, t_max, _ = data.shape
    frames = np.asarray(frames, dtype=np.int64)
    states = np.count_nonzero(ext >= 0, axis=1)
    utt, steps = np.arange(b), np.arange(t_max)[None, :, None]
    symbols = np.maximum(ext, 0)[:, None, :]
    emit = np.take_along_axis(data, symbols, axis=2)
    # padded frames and states emit nothing, so no path enters them
    np.copyto(emit, -np.inf, where=(steps >= frames[:, None, None]) | (ext < 0)[:, None, :])
    alphas = _ctc_alphas(emit, allow_skip)
    last = alphas[utt, frames - 1]
    log_p = np.logaddexp(last[utt, states - 1], last[utt, states - 2])
    mean = np.add.accumulate(-log_p * (1.0 / b))[-1]

    def backward(g):
        # reversed frame t is frame frames[b]-1-t and reversed state s is state
        # states[b]-1-s; padding maps to itself, so each map is its own inverse
        t_rev = np.arange(t_max)
        t_rev = np.where(t_rev < frames[:, None], frames[:, None] - 1 - t_rev, t_rev)
        s_rev = np.arange(ext.shape[1])
        s_rev = np.where(s_rev < states[:, None], states[:, None] - 1 - s_rev, s_rev)
        flip = (utt[:, None, None], t_rev[:, :, None], s_rev[:, None, :])
        # reversed state s may be entered from s - 2 iff original state
        # s_rev[s - 2] may; padded states have -inf emissions either way
        skip_back = np.zeros_like(allow_skip)
        skip_back[:, 2:] = np.take_along_axis(allow_skip, s_rev[:, :-2], axis=1)
        betas = _ctc_alphas(emit[flip], skip_back)[flip]
        # alpha and beta both hold the emission, and are -inf where it is
        post = np.exp(alphas + betas - np.where(np.isneginf(emit), 0.0, emit)
                      - log_p[:, None, None])
        grad = np.zeros_like(data)
        np.add.at(grad, (utt[:, None, None], steps, symbols), post * -float(g * (1.0 / b)))
        return (grad.reshape(lp.data.shape),)

    return _make(np.asarray(mean), (lp,), backward), -log_p


def _ctc_alphas(emit, allow_skip):
    """(B, T, S) log-space CTC forward variables: paths start in state 0 or 1
    and move 0, 1 or, where ``allow_skip``, 2 states per frame."""
    alphas = np.full_like(emit, -np.inf)
    alphas[:, 0, :2] = emit[:, 0, :2]
    shifted = np.full((len(emit), emit.shape[2] + 2), -np.inf, emit.dtype)
    for t in range(1, emit.shape[1]):
        shifted[:, 2:] = alphas[:, t - 1]
        prev2 = np.where(allow_skip, shifted[:, :-2], -np.inf)
        alphas[:, t] = (np.logaddexp(np.logaddexp(alphas[:, t - 1], shifted[:, 1:-1]), prev2)
                        + emit[:, t])
    return alphas


# composite helpers --------------------------------------------------------

def layer_norm(x, gamma, beta, eps=1e-5):
    """Fused normalization over the last axis, then ``gamma`` and ``beta``.
    The backward keeps the statistics and recomputes the normalized ``x``."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    norm, mu, inv, _ = _norm_forward(x.data, eps)

    def backward(g):
        return _norm_grad(g, _normalized(x.data, mu, inv), inv, gamma.data)

    return _make(norm * gamma.data + beta.data, (x, gamma, beta), backward)


def attention_block(x, key_mask, offsets, gamma, beta, wq, bq, wk, wv, bv, wo, bo,
                    w_pos, bias_u, bias_v, heads: int, eps, drop: float, rng):
    """The Conformer's self-attention block (Gulati et al., 2020) as one node:
    layer norm, the ``wq``, ``wk`` and ``wv`` projections, relative-position
    attention (``_rel_attention``) over the (B, 1, 1, L) ``key_mask`` and the
    (2L-1, H*d) ``offsets`` encodings, the ``wo`` projection and inverted
    dropout, the dropout masks drawn from ``rng`` in that order. ``wk`` has no
    bias: the softmax cancels the (q_i + u) . b it adds to query i's row.

    The backward keeps the norm's statistics, q, k, v, the context, each
    (b, h, i) score row's max and exponential sum and boolean dropout masks,
    never the (B, H, L, L) probabilities: it recomputes them group by group
    with the forward's expressions, so only one group's scores are alive at a
    time (Chen et al., 2016), and recomputes the norm, never a projection.
    """
    parents = tuple(map(as_tensor, (x, gamma, beta, wq, bq, wk, wv, bv, wo, bo, w_pos,
                                    bias_u, bias_v)))
    x, gamma, beta, wq, bq, wk, wv, bv, wo, bo, w_pos, bias_u, bias_v = parents
    norm, mu, inv, _ = _norm_forward(x.data, eps)
    y = norm * gamma.data + beta.data
    q, k, v = y @ wq.data + bq.data, y @ wk.data, y @ wv.data + bv.data
    ctx, attention_grad = _rel_attention(q, k, v, offsets, w_pos.data, bias_u.data,
                                         bias_v.data, key_mask, heads, drop, rng)
    out, dropped = _dropout(ctx @ wo.data + bo.data, drop, rng)

    def backward(g):
        gctx, gwo, gbo = _linear_grad(dropped(g), ctx, wo.data)
        gq, gk, gv, gw_pos, gu, gvb = attention_grad(gctx)
        norm = _normalized(x.data, mu, inv)
        y = norm * gamma.data + beta.data
        gy, gwq, gbq = _linear_grad(gq, y, wq.data)
        gyk, gwk, _ = _linear_grad(gk, y, wk.data, nb=False)
        gyv, gwv, gbv = _linear_grad(gv, y, wv.data)
        return (*_norm_grad(gy + gyk + gyv, norm, inv, gamma.data), gwq, gbq, gwk, gwv, gbv,
                gwo, gbo, gw_pos, gu, gvb)

    return _make(out, parents, backward)


def half_ffn(x, gamma, beta, w1, b1, w2, b2, eps, drop: float, rng):
    """The Conformer's macaron half feed-forward (Gulati et al., 2020) as one
    node: ``0.5 * dropout(dropout(swish(layer_norm(x) @ w1 + b1)) @ w2 + b2)``,
    the two inverted-dropout masks drawn from ``rng`` in that order. The
    backward keeps the norm's statistics, the pre-activation ``a`` and the
    boolean dropout masks, and recomputes the norm, the sigmoid, the swish and
    the dropout multipliers from them (Chen et al., 2016), never a matmul.
    """
    parents = tuple(map(as_tensor, (x, gamma, beta, w1, b1, w2, b2)))
    x, gamma, beta, w1, b1, w2, b2 = parents
    a, mu, inv = _norm_linear(x.data, gamma.data, beta.data, w1.data, b1.data, eps)
    h, dropped1 = _dropout(a * _sigmoid(a), drop, rng)
    z, dropped2 = _dropout(h @ w2.data + b2.data, drop, rng)

    def backward(g):
        y = _sigmoid(a)
        gh, gw2, gb2 = _linear_grad(dropped2(g * 0.5), dropped1(a * y), w2.data)
        return (*_norm_linear_grad(_swish_grad(dropped1(gh), a, y), x.data, mu, inv,
                                   gamma.data, beta.data, w1.data), gw2, gb2)

    return _make(z * 0.5, parents, backward)


def conv_module(x, mask, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2,
                eps, norm_eps, drop: float, rng):
    """The Conformer convolution module (Gulati et al., 2020) as one node:
    layer norm, pointwise ``w1`` to 2C channels, GLU, the same-padded
    depthwise convolution ``dw`` over frames zeroed where the (B, T, 1)
    ``mask`` is 0 (no bias: the next norm would subtract it, Ioffe & Szegedy,
    2015), the norm over each utterance's valid frames, swish, pointwise
    ``w2`` and inverted dropout. The backward keeps both norms' statistics,
    the (B, T, 2C) pre-GLU activation ``a``, the depthwise output ``c`` and
    the boolean dropout mask, and recomputes the norms, the sigmoids, the
    GLU, the swish and the padded depthwise input from them, never a matmul.
    """
    parents = tuple(map(as_tensor, (x, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2,
                                    b2)))
    x, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2 = parents
    a, mu, inv = _norm_linear(x.data, gamma.data, beta.data, w1.data, b1.data, eps)
    u, y = _glu_halves(a)
    c = _depthwise(_depthwise_pad(u * y, mask, len(dw.data)), dw.data)
    c_norm, c_mu, c_inv, inv_count = _norm_forward(c, norm_eps, mask)
    n = c_norm * norm_gamma.data + norm_beta.data
    out, dropped = _dropout((n * _sigmoid(n)) @ w2.data + b2.data, drop, rng)

    def backward(g):
        c_norm = _normalized(c, c_mu, c_inv, mask)
        n = c_norm * norm_gamma.data + norm_beta.data
        s = _sigmoid(n)
        gs, gw2, gb2 = _linear_grad(dropped(g), n * s, w2.data)
        gc, gng, gnb = _norm_grad(_swish_grad(gs, n, s), c_norm, c_inv, norm_gamma.data,
                                  mask, inv_count)
        u, y = _glu_halves(a)
        gu, gdw = _depthwise_grad(gc, _depthwise_pad(u * y, mask, len(dw.data)), mask, dw.data)
        return (*_norm_linear_grad(_glu_grad(gu, u, y), x.data, mu, inv, gamma.data,
                                   beta.data, w1.data), gdw, gng, gnb, gw2, gb2)

    return _make(out, parents, backward)


# numpy forward and backward pieces ----------------------------------------
# One formula each, shared by the nodes above; a fused node's backward calls
# the same pieces on the same arrays as its forward, so a recomputed value
# holds the forward's bits.

def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _swish_grad(g, a, y):
    """Gradient of the swish ``a * y``, ``y = _sigmoid(a)``: the product's
    part, then the sigmoid's, as the chain of the two added them."""
    return g * y + g * a * y * (1.0 - y)


def _glu_halves(a):
    """(first half of the last axis, sigmoid of the second half): the GLU is
    their product."""
    h = a.shape[-1] // 2
    return a[..., :h], _sigmoid(a[..., h:])


def _glu_grad(g, x, y):
    """Gradient of the GLU at ``_glu_halves`` (x, y)."""
    return np.concatenate([g * y, g * x * y * (1.0 - y)], -1)


def _dropout_keep(shape, drop, rng):
    """Boolean inverted-dropout mask, True where a unit is kept; None when
    drop <= 0. A node keeps the mask, a quarter of float32 multipliers."""
    if drop <= 0.0:
        return None
    return rng.random(shape) >= drop


def _dropout_mult(keep, dtype, drop):
    """The multipliers of a ``_dropout_keep`` mask: 0 or 1 / (1 - drop)."""
    return keep.astype(dtype) / (1.0 - drop)


def _dropout(a, drop, rng):
    """(``a`` after inverted dropout, the map that scales a gradient by the
    same multipliers); the map keeps the boolean mask, not the multipliers."""
    keep, dtype = _dropout_keep(a.shape, drop, rng), a.dtype
    if keep is None:
        return a, lambda g: g
    return a * _dropout_mult(keep, dtype, drop), lambda g: g * _dropout_mult(keep, dtype, drop)


def _rel_shift(x, writeable=False):
    """The relative shift (..., L, 2L-1) -> (..., L, L), out[..., i, j] =
    x[..., i, i - j + L - 1], as a strided view of ``x`` with no repeats."""
    l = x.shape[-2]
    s_row, s_col = x.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        x[..., l - 1:], shape=x.shape[:-1] + (l,),
        strides=x.strides[:-2] + (s_row + s_col, -s_col), writeable=writeable)


def _attention_groups(b, heads, l, itemsize):
    """(utterance slice, head slice) pairs that cover a (B, H, L, L) score
    array in C order, each of whole (L, L) matrices within
    ``_ATTENTION_GROUP_BYTES``: several utterances with all their heads, or
    some heads of one utterance, and at least one matrix."""
    per_group = max(1, _ATTENTION_GROUP_BYTES // (l * l * itemsize))
    if per_group >= heads:
        step = per_group // heads
        return [(slice(i, i + step), slice(0, heads)) for i in range(0, b, step)]
    return [(slice(i, i + 1), slice(h, h + per_group))
            for i in range(b) for h in range(0, heads, per_group)]


def _rel_attention(q, k, v, offsets, w_pos, bias_u, bias_v, key_mask, heads: int,
                   drop: float, rng):
    """Shift-style relative-position self-attention (Dai et al., 2019) in
    numpy: head h of query i weights value j by softmax_j(((q_i + u_h) . k_j +
    (q_i + v_h) . (r W)_{i-j}) / sqrt(d) + key_mask_j), then inverted dropout.
    ``q``, ``k``, ``v`` are (B, L, H*d) and ``offsets`` r the (2L-1, H*d)
    encodings of offsets -(L-1)..L-1.

    Returns the (B, L, H*d) context and its gradient function, which maps
    the context's gradient to those of (q, k, v, w_pos, bias_u, bias_v). Both
    run over ``_attention_groups``; the forward keeps each score row's max and
    exponential sum, and the gradient recomputes a group's probabilities from
    them, as FlashAttention's backward does (Dao et al., 2022) without its
    online softmax, which would change the forward's bits. numpy's stacked
    matmul runs one product per (L, L) matrix, and every reduction over
    utterances or heads is taken on arrays assembled in full, so the bits do
    not depend on the groups.
    """
    b, l, hd = q.shape
    d, n_off = hd // heads, len(offsets)
    if n_off != 2 * l - 1:
        raise ValueError(f"relative attention needs 2L-1 = {2 * l - 1} offset rows, "
                         f"got {n_off}")
    scale = float(1.0 / np.sqrt(d))  # a numpy scalar would promote float32 to float64

    def split(x):  # (B, L, H*d) -> (B, H, L, d)
        return x.reshape(b, l, heads, d).transpose(0, 2, 1, 3)

    def merge(x):  # the inverse, a view where the layout allows
        return x.transpose(0, 2, 1, 3).reshape(b, l, hd)

    q4, k4, v4 = split(q), split(k), split(v)
    u, vb = bias_u.reshape(1, heads, 1, d), bias_v.reshape(1, heads, 1, d)
    r = (offsets @ w_pos).reshape(n_off, heads, d).transpose(1, 2, 0)  # (H, d, 2L-1)
    key_mask = np.broadcast_to(key_mask, (b, 1, 1, l))
    score_dtype = np.result_type(q, k, bias_u)
    groups = _attention_groups(b, heads, l, score_dtype.itemsize)
    # each score row's max and exponential sum
    m, den = np.empty((b, heads, l, 1), score_dtype), np.empty((b, heads, l, 1), score_dtype)

    def probs(bs, hs, forward=False):
        # the group's probabilities; the forward stores (m, den), the
        # gradient divides by the stored values again
        s = (q4[bs, hs] + u[:, hs]) @ np.swapaxes(k4[bs, hs], -1, -2)
        s += _rel_shift((q4[bs, hs] + vb[:, hs]) @ r[hs])
        s *= scale
        s += key_mask[bs]
        if forward:
            m[bs, hs] = s.max(axis=-1, keepdims=True)
        s -= m[bs, hs]
        np.exp(s, out=s)
        if forward:
            den[bs, hs] = s.sum(axis=-1, keepdims=True)
        s /= den[bs, hs]
        return s

    ctx = np.empty((b, heads, l, d), np.result_type(score_dtype, v))
    keep = None if drop <= 0.0 else np.empty((b, heads, l, l), bool)
    for bs, hs in groups:
        p = probs(bs, hs, forward=True)
        if keep is not None:
            keep[bs, hs] = _dropout_keep(p.shape, drop, rng)
            p *= _dropout_mult(keep[bs, hs], p.dtype, drop)
        ctx[bs, hs] = p @ v4[bs, hs]

    def grad(g):
        g4 = split(g)
        # every part is assembled in the layout of a whole-batch matmul's
        # output, so the merges and reductions below see the same arrays
        gqu, gqv, gv = (np.empty((b, heads, l, d), g.dtype) for _ in range(3))
        gk = np.empty((b, heads, d, l), g.dtype)
        gr = np.empty((b, heads, d, n_off), g.dtype)
        for bs, hs in groups:
            # ordered so that at most three (L, L) arrays of the group are alive
            p = probs(bs, hs)
            mult = None if keep is None else _dropout_mult(keep[bs, hs], p.dtype, drop)
            gv[bs, hs] = np.swapaxes(p if mult is None else p * mult, -1, -2) @ g4[bs, hs]
            gs = g4[bs, hs] @ np.swapaxes(v4[bs, hs], -1, -2)
            if mult is not None:
                gs *= mult
                del mult
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            del p
            gs *= scale
            gpos = np.zeros(gs.shape[:-1] + (n_off,), gs.dtype)
            _rel_shift(gpos, True)[...] = gs
            gqu[bs, hs] = gs @ k4[bs, hs]
            gk[bs, hs] = np.swapaxes(q4[bs, hs] + u[:, hs], -1, -2) @ gs
            del gs
            gqv[bs, hs] = gpos @ np.swapaxes(r[hs], -1, -2)
            gr[bs, hs] = np.swapaxes(q4[bs, hs] + vb[:, hs], -1, -2) @ gpos
            del gpos
        gr = gr.sum(axis=0).transpose(2, 0, 1)
        return (merge(gqu + gqv), merge(np.swapaxes(gk, -1, -2)), merge(gv),
                offsets.T @ gr.reshape(n_off, hd),
                _unbroadcast(gqu, u.shape).reshape(heads, d),
                _unbroadcast(gqv, vb.shape).reshape(heads, d))

    return merge(ctx), grad


def _linear_grad(g, x, w, nx=True, nw=True, nb=True):
    """(gx, gw, gb) of ``x @ w + b`` for a 2-D ``w``; None where not needed."""
    g2 = g.reshape(-1, g.shape[-1])
    return (g @ w.T if nx else None,
            x.reshape(-1, x.shape[-1]).T @ g2 if nw else None,
            g2.sum(axis=0) if nb else None)


def _depthwise_pad(x, mask, kernel: int):
    """A (B, T, C) ``x`` zeroed where the (B, T, 1) ``mask`` is 0 and
    same-padded over frames for ``kernel`` taps."""
    half = (kernel - 1) // 2
    return np.pad(x * mask, ((0, 0), (half, kernel - 1 - half), (0, 0)))


def _depthwise(padded, w):
    """Depthwise convolution of a ``_depthwise_pad`` output with the (K, C)
    ``w``: K shifted multiply-adds in tap order, never a (B, T, K, C)
    product."""
    t = padded.shape[1] - len(w) + 1
    out = padded[:, :t] * w[0]
    for j in range(1, len(w)):
        out += padded[:, j: j + t] * w[j]
    return out


def _depthwise_grad(g, padded, mask, w):
    """(gx, gw) of ``_depthwise(_depthwise_pad(x, mask, K), w)``."""
    kernel, t = len(w), g.shape[1]
    half = (kernel - 1) // 2
    gpad = np.zeros_like(padded)
    for j in range(kernel):
        gpad[:, j: j + t] += g * w[j]
    gw = [(g * padded[:, j: j + t]).sum(axis=(0, 1)) for j in range(kernel)]
    return gpad[:, half: half + t] * mask, np.stack(gw)


def _norm_forward(x, eps, mask=None):
    """``x`` normalized, with the statistics that give it back
    (``_normalized``) and its gradient (``_norm_grad``): (norm, mu, inv,
    inv_count). Without a mask the norm runs over the last axis (channels)
    and inv_count is None. With a (B, T, 1) 0/1 ``mask`` it runs over axis 1
    (each utterance's frames), its statistics count only frames where the
    mask is 1, and the normalized value is 0 elsewhere."""
    inv_count = None
    if mask is not None:
        count = np.maximum(np.sum(mask, axis=1, keepdims=True, dtype=np.float64), 1)
        inv_count = (1.0 / count).astype(x.dtype)
    mu = _norm_mean(_masked(x, mask), inv_count)
    centered = _masked(x - mu, mask)
    inv = 1.0 / np.sqrt(_norm_mean(centered * centered, inv_count) + eps)
    return centered * inv, mu, inv, inv_count


def _normalized(x, mu, inv, mask=None):
    """``_norm_forward``'s normalized ``x`` again, from its statistics."""
    return _masked(x - mu, mask) * inv


def _norm_grad(g, norm, inv, gamma, mask=None, inv_count=None):
    """(gx, ggamma, gbeta) of ``norm * gamma + beta``."""
    lead = tuple(range(g.ndim - 1))
    gy = _masked(g * gamma, mask)
    gx = _masked(inv * (gy - _norm_mean(gy, inv_count)
                        - norm * _norm_mean(gy * norm, inv_count)), mask)
    return gx, (g * norm).sum(axis=lead), g.sum(axis=lead)


def _masked(a, mask):
    return a if mask is None else a * mask


def _norm_mean(a, inv_count):
    """Mean over the last axis; with ``inv_count``, over axis 1 of an ``a``
    that is already zero where the mask is."""
    if inv_count is None:
        return a.mean(axis=-1, keepdims=True)
    return a.sum(axis=1, keepdims=True) * inv_count


def _norm_linear(x, gamma, beta, w, b, eps):
    """``layer_norm(x) @ w + b``, and the norm's (mu, inv)."""
    norm, mu, inv, _ = _norm_forward(x, eps)
    return (norm * gamma + beta) @ w + b, mu, inv


def _norm_linear_grad(g, x, mu, inv, gamma, beta, w):
    """(gx, ggamma, gbeta, gw, gb) of ``_norm_linear``, the norm recomputed
    from (mu, inv)."""
    norm = _normalized(x, mu, inv)
    gy, gw, gb = _linear_grad(g, norm * gamma + beta, w)
    return (*_norm_grad(gy, norm, inv, gamma), gw, gb)
