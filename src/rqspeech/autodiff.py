"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it; calling
``backward`` on a scalar result walks the tape in reverse topological order
(``_backprop``) and accumulates gradients into every Tensor created with
``requires_grad=True``. The walk releases each node's closure once it has run,
so a tape is walked once and its arrays are freed as the walk goes. Gradients
are exact for the recorded computation graph, which is what the
finite-difference test suite checks.

The op set is intentionally small: what the encoder and the losses need, with
these as one fused node each: the convolutional feature extractor
(``feature_extractor``), the layer norm, the Conformer's self-attention block
(``attention_block``), macaron half feed-forward (``half_ffn``) and
convolution module (``conv_module``), the weighted layer sum (``layer_mix``),
the pretraining head, and the CTC loss of a padded batch (``ctc_nll``). Each
op returns a gradient for every parent; constants such as the mel input and
the padding masks are arrays a node holds, not parents.
Each Conformer node adds its own residual, so its output is the next
block's input and no block output is kept beside it. The norm and the three
Conformer nodes keep statistics and boolean dropout masks, not their
elementwise results; the FFN and conv nodes keep no activation at all and
recompute their first pointwise projection from their input, and the
extractor keeps only its mel input and two masks. Each backward
recomputes from the numpy pieces at the bottom of this module, which
``linear`` shares, so each formula exists once. Each Conformer node draws
and keeps its own dropout masks; there is no dropout node. The attention
block keeps q, k, v, its context and each score row's max and exponential
sum, never the (B, H, L, L) probabilities: its forward and backward run over
groups of whole (utterance, head) score matrices, and the backward
recomputes a group's probabilities from those statistics. Attention's
relative shift is a strided view, not a gather. All ops keep dtype, so one
graph runs in float32 to train and float64 to check gradients.
"""

from __future__ import annotations

import contextlib
import queue

import numpy as np

from . import parallel

_grad_enabled = True
# bytes of (L, L) attention scores in one group of ``_rel_attention``; a group
# keeps at most three times this alive. Groups this small stay in the cache
# and run as fast as whole batches, where the backward's recomputation would
# otherwise cost more than it saves
_ATTENTION_GROUP_BYTES = 1 << 20
# bytes of one (rows, V) logit block of ``multi_softmax_nll``; each pool
# thread keeps one, so the head's memory does not grow with the batch's rows
_HEAD_BLOCK_BYTES = 4 << 20
# numpy's pairwise sum adds up to this many values in one unrolled loop, and
# halves longer runs (``_pairwise_sum``)
_PAIRWISE_LEAF = 128


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
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        b = float(b)
        return _make(a.data * b, (a,), lambda g: (g * b,))
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


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
    """Rows ``idx`` of a 2-D tensor, each named at most once: the backward
    assigns each row's gradient, so a repeated row raises ValueError."""
    a = as_tensor(a)
    rows = np.arange(len(a.data))[idx]  # row numbers: -1 and n - 1 are one row
    if np.unique(rows).size < rows.size:
        raise ValueError("take_rows needs distinct rows")
    return getitem(a, rows)


def batch_halves(half, parents, b):
    """``half(k, rows, leaves)``, a list of same-shape Tensors with ``rows``
    first, for the batch's rows [0:ceil(b/2)] (k = 0) and the rest (k = 1),
    one half per ``parallel.pool_map`` thread (named ``encode``), recorded as
    one node over ``parents``; returns each output with the halves joined.

    Each half runs on leaf Tensors of its own over the parents' arrays, so no
    two threads write one ``.grad``; a per-row ``half`` gives the bits of the
    whole batch's forward. The backward walks each half on the pool and adds
    the parents' gradients in half order, so the gradient bits depend on this
    fixed partition, never on the core count.
    """
    halves = (slice(0, (b + 1) // 2), slice((b + 1) // 2, b))
    parents = [as_tensor(p) for p in parents]
    leaves = [[Tensor(p.data, requires_grad=_needs_grad(p)) for p in parents] for _ in halves]

    with parallel.pool_map(2, "encode") as (mapped, _):
        outs = list(mapped(lambda k: half(k, halves[k], leaves[k]), (0, 1)))
    data = np.empty((len(outs[0]), b) + outs[0][0].shape[1:], outs[0][0].dtype)
    roots = []
    for rows, outputs in zip(halves, outs):
        for i, out in enumerate(outputs):
            data[i, rows] = out.data
        # the half's walk starts here: row i of its gradient is output i's
        roots.append(_make(data[:, rows], outputs, tuple))

    def backward(g):
        def walk(k):
            _backprop(roots[k], g[:, halves[k]])
            return [leaf.grad for leaf in leaves[k]]

        with parallel.pool_map(2, "encode") as (mapped, _):
            grads = list(mapped(walk, (0, 1)))
        return tuple(g0 if g1 is None else g1 if g0 is None else g0 + g1
                     for g0, g1 in zip(*grads))

    node = _make(data, parents, backward)
    return [getitem(node, i) for i in range(len(data))]


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
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# linear algebra -----------------------------------------------------------

def linear(x, w, b):
    """Fused x @ w + b for a 2-D weight and 1-D bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    return _make(x.data @ w.data + b.data, (x, w, b),
                 lambda g: _linear_grad(g, x.data, w.data))


# softmax family -----------------------------------------------------------

def layer_mix(states, logits):
    """``sum_i softmax(logits)_i * states[i]``, added in state order, as one
    node over ``logits`` and the same-shape ``states`` (the layer weighting
    of Yang et al., 2021) that keeps only the weights; it has the bits of a
    softmax node, then a getitem, a mul and an add per state."""
    logits, states = as_tensor(logits), [as_tensor(s) for s in states]
    e = np.exp(logits.data - logits.data.max())
    w = e / e.sum()
    out = states[0].data * w[0]
    for s, wi in zip(states[1:], w[1:]):
        out = out + s.data * wi

    def backward(g):
        d = np.array([(g * s.data).sum(axis=tuple(range(g.ndim))) for s in states], w.dtype)
        return ((d - (d * w).sum()) * w, *(g * wi for wi in w))

    return _make(out, (logits, *states), backward)


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
    reshaped to (rows, N, V), but the op runs one codebook at a time over
    row blocks of at most ``_HEAD_BLOCK_BYTES`` of logits, so neither the
    (rows, N*V) logits nor a codebook's (rows, V) logits are ever held (the
    blockwise loss of Wijmans et al., 2024). When the tape records, the
    gradients are computed in the same pass and the backward only scales
    them in place: ``gx`` is written block by block, and ``gw`` and ``gb``
    are summed over the blocks. On two cores the codebooks run on two
    threads (``parallel.pool_map``); parts are added in codebook order, so
    the bits do not depend on the split.

    The row blocks are nodes of numpy's pairwise summation tree over the
    per-row NLLs (``_pairwise_sum``), so the loss has the bits of one block
    over all rows, and so has ``gx``, whose rows are independent, wherever
    BLAS computes each row of a product the same at the block's row count as
    at all rows (it does at the default config; OpenBLAS's kernels for small
    sizes need not). ``gw`` and ``gb`` add one matmul per block, so with more
    than one block they differ from a single block's at the rounding level.
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
    block_rows = min(rows, max(_PAIRWISE_LEAF, _HEAD_BLOCK_BYTES // (vocab * dtype.itemsize)))
    if recording:
        gx = np.zeros(x.data.shape, dtype)
        gwb = np.empty(wb.shape, dtype)
    blocks = queue.SimpleQueue()  # free (block_rows, V) buffers, one per thread

    def codebook(j):
        # codebook j's summed NLL, its row blocks in turn in a free buffer;
        # when the tape records, its gwb columns are written and its gx part
        # is returned
        cols = slice(j * vocab, (j + 1) * vocab)
        part = np.empty(x.data.shape, dtype) if recording else None
        z = blocks.get()

        def block(start, stop):
            zb = z[:stop - start]
            np.matmul(x1[start:stop], wb[:, cols], out=zb)
            nll = _softmax_xent(zb, labels[start:stop, j], scale)
            if recording:
                gwb_block = x1[start:stop].T @ zb
                if start == 0:
                    gwb[:, cols] = gwb_block
                else:
                    gwb[:, cols] += gwb_block
                np.matmul(zb, w.data[:, cols].T, out=part[start:stop])
            return nll

        try:
            return _pairwise_sum(block, 0, rows, block_rows, dtype), part
        finally:
            blocks.put(z)

    nll = 0.0
    with parallel.pool_map(num_codebooks, "multi_softmax_nll") as (mapped, threads):
        for _ in range(threads):  # here, not in the pool: see parallel.pool_map
            blocks.put(np.empty((block_rows, vocab), dtype))
        for part_nll, part_gx in mapped(codebook, range(num_codebooks)):
            nll += part_nll
            if recording:
                gx += part_gx
    out = np.asarray(nll / count, dtype=dtype)

    def backward(g):
        # a tape is walked once, so the gradients are scaled where they lie
        np.multiply(gx, float(g), out=gx)
        np.multiply(gwb, float(g), out=gwb)
        return gx, gwb[:-1], gwb[-1]

    return _make(out, (x, w, b), backward)


def _pairwise_sum(leaf, start, stop, limit, dtype) -> float:
    """``leaf(start, stop)``, a numpy sum of ``dtype`` values indexed by
    [start, stop), assembled from ``leaf`` calls over pieces of at most
    ``limit`` (or ``_PAIRWISE_LEAF``) indices, visited in order. numpy sums a
    contiguous run of n > ``_PAIRWISE_LEAF`` values as the sum of its first
    n2 = n//2 - (n//2) % 8 values plus the sum of the rest, in ``dtype``; the
    pieces are nodes of that tree and are added as it adds them, so the
    result has the bits of one ``leaf`` call over the whole range."""
    n = stop - start
    if n <= max(limit, _PAIRWISE_LEAF):
        return leaf(start, stop)
    half = n // 2 - (n // 2) % 8
    left = _pairwise_sum(leaf, start, start + half, limit, dtype)
    right = _pairwise_sum(leaf, start + half, stop, limit, dtype)
    return float(dtype.type(left) + dtype.type(right))


def square_sum(a, limit: int) -> float:
    """The float64 sum of squares of contiguous ``a``'s values in memory
    order, in blocks of at most ``limit`` values that are nodes of numpy's
    pairwise tree (``_pairwise_sum``), so it has the bits of ``np.sum`` over a
    float64 copy of ``a`` without making one."""
    flat = np.ravel(a, order="K")  # a view of any contiguous array

    def block(start, stop):
        c = flat[start:stop].astype(np.float64)
        return float(np.sum(np.square(c, out=c)))
    return _pairwise_sum(block, 0, flat.size, limit, np.dtype(np.float64))


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
    """The Conformer's self-attention block (Gulati et al., 2020) and its
    residual as one node: ``x`` plus layer norm, the ``wq``, ``wk`` and ``wv``
    projections, relative-position attention (``_rel_attention``) over the
    (B, 1, 1, L) ``key_mask`` and the (2L-1, H*d) ``offsets`` encodings, the
    ``wo`` projection and inverted dropout, the dropout masks drawn from
    ``rng`` in that order. ``wk`` has no bias: the softmax cancels the (q_i +
    u) . b it adds to query i's row.

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
        gx, *grads = _norm_grad(gy + gyk + gyv, norm, inv, gamma.data)
        return (g + gx, *grads, gwq, gbq, gwk, gwv, gbv, gwo, gbo, gw_pos, gu, gvb)

    return _make(x.data + out, parents, backward)


def half_ffn(x, gamma, beta, w1, b1, w2, b2, eps, drop: float, rng):
    """The Conformer's macaron half feed-forward (Gulati et al., 2020) and its
    residual as one node: ``x + 0.5 * dropout(dropout(swish(layer_norm(x) @ w1
    + b1)) @ w2 + b2)``, the two inverted-dropout masks drawn from ``rng`` in
    that order. The backward keeps the norm's statistics and the boolean
    dropout masks, and recomputes the norm, the first projection's
    pre-activation, the sigmoid, the swish and the dropout multipliers from
    ``x`` (Chen et al., 2016).
    """
    parents = tuple(map(as_tensor, (x, gamma, beta, w1, b1, w2, b2)))
    x, gamma, beta, w1, b1, w2, b2 = parents
    norm, mu, inv, _ = _norm_forward(x.data, eps)
    _, a = _norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
    h, dropped1 = _dropout(a * _sigmoid(a), drop, rng)
    z, dropped2 = _dropout(h @ w2.data + b2.data, drop, rng)

    def backward(g):
        norm = _normalized(x.data, mu, inv)
        y, a = _norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
        s = _sigmoid(a)
        gh, gw2, gb2 = _linear_grad(dropped2(g * 0.5), dropped1(a * s), w2.data)
        gx, *grads = _norm_linear_grad(_swish_grad(dropped1(gh), a, s), norm, y, inv,
                                       gamma.data, w1.data)
        return (g + gx, *grads, gw2, gb2)

    return _make(x.data + z * 0.5, parents, backward)


def conv_module(x, mask, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2,
                eps, norm_eps, drop: float, rng):
    """The Conformer convolution module (Gulati et al., 2020) and its residual
    as one node: ``x`` plus layer norm, pointwise ``w1`` to 2C channels, GLU,
    the same-padded depthwise convolution ``dw`` over frames zeroed where the
    (B, T, 1) ``mask`` is 0 (no bias: the next norm would subtract it, Ioffe
    & Szegedy, 2015), the norm over each utterance's valid frames, swish,
    pointwise ``w2`` and inverted dropout. The backward keeps both norms'
    statistics and the boolean dropout mask, and recomputes from ``x`` the
    norms, the first projection's pre-activation, the sigmoids, the GLU, the
    padded depthwise input, the depthwise output and the swish.
    """
    parents = tuple(map(as_tensor, (x, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2,
                                    b2)))
    x, gamma, beta, w1, b1, dw, norm_gamma, norm_beta, w2, b2 = parents
    norm, mu, inv, _ = _norm_forward(x.data, eps)
    _, a = _norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
    u, y = _glu_halves(a)
    c = _depthwise(_depthwise_pad(u * y, mask, len(dw.data)), dw.data)
    c_norm, c_mu, c_inv, inv_count = _norm_forward(c, norm_eps, mask)
    n = c_norm * norm_gamma.data + norm_beta.data
    out, dropped = _dropout((n * _sigmoid(n)) @ w2.data + b2.data, drop, rng)

    def backward(g):
        norm = _normalized(x.data, mu, inv)
        y, a = _norm_linear(norm, gamma.data, beta.data, w1.data, b1.data)
        u, s1 = _glu_halves(a)
        padded = _depthwise_pad(u * s1, mask, len(dw.data))
        c_norm = _normalized(_depthwise(padded, dw.data), c_mu, c_inv, mask)
        n = c_norm * norm_gamma.data + norm_beta.data
        s = _sigmoid(n)
        gs, gw2, gb2 = _linear_grad(dropped(g), n * s, w2.data)
        gc, gng, gnb = _norm_grad(_swish_grad(gs, n, s), c_norm, c_inv, norm_gamma.data,
                                  mask, inv_count)
        gu, gdw = _depthwise_grad(gc, padded, mask, dw.data)
        gx, *grads = _norm_linear_grad(_glu_grad(gu, u, s1), norm, y, inv, gamma.data,
                                       w1.data)
        return (g + gx, *grads, gdw, gng, gnb, gw2, gb2)

    return _make(x.data + out, parents, backward)


def feature_extractor(mel, masks, w1, b1, w2, b2, wp, bp):
    """The convolutional feature extractor as one node: two kernel-3,
    stride-2 convolutions over frames (``_stride2_windows``), each followed
    by ReLU and the valid-frame mask of its output, then the projection
    ``wp`` and the second mask again. ``mel`` is the (B, T, C) input array,
    never a parameter, and ``masks`` the (B, T // 2, 1) and (B, T // 4, 1)
    masks. The backward keeps only these three arrays, not copies, and
    recomputes the windows, pre-activations and activations from ``mel``.
    """
    parents = tuple(map(as_tensor, (w1, b1, w2, b2, wp, bp)))
    w1, b1, w2, b2, wp, bp = parents
    mask1, mask2 = masks
    # each convolution's windows are freed once its matmul has read them
    h = _masked_relu(_stride2_windows(mel) @ w1.data + b1.data, mask1)
    h = _masked_relu(_stride2_windows(h) @ w2.data + b2.data, mask2)

    def backward(g):
        x1 = _stride2_windows(mel)
        a1 = x1 @ w1.data + b1.data
        h1 = _masked_relu(a1, mask1)
        x2 = _stride2_windows(h1)
        a2 = x2 @ w2.data + b2.data
        h2 = _masked_relu(a2, mask2)
        gh2, gwp, gbp = _linear_grad(g * mask2, h2, wp.data)
        gx2, gw2, gb2 = _linear_grad(gh2 * mask2 * (a2 > 0), x2, w2.data)
        gh1 = _stride2_windows_grad(gx2, h1)
        _, gw1, gb1 = _linear_grad(gh1 * mask1 * (a1 > 0), x1, w1.data, nx=False)
        return gw1, gb1, gw2, gb2, gwp, gbp

    return _make((h @ wp.data + bp.data) * mask2, parents, backward)


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
    # with no padded key the mask is zeros, and adding it changes no bit that
    # the softmax sees
    key_mask = np.broadcast_to(key_mask, (b, 1, 1, l)) if np.any(key_mask) else None
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
        if key_mask is not None:
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


def _linear_grad(g, x, w, nx=True, nb=True):
    """(gx, gw, gb) of ``x @ w + b`` for a 2-D ``w``; None where not needed."""
    g2 = g.reshape(-1, g.shape[-1])
    return (g @ w.T if nx else None,
            x.reshape(-1, x.shape[-1]).T @ g2,
            g2.sum(axis=0) if nb else None)


def _stride2_windows(x):
    """The (B, T // 2, 3C) windows of a kernel-3, stride-2 convolution over
    the frames of a (B, T, C) ``x`` right-padded by one zero frame, each
    window its three frames in order."""
    b, t, c = x.shape
    n = t // 2
    windows = np.empty((b, n, 3, c), x.dtype)
    for k in range(3):
        # the last tap of the last window is the pad frame when t is even
        taps = x[:, k: k + 2 * n: 2]
        windows[:, :taps.shape[1], k] = taps
        windows[:, taps.shape[1]:, k] = 0
    return windows.reshape(b, n, 3 * c)


def _stride2_windows_grad(g, x):
    """The gradient of ``x`` through ``_stride2_windows(x)``: each tap's
    frames added back in tap order."""
    b, t, c = x.shape
    n = t // 2
    full = np.zeros((b, t + 1, c), x.dtype)
    g = g.reshape(b, n, 3, c)
    for k in range(3):
        full[:, k: k + 2 * n: 2] += g[:, :, k]
    return full[:, :t]


def _masked_relu(a, mask):
    """ReLU of an extractor convolution's pre-activation ``a``, then its
    valid-frame ``mask``. ``fmax`` maps NaN to 0 as ``a > 0`` would, and
    adding 0 turns its -0 into +0, so every bit is ``where(a > 0, a, 0)``'s."""
    return (np.fmax(a, 0) + 0) * mask


def _depthwise_pad(x, mask, kernel: int):
    """A (B, T, C) ``x`` zeroed where the (B, T, 1) ``mask`` is 0 and
    same-padded over frames for ``kernel`` taps."""
    b, t, c = x.shape
    half = (kernel - 1) // 2
    padded = np.zeros((b, t + kernel - 1, c), np.result_type(x, mask))
    np.multiply(x, mask, out=padded[:, half: half + t])
    return padded


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
        # ``a.mean``'s sum and division without its Python wrapper. It divides
        # a float32 sum by the count in float64 and rounds to float32; one
        # float32 division rounds to the same value
        return np.add.reduce(a, -1, keepdims=True) / a.shape[-1]
    return a.sum(axis=1, keepdims=True) * inv_count


def _norm_linear(norm, gamma, beta, w, b):
    """(``norm * gamma + beta``, its projection ``@ w + b``) of a normalized
    input."""
    y = norm * gamma + beta
    return y, y @ w + b


def _norm_linear_grad(g, norm, y, inv, gamma, w):
    """(gx, ggamma, gbeta, gw, gb) of ``_norm_linear`` after a layer norm,
    from the normalized input ``norm``, its affine ``y`` and the norm's
    ``inv``."""
    gy, gw, gb = _linear_grad(g, y, w)
    return (*_norm_grad(gy, norm, inv, gamma), gw, gb)
