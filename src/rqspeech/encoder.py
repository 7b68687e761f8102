"""Trainable network: CNN feature extractor, Conformer stack, layer aggregation.

``encode`` is the one forward pass: it takes a padded (B, T, 80) log-Mel batch
and its valid lengths, and returns every layer state for ``weighted_sum``.

Layout conventions:
  * activations are time-major (batch, frames, channels)
  * the feature extractor applies two kernel-3 stride-2 convolutions (each
    right-padded by one zero frame so its output length is exactly
    floor(T / 2)), ReLU between, then a linear projection; total stride 4, so
    encoder frames line up one-to-one with quantizer label frames
  * each Conformer layer is half-FFN, relative-position self-attention,
    convolution block, half-FFN, with residuals and a closing layer norm
  * attention scoring is the shift-style relative scheme: per-head content and
    position bias vectors plus a learned projection of sinusoidal offset
    encodings
  * the convolution block normalizes per utterance and channel over valid
    frames only, so outputs never depend on batch composition

Frames past each utterance's valid length are zeroed before any op that mixes
across time, which makes batched and solo forwards agree on the valid region.

Because nothing mixes utterances, a large batch runs as two fixed halves on
two cores (``_encode_halves``) with the whole batch's output bits; the halves
are one tape node, and the gradient bits depend on the fixed partition only.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import keyed_rng

LN_EPS = 1e-5
CONV_NORM_EPS = 1e-5
MIN_INPUT_FRAMES = 8  # two stride-2 convolutions need at least one output frame
# a batch with at least this many padded label frames (B * T // 4) runs as two
# halves on two cores; below it, thread start-up and the halves' second tape
# walk cost more than the second core gains
_SPLIT_MIN_FRAMES = 1024


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 4
    hidden: int = 64
    ffn: int = 256
    heads: int = 4
    conv_kernel: int = 5
    dropout: float = 0.0

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        if self.hidden % 2 != 0:
            raise ValueError("hidden must be even (sin/cos position encoding pairs)")
        if self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


DESK_SCALE = EncoderConfig()
REFERENCE_SCALE = EncoderConfig(num_layers=24, hidden=1024, ffn=4096, heads=8,
                                conv_kernel=5, dropout=0.1)


@dataclass
class EncoderOutput:
    """All retained per-layer states: extractor output plus each layer's output.

    ``final`` is the stack-final layer norm of the last state (what the loss
    heads consume); ``lengths`` holds each utterance's valid label-frame count.
    """

    layer_states: list
    final: Tensor
    lengths: np.ndarray


# parameter construction ----------------------------------------------------

def param_shapes(cfg: EncoderConfig) -> dict:
    h, f, k = cfg.hidden, cfg.ffn, cfg.conv_kernel
    shapes = {
        "extractor.conv1.weight": (3 * 80, h),
        "extractor.conv1.bias": (h,),
        "extractor.conv2.weight": (3 * h, h),
        "extractor.conv2.bias": (h,),
        "extractor.proj.weight": (h, h),
        "extractor.proj.bias": (h,),
    }
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        for ffn_name in ("ffn1", "ffn2"):
            shapes[p + ffn_name + ".ln.gamma"] = (h,)
            shapes[p + ffn_name + ".ln.beta"] = (h,)
            shapes[p + ffn_name + ".w1.weight"] = (h, f)
            shapes[p + ffn_name + ".w1.bias"] = (f,)
            shapes[p + ffn_name + ".w2.weight"] = (f, h)
            shapes[p + ffn_name + ".w2.bias"] = (h,)
        shapes[p + "attn.ln.gamma"] = (h,)
        shapes[p + "attn.ln.beta"] = (h,)
        for lin in ("wq", "wk", "wv", "wo"):
            shapes[p + f"attn.{lin}.weight"] = (h, h)
            shapes[p + f"attn.{lin}.bias"] = (h,)
        shapes[p + "attn.pos.weight"] = (h, h)
        shapes[p + "attn.bias_u"] = (cfg.heads, cfg.head_dim)
        shapes[p + "attn.bias_v"] = (cfg.heads, cfg.head_dim)
        shapes[p + "conv.ln.gamma"] = (h,)
        shapes[p + "conv.ln.beta"] = (h,)
        shapes[p + "conv.pw1.weight"] = (h, 2 * h)
        shapes[p + "conv.pw1.bias"] = (2 * h,)
        shapes[p + "conv.dw.weight"] = (k, h)
        shapes[p + "conv.dw.bias"] = (h,)
        shapes[p + "conv.norm.gamma"] = (h,)
        shapes[p + "conv.norm.beta"] = (h,)
        shapes[p + "conv.pw2.weight"] = (h, h)
        shapes[p + "conv.pw2.bias"] = (h,)
        shapes[p + "out_ln.gamma"] = (h,)
        shapes[p + "out_ln.beta"] = (h,)
    shapes["final_ln.gamma"] = (h,)
    shapes["final_ln.beta"] = (h,)
    return shapes


def init_param(name: str, shape, seed: int, dtype=np.float32) -> np.ndarray:
    """Initialize one tensor from its own (seed, name)-keyed stream.

    Weights are uniform Xavier over (fan_in, fan_out); biases and norm betas
    are zero; norm gammas are one. Keying by name makes partial restores
    (feature-extractor-only) reinitialize the rest exactly as a fresh run.
    """
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=dtype)
    if name.endswith((".bias", ".beta")):
        return np.zeros(shape, dtype=dtype)
    rng = keyed_rng(seed, "param", name)
    if len(shape) == 2:
        fan_in, fan_out = shape
    else:
        fan_in, fan_out = int(np.prod(shape[:-1])), shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_encoder_params(cfg: EncoderConfig, seed: int, dtype=np.float32) -> dict:
    return {name: init_param(name, shape, seed, dtype)
            for name, shape in param_shapes(cfg).items()}


def count_params(cfg: EncoderConfig):
    """(total, per-tensor breakdown) by shape arithmetic; nothing is allocated."""
    breakdown = {name: int(np.prod(shape)) for name, shape in param_shapes(cfg).items()}
    return sum(breakdown.values()), breakdown


def params_to_tensors(params: dict) -> dict:
    return {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}


# forward pass ---------------------------------------------------------------

def _valid_mask(lengths: np.ndarray, padded_len: int, dtype) -> np.ndarray:
    return (np.arange(padded_len)[None, :] < lengths[:, None]).astype(dtype)[:, :, None]


def _conv_stride2(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Kernel-3 stride-2 convolution over time, right-padded by one zero frame."""
    windows = ad.unfold_time(x, kernel=3, stride=2, pad=(0, 1))
    b, t_out, k, c = windows.shape
    return ad.linear(ad.reshape(windows, (b, t_out, k * c)), weight, bias)


def _extract(params: dict, mel: np.ndarray, lengths: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Feature extractor: (B, T, 80) log-Mel -> (B, floor(T/4), hidden), and
    each utterance's valid output length floor(length / 4), its label count."""
    t = mel.shape[1]
    # frames past each valid length must never reach the convolutions, whatever
    # the caller padded with
    if int(lengths.min()) < t:
        mel = mel * _valid_mask(lengths, t, mel.dtype)
    h = ad.as_tensor(mel)
    for conv in ("extractor.conv1.", "extractor.conv2."):
        h = ad.relu(_conv_stride2(h, params[conv + "weight"], params[conv + "bias"]))
        lengths = lengths // 2
        h = ad.mul(h, _valid_mask(lengths, h.shape[1], mel.dtype))
    h = ad.linear(h, params["extractor.proj.weight"], params["extractor.proj.bias"])
    return ad.mul(h, _valid_mask(lengths, h.shape[1], mel.dtype)), lengths


def sinusoid_offsets(max_offset: int, hidden: int, dtype) -> np.ndarray:
    """Encodings for relative offsets -max_offset..+max_offset, shape (2M+1, hidden)."""
    offsets = np.arange(-max_offset, max_offset + 1, dtype=np.float64)
    dims = np.arange(0, hidden, 2, dtype=np.float64)
    inv_freq = 1.0 / (10000.0 ** (dims / hidden))
    angles = offsets[:, None] * inv_freq[None, :]
    enc = np.zeros((len(offsets), hidden), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc.astype(dtype)


def _rel_attention(p: dict, prefix: str, cfg: EncoderConfig, x: Tensor,
                   key_mask: np.ndarray, pos_enc: np.ndarray, train: bool, rng) -> Tensor:
    drop = cfg.dropout if train else 0.0
    y = ad.layer_norm(x, p[prefix + "ln.gamma"], p[prefix + "ln.beta"], LN_EPS)
    q, k, v = (ad.linear(y, p[prefix + f"{w}.weight"], p[prefix + f"{w}.bias"])
               for w in ("wq", "wk", "wv"))
    ctx = ad.rel_attention(q, k, v, pos_enc, p[prefix + "pos.weight"],
                           p[prefix + "bias_u"], p[prefix + "bias_v"],
                           key_mask, cfg.heads, drop, rng)
    out = ad.linear(ctx, p[prefix + "wo.weight"], p[prefix + "wo.bias"])
    return ad.dropout(out, drop, rng)


def _half_ffn(p: dict, prefix: str, cfg: EncoderConfig, x: Tensor,
              train: bool, rng) -> Tensor:
    drop = cfg.dropout if train else 0.0
    y = ad.layer_norm(x, p[prefix + "ln.gamma"], p[prefix + "ln.beta"], LN_EPS)
    y = ad.swish(ad.linear(y, p[prefix + "w1.weight"], p[prefix + "w1.bias"]))
    y = ad.dropout(y, drop, rng)
    y = ad.linear(y, p[prefix + "w2.weight"], p[prefix + "w2.bias"])
    return ad.mul(ad.dropout(y, drop, rng), 0.5)


def _conv_block(p: dict, prefix: str, cfg: EncoderConfig, x: Tensor,
                mask: np.ndarray, train: bool, rng) -> Tensor:
    h = cfg.hidden
    y = ad.layer_norm(x, p[prefix + "ln.gamma"], p[prefix + "ln.beta"], LN_EPS)
    y = ad.linear(y, p[prefix + "pw1.weight"], p[prefix + "pw1.bias"])
    gate = ad.sigmoid(y[:, :, h:])
    y = ad.mul(y[:, :, :h], gate)

    # zero padded frames so the depthwise kernel never reads stale values
    y = ad.mul(y, mask)
    half = (cfg.conv_kernel - 1) // 2
    windows = ad.unfold_time(y, cfg.conv_kernel, 1, pad=(half, half))
    y = ad.add(ad.sum_(ad.mul(windows, p[prefix + "dw.weight"]), axis=2),
               p[prefix + "dw.bias"])

    # per-(utterance, channel) statistics over valid frames only
    y = ad.layer_norm(y, p[prefix + "norm.gamma"], p[prefix + "norm.beta"],
                      CONV_NORM_EPS, axis=1, mask=mask)
    y = ad.swish(y)
    y = ad.linear(y, p[prefix + "pw2.weight"], p[prefix + "pw2.bias"])
    return ad.dropout(y, cfg.dropout if train else 0.0, rng)


def encode(params: dict, cfg: EncoderConfig, mel: np.ndarray, lengths: np.ndarray,
           *, train: bool = False, rng=None) -> EncoderOutput:
    """The network's one forward pass: feature extractor, then Conformer stack.

    ``mel`` is a (B, T, 80) log-Mel batch and ``lengths`` its B valid frame
    counts; frames past a valid length do not change the output. Every layer
    state is retained for ``weighted_sum``. A batch of two or more utterances
    with at least ``_SPLIT_MIN_FRAMES`` padded label frames runs as two halves
    on two cores (``_encode_halves``), with the same output bits.
    """
    mel = np.asarray(mel)
    lengths = np.asarray(lengths, dtype=np.int64)
    if mel.ndim != 3 or lengths.shape != mel.shape[:1] or int(lengths.max()) > mel.shape[1]:
        raise ValueError(f"need a (B, T, 80) log-Mel batch and B lengths <= T, "
                         f"got shapes {mel.shape} and {lengths.shape}")
    if int(lengths.min()) < MIN_INPUT_FRAMES:
        raise ValueError(f"utterance too short: need >= {MIN_INPUT_FRAMES} input frames")
    if len(lengths) < 2 or len(lengths) * (mel.shape[1] // 4) < _SPLIT_MIN_FRAMES:
        return _encode(params, cfg, mel, lengths, train, rng)
    return _encode_halves(params, cfg, mel, lengths, train, rng)


def _encode(params: dict, cfg: EncoderConfig, mel: np.ndarray, lengths: np.ndarray,
            train: bool, rng) -> EncoderOutput:
    """``encode``'s body on an already checked batch."""
    x, lengths = _extract(params, mel, lengths)
    l, dtype = x.shape[1], x.dtype

    key_mask = np.where(np.arange(l)[None, :] < lengths[:, None], 0.0, -np.inf)
    key_mask = key_mask.astype(dtype)[:, None, None, :]
    mask = _valid_mask(lengths, l, dtype)
    pos_enc = sinusoid_offsets(l - 1, cfg.hidden, dtype)

    states = [x]
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        x = ad.add(x, _half_ffn(params, p + "ffn1.", cfg, x, train, rng))
        x = ad.add(x, _rel_attention(params, p + "attn.", cfg, x, key_mask,
                                     pos_enc, train, rng))
        x = ad.add(x, _conv_block(params, p + "conv.", cfg, x, mask, train, rng))
        x = ad.add(x, _half_ffn(params, p + "ffn2.", cfg, x, train, rng))
        x = ad.layer_norm(x, params[p + "out_ln.gamma"], params[p + "out_ln.beta"], LN_EPS)
        states.append(x)

    final = ad.layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"], LN_EPS)
    if not np.all(np.isfinite(final.data)):
        raise FloatingPointError("encoder produced non-finite values")
    return EncoderOutput(layer_states=states, final=final, lengths=lengths)


def _encode_halves(params: dict, cfg: EncoderConfig, mel: np.ndarray, lengths: np.ndarray,
                   train: bool, rng) -> EncoderOutput:
    """``_encode`` of the utterances [0:ceil(B/2)] and the rest, one half per
    pool thread (``ad._pool_map``), recorded as one node.

    Each half runs on leaf Tensors of its own over the same parameter arrays,
    so no two threads write one ``.grad``, and keeps the padded width. The
    encoder is per utterance, so the node's data, every half's states and
    final norm stacked and joined on the batch axis, holds the bits of the
    whole batch's forward. The backward walks each half on the pool
    (``ad._backprop``) and adds the halves' parameter gradients in half order,
    so the gradient bits depend on this fixed partition, never on the core
    count. With dropout, each half draws from its own ``rng.spawn(2)`` stream.
    """
    b = len(lengths)
    halves = (slice(0, (b + 1) // 2), slice((b + 1) // 2, b))
    names = list(param_shapes(cfg))
    parents = [ad.as_tensor(params[name]) for name in names]
    leaves = [[Tensor(p.data, requires_grad=ad._needs_grad(p)) for p in parents]
              for _ in halves]
    rngs = rng.spawn(2) if rng is not None else (None, None)

    def forward(k):
        out = _encode(dict(zip(names, leaves[k])), cfg, mel[halves[k]], lengths[halves[k]],
                      train, rngs[k])
        return out.layer_states + [out.final], out.lengths

    with ad._pool_map(2, "encode") as (mapped, _):
        outs = list(mapped(forward, (0, 1)))
    final = outs[0][0][-1]
    data = np.empty((len(outs[0][0]), b) + final.shape[1:], final.dtype)
    roots = []
    for sl, (states, _) in zip(halves, outs):
        for i, state in enumerate(states):
            data[i, sl] = state.data
        # the half's walk starts here: row i of its gradient is state i's
        roots.append(ad._make(data[:, sl], states, tuple))

    def backward(g):
        def walk(k):
            ad._backprop(roots[k], g[:, halves[k]])
            return [leaf.grad for leaf in leaves[k]]

        with ad._pool_map(2, "encode") as (mapped, _):
            grads = list(mapped(walk, (0, 1)))
        return tuple(g0 if g1 is None else g1 if g0 is None else g0 + g1
                     for g0, g1 in zip(*grads))

    node = ad._make(data, parents, backward)
    states = [ad.getitem(node, i) for i in range(len(data))]
    return EncoderOutput(layer_states=states[:-1], final=states[-1],
                         lengths=np.concatenate([half_lengths for _, half_lengths in outs]))


def weighted_sum(layer_states: list, logits) -> Tensor:
    """Softmax-weighted convex combination of retained layer states."""
    logits = ad.as_tensor(logits)
    if logits.shape != (len(layer_states),):
        raise ValueError(f"need {len(layer_states)} layer weights, got {logits.shape}")
    weights = ad.softmax(logits, axis=-1)
    out = None
    for i, state in enumerate(layer_states):
        term = ad.mul(ad.as_tensor(state), weights[i])
        out = term if out is None else ad.add(out, term)
    return out
