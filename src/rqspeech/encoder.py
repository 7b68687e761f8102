"""Trainable network: CNN feature extractor, Conformer stack, layer aggregation.

``encode`` is the one forward pass: it takes a padded (B, T, 80) log-Mel batch
and its valid lengths, and returns every layer state for ``weighted_sum``.

Layout conventions:
  * activations are time-major (batch, frames, channels)
  * the feature extractor applies two kernel-3 stride-2 convolutions (each
    right-padded by one zero frame so its output length is exactly
    floor(T / 2)), ReLU between, then a linear projection; total stride 4
    (``FRAME_STRIDE``), one encoder frame per quantizer label frame. It is one
    autodiff node (``ad.feature_extractor``) that keeps only its mel input
    and two valid-frame masks and recomputes its windows and activations in
    its backward
  * each Conformer layer is half-FFN, relative-position self-attention,
    convolution block, half-FFN, with residuals and a closing layer norm
  * attention scoring is the shift-style relative scheme: per-head content and
    position bias vectors plus a learned projection of sinusoidal offset
    encodings
  * every parameter learns: keys and the depthwise convolution have no bias,
    which the softmax and the conv module's norm would cancel
  * each Conformer sub-block and its residual is one autodiff node
    (``ad.half_ffn``, ``ad.attention_block``, ``ad.conv_module``) that draws
    its own dropout masks, keeps its norm statistics and the boolean masks,
    and recomputes the rest from its input in its backward; the FFN and conv
    nodes keep no activation of their own and recompute their first
    pointwise projection, and the attention node keeps q, k, v, its context
    and each score row's max and exponential sum, never the (B, H, L, L)
    probabilities, so a training tape grows with a batch's frames, not with
    the square of its length or with the FFN's width
  * the convolution block normalizes per utterance and channel over valid
    frames only, so outputs never depend on batch composition

Frames past each utterance's valid length are zeroed before any op that mixes
across time, which makes batched and solo forwards agree on the valid region.

Because nothing mixes utterances, a large batch runs as two fixed halves on
two cores, one ``ad.batch_halves`` node (``_encode_halves``), with the whole
batch's output bits; the gradient bits depend on the fixed partition only.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frontend import NUM_MEL_BINS
from .seeding import keyed_rng

LN_EPS = 1e-5
CONV_NORM_EPS = 1e-5
FRAME_STRIDE = 2 * 2  # mel frames per encoder frame: two stride-2 convolutions
MIN_INPUT_FRAMES = 8  # two stride-2 convolutions need at least one output frame
INIT_BLOCK_VALUES = 1 << 17  # values per init draw: 1 MB of float64
# a batch with at least this many padded label frames (B * T // FRAME_STRIDE)
# runs as two halves on two cores; below it, thread start-up and the halves'
# second tape walk cost more than the second core gains
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
        for name in ("num_layers", "hidden", "ffn", "heads", "conv_kernel"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be {'>= 1' if type(value) is int else 'an int'}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
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

# The extractor's and each Conformer sub-block's parameters in the order its
# node takes them, each with its shape spelled in config sizes: h hidden, f
# ffn, g 2 * hidden (the GLU's input), k conv_kernel, n heads, d head_dim, m
# and w the three-frame windows of the 80 mel bins and of h channels. The
# extractor comes first and a layer lists its blocks in this order; that
# order is the order of the clipping norm's sum, so it sets the bits of every
# clipped update.
_EXTRACTOR = (("conv1.weight", "mh"), ("conv1.bias", "h"), ("conv2.weight", "wh"),
              ("conv2.bias", "h"), ("proj.weight", "hh"), ("proj.bias", "h"))
_NORM = (("ln.gamma", "h"), ("ln.beta", "h"))
_FFN = _NORM + (("w1.weight", "hf"), ("w1.bias", "f"), ("w2.weight", "fh"), ("w2.bias", "h"))
_ATTN = _NORM + (("wq.weight", "hh"), ("wq.bias", "h"), ("wk.weight", "hh"), ("wv.weight", "hh"),
                 ("wv.bias", "h"), ("wo.weight", "hh"), ("wo.bias", "h"), ("pos.weight", "hh"),
                 ("bias_u", "nd"), ("bias_v", "nd"))
_CONV = _NORM + (("pw1.weight", "hg"), ("pw1.bias", "g"), ("dw.weight", "kh"),
                 ("norm.gamma", "h"), ("norm.beta", "h"), ("pw2.weight", "hh"), ("pw2.bias", "h"))
_LAYER_BLOCKS = {"ffn1": _FFN, "ffn2": _FFN, "attn": _ATTN, "conv": _CONV,
                 "out_ln": (("gamma", "h"), ("beta", "h"))}


def param_shapes(cfg: EncoderConfig) -> dict:
    h = cfg.hidden
    sizes = {"h": h, "f": cfg.ffn, "g": 2 * h, "k": cfg.conv_kernel, "n": cfg.heads,
             "d": cfg.head_dim, "m": 3 * NUM_MEL_BINS, "w": 3 * h}
    blocks = [("extractor.", _EXTRACTOR)]
    blocks += [(f"layers.{i}.{block}.", table) for i in range(cfg.num_layers)
               for block, table in _LAYER_BLOCKS.items()]
    shapes = {prefix + name: tuple(sizes[d] for d in dims)
              for prefix, table in blocks for name, dims in table}
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
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    # one stream drawn in blocks gives the one-shot draw's values without its
    # full-size float64 temporary
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, INIT_BLOCK_VALUES):
        block = flat[start:start + INIT_BLOCK_VALUES]
        block[...] = rng.uniform(-bound, bound, size=block.size)
    return out


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


def _extract(params: dict, mel: np.ndarray, lengths: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Feature extractor: (B, T, 80) log-Mel -> (B, T // FRAME_STRIDE, hidden),
    and each utterance's valid output length, its label count."""
    t = mel.shape[1]
    # frames past each valid length must never reach the convolutions, whatever
    # the caller padded with
    if int(lengths.min()) < t:
        mel = mel * _valid_mask(lengths, t, mel.dtype)
    masks = [_valid_mask(lengths // 2, t // 2, mel.dtype),
             _valid_mask(lengths // FRAME_STRIDE, t // FRAME_STRIDE, mel.dtype)]
    return (ad.feature_extractor(mel, masks, *_block_params(params, "extractor.", _EXTRACTOR)),
            lengths // FRAME_STRIDE)


# (hidden, dtype) -> the read-only encodings of offsets -M..M for the largest
# M asked for yet; a slice of it equals a fresh table bit for bit, because
# each row depends only on its own offset
_OFFSET_TABLES = {}


def sinusoid_offsets(max_offset: int, hidden: int, dtype) -> np.ndarray:
    """Encodings for relative offsets -max_offset..+max_offset, shape (2M+1, hidden).

    The result is a read-only slice of one table per (hidden, dtype), which
    is rebuilt whenever a longer one is asked for. Two threads may both
    build it; each publishes only a complete table and slices its own.
    """
    key = (hidden, np.dtype(dtype))
    table = _OFFSET_TABLES.get(key)
    if table is None or len(table) < 2 * max_offset + 1:
        table = _offset_table(max_offset, hidden, dtype)
        table.flags.writeable = False
        if len(_OFFSET_TABLES.get(key, ())) < len(table):
            _OFFSET_TABLES[key] = table
    mid = len(table) // 2
    return table[mid - max_offset: mid + max_offset + 1]


def _offset_table(max_offset: int, hidden: int, dtype) -> np.ndarray:
    offsets = np.arange(-max_offset, max_offset + 1, dtype=np.float64)
    dims = np.arange(0, hidden, 2, dtype=np.float64)
    inv_freq = 1.0 / (10000.0 ** (dims / hidden))
    angles = offsets[:, None] * inv_freq[None, :]
    enc = np.zeros((len(offsets), hidden), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc.astype(dtype)


def _block_params(p: dict, prefix: str, table) -> list:
    """The parameters a block's ``table`` names under ``prefix``, in its order."""
    return [p[prefix + name] for name, _ in table]


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
    if len(lengths) < 2 or len(lengths) * (mel.shape[1] // FRAME_STRIDE) < _SPLIT_MIN_FRAMES:
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

    drop = cfg.dropout if train else 0.0
    states = [x]
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        x = ad.half_ffn(x, *_block_params(params, p + "ffn1.", _FFN), LN_EPS, drop, rng)
        x = ad.attention_block(x, key_mask, pos_enc, *_block_params(params, p + "attn.", _ATTN),
                               cfg.heads, LN_EPS, drop, rng)
        # the mask zeroes padded frames before the depthwise kernel reads them,
        # and the module's second norm takes per-(utterance, channel) statistics
        # over valid frames only
        x = ad.conv_module(x, mask, *_block_params(params, p + "conv.", _CONV), LN_EPS,
                           CONV_NORM_EPS, drop, rng)
        x = ad.half_ffn(x, *_block_params(params, p + "ffn2.", _FFN), LN_EPS, drop, rng)
        x = ad.layer_norm(x, *_block_params(params, p + "out_ln.", _LAYER_BLOCKS["out_ln"]),
                          LN_EPS)
        states.append(x)

    final = ad.layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"], LN_EPS)
    if not np.all(np.isfinite(final.data)):
        raise FloatingPointError("encoder produced non-finite values")
    return EncoderOutput(layer_states=states, final=final, lengths=lengths)


def _encode_halves(params: dict, cfg: EncoderConfig, mel: np.ndarray, lengths: np.ndarray,
                   train: bool, rng) -> EncoderOutput:
    """``_encode`` of the utterances [0:ceil(B/2)] and the rest as one
    ``ad.batch_halves`` node; the encoder is per utterance, so this is the
    whole batch's forward. Each half keeps the padded width and, with
    dropout, draws from its own ``rng.spawn(2)`` stream."""
    names = list(param_shapes(cfg))
    rngs = rng.spawn(2) if rng is not None else (None, None)

    def half(k, rows, leaves):
        out = _encode(dict(zip(names, leaves)), cfg, mel[rows], lengths[rows], train, rngs[k])
        return out.layer_states + [out.final]

    states = ad.batch_halves(half, [params[name] for name in names], len(lengths))
    return EncoderOutput(layer_states=states[:-1], final=states[-1],
                         lengths=lengths // FRAME_STRIDE)


def weighted_sum(layer_states: list, logits) -> Tensor:
    """Softmax-weighted convex combination of retained layer states, one
    ``ad.layer_mix`` node."""
    logits = ad.as_tensor(logits)
    if logits.shape != (len(layer_states),):
        raise ValueError(f"need {len(layer_states)} layer weights, got {logits.shape}")
    return ad.layer_mix(layer_states, logits)
