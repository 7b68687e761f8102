"""Trainable network: CNN feature extractor, Conformer stack, layer aggregation.

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
    padded = ad.pad_time(x, 0, 1)
    windows = ad.unfold_time(padded, kernel=3, stride=2)
    b, t_out, k, c = windows.shape
    flat = ad.reshape(windows, (b, t_out, k * c))
    return ad.linear(flat, weight, bias)


def extract(params: dict, cfg: EncoderConfig, mel: np.ndarray,
            lengths: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Feature extractor: (B, T, 80) log-Mel -> (B, floor(T/4), hidden).

    Returns the features and the per-utterance valid output lengths
    (floor(length / 4), matching the quantizer's label count).
    """
    mel = np.asarray(mel)
    if mel.ndim == 2:
        mel = mel[None]
    b, t, _ = mel.shape
    if lengths is None:
        lengths = np.full(b, t, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if int(lengths.min()) < MIN_INPUT_FRAMES:
        raise ValueError(f"utterance too short: need >= {MIN_INPUT_FRAMES} input frames")

    # frames past each valid length must never reach the convolutions, whatever
    # the caller padded with
    if int(lengths.min()) < t:
        mel = mel * _valid_mask(lengths, t, mel.dtype)
    x = ad.as_tensor(mel)
    h = ad.relu(_conv_stride2(x, params["extractor.conv1.weight"],
                              params["extractor.conv1.bias"]))
    len1 = lengths // 2
    h = ad.mul(h, _valid_mask(len1, h.shape[1], mel.dtype))
    h = ad.relu(_conv_stride2(h, params["extractor.conv2.weight"],
                              params["extractor.conv2.bias"]))
    len2 = len1 // 2
    h = ad.mul(h, _valid_mask(len2, h.shape[1], mel.dtype))
    h = ad.linear(h, params["extractor.proj.weight"], params["extractor.proj.bias"])
    h = ad.mul(h, _valid_mask(len2, h.shape[1], mel.dtype))
    return h, len2


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
                   key_mask: np.ndarray, pos_enc: np.ndarray, train: bool, rng,
                   attn_sink) -> Tensor:
    drop = cfg.dropout if train else 0.0
    y = ad.layer_norm(x, p[prefix + "ln.gamma"], p[prefix + "ln.beta"], LN_EPS)
    q, k, v = (ad.linear(y, p[prefix + f"{w}.weight"], p[prefix + f"{w}.bias"])
               for w in ("wq", "wk", "wv"))
    ctx, probs = ad.rel_attention(q, k, v, pos_enc, p[prefix + "pos.weight"],
                                  p[prefix + "bias_u"], p[prefix + "bias_v"],
                                  key_mask, cfg.heads, drop, rng)
    if attn_sink is not None:
        attn_sink.append(probs.copy())
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
    windows = ad.unfold_time(ad.pad_time(y, half, half), cfg.conv_kernel, 1)
    dw = ad.reshape(p[prefix + "dw.weight"], (1, 1, cfg.conv_kernel, h))
    y = ad.add(ad.sum_(ad.mul(windows, dw), axis=2), p[prefix + "dw.bias"])

    # per-(utterance, channel) statistics over valid frames only
    y = ad.layer_norm(y, p[prefix + "norm.gamma"], p[prefix + "norm.beta"],
                      CONV_NORM_EPS, axis=1, mask=mask)
    y = ad.swish(y)
    y = ad.linear(y, p[prefix + "pw2.weight"], p[prefix + "pw2.bias"])
    return ad.dropout(y, cfg.dropout if train else 0.0, rng)


def forward(params: dict, cfg: EncoderConfig, features: Tensor,
            lengths: np.ndarray, *, train: bool = False, rng=None,
            attn_sink: list | None = None) -> EncoderOutput:
    """Run the Conformer stack over extractor features; retain every state."""
    x = ad.as_tensor(features)
    b, l, _ = x.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    dtype = x.data.dtype

    key_mask = np.where(np.arange(l)[None, :] < lengths[:, None], 0.0, -np.inf)
    key_mask = key_mask.astype(dtype)[:, None, None, :]
    mask = _valid_mask(lengths, l, dtype)
    pos_enc = sinusoid_offsets(l - 1, cfg.hidden, dtype)

    states = [x]
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        x = ad.add(x, _half_ffn(params, p + "ffn1.", cfg, x, train, rng))
        x = ad.add(x, _rel_attention(params, p + "attn.", cfg, x, key_mask,
                                     pos_enc, train, rng, attn_sink))
        x = ad.add(x, _conv_block(params, p + "conv.", cfg, x, mask, train, rng))
        x = ad.add(x, _half_ffn(params, p + "ffn2.", cfg, x, train, rng))
        x = ad.layer_norm(x, params[p + "out_ln.gamma"], params[p + "out_ln.beta"], LN_EPS)
        states.append(x)

    final = ad.layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"], LN_EPS)
    if not np.all(np.isfinite(final.data)):
        raise FloatingPointError("encoder produced non-finite values")
    return EncoderOutput(layer_states=states, final=final, lengths=lengths)


def encode(params: dict, cfg: EncoderConfig, mel: np.ndarray,
           lengths: np.ndarray | None = None, *, train: bool = False,
           rng=None, attn_sink: list | None = None) -> EncoderOutput:
    """Feature extractor plus Conformer stack in one call."""
    features, out_lengths = extract(params, cfg, mel, lengths)
    return forward(params, cfg, features, out_lengths, train=train, rng=rng,
                   attn_sink=attn_sink)


def weighted_sum(layer_states, logits) -> Tensor:
    """Softmax-weighted convex combination of retained layer states.

    Accepts an EncoderOutput or its list of per-layer states.
    """
    if isinstance(layer_states, EncoderOutput):
        layer_states = layer_states.layer_states
    logits = ad.as_tensor(logits)
    if logits.shape != (len(layer_states),):
        raise ValueError(f"need {len(layer_states)} layer weights, got {logits.shape}")
    weights = ad.softmax(logits, axis=-1)
    out = None
    for i, state in enumerate(layer_states):
        term = ad.mul(ad.as_tensor(state), weights[i])
        out = term if out is None else ad.add(out, term)
    return out
