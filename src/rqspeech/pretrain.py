"""Self-supervised training loop: masked multi-softmax prediction.

The loop wires the other modules together: clean features produce frozen
labels (quantizer), a masked copy of the features feeds the encoder, and a
linear head over the stack-final state predicts, per codebook, the label of
every masked 40 ms frame. Adam with an inverse-square-root schedule, global
gradient-norm clipping at 1.0, and no weight decay.

Checkpoints (format "MSEC") carry every named tensor (encoder + head + Adam
moments), the step counter, and the run configuration; finetune checkpoints
go through the same writer and restore helpers. Two load modes: ``full``
restores everything, ``feature_extractor_only`` restores just the
``extractor.*`` tensors; a fresh run loads nothing. The quantizer is always
rebuilt from the seed and config of the *current* run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import masking
from . import quantizer as quant
from .autodiff import Tensor
from .seeding import keyed_rng

CHECKPOINT_MAGIC = b"MSEC"
CHECKPOINT_VERSION = 1
LOAD_MODES = ("full", "feature_extractor_only")
ADAM_BLOCK_VALUES = 1 << 16  # values per in-place Adam block


class CheckpointError(ValueError):
    """Version, magic, or tensor-shape mismatch while loading a checkpoint."""


class LabelCacheError(ValueError):
    """A cached label array whose frame count does not fit its utterance."""


class NonFiniteLossError(FloatingPointError):
    """Training step produced a non-finite loss; parameters were not updated."""


@dataclass(frozen=True)
class PretrainConfig:
    peak_lr: float = 8e-4
    warmup_steps: int = 4000
    total_steps: int = 100000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    mask: masking.MaskConfig = field(default_factory=masking.MaskConfig)
    quantizer: quant.QuantizerConfig = field(default_factory=quant.QuantizerConfig)

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")


@dataclass
class StepMetrics:
    step: int
    loss: float
    learning_rate: float
    masked_label_frames: int
    codebook_utilization: float
    grad_norm: float           # global gradient norm before clipping


def lr_schedule(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to the peak, then inverse-square-root decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return float(peak_lr * min(step / warmup_steps, np.sqrt(warmup_steps / step)))


def multi_softmax_loss(logits, labels: np.ndarray, target_mask: np.ndarray):
    """Mean cross-entropy over (masked label frame, codebook) pairs, in nats.

    ``logits`` is (L, N, V) for one utterance (array or Tensor); only rows
    where ``target_mask`` is True contribute. Returns a Tensor so the loss can
    be differentiated; use ``.item()`` for the scalar value.
    """
    labels = np.asarray(labels)
    target_mask = np.asarray(target_mask, dtype=bool)
    logits = ad.as_tensor(logits)
    l, n, v = logits.shape
    if labels.shape != (l, n):
        raise ValueError(f"labels shape {labels.shape} does not match logits {(l, n)}")
    if target_mask.shape != (l,):
        raise ValueError(f"target_mask length {target_mask.shape} != {l}")
    if not target_mask.any():
        raise ValueError("no target positions; caller should skip this utterance")

    idx = np.flatnonzero(target_mask)
    picked = ad.take_rows(ad.reshape(logits, (l, n * v)), idx)
    picked = ad.reshape(picked, (len(idx), n, v))
    return _nll_mean(picked, labels[idx])


def _nll_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """-mean log softmax(logits)[label] over all (row, codebook) pairs."""
    return ad.cross_entropy_mean(logits, labels)


def codebook_utilization(labels: np.ndarray, num_codebooks: int, vocab_size: int) -> float:
    """Fraction of (codebook, codeword) pairs observed in a label window."""
    labels = np.asarray(labels).reshape(-1, num_codebooks)
    if labels.size == 0:
        raise ValueError("need at least one label")
    distinct = 0
    for j in range(num_codebooks):
        distinct += np.unique(labels[:, j]).size
    return distinct / (num_codebooks * vocab_size)


# optimizer -----------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    count: int = 0

    @staticmethod
    def init(params: dict) -> "AdamState":
        """Zero moments; ``np.zeros`` maps large ones lazily, so their pages
        are first touched by the first ``adam_step`` (a restore replaces
        them untouched)."""
        return AdamState(m={k: np.zeros(p.data.shape, p.data.dtype) for k, p in params.items()},
                         v={k: np.zeros(p.data.shape, p.data.dtype) for k, p in params.items()})


def clip_global_norm(grads: dict, max_norm: float) -> float:
    squares = (np.square(c, out=c) for c in (g.astype(np.float64) for g in grads.values()))
    total = np.sqrt(sum(float(np.sum(sq)) for sq in squares))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def clipped_gradients(loss: Tensor, params: dict, max_norm: float, step: int):
    """(loss value, {name: gradient}, global norm before clipping) of ``loss``.

    Every parameter gets a gradient (zeros where the loss does not reach it),
    clipped to ``max_norm`` in global norm. A non-finite loss raises
    NonFiniteLossError naming ``step`` before any gradient is touched. No
    parameter keeps a ``.grad``: the dict holds the step's only reference.
    """
    loss_val = loss.item()
    if not np.isfinite(loss_val):
        raise NonFiniteLossError(f"non-finite loss at step {step}: {loss_val}")
    loss.backward()
    grads = {}
    for name, p in params.items():
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.zero_grad()
    return loss_val, grads, clip_global_norm(grads, max_norm)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float, beta2: float, eps: float) -> None:
    """One Adam update (bias-corrected, no weight decay) in place, in blocks
    of ``ADAM_BLOCK_VALUES`` values, so its temporaries stay in cache; each
    block takes the whole-tensor formula, so the bits do not depend on them."""
    state.count += 1
    t = state.count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        tensors = p.data, state.m[name], state.v[name]
        flats = [a.reshape(-1) for a in tensors] + [np.ravel(grads[name])]
        for i in range(0, p.data.size, ADAM_BLOCK_VALUES):
            pb, mb, vb, g = (f[i:i + ADAM_BLOCK_VALUES] for f in flats)
            mb *= beta1
            mb += (1.0 - beta1) * g
            vb *= beta2
            vb += (1.0 - beta2) * g * g
            pb -= (lr / bc1) * mb / (np.sqrt(vb / bc2) + eps)
        for a, flat in zip(tensors, flats):
            if not np.may_share_memory(a, flat):  # a strided array, updated as a copy
                a[...] = flat.reshape(a.shape)


# training state --------------------------------------------------------------

@dataclass
class TrainState:
    encoder_cfg: enc.EncoderConfig
    cfg: PretrainConfig
    params: dict               # name -> Tensor (encoder + "head.*")
    adam: AdamState
    quantizer_state: quant.QuantizerState
    step: int = 0
    label_cache: dict = field(default_factory=dict)
    run_config: dict = field(default_factory=dict)


def _head_shapes(encoder_cfg: enc.EncoderConfig, qcfg: quant.QuantizerConfig) -> dict:
    n_out = qcfg.num_codebooks * qcfg.vocab_size
    return {"head.weight": (encoder_cfg.hidden, n_out), "head.bias": (n_out,)}


def init_head_params(encoder_cfg: enc.EncoderConfig, qcfg: quant.QuantizerConfig,
                     seed: int, dtype=np.float32) -> dict:
    return {name: enc.init_param(name, shape, seed, dtype)
            for name, shape in _head_shapes(encoder_cfg, qcfg).items()}


def _train_state(encoder_cfg: enc.EncoderConfig, cfg: PretrainConfig, arrays: dict,
                 run_config: dict | None) -> TrainState:
    """A step-0 TrainState over ``arrays`` with fresh Adam moments and the
    quantizer of ``cfg``."""
    params = enc.params_to_tensors(arrays)
    return TrainState(encoder_cfg=encoder_cfg, cfg=cfg, params=params,
                      adam=AdamState.init(params),
                      quantizer_state=quant.init_quantizer(cfg.seed, cfg.quantizer),
                      run_config=dict(run_config or {}))


def init_train_state(encoder_cfg: enc.EncoderConfig, cfg: PretrainConfig,
                     run_config: dict | None = None, dtype=np.float32) -> TrainState:
    arrays = enc.init_encoder_params(encoder_cfg, cfg.seed, dtype)
    arrays.update(init_head_params(encoder_cfg, cfg.quantizer, cfg.seed, dtype))
    return _train_state(encoder_cfg, cfg, arrays, run_config)


def _labels_for(state: TrainState, utt_id: str, mel: np.ndarray,
                cropped: bool) -> np.ndarray:
    """Frozen labels for one utterance; cached when the crop cannot vary."""
    if not cropped and utt_id in state.label_cache:
        labels = state.label_cache[utt_id]
        frames = mel.shape[0] // quant.STACK_WINDOW
        if labels.shape[0] != frames:
            raise LabelCacheError(f"label cache of utterance {utt_id} has {labels.shape[0]} "
                                  f"label frames, its audio has {frames}")
        return labels
    labels = quant.labels_for_mel(state.quantizer_state, mel)
    if not cropped:
        state.label_cache[utt_id] = labels
    return labels


def prepare_masked_batch(state: TrainState, batch, epoch: int):
    """Per-utterance labels and mask plans, plus the noise-substituted features.

    Mask and noise streams are keyed by (seed, epoch, utterance id), so the
    result is independent of batch composition and worker scheduling.
    """
    feats = batch.features.copy()
    plans = []
    labels = []
    for i, utt_id in enumerate(batch.utt_ids):
        t = int(batch.lengths[i])
        mel = batch.features[i, :t]
        labels.append(_labels_for(state, utt_id, mel, bool(batch.cropped[i])))
        rng = keyed_rng(state.cfg.seed, "mask", epoch, utt_id)
        plan = masking.sample_mask(t, state.cfg.mask, rng)
        noise_rng = keyed_rng(state.cfg.seed, "noise", epoch, utt_id)
        feats[i, :t] = masking.apply_mask(mel, plan, state.cfg.mask, noise_rng)
        plans.append(plan)
    return feats, plans, labels


def train_step(state: TrainState, batch, epoch: int) -> StepMetrics | None:
    """One optimization step; returns None when the batch has no target frames."""
    cfg = state.cfg
    qcfg = cfg.quantizer
    feats, plans, labels = prepare_masked_batch(state, batch, epoch)

    label_lengths = batch.lengths // 4
    flat_rows = []   # row index into the flattened (B * Lmax) state matrix
    flat_labels = []
    l_max = feats.shape[1] // 4
    for i, plan in enumerate(plans):
        positions = np.flatnonzero(plan.target_mask)
        flat_rows.append(positions + i * l_max)
        flat_labels.append(labels[i][positions])
    flat_rows = np.concatenate(flat_rows)
    if flat_rows.size == 0:
        return None
    flat_labels = np.concatenate(flat_labels)

    out = enc.encode(state.params, state.encoder_cfg, feats, batch.lengths,
                     train=True, rng=keyed_rng(cfg.seed, "dropout", epoch, state.step))
    b, l_out, h = out.final.shape
    assert l_out == l_max and np.array_equal(out.lengths, label_lengths)

    rows = ad.take_rows(ad.reshape(out.final, (b * l_out, h)), flat_rows)
    loss = ad.multi_softmax_nll(rows, state.params["head.weight"], state.params["head.bias"],
                                flat_labels, qcfg.num_codebooks)

    loss_val, grads, grad_norm = clipped_gradients(loss, state.params, cfg.grad_clip,
                                                   state.step + 1)
    state.step += 1
    lr = lr_schedule(state.step, cfg.peak_lr, cfg.warmup_steps)
    adam_step(state.params, grads, state.adam, lr,
              cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

    return StepMetrics(
        step=state.step, loss=loss_val, learning_rate=lr,
        masked_label_frames=int(flat_rows.size),
        codebook_utilization=codebook_utilization(flat_labels, qcfg.num_codebooks,
                                                  qcfg.vocab_size),
        grad_norm=float(grad_norm))


# checkpoint I/O --------------------------------------------------------------

def checkpoint_tensors(params: dict, adams) -> dict:
    """Parameters plus the ``opt.m.*``/``opt.v.*`` moments of each Adam group."""
    tensors = {name: p.data for name, p in params.items()}
    for adam in adams:
        tensors.update({f"opt.m.{k}": v for k, v in adam.m.items()})
        tensors.update({f"opt.v.{k}": v for k, v in adam.v.items()})
    return tensors


def write_checkpoint(path, step: int, encoder_cfg: enc.EncoderConfig, tensors: dict,
                     fields: dict) -> None:
    """Write magic, version, length-prefixed JSON header, then f32 tensor data;
    ``fields`` are the header entries that depend on the kind of run.

    The file is written beside ``path`` and renamed onto it when complete, so
    a write that fails midway leaves any previous checkpoint at ``path`` whole.
    """
    entries = []
    offset = 0
    for name in sorted(tensors):
        shape = list(tensors[name].shape)
        entries.append({"name": name, "shape": shape, "offset": offset})
        offset += math.prod(shape) * 4
    header = {**fields,
              "format_version": CHECKPOINT_VERSION,
              "step": step,
              "encoder_config": encoder_cfg.to_dict(),
              "tensors": entries}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for entry in entries:
                f.write(np.ascontiguousarray(tensors[entry["name"]], dtype="<f4"))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def save_checkpoint(state: TrainState, path) -> None:
    write_checkpoint(path, state.step, state.encoder_cfg,
                     checkpoint_tensors(state.params, [state.adam]),
                     {"adam_count": state.adam.count,
                      "quantizer": {"seed": state.quantizer_state.seed,
                                    **asdict(state.cfg.quantizer)},
                      "run_config": state.run_config})


def header_key(record, key: str, path):
    """``record[key]`` from a checkpoint header; CheckpointError when absent."""
    try:
        return record[key]
    except (KeyError, TypeError):
        raise CheckpointError(f"corrupt checkpoint: {path} "
                              f"(missing header key {key!r})") from None


def header_value(record, key: str, parse, path):
    """``parse(record[key])``; a missing or malformed entry is a CheckpointError."""
    raw = header_key(record, key, path)
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"corrupt checkpoint: {path} (bad {key}: {err})") from None


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def read_checkpoint(path, keep=None):
    """(header dict, {name: float32 array}) from an MSEC file.

    Every tensor the header lists must end inside the file; of those, only
    the ones whose name ``keep`` accepts (all when ``keep`` is None) are read,
    each straight into an array of its own.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read_records(f, path, keep)
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint: {path} "
                              f"({err.strerror or err})") from None


def _read_records(f, path: Path, keep):
    size = os.fstat(f.fileno()).st_size
    prefix = f.read(12)
    if len(prefix) < 12 or prefix[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"corrupt checkpoint: {path} (bad magic)")
    version, header_len = struct.unpack("<II", prefix[4:])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported "
                              f"(expected {CHECKPOINT_VERSION}): {path}")
    if size < 12 + header_len:
        raise CheckpointError(f"corrupt checkpoint: {path} (truncated header)")
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(f"corrupt checkpoint: {path} (bad header)") from None

    header_key(header, "step", path)
    base = 12 + header_len
    wanted = []
    for entry in header_value(header, "tensors", list, path):
        name, shape, start = (header_key(entry, key, path) for key in ("name", "shape", "offset"))
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start)):
            raise CheckpointError(f"corrupt checkpoint: {path} (bad tensor entry {name!r})")
        if base + start + 4 * math.prod(shape) > size:
            raise CheckpointError(f"corrupt checkpoint: {path} (truncated data)")
        if keep is None or keep(name):
            wanted.append((name, shape, base + start))
    tensors = {}
    for name, shape, at in wanted:
        arr = np.empty(shape, dtype="<f4")
        f.seek(at)
        if f.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"corrupt checkpoint: {path} (truncated data)")
        tensors[name] = arr
    return header, tensors


def restore_tensor(tensors: dict, name: str, shape, path) -> np.ndarray:
    """Tensor ``name`` of the checkpoint read from ``path``, which must have
    ``shape``."""
    if name not in tensors:
        raise CheckpointError(f"checkpoint missing tensor {name}: {path}")
    arr = tensors[name]
    if arr.shape != shape:
        raise CheckpointError(f"shape mismatch for tensor {name}: checkpoint {path} "
                              f"has {arr.shape}, config {shape}")
    return arr


def restore_training_tensors(tensors: dict, params: dict, adams, path) -> None:
    """Replace every parameter and the moments of every Adam group in place
    from the checkpoint read from ``path``."""
    for name, p in params.items():
        p.data = restore_tensor(tensors, name, p.data.shape, path)
    for adam in adams:
        for name in adam.m:
            adam.m[name] = restore_tensor(tensors, f"opt.m.{name}", adam.m[name].shape, path)
            adam.v[name] = restore_tensor(tensors, f"opt.v.{name}", adam.v[name].shape, path)


def load_checkpoint(path, mode: str, encoder_cfg: enc.EncoderConfig,
                    cfg: PretrainConfig, run_config: dict | None = None) -> TrainState:
    """Build a TrainState from a checkpoint under one of the ``LOAD_MODES``.

    A ``full`` load takes every parameter and moment from the file and draws
    no random initialisation; ``feature_extractor_only`` starts from
    ``init_train_state`` and takes the extractor's parameters. The quantizer
    always comes from ``cfg`` (seed and config of the current run); a
    continued run may deliberately pick a new quantizer seed.
    """
    if mode not in LOAD_MODES:
        raise ValueError(f"unknown load mode: {mode!r} (expected one of {LOAD_MODES})")
    if mode == "full":
        header, tensors = read_checkpoint(path)
        shapes = {**enc.param_shapes(encoder_cfg), **_head_shapes(encoder_cfg, cfg.quantizer)}
        state = _train_state(encoder_cfg, cfg,
                             {name: restore_tensor(tensors, name, shape, path)
                              for name, shape in shapes.items()}, run_config)
        restore_training_tensors(tensors, {}, [state.adam], path)  # the Adam moments
        state.step = header_value(header, "step", int, path)
        state.adam.count = header_value(header, "adam_count", int, path)
        return state

    _, tensors = read_checkpoint(path, keep=lambda name: name.startswith("extractor."))
    state = init_train_state(encoder_cfg, cfg, run_config)
    restore_training_tensors(tensors, {name: p for name, p in state.params.items()
                                       if name.startswith("extractor.")}, [], path)
    return state


# (CSV header, ``str.format`` template over the step's metrics ``m``) per column
METRICS_FIELDS = (("step", "{m.step}"), ("loss", "{m.loss:.6f}"),
                  ("lr", "{m.learning_rate:.8f}"), ("masked_frames", "{m.masked_label_frames}"),
                  ("utilization", "{m.codebook_utilization:.6f}"),
                  ("grad_norm", "{m.grad_norm:.6f}"))


class MetricsWriter:
    """One CSV row per training step, flushed as it is written.

    A run that starts at step 0 replaces the file; a run restored at step N
    keeps the file's rows up to step N and appends after them.
    """

    def __init__(self, path, fields=METRICS_FIELDS, start_step: int = 0):
        self._formats = [fmt for _, fmt in fields]
        self._f = open(path, "a+", newline="")
        self._f.seek(0)  # steps count from 1, and the header's "step" is no digit
        kept = [r for r in csv.reader(self._f) if r and r[0].isdigit() and int(r[0]) <= start_step]
        self._f.truncate(0)
        self._w = csv.writer(self._f)
        self._w.writerows([[name for name, _ in fields]] + kept)

    def write(self, m) -> None:
        self._w.writerow(fmt.format(m=m) for fmt in self._formats)
        self._f.flush()

    def close(self) -> None:
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
