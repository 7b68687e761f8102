"""Self-supervised training loop: masked multi-softmax prediction.

The loop wires the other modules together: clean features produce frozen
labels (quantizer), a masked copy of the features feeds the encoder, and a
linear head over the stack-final state predicts, per codebook, the label of
every masked 40 ms frame. Adam (``ADAM_BETAS``, ``ADAM_EPS``) with an
inverse-square-root schedule, global gradient-norm clipping at ``GRAD_CLIP``,
and no weight decay. Adam's state is its moments: its update count t is the
training step, which the checkpoint already stores.

Every start, also finetune's, builds its tensors with ``build_tensors``, each
read from a checkpoint (``records``) or drawn, never both: ``full`` reads the
parameters and moments, ``feature_extractor_only`` the ``extractor.*``
parameters, a fresh run nothing. ``full`` refuses a checkpoint of another
model from its header, before it reads anything. The quantizer is always
rebuilt from the seed and config of the *current* run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import masking
from . import quantizer as quant
from .autodiff import Tensor
from .records import CheckpointError, LabelCacheError, read_checkpoint, write_checkpoint
from .seeding import keyed_rng

LOAD_MODES = ("full", "feature_extractor_only")
ADAM_BLOCK_VALUES = 1 << 16  # values per in-place Adam block and per clipping block
ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8
MOMENTS = ("opt.m.", "opt.v.")  # checkpoint name prefixes of Adam's m and v
GRAD_CLIP = 1.0  # bound on the global gradient norm of every training step


class NonFiniteLossError(FloatingPointError):
    """Training step produced a non-finite loss; parameters were not updated."""


@dataclass(frozen=True)
class PretrainConfig:
    peak_lr: float = 8e-4
    warmup_steps: int = 4000
    total_steps: int = 1000
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
    seen = np.zeros(num_codebooks * vocab_size, bool)
    seen[labels + np.arange(num_codebooks) * vocab_size] = True
    return np.count_nonzero(seen) / (num_codebooks * vocab_size)


# optimizer -----------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's moments by parameter name; its update count is the caller's."""
    m: dict
    v: dict

    @staticmethod
    def init(params: dict) -> "AdamState":
        """Zero moments; ``np.zeros`` maps large ones lazily, so their pages
        are first touched by the first ``adam_step``."""
        return AdamState(m={k: np.zeros(p.data.shape, p.data.dtype) for k, p in params.items()},
                         v={k: np.zeros(p.data.shape, p.data.dtype) for k, p in params.items()})


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """The global norm of ``grads`` before clipping; above ``max_norm`` > 0,
    every gradient is scaled in place to that norm.

    Each gradient's float64 sum of squares has the bits of ``np.sum`` over a
    float64 copy of the whole gradient without making one
    (``ad.square_sum``, in blocks of ``ADAM_BLOCK_VALUES``). The sums are
    added as Python floats in ``grads`` order."""
    total = np.sqrt(sum(ad.square_sum(g, ADAM_BLOCK_VALUES) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def clipped_gradients(loss: Tensor, params: dict, step: int):
    """(loss value, {name: gradient}, global norm before clipping) of ``loss``.

    Every parameter gets a gradient (zeros where the loss does not reach it),
    clipped to ``GRAD_CLIP`` in global norm. A non-finite loss raises
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
    return loss_val, grads, clip_global_norm(grads, GRAD_CLIP)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, t: int) -> None:
    """Adam's ``t``-th update of ``params`` (bias-corrected, no weight decay)
    in place, in blocks of ``ADAM_BLOCK_VALUES`` values, so its temporaries
    stay in cache; each block takes the whole-tensor formula, so the bits do
    not depend on them. Of ``grads`` and ``state``, only the entries of
    ``params`` are read. Each array is updated through a flat view of
    itself, so a transposed one, which has none, raises ValueError."""
    beta1, beta2 = ADAM_BETAS
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        flats = [a.reshape(-1, copy=False) for a in (p.data, state.m[name], state.v[name])]
        flats.append(np.ravel(grads[name]))
        for i in range(0, p.data.size, ADAM_BLOCK_VALUES):
            pb, mb, vb, g = (f[i:i + ADAM_BLOCK_VALUES] for f in flats)
            mb *= beta1
            mb += (1.0 - beta1) * g
            vb *= beta2
            vb += (1.0 - beta2) * g * g
            pb -= (lr / bc1) * mb / (np.sqrt(vb / bc2) + ADAM_EPS)


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


def moment_shapes(shapes: dict) -> dict:
    """Each parameter's ``opt.m.<name>`` and ``opt.v.<name>`` moments, at its shape."""
    return {prefix + name: shape for name, shape in shapes.items() for prefix in MOMENTS}


def build_tensors(shapes: dict, seed: int, tensors: dict | None = None) -> tuple[dict, AdamState]:
    """A run's parameters, as Tensors in ``shapes`` order, and Adam moments.

    A parameter comes from ``tensors``, the arrays a checkpoint reader read,
    when there, else from ``enc.init_param``; its two moments from
    ``tensors`` when both are there, else from ``AdamState.init``'s zeros.
    """
    tensors = tensors or {}
    params = enc.params_to_tensors({name: tensors[name] if name in tensors
                                    else enc.init_param(name, shape, seed)
                                    for name, shape in shapes.items()})
    unsaved = {name: p for name, p in params.items()
               if not all(prefix + name in tensors for prefix in MOMENTS)}
    zeros = AdamState.init(unsaved) if unsaved else AdamState(m={}, v={})
    m, v = ({name: fresh[name] if name in unsaved else tensors[prefix + name] for name in shapes}
            for prefix, fresh in zip(MOMENTS, (zeros.m, zeros.v)))
    return params, AdamState(m=m, v=v)


def init_train_state(encoder_cfg: enc.EncoderConfig, cfg: PretrainConfig,
                     run_config: dict | None = None, tensors: dict | None = None) -> TrainState:
    """A step-0 TrainState with the quantizer of ``cfg``: fresh parameters and
    zero moments, except those ``tensors`` holds (``build_tensors``), which
    ``load_checkpoint`` read."""
    shapes = {**enc.param_shapes(encoder_cfg), **_head_shapes(encoder_cfg, cfg.quantizer)}
    params, adam = build_tensors(shapes, cfg.seed, tensors)
    return TrainState(encoder_cfg=encoder_cfg, cfg=cfg, params=params, adam=adam,
                      quantizer_state=quant.init_quantizer(cfg.seed, cfg.quantizer),
                      run_config=dict(run_config or {}))


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

    label_lengths = batch.lengths // quant.STACK_WINDOW
    flat_rows = []   # row index into the flattened (B * Lmax) state matrix
    flat_labels = []
    l_max = feats.shape[1] // quant.STACK_WINDOW
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

    loss_val, grads, grad_norm = clipped_gradients(loss, state.params, state.step + 1)
    state.step += 1
    lr = lr_schedule(state.step, cfg.peak_lr, cfg.warmup_steps)
    adam_step(state.params, grads, state.adam, lr, state.step)

    return StepMetrics(
        step=state.step, loss=loss_val, learning_rate=lr,
        masked_label_frames=int(flat_rows.size),
        codebook_utilization=codebook_utilization(flat_labels, qcfg.num_codebooks,
                                                  qcfg.vocab_size),
        grad_norm=float(grad_norm))


# run state <-> checkpoint record ---------------------------------------------

def checkpoint_tensors(params: dict, adam: AdamState) -> dict:
    """Parameters plus Adam's ``opt.m.*``/``opt.v.*`` moments."""
    return {**{name: p.data for name, p in params.items()},
            **{prefix + k: a for prefix, record in zip(MOMENTS, (adam.m, adam.v))
               for k, a in record.items()}}


def save_checkpoint(state: TrainState, path) -> None:
    write_checkpoint(path, state.step, state.encoder_cfg,
                     checkpoint_tensors(state.params, state.adam),
                     {"quantizer": {"seed": state.quantizer_state.seed,
                                    **asdict(state.cfg.quantizer)},
                      "run_config": state.run_config})


def load_checkpoint(path, mode: str, encoder_cfg: enc.EncoderConfig,
                    cfg: PretrainConfig, run_config: dict | None = None) -> TrainState:
    """Build a TrainState from a checkpoint under one of the ``LOAD_MODES``.

    ``full`` reads the run's parameters, their moments and the step;
    ``feature_extractor_only`` reads the ``extractor.*`` parameters and draws
    the rest as ``init_train_state`` does, at step 0; the quantizer is always
    ``cfg``'s. ``full`` continues the checkpoint's model: a header naming
    another encoder config (dropout aside) or head partition
    (``num_codebooks``, ``vocab_size``) is refused in ``want``, by a
    CheckpointError naming the keys that differ, before any tensor is read
    or the quantizer drawn; a new quantizer seed, ``dim`` or dropout continues."""
    if mode not in LOAD_MODES:
        raise ValueError(f"unknown load mode: {mode!r} (expected one of {LOAD_MODES})")
    full = mode == "full"
    shapes = {**enc.param_shapes(encoder_cfg), **_head_shapes(encoder_cfg, cfg.quantizer)}

    def want(header):
        if not full:
            return {name: shape for name, shape in shapes.items() if name.startswith("extractor.")}
        saved = header["encoder_config"].to_dict()
        ours = {**encoder_cfg.to_dict(), **asdict(cfg.quantizer)}
        if isinstance(header.get("quantizer"), dict):
            saved.update((key, value) for key, value in header["quantizer"].items()
                         if key in ("num_codebooks", "vocab_size"))
        if differ := [f"{key} {saved[key]!r} (run: {ours[key]!r})" for key in saved
                      if key != "dropout" and saved[key] != ours[key]]:
            raise CheckpointError(f"checkpoint {path} holds another model: {', '.join(differ)}")
        return {**shapes, **moment_shapes(shapes)}
    header, tensors = read_checkpoint(path, want)
    state = init_train_state(encoder_cfg, cfg, run_config, tensors)
    state.step = header["step"] if full else 0
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
