"""Span masking over input Mel frames with Gaussian noise substitution.

Each 10 ms input frame independently starts a mask with probability
``prob``; a start at t masks frames [t, t + span), truncated at the utterance
end. Overlaps union. A 40 ms label frame is a loss target when any of its 4
underlying input frames is masked. Targets are never recomputed: masking only
selects which label positions contribute to the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import STACK_WINDOW


@dataclass(frozen=True)
class MaskConfig:
    prob: float = 0.4
    span_frames: int = 40  # 0.4 s at the 10 ms hop
    noise_mean: float = 0.0
    noise_std: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if self.prob == 0.0:
            raise ValueError("prob must be > 0: with no masked frame there is nothing to learn")
        if self.span_frames < 1:
            raise ValueError("span_frames must be >= 1")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be positive")


@dataclass(frozen=True)
class MaskPlan:
    input_mask: np.ndarray   # (T,) bool, True = masked input frame
    target_mask: np.ndarray  # (L,) bool, True = loss position


def _targets_from_input_mask(input_mask: np.ndarray) -> np.ndarray:
    label_frames = len(input_mask) // STACK_WINDOW
    return input_mask[: label_frames * STACK_WINDOW].reshape(label_frames, STACK_WINDOW).any(axis=1)


def sample_mask(num_frames: int, cfg: MaskConfig, rng: np.random.Generator) -> MaskPlan:
    """Draw mask starts per frame and union the resulting spans.

    A frame is masked when the most recent start lies within span_frames of
    it, which is the union of [t, t + span) over all starts t.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    starts = rng.random(num_frames) < cfg.prob
    t = np.arange(num_frames)
    last_start = np.maximum.accumulate(np.where(starts, t, -cfg.span_frames))
    masked = last_start > t - cfg.span_frames
    return MaskPlan(input_mask=masked, target_mask=_targets_from_input_mask(masked))


def apply_mask(mel: np.ndarray, plan: MaskPlan, cfg: MaskConfig,
               rng: np.random.Generator) -> np.ndarray:
    """Replace masked frames with i.i.d. Normal(mean, std^2) noise.

    Unmasked frames are returned byte-identical; the input is not modified.
    """
    if len(plan.input_mask) != mel.shape[0]:
        raise ValueError(f"mask length {len(plan.input_mask)} != frame count {mel.shape[0]}")
    out = mel.copy()
    idx = np.flatnonzero(plan.input_mask)
    noise = rng.normal(cfg.noise_mean, cfg.noise_std, size=(idx.size, mel.shape[1]))
    out[idx] = noise.astype(mel.dtype)
    return out


def coverage_estimate(cfg: MaskConfig, num_frames: int, trials: int,
                      rng: np.random.Generator) -> float:
    """Monte Carlo mean masked fraction; diagnostic for mask-probability sweeps."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = 0.0
    for _ in range(trials):
        total += sample_mask(num_frames, cfg, rng).input_mask.mean()
    return total / trials
