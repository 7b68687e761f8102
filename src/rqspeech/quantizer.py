"""Frozen random-projection quantizer: the label source for pretraining.

Pipeline per utterance: stack 4 consecutive Mel frames into 320-channel label
frames (4x downsampling), normalize each channel over the utterance, project
through a frozen random matrix per codebook, and take the nearest codeword by
squared Euclidean distance. Everything here is deterministic in (seed, config)
and immutable after construction; masking never touches the targets, so labels
may be computed once per utterance and cached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import keyed_rng

STACK_WINDOW = 4
NORM_EPS = 1e-8
# label frames per nearest-codeword block: the (rows, V) float64 screen of one
# block stays at 4 MB for V = 2048, whatever the utterance length
LABEL_BLOCK_ROWS = 256
# the label cache stores each label as a little-endian u16
LABEL_CACHE_MAX_VOCAB = 65536


@dataclass(frozen=True)
class QuantizerConfig:
    num_codebooks: int = 32
    vocab_size: int = 2048
    dim: int = 16
    input_dim: int = STACK_WINDOW * 80

    def __post_init__(self):
        for name in ("num_codebooks", "vocab_size", "dim", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class QuantizerState:
    """Frozen parameters: projections (N, input_dim, dim), codebooks (N, V, dim)."""

    projections: np.ndarray
    codebooks: np.ndarray
    seed: int
    config: QuantizerConfig

    def __post_init__(self):
        if not (np.all(np.isfinite(self.projections)) and np.all(np.isfinite(self.codebooks))):
            raise ValueError("quantizer parameters must be finite")

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.projections.tobytes())
        h.update(self.codebooks.tobytes())
        return h.hexdigest()


def stack_downsample(mel: np.ndarray) -> np.ndarray:
    """Stack non-overlapping groups of 4 frames along channels: (T, 80) -> (L, 320).

    The trailing T mod 4 frames are dropped; channel order within a stacked
    frame is frame0's 80 bins, then frame1's, frame2's, frame3's.
    """
    t, bins = mel.shape
    if t < STACK_WINDOW:
        raise ValueError(f"utterance too short for one label frame: {t} < {STACK_WINDOW}")
    label_frames = t // STACK_WINDOW
    return mel[: label_frames * STACK_WINDOW].reshape(label_frames, STACK_WINDOW * bins)


def normalize(stacked: np.ndarray) -> np.ndarray:
    """Per-channel mean/variance normalization over the utterance's label frames.

    Population variance with epsilon 1e-8 in the denominator; a "segment" is
    one utterance, so results never depend on batch composition.
    """
    mean = stacked.mean(axis=0)
    var = stacked.var(axis=0)
    return (stacked - mean) / np.sqrt(var + NORM_EPS)


def init_quantizer(seed: int, config: QuantizerConfig = QuantizerConfig()) -> QuantizerState:
    """Draw and freeze projections and codebooks from seed-derived streams.

    Projection entries are uniform on +-sqrt(6 / (input_dim + dim)); codewords
    are i.i.d. standard normal. Each codebook and each projection consumes its
    own stream, so changing N does not reshuffle the others.
    """
    n, v, d, in_dim = (config.num_codebooks, config.vocab_size,
                       config.dim, config.input_dim)
    bound = np.sqrt(6.0 / (in_dim + d))
    projections = np.empty((n, in_dim, d), dtype=np.float64)
    codebooks = np.empty((n, v, d), dtype=np.float64)
    for j in range(n):
        projections[j] = keyed_rng(seed, "projection", j).uniform(-bound, bound, (in_dim, d))
        codebooks[j] = keyed_rng(seed, "codebook", j).standard_normal((v, d))
    projections.setflags(write=False)
    codebooks.setflags(write=False)
    return QuantizerState(projections=projections, codebooks=codebooks,
                          seed=seed, config=config)


def assign_labels(qs: QuantizerState, normalized: np.ndarray) -> np.ndarray:
    """Nearest-codeword labels, shape (L, N) int32.

    labels[l, j] = argmin_i ||p - c_ij||^2 with p = x_l @ A_j, ties broken by
    the smallest index, where the distance is the float64 sum of squares of the
    difference p - c_ij: the result equals an exhaustive scan of those
    distances label for label.

    Per codebook and per block of ``LABEL_BLOCK_ROWS`` label frames, one BLAS
    matmul screens the codewords by ||c||^2 - 2 p.c, which is ||p - c||^2 less
    the row's ||p||^2. Every codeword within ``_screen_margin`` of the row's
    best score stays a candidate; when a row has more than one, the candidates
    are re-scored by the exact difference form. Memory is bounded by the block,
    not by L x V.

    Raises ValueError, naming the first such frame, when a frame is not finite.
    """
    if normalized.ndim != 2 or normalized.shape[1] != qs.config.input_dim:
        raise ValueError(
            f"feature dimension {normalized.shape} does not match "
            f"projection input dim {qs.config.input_dim}")
    x = normalized.astype(np.float64, copy=False)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"label frame {int(np.argmin(finite))} is not finite")
    n = qs.config.num_codebooks
    labels = np.empty((x.shape[0], n), dtype=np.int32)
    for j in range(n):
        codebook = qs.codebooks[j]
        # rows [c, ||c||^2], so that [-2p, 1] @ screen.T = ||c||^2 - 2 p.c
        screen = np.hstack([codebook, np.einsum("vd,vd->v", codebook, codebook)[:, None]])
        projected = x @ qs.projections[j]                  # (L, dim)
        for start in range(0, x.shape[0], LABEL_BLOCK_ROWS):
            labels[start:start + LABEL_BLOCK_ROWS, j] = _nearest(
                projected[start:start + LABEL_BLOCK_ROWS], codebook, screen)
    return labels


def _screen_margin(proj_sq: np.ndarray, code_sq_max: float, dim: int) -> np.ndarray:
    """Per-row score gap beyond which a codeword cannot be the nearest.

    With S = ||p||^2 + max ||c||^2, each float64 screen score and each exact
    distance is within 2 (dim + 2) eps S of its true value (a dot product of
    dim + 1 terms bounded by 2S, and a sum of dim rounded squares). A codeword
    whose exact distance ties or beats the screen's best is therefore within
    four such errors of the best score; the factor 2 on top is slack.
    """
    return 16 * (dim + 2) * np.finfo(np.float64).eps * (proj_sq + code_sq_max)


def _nearest(projected: np.ndarray, codebook: np.ndarray,
             screen: np.ndarray) -> np.ndarray:
    """Exact nearest-codeword index for each row of ``projected`` (rows, dim)."""
    rows = projected.shape[0]
    score = np.hstack([-2.0 * projected, np.ones((rows, 1))]) @ screen.T   # (rows, V)
    best = score.argmin(axis=1)
    limit = score[np.arange(rows), best] + _screen_margin(
        np.einsum("ld,ld->l", projected, projected), screen[:, -1].max(), codebook.shape[1])
    near = score <= limit[:, None]
    if np.count_nonzero(near) == rows:  # one candidate per row: the screen's best
        return best
    r, c = np.nonzero(near)
    diff = projected[r] - codebook[c]
    dist = np.einsum("kd,kd->k", diff, diff)
    # per row: smallest distance, then smallest index
    order = np.lexsort((c, dist, r))
    _, first = np.unique(r[order], return_index=True)
    return c[order[first]]


def labels_for_mel(qs: QuantizerState, mel: np.ndarray) -> np.ndarray:
    """Full target pipeline for one utterance: stack, normalize, assign.

    Raises ValueError, naming the first such Mel frame, when a frame is not
    finite; checked before normalization spreads it over its channels.
    """
    finite = np.isfinite(mel).all(axis=1)
    if not finite.all():
        raise ValueError(f"Mel frame {int(np.argmin(finite))} is not finite")
    return assign_labels(qs, normalize(stack_downsample(mel)))


def write_label_cache(path, labels: np.ndarray, vocab_size: int) -> None:
    """Cache file: ASCII header "MSEQ1 L N V", then L*N little-endian u16."""
    if vocab_size > LABEL_CACHE_MAX_VOCAB:
        raise ValueError(f"label cache format requires vocab_size <= {LABEL_CACHE_MAX_VOCAB}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= vocab_size:
        raise ValueError("labels out of range for vocab_size")
    l, n = labels.shape
    with open(path, "wb") as f:
        f.write(f"MSEQ1 {l} {n} {vocab_size}\n".encode("ascii"))
        f.write(labels.astype("<u2").tobytes())


def read_label_cache(path) -> np.ndarray:
    """Read a label cache file back to an (L, N) int32 array."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").split()
        if len(header) != 4 or header[0] != "MSEQ1":
            raise ValueError(f"not a label cache file: {path}")
        l, n, v = (int(tok) for tok in header[1:])
        payload = f.read()
    expected = l * n * 2
    if len(payload) != expected:
        raise ValueError(f"label cache truncated: {path}")
    labels = np.frombuffer(payload, dtype="<u2").reshape(l, n).astype(np.int32)
    if labels.size and labels.max() >= v:
        raise ValueError(f"label cache contains out-of-range labels: {path}")
    return labels
