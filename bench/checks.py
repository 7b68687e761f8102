"""Independent float64 references the benchmark checks the program against.

Each reference is written from the definitions in the program's docstrings,
not by calling the function it checks.
"""

from __future__ import annotations

import math

import numpy as np

# A program label that differs from the reference argmin still passes when its
# distance is within this relative gap of the minimum: the program projects
# whole matrices with BLAS, the reference one frame at a time, so the two
# float64 sums round differently and can swap codewords that tie to ~1e-15.
NEAR_TIE_RTOL = 1e-9


def nearest_codewords(projections: np.ndarray, codebooks: np.ndarray,
                      frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive float64 scan for one normalized frame.

    Returns, per codebook, the smallest index among the nearest codewords and
    the full squared-distance row so near-ties can be judged.
    """
    n = codebooks.shape[0]
    best = np.empty(n, dtype=np.int64)
    dists = []
    for j in range(n):
        proj = frame.astype(np.float64) @ projections[j].astype(np.float64)
        d = np.sum((codebooks[j].astype(np.float64) - proj) ** 2, axis=1)
        best[j] = int(np.flatnonzero(d == d.min())[0])
        dists.append(d)
    return best, np.stack(dists)


def label_mismatches(projections, codebooks, normalized, labels, frames) -> int:
    """Count (frame, codebook) labels that are not a nearest codeword."""
    bad = 0
    for l in frames:
        best, dists = nearest_codewords(projections, codebooks, normalized[l])
        for j, got in enumerate(labels[l]):
            if got == best[j]:
                continue
            gap = dists[j, got] - dists[j, best[j]]
            if gap > NEAR_TIE_RTOL * max(dists[j, best[j]], 1e-300):
                bad += 1
    return bad


def masked_multisoftmax_loss(final: np.ndarray, target_masks, labels,
                             weight: np.ndarray, bias: np.ndarray,
                             num_codebooks: int, vocab: int) -> float:
    """Mean NLL over (masked label frame, codebook) pairs, in float64.

    ``final`` is the encoder's (B, L, H) output; each utterance contributes
    its rows where the target mask is set. Softmaxes are evaluated one
    codebook at a time so the (rows, N * V) logits are never held at once.
    """
    rows, targets = [], []
    for i, mask in enumerate(target_masks):
        pos = np.flatnonzero(mask)
        rows.append(final[i, pos])
        targets.append(np.asarray(labels[i])[pos])
    x = np.concatenate(rows).astype(np.float64)
    y = np.concatenate(targets)
    w = weight.astype(np.float64)
    b = bias.astype(np.float64)
    total = 0.0
    for j in range(num_codebooks):
        cols = slice(j * vocab, (j + 1) * vocab)
        logits = x @ w[:, cols] + b[cols]
        top = logits.max(axis=1)
        lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        total += float(np.sum(lse - logits[np.arange(len(y)), y[:, j]]))
    return total / (x.shape[0] * num_codebooks)


def _lse(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def prefix_beam_search(logprobs: np.ndarray, beam: int, blank: int = 0):
    """CTC prefix beam search in float64: (best tokens, their beam log-prob).

    Each kept prefix carries the log-probability of the alignments that end
    in a blank and of those that end in its last symbol. After every frame
    the ``beam`` prefixes with the largest total survive, so the score of the
    result sums only the alignments whose prefixes stayed in the beam.
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    ninf = -math.inf
    beams = {(): (0.0, ninf)}
    for frame in lp:
        step: dict = {}
        for prefix, (p_blank, p_sym) in beams.items():
            total = _lse(p_blank, p_sym)
            b, s = step.get(prefix, (ninf, ninf))
            b = _lse(b, total + frame[blank])
            if prefix:
                s = _lse(s, p_sym + frame[prefix[-1]])
            step[prefix] = (b, s)
            for c in range(len(frame)):
                if c == blank:
                    continue
                ext = prefix + (c,)
                eb, es = step.get(ext, (ninf, ninf))
                src = p_blank if prefix and prefix[-1] == c else total
                step[ext] = (eb, _lse(es, src + frame[c]))
        ranked = sorted(step.items(), key=lambda kv: -_lse(*kv[1]))
        beams = dict(ranked[:beam])
    tokens, (b, s) = max(beams.items(), key=lambda kv: _lse(*kv[1]))
    return tokens, _lse(b, s)


def ctc_log_prob(logprobs: np.ndarray, tokens, blank: int = 0) -> float:
    """log P(tokens | logprobs) summed over all CTC alignments, in float64."""
    lp = np.asarray(logprobs, dtype=np.float64)
    ext = [blank]
    for tok in tokens:
        ext += [int(tok), blank]
    ext = np.array(ext)
    s = len(ext)
    skip = np.zeros(s, dtype=bool)
    skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    alpha = np.full(s, -np.inf)
    alpha[0] = lp[0, ext[0]]
    if s > 1:
        alpha[1] = lp[0, ext[1]]
    for t in range(1, lp.shape[0]):
        prev1 = np.concatenate(([-np.inf], alpha[:-1]))
        prev2 = np.concatenate(([-np.inf, -np.inf], alpha[:-2]))
        prev2[~skip] = -np.inf
        alpha = np.logaddexp(np.logaddexp(alpha, prev1), prev2) + lp[t, ext]
    return float(np.logaddexp(alpha[-1], alpha[-2]) if s > 1 else alpha[-1])
