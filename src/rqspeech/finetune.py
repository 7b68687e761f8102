"""CTC finetuning of a pretrained encoder, plus decoding and scoring.

A character tokenizer (id 0 reserved for the CTC blank) and a single linear
head over the encoder's final state turn the model into a speech recognizer.
Finetuning keeps the encoder frozen for the first ``freeze_steps`` steps, then
trains jointly with distinct encoder/decoder learning-rate schedules, under
pretrain's Adam and clipping constants, one record of moments and one
gradient dict: the head's update count is the step, the encoder's the step
less ``freeze_steps``. A run reads the encoder and draws the CTC head, whose
shapes are this module's; a load draws nothing (``pretrain.build_tensors``).
SpecAugment runs on training features only.

The CTC loss is the exact forward recursion in log space, one autodiff node
(``ad.ctc_nll``) for a whole padded batch, whose backward runs the beta
recursion in numpy; ``batch_ctc_loss`` checks every target and builds the
padded lattice for it, and ``ctc_loss`` is its batch of one. Decoding
offers per-frame greedy collapse and a prefix beam search that merges
equivalent prefixes by log-sum-exp. The greedy collapse is one mask over the
argmax path, and the beam search scores each frame as one (beams ×
vocabulary) numpy grid. A beam is its prefix's trie node and two scores, so a
frame costs the same however long the prefixes are: one integer lookup per
beam finds the extensions that equal a kept prefix, a scalar log-sum-exp on
Python floats folds them in, and one stable argsort picks the survivors.
No language model.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import datapipe
from . import encoder as enc
from . import frontend
from . import pretrain
from . import records
from .autodiff import Tensor
from .seeding import keyed_rng

BLANK_ID = 0
NEG_INF = -np.inf
_LN2 = math.log(2.0)


class InfeasibleTargetError(ValueError):
    """Target cannot be aligned: too few frames for the collapsed sequence."""


class CharTokenizer:
    """Bijective character table; id 0 is the CTC blank and is never emitted
    by encoding text."""

    def __init__(self, alphabet: str):
        symbols = sorted(set(alphabet))
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = "".join(symbols)
        self._to_id = {ch: i + 1 for i, ch in enumerate(symbols)}
        self._to_char = {i + 1: ch for i, ch in enumerate(symbols)}

    @classmethod
    def from_texts(cls, texts) -> "CharTokenizer":
        chars = set()
        for text in texts:
            chars.update(text)
        chars.add(" ")
        return cls("".join(chars))

    @property
    def vocab_size(self) -> int:
        return len(self.alphabet) + 1  # + blank

    def encode(self, text: str) -> np.ndarray:
        try:
            return np.array([self._to_id[ch] for ch in text], dtype=np.int64)
        except KeyError as err:
            raise ValueError(f"character not in alphabet: {err.args[0]!r}") from None

    def decode(self, ids) -> str:
        return "".join(self._to_char[int(i)] for i in ids)


@dataclass(frozen=True)
class SpecAugmentConfig:
    time_masks: int = 2
    max_time_width: int = 80
    time_apply_prob: float = 0.2
    freq_masks: int = 2
    max_freq_width: int = 27

    def __post_init__(self):
        if min(self.time_masks, self.max_time_width,
               self.freq_masks, self.max_freq_width) < 0:
            raise ValueError("mask counts and widths must be >= 0")
        if not 0.0 <= self.time_apply_prob <= 1.0:
            raise ValueError("time_apply_prob must be in [0, 1]")
        # one loop of draws per mask: past any input's frames or bins, more only cost time
        max_frames = datapipe.frames_for_duration(datapipe.MAX_DURATION_S)
        if self.time_masks > max_frames:
            raise ValueError(f"time_masks must be <= {max_frames}, the frames of "
                             f"a {datapipe.MAX_DURATION_S:g} s utterance")
        if self.freq_masks > frontend.NUM_MEL_BINS:
            raise ValueError(f"freq_masks must be <= {frontend.NUM_MEL_BINS}, "
                             f"the Mel bins of a frame")


@dataclass(frozen=True)
class FinetuneConfig:
    encoder_lr: float = 2e-4
    decoder_lr: float = 2e-3
    warmup_steps: int = 1000
    freeze_steps: int = 1500
    seed: int = 0
    spec_augment: SpecAugmentConfig = field(default_factory=SpecAugmentConfig)

    def __post_init__(self):
        if self.encoder_lr <= 0 or self.decoder_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.freeze_steps < 0:
            raise ValueError("freeze_steps must be >= 0")


def spec_augment(mel: np.ndarray, cfg: SpecAugmentConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Zero random frequency bands always; zero time spans behind a
    per-utterance coin with probability ``time_apply_prob``."""
    out = mel.copy()
    if rng.random() < cfg.time_apply_prob:
        _zero_bands(out, cfg.time_masks, cfg.max_time_width, rng)
    _zero_bands(out.T, cfg.freq_masks, cfg.max_freq_width, rng)
    return out


def _zero_bands(rows: np.ndarray, count: int, max_width: int, rng) -> None:
    """Zero ``count`` bands of ``rows``, each a width in [0, max_width], cut
    to the row count, then a start drawn so that the band fits."""
    for _ in range(count):
        width = min(int(rng.integers(0, max_width + 1)), len(rows))
        start = int(rng.integers(0, len(rows) - width + 1))
        rows[start: start + width] = 0.0


# CTC --------------------------------------------------------------------------

def ctc_loss(logprobs, targets):
    """Negative log-probability of all alignments of ``targets`` in ``logprobs``.

    ``logprobs`` is (T, V) of valid log-distributions (rows sum to one in
    probability space); returns a Tensor in nats. Raises
    InfeasibleTargetError when T cannot fit the collapsed target.
    """
    lp = ad.as_tensor(logprobs)
    t_frames, _ = lp.shape
    return batch_ctc_loss(lp, [t_frames], [targets])


def batch_ctc_loss(logprobs, frames, targets, names=None):
    """Mean CTC loss of a padded (B, T, V) batch as one ``ad.ctc_nll`` node;
    utterance i has ``frames[i]`` frames and ``targets[i]``. Every error
    about utterance i starts ``utterance <names[i]>: `` when ``names`` is
    given; an infeasible target raises InfeasibleTargetError."""
    lp = ad.as_tensor(logprobs)

    def where(i):
        return "" if names is None else f"utterance {names[i]}: "

    targets = [np.asarray(t, dtype=np.int64) for t in targets]
    ext = np.full((len(targets), 2 * max(map(len, targets)) + 1), -1, dtype=np.int64)
    for i, (target, t_frames) in enumerate(zip(targets, frames)):
        if target.size == 0:
            raise ValueError(where(i) + "target must be nonempty")
        if np.any(target == BLANK_ID) or np.any(target < 0):
            raise ValueError(where(i) + "targets must be positive non-blank token ids")
        if np.any(target >= lp.shape[-1]):
            raise ValueError(where(i) + "target id outside vocabulary")
        min_frames = len(target) + int(np.sum(target[1:] == target[:-1]))
        if t_frames < min_frames:
            raise InfeasibleTargetError(
                where(i) + f"{int(t_frames)} frames cannot align a target needing {min_frames}")
        ext[i, : 2 * len(target) + 1] = BLANK_ID
        ext[i, 1: 2 * len(target): 2] = target
    allow_skip = np.zeros(ext.shape, dtype=bool)
    allow_skip[:, 2:] = (ext[:, 2:] > BLANK_ID) & (ext[:, 2:] != ext[:, :-2])

    loss, nll = ad.ctc_nll(lp, frames, ext, allow_skip)
    infeasible = np.flatnonzero(np.isposinf(nll))
    if infeasible.size:
        raise InfeasibleTargetError(
            where(infeasible[0]) + "no feasible alignment (zero total probability)")
    return loss


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    log_prob: float


def _decoder_input(logprobs) -> np.ndarray:
    """The (frames, vocab) array; NaN or +inf, which no log-probability can
    be, raises FloatingPointError."""
    lp = logprobs.data if isinstance(logprobs, Tensor) else np.asarray(logprobs)
    if lp.ndim != 2:
        raise ValueError(f"logprobs must be 2-D (frames, vocab), got shape {lp.shape}")
    if not np.all(lp < np.inf):
        raise FloatingPointError("log-probs hold NaN or +inf")
    return lp


def greedy_decode(logprobs) -> Hypothesis:
    """Per-frame argmax, collapse repeats, drop blanks; best-path score."""
    lp = _decoder_input(logprobs)
    path = np.argmax(lp, axis=1)
    score = float(lp[np.arange(len(path)), path].sum())
    keep = path != BLANK_ID
    keep[1:] &= path[1:] != path[:-1]
    return Hypothesis(tokens=tuple(path[keep].tolist()), log_prob=score)


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` of two Python floats by numpy's own formula, so the
    bits are numpy's: equal arguments (same-signed infinities too) add ln 2,
    otherwise the larger adds log1p(exp(-|x - y|)), and NaN stays NaN."""
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d


def beam_decode(logprobs, beam_width: int) -> Hypothesis:
    """CTC prefix beam search merging equivalent prefixes by log-sum-exp.

    Each frame scores a (beams, vocab) float64 grid: column 0 is the prefix
    itself, column c >= 1 is the prefix extended by symbol c. An extension
    that equals another kept prefix is folded into that prefix's column 0.
    The ``beam_width`` best candidates survive, ties going to the earlier
    candidate in prefix-then-symbol order; a folded prefix counts as found
    at the earlier of its own slot and its extension's.

    Only the grid and the selection are numpy; the few scores per beam are
    Python floats, whose adds and ``_logaddexp`` give numpy's bits.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = np.asarray(_decoder_input(logprobs), dtype=np.float64)
    vocab = lp.shape[1]
    # each prefix is one node of a trie: node 0 is the empty prefix, node n
    # extends node parent[n] by symbol[n], and child[(n, c)] finds it again
    parent, symbol, child = [-1], [BLANK_ID], {}
    # the prefix node of each beam, whose symbol is the prefix's last; the
    # empty prefix's is blank, its pnb stays -inf and its column 0 is overwritten
    nodes = [0]
    pb = [0.0]                     # log P(prefix, path ends in blank)
    pnb = [NEG_INF]                # log P(prefix, path ends in its last symbol)
    total_l = [_logaddexp(pb[0], pnb[0])]
    total = np.array(total_l)
    kth = vocab - beam_width       # where row 0's beam_width-th largest partitions
    for frame in lp:
        # column c >= 1 appends c; repeating the last symbol needs a blank in
        # between, so only the paths that end in blank extend by it
        grid = total[:, None] + frame
        flat = grid.ravel()
        fr = frame.tolist()
        blank_score = fr[BLANK_ID]
        blank, stay = [], []
        for j, n in enumerate(nodes):
            c = symbol[n]
            repeat = fr[c]
            if c:
                flat[j * vocab + c] = pb[j] + repeat
            blank.append(total_l[j] + blank_score)
            stay.append(pnb[j] + repeat)  # the repeat collapses

        # beam j merges with the extension of its parent's beam i by its last
        # symbol: one lookup per beam finds i, and the extension's score is
        # the one its grid slot holds
        beam_of = {n: i for i, n in enumerate(nodes)}
        moved = {}                 # extension slot -> beam whose sum sorts there
        for j, n in enumerate(nodes):
            i = beam_of.get(parent[n])
            if i is None:
                flat[j * vocab] = _logaddexp(blank[j], stay[j])
                continue
            c = symbol[n]
            merged = (pb[i] if c == symbol[nodes[i]] else total_l[i]) + fr[c]
            if merged != NEG_INF:
                stay[j] = _logaddexp(stay[j], merged)
            # the sum takes the earlier of its two slots, the other gets NaN
            own, ext = j * vocab, i * vocab + c
            flat[own] = _logaddexp(blank[j], stay[j])
            if ext < own:
                moved[ext] = j
                flat[ext], flat[own] = flat[own], np.nan
            else:
                flat[ext] = np.nan

        # row 0 has no NaN slot, so at least beam_width candidates reach its
        # beam_width-th largest value and only those can survive; NaN never
        # does, and the stable sort keeps ties in slot order
        floor = np.partition(flat[:vocab], kth)[kth] if kth >= 0 else NEG_INF
        reach = (flat >= floor).nonzero()[0]
        order = reach[(-flat[reach]).argsort(kind="stable")[:beam_width]]
        total = flat[order]
        total_l = total.tolist()

        next_nodes, pb_l, pnb_l = [], [], []
        for slot, score in zip(order.tolist(), total_l):
            i = moved.get(slot)
            i, c = divmod(slot, vocab) if i is None else (i, BLANK_ID)
            n = nodes[i]
            if c:
                key = (n, c)
                n = child.get(key)
                if n is None:
                    n = child[key] = len(parent)
                    parent.append(key[0])
                    symbol.append(c)
                pb_l.append(NEG_INF)
                pnb_l.append(score)
            else:
                pb_l.append(blank[i])
                pnb_l.append(stay[i])
            next_nodes.append(n)
        nodes, pb, pnb = next_nodes, pb_l, pnb_l

    # survivors are sorted best first
    tokens = []
    n = nodes[0]
    while n:
        tokens.append(symbol[n])
        n = parent[n]
    return Hypothesis(tokens=tuple(reversed(tokens)), log_prob=total_l[0])


# scoring -----------------------------------------------------------------------

def edit_distance(ref, hyp) -> int:
    """Levenshtein distance over arbitrary token sequences."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def _units(text: str, unit: str):
    if unit == "word":
        return text.split()
    if unit == "char":
        return list(text)
    raise ValueError(f"unit must be 'word' or 'char', got {unit!r}")


def score(refs, hyps, unit: str = "word"):
    """(aggregate error rate percent, per-pair list of (edits, ref_len))."""
    if len(refs) != len(hyps):
        raise ValueError("refs and hyps must have equal length")
    pairs = []
    edits = 0
    total = 0
    for ref, hyp in zip(refs, hyps):
        r = _units(ref, unit)
        h = _units(hyp, unit)
        d = edit_distance(r, h)
        pairs.append((d, len(r)))
        edits += d
        total += len(r)
    if total == 0:
        raise ValueError("total reference length is zero")
    return 100.0 * edits / total, pairs


# finetune loop -------------------------------------------------------------------

@dataclass
class FinetuneState:
    """Encoder + CTC head with one record of Adam moments."""
    encoder_cfg: enc.EncoderConfig
    cfg: FinetuneConfig
    tokenizer: CharTokenizer
    params: dict                  # encoder tensors + "ctc_head.*"
    adam: pretrain.AdamState
    step: int = 0

    def _group(self, head: bool) -> dict:
        return {k: p for k, p in self.params.items() if k.startswith("ctc_head.") == head}

    def encoder_params(self) -> dict:
        return self._group(head=False)

    def head_params(self) -> dict:
        return self._group(head=True)


# finetune_metrics.csv columns, as in pretrain.METRICS_FIELDS
METRICS_FIELDS = (("step", "{m[step]}"), ("loss", "{m[loss]:.6f}"),
                  ("lr_encoder", "{m[lr_encoder]:.8f}"), ("lr_head", "{m[lr_head]:.8f}"),
                  ("frozen", "{m[frozen]:d}"), ("grad_norm", "{m[grad_norm]:.6f}"))


def _finetune_state(header: dict, tensors: dict, path, cfg: FinetuneConfig,
                    tokenizer: CharTokenizer, reads, moments: bool = False) -> FinetuneState:
    """A step-0 state: the encoder ``header`` names and a CTC head for ``tokenizer``."""
    encoder_cfg = header["encoder_config"]
    vocab = tokenizer.vocab_size
    shapes = {**enc.param_shapes(encoder_cfg),
              "ctc_head.weight": (encoder_cfg.hidden, vocab), "ctc_head.bias": (vocab,)}
    params, adam = pretrain.build_tensors(shapes, cfg.seed, (tensors, path), reads, moments)
    return FinetuneState(encoder_cfg=encoder_cfg, cfg=cfg, tokenizer=tokenizer,
                         params=params, adam=adam)


def init_finetune_state(checkpoint_path, cfg: FinetuneConfig,
                        tokenizer: CharTokenizer) -> FinetuneState:
    """Every encoder tensor from a pretraining or finetune checkpoint; the CTC
    head is drawn and the moments are zeros, so the file's ``head.*``,
    ``ctc_head.*`` and ``opt.*`` tensors are not read."""
    def encoder_tensor(name):
        return not name.startswith(("head.", "ctc_head.", "opt."))
    header, tensors = records.read_checkpoint(checkpoint_path, keep=encoder_tensor)
    return _finetune_state(header, tensors, checkpoint_path, cfg, tokenizer, encoder_tensor)


def _ctc_logprobs(state: FinetuneState, feats: np.ndarray, lengths: np.ndarray,
                  train: bool, rng=None, frozen: bool = False):
    with ad.no_grad() if frozen else contextlib.nullcontext():
        out = enc.encode(state.params, state.encoder_cfg, feats, lengths,
                         train=train, rng=rng)
    logits = ad.linear(out.final, state.params["ctc_head.weight"],
                       state.params["ctc_head.bias"])
    return ad.log_softmax(logits, axis=-1), out.lengths


def finetune_step(state: FinetuneState, batch, transcripts: dict,
                  epoch: int) -> dict:
    """One CTC step; while step <= freeze_steps, the encoder runs without
    gradients, and only the head is clipped and updated."""
    cfg = state.cfg
    feats = batch.features.copy()
    targets = []
    for i, utt_id in enumerate(batch.utt_ids):
        t = int(batch.lengths[i])
        rng = keyed_rng(cfg.seed, "specaug", epoch, utt_id)
        feats[i, :t] = spec_augment(batch.features[i, :t], cfg.spec_augment, rng)
        targets.append(state.tokenizer.encode(transcripts[utt_id]))

    frozen = state.step < cfg.freeze_steps
    logprobs, out_lengths = _ctc_logprobs(
        state, feats, batch.lengths, train=True,
        rng=keyed_rng(cfg.seed, "dropout", epoch, state.step), frozen=frozen)
    loss = batch_ctc_loss(logprobs, out_lengths, targets, batch.utt_ids)

    trained = state.head_params() if frozen else state.params
    loss_val, grads, grad_norm = pretrain.clipped_gradients(loss, trained, state.step + 1)
    state.step += 1
    lr_head = pretrain.lr_schedule(state.step, cfg.decoder_lr, cfg.warmup_steps)
    pretrain.adam_step(state.head_params(), grads, state.adam, lr_head, state.step)
    if not frozen:  # the encoder's first update comes after the freeze
        lr_enc = pretrain.lr_schedule(state.step, cfg.encoder_lr, cfg.warmup_steps)
        pretrain.adam_step(state.encoder_params(), grads, state.adam, lr_enc,
                           state.step - cfg.freeze_steps)

    return {"step": state.step, "loss": loss_val, "frozen": frozen,
            "lr_head": lr_head,
            "lr_encoder": 0.0 if frozen else lr_enc, "grad_norm": float(grad_norm)}


def transcribe(state: FinetuneState, feats: np.ndarray, lengths: np.ndarray,
               beam_width: int = 0) -> list:
    """Decode a padded batch to text; beam_width 0 means greedy."""
    with ad.no_grad():
        logprobs, out_lengths = _ctc_logprobs(state, feats, lengths, train=False)
    texts = []
    for i in range(feats.shape[0]):
        lp = logprobs.data[i, : int(out_lengths[i])]
        hyp = greedy_decode(lp) if beam_width < 1 else beam_decode(lp, beam_width)
        texts.append(state.tokenizer.decode(hyp.tokens))
    return texts


# finetune checkpoints --------------------------------------------------------

def save_finetune_checkpoint(state: FinetuneState, path) -> None:
    records.write_checkpoint(
        path, state.step, state.encoder_cfg,
        pretrain.checkpoint_tensors(state.params, state.adam),
        {"run_config": {"kind": "finetune",
                        "alphabet": state.tokenizer.alphabet,
                        "finetune_config": asdict(state.cfg)}})


def _finetune_config(raw: dict) -> FinetuneConfig:
    # older records also carry the settings that are now pretrain's constants,
    # and name the mask counts num_time_masks and num_freq_masks; unpacking
    # makes a spec_augment that is not a mapping a TypeError
    renamed = {"num_time_masks": "time_masks", "num_freq_masks": "freq_masks"}
    spec = {renamed.get(key, key): value for key, value in {**raw["spec_augment"]}.items()}
    kept = {**raw, "spec_augment": SpecAugmentConfig(**spec)}
    for key in ("adam_beta1", "adam_beta2", "adam_eps", "grad_clip"):
        kept.pop(key, None)
    return FinetuneConfig(**kept)


def load_finetune_checkpoint(path, optimizer: bool = True) -> FinetuneState:
    """The state saved at ``path``, drawing nothing. With ``optimizer`` False
    the file's ``opt.*`` moments are not read and Adam starts from zeros,
    which is all that decoding needs."""
    keep = None if optimizer else (lambda name: not name.startswith("opt."))
    header, tensors = records.read_checkpoint(path, keep=keep)
    run = header.get("run_config")
    if not isinstance(run, dict) or run.get("kind") != "finetune":
        raise records.CheckpointError(f"not a finetune checkpoint: {path}")
    tokenizer = records.header_value(run, "alphabet", path, CharTokenizer)
    cfg = records.header_value(run, "finetune_config", path, _finetune_config)
    state = _finetune_state(header, tensors, path, cfg, tokenizer,
                            reads=lambda name: True, moments=optimizer)
    state.step = header["step"]
    return state


def read_transcripts(path, need_text=()) -> dict:
    """Transcript manifest: one "id<TAB>text" per line, read by ``id_lines``.

    Every id in ``need_text`` (the training utterances) needs a line with a
    nonempty text; any other text may be empty, as a hypothesis with no symbol is.
    """
    out = {}
    for lineno, utt_id, text in datapipe.id_lines(path, "id<TAB>text"):
        if not text and utt_id in need_text:
            raise ValueError(f"{path}:{lineno}: utterance {utt_id!r} has an empty "
                             f"transcript")
        out[utt_id] = text
    if missing := sorted(set(need_text) - out.keys()):
        raise ValueError(f"{path}: transcripts missing for: {', '.join(missing[:5])}")
    return out
