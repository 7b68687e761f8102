"""CTC finetuning of a pretrained encoder, plus decoding and scoring.

A character tokenizer (id 0 reserved for the CTC blank) and a single linear
head over the encoder's final state turn the model into a speech recognizer.
Finetuning keeps the encoder frozen for the first ``freeze_steps`` steps, then
trains jointly with distinct encoder/decoder learning-rate schedules.
SpecAugment runs on the input features during training only.

The CTC loss is the exact forward recursion in log space, one autodiff node
(``ad.ctc_nll``) whose backward runs the beta recursion in numpy. Decoding
offers per-frame greedy collapse and a prefix beam search that merges
equivalent prefixes by log-sum-exp. Both are vectorised: the greedy collapse
is one mask over the argmax path, and the beam search scores each frame as
one (beams × vocabulary) numpy grid. Its prefixes are integer nodes of a
trie, so a frame costs the same however long the prefixes are: one integer
lookup per beam finds the extensions that equal a kept prefix, one
vectorised log-sum-exp folds them in, and one stable argsort picks the
survivors. No language model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import pretrain
from .autodiff import Tensor
from .seeding import keyed_rng

BLANK_ID = 0
NEG_INF = -np.inf


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
    num_time_masks: int = 2
    max_time_width: int = 80
    time_apply_prob: float = 0.2
    num_freq_masks: int = 2
    max_freq_width: int = 27

    def __post_init__(self):
        if min(self.num_time_masks, self.max_time_width,
               self.num_freq_masks, self.max_freq_width) < 0:
            raise ValueError("mask counts and widths must be >= 0")
        if not 0.0 <= self.time_apply_prob <= 1.0:
            raise ValueError("time_apply_prob must be in [0, 1]")


@dataclass(frozen=True)
class FinetuneConfig:
    encoder_lr: float = 2e-4
    decoder_lr: float = 2e-3
    warmup_steps: int = 1000
    freeze_steps: int = 1500
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    spec_augment: SpecAugmentConfig = field(default_factory=SpecAugmentConfig)

    def __post_init__(self):
        if self.encoder_lr <= 0 or self.decoder_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.freeze_steps < 0:
            raise ValueError("freeze_steps must be >= 0")


def spec_augment(mel: np.ndarray, cfg: SpecAugmentConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Zero random frequency bands always; zero time spans behind a
    per-utterance coin with probability ``time_apply_prob``."""
    out = mel.copy()
    t, bins = out.shape
    apply_time = rng.random() < cfg.time_apply_prob
    if apply_time:
        for _ in range(cfg.num_time_masks):
            width = int(rng.integers(0, cfg.max_time_width + 1))
            width = min(width, t)
            start = int(rng.integers(0, t - width + 1))
            out[start: start + width, :] = 0.0
    for _ in range(cfg.num_freq_masks):
        width = int(rng.integers(0, cfg.max_freq_width + 1))
        width = min(width, bins)
        start = int(rng.integers(0, bins - width + 1))
        out[:, start: start + width] = 0.0
    return out


# CTC --------------------------------------------------------------------------

def _extended_targets(targets: np.ndarray):
    ext = np.full(2 * len(targets) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = targets
    allow_skip = np.zeros(len(ext), dtype=bool)
    allow_skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    return ext, allow_skip


def ctc_loss(logprobs, targets):
    """Negative log-probability of all alignments of ``targets`` in ``logprobs``.

    ``logprobs`` is (T, V) of valid log-distributions (rows sum to one in
    probability space); returns a Tensor in nats. Raises
    InfeasibleTargetError when T cannot fit the collapsed target.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("target must be nonempty")
    if np.any(targets == BLANK_ID) or np.any(targets < 0):
        raise ValueError("targets must be positive non-blank token ids")
    lp = ad.as_tensor(logprobs)
    t_frames, vocab = lp.shape
    if np.any(targets >= vocab):
        raise ValueError("target id outside vocabulary")

    repeats = int(np.sum(targets[1:] == targets[:-1]))
    min_frames = len(targets) + repeats
    if t_frames < min_frames:
        raise InfeasibleTargetError(
            f"{t_frames} frames cannot align a target needing {min_frames}")

    ext, allow_skip = _extended_targets(targets)
    loss = ad.ctc_nll(lp, ext, allow_skip)
    if np.isposinf(loss.data):
        raise InfeasibleTargetError("no feasible alignment (zero total probability)")
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


def beam_decode(logprobs, beam_width: int) -> Hypothesis:
    """CTC prefix beam search merging equivalent prefixes by log-sum-exp.

    Each frame scores a (beams, vocab) float64 grid: column 0 is the prefix
    itself, column c >= 1 is the prefix extended by symbol c. An extension
    that equals another kept prefix is folded into that prefix's column 0.
    The ``beam_width`` best candidates survive, ties going to the earlier
    candidate in prefix-then-symbol order; a folded prefix counts as found
    at the earlier of its own slot and its extension's.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = np.asarray(_decoder_input(logprobs), dtype=np.float64)
    vocab = lp.shape[1]
    # each prefix is one node of a trie: node 0 is the empty prefix, node n
    # extends node parent[n] by symbol[n], and child[(n, c)] finds it again
    parent, symbol, child = [-1], [BLANK_ID], {}
    nodes = [0]                    # the prefix node of each beam
    # last symbol of each prefix; blank for the empty one, whose pnb stays
    # -inf and whose column 0 is overwritten
    last = np.array([BLANK_ID])
    pb = np.array([0.0])           # log P(prefix, path ends in blank)
    pnb = np.array([NEG_INF])      # log P(prefix, path ends in its last symbol)
    total = np.logaddexp(pb, pnb)
    kth = vocab - beam_width       # where row 0's beam_width-th largest partitions
    for frame in lp:
        # column c >= 1 appends c; repeating the last symbol needs a blank in
        # between, so only the paths that end in blank extend by it
        grid = total[:, None] + frame
        repeat = frame[last]
        grid[np.arange(len(nodes)), last] = pb + repeat
        blank = total + frame[BLANK_ID]
        stay = pnb + repeat        # the repeat collapses

        # beam j merges with the extension of its parent's beam i by its last
        # symbol: one lookup per beam finds i
        beam_of = {n: i for i, n in enumerate(nodes)}
        js, ext = [], []
        for j, n in enumerate(nodes):
            i = beam_of.get(parent[n])
            if i is not None:
                js.append(j)
                ext.append(i * vocab + symbol[n])
        flat = grid.ravel()
        if js:
            merged = flat[ext]
            into = stay[js]
            np.logaddexp(into, merged, out=into, where=merged != NEG_INF)
            stay[js] = into
        grid[:, 0] = np.logaddexp(blank, stay)
        # the sum takes the earlier of its two slots, the other gets NaN
        moved = {}                 # extension slot -> beam whose sum sorts there
        for j, e in zip(js, ext):
            own = j * vocab
            if e < own:
                moved[e] = j
                flat[e], flat[own] = flat[own], np.nan
            else:
                flat[e] = np.nan

        # row 0 has no NaN slot, so at least beam_width candidates reach its
        # beam_width-th largest value and only those can survive; NaN never
        # does, and the stable sort keeps ties in slot order
        floor = np.partition(flat[:vocab], kth)[kth] if kth >= 0 else NEG_INF
        reach = (flat >= floor).nonzero()[0]
        order = reach[(-flat[reach]).argsort(kind="stable")[:beam_width]]
        total = flat[order]

        blank_l, stay_l, last_l = blank.tolist(), stay.tolist(), last.tolist()
        next_nodes, pb_l, pnb_l, next_last = [], [], [], []
        for slot, score in zip(order.tolist(), total.tolist()):
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
                next_last.append(c)
            else:
                pb_l.append(blank_l[i])
                pnb_l.append(stay_l[i])
                next_last.append(last_l[i])
            next_nodes.append(n)
        nodes = next_nodes
        pb, pnb, last = np.array(pb_l), np.array(pnb_l), np.array(next_last)

    # survivors are sorted best first
    tokens = []
    n = nodes[0]
    while n:
        tokens.append(symbol[n])
        n = parent[n]
    return Hypothesis(tokens=tuple(reversed(tokens)), log_prob=float(total[0]))


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
    """Encoder + CTC head with one Adam group each; the optimizers start fresh."""
    encoder_cfg: enc.EncoderConfig
    cfg: FinetuneConfig
    tokenizer: CharTokenizer
    params: dict                  # encoder tensors + "ctc_head.*"
    step: int = 0
    adam_encoder: pretrain.AdamState = field(init=False)
    adam_head: pretrain.AdamState = field(init=False)

    def __post_init__(self):
        self.adam_encoder = pretrain.AdamState.init(self.encoder_params())
        self.adam_head = pretrain.AdamState.init(self.head_params())

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


def _new_state(header: dict, tensors: dict, path, cfg: FinetuneConfig,
               tokenizer: CharTokenizer) -> FinetuneState:
    """Every encoder tensor of a read checkpoint, a fresh CTC head, step 0."""
    encoder_cfg = pretrain.header_value(header, "encoder_config",
                                        lambda raw: enc.EncoderConfig(**raw), path)
    arrays = {name: pretrain.restore_tensor(tensors, name, shape)
              for name, shape in enc.param_shapes(encoder_cfg).items()}
    arrays["ctc_head.weight"] = enc.init_param(
        "ctc_head.weight", (encoder_cfg.hidden, tokenizer.vocab_size), cfg.seed)
    arrays["ctc_head.bias"] = np.zeros(tokenizer.vocab_size, dtype=np.float32)
    return FinetuneState(encoder_cfg=encoder_cfg, cfg=cfg, tokenizer=tokenizer,
                         params=enc.params_to_tensors(arrays))


def init_finetune_state(checkpoint_path, cfg: FinetuneConfig,
                        tokenizer: CharTokenizer) -> FinetuneState:
    """Load every encoder tensor from a pretraining checkpoint (full restore);
    the CTC head and both optimizers start fresh."""
    header, tensors = pretrain.read_checkpoint(checkpoint_path)
    return _new_state(header, tensors, checkpoint_path, cfg, tokenizer)


def _ctc_logprobs(state: FinetuneState, feats: np.ndarray, lengths: np.ndarray,
                  train: bool, rng=None):
    out = enc.encode(state.params, state.encoder_cfg, feats, lengths,
                     train=train, rng=rng)
    logits = ad.linear(out.final, state.params["ctc_head.weight"],
                       state.params["ctc_head.bias"])
    return ad.log_softmax(logits, axis=-1), out.lengths


def finetune_step(state: FinetuneState, batch, transcripts: dict,
                  epoch: int) -> dict:
    """One CTC step; encoder updates are withheld while step <= freeze_steps."""
    cfg = state.cfg
    feats = batch.features.copy()
    targets = []
    for i, utt_id in enumerate(batch.utt_ids):
        t = int(batch.lengths[i])
        rng = keyed_rng(cfg.seed, "specaug", epoch, utt_id)
        feats[i, :t] = spec_augment(batch.features[i, :t], cfg.spec_augment, rng)
        targets.append(state.tokenizer.encode(transcripts[utt_id]))

    logprobs, out_lengths = _ctc_logprobs(
        state, feats, batch.lengths, train=True,
        rng=keyed_rng(cfg.seed, "dropout", epoch, state.step))
    per_utt = []
    for i in range(len(targets)):
        try:
            per_utt.append(ctc_loss(logprobs[i, : int(out_lengths[i])], targets[i]))
        except InfeasibleTargetError as err:
            raise InfeasibleTargetError(
                f"utterance {batch.utt_ids[i]}: {err}") from None
    loss = ad.mul(per_utt[0], 1.0 / len(per_utt))
    for term in per_utt[1:]:
        loss = ad.add(loss, ad.mul(term, 1.0 / len(per_utt)))

    loss_val, grads, grad_norm = pretrain.clipped_gradients(loss, state.params, cfg.grad_clip,
                                                            state.step + 1)
    state.step += 1
    frozen = state.step <= cfg.freeze_steps
    lr_head = pretrain.lr_schedule(state.step, cfg.decoder_lr, cfg.warmup_steps)
    head = state.head_params()
    pretrain.adam_step(head, {k: grads[k] for k in head}, state.adam_head,
                       lr_head, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    if not frozen:
        lr_enc = pretrain.lr_schedule(state.step, cfg.encoder_lr, cfg.warmup_steps)
        encoder_group = state.encoder_params()
        pretrain.adam_step(encoder_group, {k: grads[k] for k in encoder_group},
                           state.adam_encoder, lr_enc,
                           cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

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
    pretrain.write_checkpoint(
        path, state.step, state.encoder_cfg,
        pretrain.checkpoint_tensors(state.params, [state.adam_encoder, state.adam_head]),
        {"run_config": {"kind": "finetune",
                        "alphabet": state.tokenizer.alphabet,
                        "finetune_config": asdict(state.cfg),
                        "adam_count_encoder": state.adam_encoder.count,
                        "adam_count_head": state.adam_head.count}})


def _finetune_config(raw: dict) -> FinetuneConfig:
    return FinetuneConfig(**{**raw, "spec_augment": SpecAugmentConfig(**raw["spec_augment"])})


def load_finetune_checkpoint(path) -> FinetuneState:
    header, tensors = pretrain.read_checkpoint(path)
    run = header.get("run_config")
    if not isinstance(run, dict) or run.get("kind") != "finetune":
        raise pretrain.CheckpointError(f"not a finetune checkpoint: {path}")
    tokenizer = pretrain.header_value(run, "alphabet", CharTokenizer, path)
    cfg = pretrain.header_value(run, "finetune_config", _finetune_config, path)
    state = _new_state(header, tensors, path, cfg, tokenizer)
    pretrain.restore_training_tensors(tensors, state.params,
                                      [state.adam_encoder, state.adam_head])
    state.adam_encoder.count = pretrain.header_value(run, "adam_count_encoder", int, path)
    state.adam_head.count = pretrain.header_value(run, "adam_count_head", int, path)
    state.step = pretrain.header_value(header, "step", int, path)
    return state


def read_transcripts(path) -> dict:
    """Transcript manifest: one "id<TAB>text" per line, UTF-8, each id once."""
    out, first_line = {}, {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected id<TAB>text")
            utt_id, text = line.split("\t", 1)
            if utt_id in first_line:
                raise ValueError(f"{path}:{lineno}: utterance id {utt_id!r} repeats "
                                 f"line {first_line[utt_id]}")
            first_line[utt_id] = lineno
            out[utt_id] = text
    return out
