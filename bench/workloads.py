"""The benchmark workloads: pretrain and decode.

Each workload is a closed loop with one caller and drives the same public
calls as one CLI command (``cmd_pretrain``, ``cmd_decode``). A workload object:

* synthesises its inputs from the seed in ``__init__`` (not timed);
* ``setup()`` makes the program calls that come before timing and ends with
  one warm-up operation; it runs ``setup_reps`` times, and time spent in the
  benchmark's own checks is kept in ``state.check_s`` and left out of
  ``setup_s``;
* ``cycle(state)`` returns one fixed round of operations, each a ``(key,
  callable)`` pair whose callable returns the valid audio seconds it
  processed. The runner repeats whole rounds, at least ``min_rounds`` of
  them, so every run measures the same mix of operations. Operations with the
  same key do the same work on the same inputs, and the runner keeps each
  key's best time;
* ``finish(state)`` is program work that closes the timed phase;
* ``verify(state)`` runs the output checks that are too costly to time;
* ``signature(state)`` is the warm-up result, which must repeat exactly
  across the set-ups of one run.

Failed checks go to ``self.failures`` keyed by operation.

The run config is the repository default (seed 0), so the batch schedule, masks
and noise are the same for every workload seed; the seed changes the audio
content and the transcripts.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from rqspeech import autodiff as ad
from rqspeech import datapipe, encoder, finetune, frontend, pretrain, quantizer
from rqspeech.config import default_config
from rqspeech.seeding import keyed_rng

import checks
from synth import ALPHABET, random_text, speak, speechlike, write_manifest

SR = frontend.SAMPLE_RATE


@dataclass
class State:
    check_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    min_rounds = 1
    setup_reps = 3  # set-ups per untraced run; setup_s is their median

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cfg = default_config()
        self.failures: dict = {}
        # Replaced by the runner in traced runs so checks record no spans.
        self.untraced = contextlib.nullcontext

    @contextlib.contextmanager
    def checking(self, st: State):
        """Benchmark-side work inside set-up: neither timed nor traced."""
        started = perf_counter()
        with self.untraced():
            yield
        st.check_s += perf_counter() - started

    def _epoch(self, st):
        return datapipe.iter_epoch(st.spec, st.index, self.cfg.seed, st.epoch,
                                   workers=self.cfg["datapipe"]["workers"])

    def _next_batch(self, st):
        """The epoch's next batch; a finished epoch starts the next one."""
        try:
            return next(st.batches)
        except StopIteration:
            st.epoch += 1
            st.batches = self._epoch(st)
            return next(st.batches)

    def finish(self, st: State) -> None:
        pass

    def verify(self, st: State) -> None:
        pass


# pretrain ----------------------------------------------------------------------

# (samples at 16 kHz, utterance ids listing the file). Six equal-count buckets
# of 240 ids whose edges (1.35, 2, 2.67, 3.33, 4 and 8 s) give batch sizes of
# 120, 80, 60, 48, 40 and 20 at tokens_per_batch 16000: every batch is full.
PRETRAIN_WAVS = ((16000, 120), (21600, 120), (32000, 240), (42720, 240),
                 (53280, 240), (64000, 240), (96000, 120), (128000, 120))
# float32 program loss vs the float64 reference over ~4000 x 32 softmaxes.
LOSS_RTOL = 1e-5
CHECK_FRAMES = 48  # label frames per file checked against the float64 scan


class Pretrain(Workload):
    """iter_epoch -> train_step at the default config, warm label cache."""

    name = "pretrain"
    min_rounds = 2
    # A set-up ends with a default-batch step (~10 s on 2 cores); two keep the
    # workloads' runs within the benchmark's time budget.
    setup_reps = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng([seed, 1])
        self.wavs = []
        self.wav_of = {}
        self.duration = {}
        rows = []
        for k, (n, copies) in enumerate(PRETRAIN_WAVS):
            path = work / f"p{k}.wav"
            frontend.write_wav(path, speechlike(rng, n / SR, SR), SR)
            self.wavs.append((f"p{k}", path))
            for c in range(copies):
                utt = f"p{k}-{c:03d}"
                rows.append((utt, str(path), n / SR))
                self.wav_of[utt] = f"p{k}"
                self.duration[utt] = n / SR
        write_manifest(work / "train.tsv", rows)
        self.cache = work / "labels"
        self.cache.mkdir()
        self.cfg.values["corpus"]["manifest"] = str(work / "train.tsv")
        self.cfg.values["pretrain"]["label_cache_dir"] = str(self.cache)
        self.ref_loss = None
        self.labels_checked = False
        self.check_rng = np.random.default_rng([seed, 3])

    def setup(self) -> State:
        cfg = self.cfg
        st = State()
        index = datapipe.read_manifest(cfg["corpus"]["manifest"])
        st.train = pretrain.init_train_state(cfg.encoder_config(), cfg.pretrain_config(),
                                             run_config=cfg.flat_dict())
        qs = st.train.quantizer_state
        # label-cache warm-up: the quantize pass over each distinct file, then
        # the per-utterance read cmd_pretrain does from label_cache_dir
        for wav_id, path in self.wavs:
            mel = frontend.log_mel(frontend.load_audio(path))
            labels = quantizer.labels_for_mel(qs, mel)
            quantizer.write_label_cache(self.cache / f"{wav_id}.lab", labels,
                                        qs.config.vocab_size)
            if not self.labels_checked:
                with self.checking(st):
                    self._check_labels(qs, wav_id, mel, labels)
        self.labels_checked = True
        for utt in index.entries:
            if utt.duration <= datapipe.MAX_DURATION_S:
                st.train.label_cache[utt.utt_id] = quantizer.read_label_cache(
                    self.cache / f"{self.wav_of[utt.utt_id]}.lab")
        st.spec = datapipe.build_buckets(index, cfg["datapipe"]["num_buckets"],
                                         cfg["datapipe"]["tokens_per_batch"])
        st.index = index
        st.epoch = 0
        st.batches = self._epoch(st)
        batch = next(st.batches)
        if self.ref_loss is None:
            with self.checking(st):
                self.ref_loss = self._reference_loss(st.train, batch)
        m = pretrain.train_step(st.train, batch, 0)
        st.losses = [m.loss]
        if not abs(m.loss - self.ref_loss) <= LOSS_RTOL * abs(self.ref_loss):
            self.failures["warm-up step"] = (f"loss {m.loss!r} != float64 reference "
                                             f"{self.ref_loss!r}")
        return st

    def _check_labels(self, qs, wav_id, mel, labels) -> None:
        """Sampled labels against an exhaustive float64 nearest-codeword scan."""
        normalized = quantizer.normalize(quantizer.stack_downsample(mel))
        frames = self.check_rng.choice(len(labels), min(CHECK_FRAMES, len(labels)),
                                       replace=False)
        bad = checks.label_mismatches(qs.projections, qs.codebooks, normalized, labels,
                                      frames)
        if bad:
            self.failures[wav_id] = f"{bad} labels are not the nearest codeword"

    def _reference_loss(self, state, batch) -> float:
        feats, plans, labels = pretrain.prepare_masked_batch(state, batch, 0)
        with ad.no_grad():
            out = encoder.encode(state.params, state.encoder_cfg, feats, batch.lengths,
                                 train=True,
                                 rng=keyed_rng(self.cfg.seed, "dropout", 0, state.step))
        q = state.cfg.quantizer
        return checks.masked_multisoftmax_loss(
            out.final.data, [p.target_mask for p in plans], labels,
            state.params["head.weight"].data, state.params["head.bias"].data,
            q.num_codebooks, q.vocab_size)

    def signature(self, st):
        return st.losses[0]

    def cycle(self, st):
        return [(f"step {st.train.step + 1}", partial(self._step, st))]

    def _step(self, st) -> float:
        batch = self._next_batch(st)
        m = pretrain.train_step(st.train, batch, st.epoch)
        if m is None or not np.isfinite(m.loss):
            self.failures[f"step {st.train.step}"] = f"no finite loss: {m}"
        else:
            st.losses.append(m.loss)
        return sum(self.duration[u] for u in batch.utt_ids)

    def finish(self, st):
        pretrain.save_checkpoint(st.train, self.work / "final.msec")
        digest = hashlib.sha256(repr(st.losses).encode()).hexdigest()[:16]
        st.extra.update(steps=len(st.losses), loss_digest=digest,
                        reference_loss=self.ref_loss, first_loss=st.losses[0])


def _untrained_pretrain_checkpoint(cfg, path) -> None:
    state = pretrain.init_train_state(cfg.encoder_config(), cfg.pretrain_config(),
                                      run_config=cfg.flat_dict())
    pretrain.save_checkpoint(state, path)


# decode ------------------------------------------------------------------------

# Transcript lengths for 5.1, 10.1 and 14.9 s utterances at 0.16 s per
# character, three of each: the beam search's cost varies with the words, and
# nine utterances average that out of a seed's total.
DECODE_LENGTHS = (32, 63, 93) * 3
BEAM = 8  # the CLI default
BEAM_CHECKS = 2
# Both beam searches add the same float32 log-probs in float64, in different
# orders.
SCORE_ATOL = 1e-6


class Decode(Workload):
    """load_audio -> log_mel -> transcribe at beam 8, batch size 1."""

    name = "decode"
    # Rounds of 2-3.5 s of mostly pure-Python beam search, the work most
    # exposed to the speed swings of a shared CPU: each utterance's best time
    # settles over many visits.
    min_rounds = 12
    setup_reps = 5  # a set-up takes ~0.5 s

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng([seed, 5])
        rows = []
        for k, length in enumerate(DECODE_LENGTHS):
            path = work / f"d{k}.wav"
            samples = speak(rng, random_text(rng, length))
            frontend.write_wav(path, samples, SR)
            rows.append((f"d{k}", str(path), len(samples) / SR))
        write_manifest(work / "decode.tsv", rows)
        self.check_rng = np.random.default_rng([seed, 6])

    def setup(self) -> State:
        cfg = self.cfg
        st = State()
        _untrained_pretrain_checkpoint(cfg, self.work / "pretrain.msec")
        tokenizer = finetune.CharTokenizer(ALPHABET + " ")
        made = finetune.init_finetune_state(self.work / "pretrain.msec",
                                            cfg.finetune_config(), tokenizer)
        finetune.save_finetune_checkpoint(made, self.work / "finetuned.msec")
        st.ft = finetune.load_finetune_checkpoint(self.work / "finetuned.msec")
        st.index = datapipe.read_manifest(self.work / "decode.tsv")
        st.texts = {}
        self._decode(st, st.index.entries[0])
        return st

    def _decode(self, st, utt) -> float:
        mel = frontend.log_mel(frontend.load_audio(utt.path))
        text = finetune.transcribe(st.ft, mel[None], np.array([mel.shape[0]]),
                                   beam_width=BEAM)[0]
        previous = st.texts.get(utt.utt_id)
        if previous is not None and previous != text:
            self.failures[utt.utt_id] = "transcript differs between visits"
        st.texts[utt.utt_id] = text
        return utt.duration

    def signature(self, st):
        return next(iter(st.texts.values()))

    def cycle(self, st):
        return [(utt.utt_id, partial(self._decode, st, utt)) for utt in st.index.entries]

    def verify(self, st):
        entries = st.index.entries
        gaps = []
        for i in self.check_rng.choice(len(entries), BEAM_CHECKS, replace=False):
            utt = entries[int(i)]
            mel = frontend.log_mel(frontend.load_audio(utt.path))
            with ad.no_grad():
                out = encoder.encode(st.ft.params, st.ft.encoder_cfg, mel[None],
                                     np.array([mel.shape[0]]))
                logits = ad.linear(out.final, st.ft.params["ctc_head.weight"],
                                   st.ft.params["ctc_head.bias"])
                lp = ad.log_softmax(logits, axis=-1).data[0, : int(out.lengths[0])]
            hyp = finetune.beam_decode(lp, BEAM)
            if st.ft.tokenizer.decode(hyp.tokens) != st.texts[utt.utt_id]:
                self.failures[utt.utt_id] = "re-decoded transcript differs"
            tokens, score = checks.prefix_beam_search(lp, BEAM)
            if tuple(hyp.tokens) != tokens or abs(hyp.log_prob - score) > SCORE_ATOL:
                self.failures[utt.utt_id] = (f"beam result {hyp.log_prob!r} differs from "
                                             f"the reference beam {score!r}")
            exact = checks.ctc_log_prob(lp, hyp.tokens)
            if hyp.log_prob > exact + SCORE_ATOL:
                self.failures[utt.utt_id] = (f"beam log-prob {hyp.log_prob!r} exceeds the "
                                             f"CTC forward score {exact!r}")
            gaps.append(exact - hyp.log_prob)
        st.extra.update(beam_checked=BEAM_CHECKS, beam_gap_nats=gaps)


WORKLOADS = {w.name: w for w in (Pretrain, Decode)}
