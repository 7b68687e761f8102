"""Corpus indexing, duration bucketing, and deterministic batch scheduling.

Both corpus readers drop utterances under 0.3 s, so every indexed utterance has
at least 28 Mel frames; one beyond 40 s is cropped to a random 40 s window whose
offset is resampled each epoch from a stream keyed by (seed, epoch, utterance
id). Durations are split into equal-count buckets and each bucket gets a batch
size of roughly tokens_per_batch / bucket_max_frames, so every batch carries a
similar frame budget. Batches are ordered by sampling the next bucket with
probability proportional to its remaining batch count, without replacement.

All randomness is keyed, so epochs are reproducible and independent of worker
count; ``iter_epoch`` may prefetch with a thread pool and still yields batches
in descriptor order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import frontend, parallel
from .seeding import keyed_rng

MIN_DURATION_S = 0.3
MAX_DURATION_S = 40.0
DEFAULT_NUM_BUCKETS = 6
DEFAULT_TOKENS_PER_BATCH = 16000  # Mel frames per batch (~160 s of audio)
DEFAULT_WORKERS = 1  # batch loader threads; 1 loads in the caller


class UtteranceError(ValueError):
    """An utterance whose audio is unreadable or too short, found on loading."""


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    path: str
    duration: float  # seconds at the source rate

    @property
    def capped_duration(self) -> float:
        return min(self.duration, MAX_DURATION_S)


@dataclass
class CorpusIndex:
    entries: list
    skipped: int = 0

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class Bucket:
    bucket_id: int
    max_duration: float
    max_frames: int
    batch_size: int


@dataclass(frozen=True)
class BucketSpec:
    buckets: tuple  # by ascending max_duration; a bucket's id is its index

    def bucket_of(self, duration: float) -> int:
        for bucket in self.buckets:
            if duration <= bucket.max_duration:
                return bucket.bucket_id
        return len(self.buckets) - 1


@dataclass(frozen=True)
class BatchDescriptor:
    epoch: int
    bucket_id: int
    utterances: tuple


@dataclass
class Batch:
    features: np.ndarray     # (B, T, 80) float32, zero padded; T = bucket max or longer
    lengths: np.ndarray      # (B,) valid frame counts
    utt_ids: list
    epoch: int
    bucket_id: int
    cropped: np.ndarray = field(default=None)  # (B,) bool, True if >40s source

    def __post_init__(self):
        if self.cropped is None:
            self.cropped = np.zeros(len(self.utt_ids), dtype=bool)


def frames_for_duration(duration_s: float) -> int:
    """Mel frame count of a duration's worth of 16 kHz samples (post-crop)."""
    samples = int(round(min(duration_s, MAX_DURATION_S) * frontend.SAMPLE_RATE))
    return frontend.num_frames(samples)


def scan_corpus(root) -> CorpusIndex:
    """Recursively index WAV files; entries below 0.3 s are filtered out.

    Unreadable or malformed files are skipped with a warning and counted.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"corpus root does not exist: {root}")
    entries = []
    skipped = 0
    for path in sorted(root.rglob("*.wav")):
        try:
            rate, n, _ = frontend.wav_info(path)
        except frontend.WavError as err:
            warnings.warn(f"skipping {path}: {err}")
            skipped += 1
            continue
        duration = n / rate
        if duration < MIN_DURATION_S:
            continue
        utt_id = path.relative_to(root).with_suffix("").as_posix()
        entries.append(Utterance(utt_id=utt_id, path=str(path), duration=duration))
    return CorpusIndex(entries=entries, skipped=skipped)


def text_lines(path):
    """Yield (line number, line without its newline) of a UTF-8 text file.
    Bytes that are not UTF-8, or a NUL, raise ValueError naming path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode("utf-8")   # an undecodable byte became a lone surrogate
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            if "\0" in line:
                raise ValueError(f"{path}:{lineno}: holds a NUL byte")
            yield lineno, line.rstrip("\n")


def id_lines(path, form):
    """Yield (line number, id, rest) of each nonempty line of an id<TAB> file
    that ``text_lines`` reads; the id ends at the first tab and comes once, or
    ValueError names path:line ("expected <form>" for a line with no tab)."""
    first_line = {}
    for lineno, line in text_lines(path):
        if not line:
            continue
        utt_id, tab, rest = line.partition("\t")
        if not tab:
            raise ValueError(f"{path}:{lineno}: expected {form}")
        if utt_id in first_line:
            raise ValueError(f"{path}:{lineno}: utterance id {utt_id!r} repeats "
                             f"line {first_line[utt_id]}")
        first_line[utt_id] = lineno
        yield lineno, utt_id, rest


def read_manifest(path) -> CorpusIndex:
    """Manifest alternative to scanning: one "id<TAB>path<TAB>duration_s" per
    line, read by ``id_lines`` (labels, masks and caches are keyed by id)."""
    form = "id<TAB>path<TAB>duration_s"
    entries = []
    for lineno, utt_id, rest in id_lines(path, form):
        if rest.count("\t") != 1:
            raise ValueError(f"{path}:{lineno}: expected {form}")
        wav_path, dur = rest.split("\t")
        try:
            duration = float(dur)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: duration {dur!r} is not a number") from None
        if not np.isfinite(duration):
            raise ValueError(f"{path}:{lineno}: duration {dur!r} is not finite")
        if duration < MIN_DURATION_S:
            continue
        entries.append(Utterance(utt_id=utt_id, path=wav_path, duration=duration))
    return CorpusIndex(entries=entries)


def crop(w: frontend.Waveform, seed: int, epoch: int, utt_id: str) -> frontend.Waveform:
    """Random MAX_DURATION_S window for over-long audio, resampled per epoch."""
    max_samples = int(round(MAX_DURATION_S * w.sample_rate))
    n = len(w.samples)
    if n <= max_samples:
        return w
    rng = keyed_rng(seed, "crop", epoch, utt_id)
    start = int(rng.integers(0, n - max_samples + 1))
    return frontend.Waveform(samples=w.samples[start: start + max_samples],
                             sample_rate=w.sample_rate)


def build_buckets(index: CorpusIndex, num_buckets: int = DEFAULT_NUM_BUCKETS,
                  tokens_per_batch: int = DEFAULT_TOKENS_PER_BATCH) -> BucketSpec:
    """Equal-count duration split; batch size inversely proportional to length.

    Buckets whose upper edges coincide (fewer distinct durations than
    buckets) are merged into one, with a warning.
    """
    if not index.entries:
        raise ValueError("cannot bucket an empty corpus index")
    durations = np.sort([u.capped_duration for u in index.entries])
    # with more buckets than utterances every duration is an edge, and each
    # further bucket only repeats one
    drawn = min(num_buckets, len(durations))
    edges = [float(durations[int(np.ceil(len(durations) * (b + 1) / drawn)) - 1])
             for b in range(drawn)]
    merged = sorted(set(edges))
    if len(merged) < num_buckets:
        warnings.warn(f"merged {num_buckets - len(merged)} degenerate buckets")
    buckets = []
    for i, edge in enumerate(merged):
        max_frames = frames_for_duration(edge)
        batch_size = max(1, tokens_per_batch // max_frames)
        buckets.append(Bucket(bucket_id=i, max_duration=edge,
                              max_frames=max_frames, batch_size=batch_size))
    return BucketSpec(buckets=tuple(buckets))


def schedule_epoch(spec: BucketSpec, index: CorpusIndex, seed: int,
                   epoch: int) -> list:
    """Per-bucket shuffles grouped into batches, interleaved by sampling the
    next batch's bucket with probability proportional to its remaining count."""
    members = [[] for _ in spec.buckets]
    for utt in index.entries:
        members[spec.bucket_of(utt.capped_duration)].append(utt)

    queues = []
    for bucket, utts in zip(spec.buckets, members):
        order = keyed_rng(seed, "shuffle", epoch, bucket.bucket_id).permutation(len(utts))
        shuffled = [utts[i] for i in order]
        queues.append([tuple(shuffled[i: i + bucket.batch_size])
                       for i in range(0, len(shuffled), bucket.batch_size)])

    rng = keyed_rng(seed, "schedule", epoch)
    remaining = np.array([len(q) for q in queues], dtype=np.float64)
    taken = [0] * len(queues)
    out = []
    while remaining.sum() > 0:
        b = int(rng.choice(len(queues), p=remaining / remaining.sum()))
        out.append(BatchDescriptor(epoch=epoch, bucket_id=b, utterances=queues[b][taken[b]]))
        taken[b] += 1
        remaining[b] -= 1
    return out


def load_utterance(utt: Utterance) -> frontend.Waveform:
    """The utterance's audio at 16 kHz; an UtteranceError naming it when the
    file is unreadable or holds less than MIN_DURATION_S of audio, which its
    declared duration may hide."""
    try:
        w = frontend.load_16k(utt.path)
    except frontend.WavError as err:
        raise UtteranceError(f"utterance {utt.utt_id} unreadable at {utt.path}: {err}") from err
    if w.duration < MIN_DURATION_S:
        raise UtteranceError(f"utterance {utt.utt_id} at {utt.path} holds {w.duration:.4f} s "
                             f"of audio, less than the {MIN_DURATION_S} s minimum")
    return w


def load_batch(desc: BatchDescriptor, spec: BucketSpec, seed: int) -> Batch:
    """Decode, resample, crop, and featurize one batch; pad to the bucket max or
    the longest utterance."""
    bucket = spec.buckets[desc.bucket_id]
    feats = np.zeros((len(desc.utterances), bucket.max_frames, frontend.NUM_MEL_BINS),
                     dtype=np.float32)
    lengths = np.zeros(len(desc.utterances), dtype=np.int64)
    cropped = np.zeros(len(desc.utterances), dtype=bool)
    ids = []
    for i, utt in enumerate(desc.utterances):
        w = load_utterance(utt)
        cropped[i] = w.duration > MAX_DURATION_S
        w = crop(w, seed, desc.epoch, utt.utt_id)
        mel = frontend.log_mel(w)
        if mel.shape[0] > feats.shape[1]:
            # the manifest understates this utterance's duration: widen the
            # batch rather than cut frames that its label cache covers
            feats = np.pad(feats, ((0, 0), (0, mel.shape[0] - feats.shape[1]), (0, 0)))
        feats[i, : mel.shape[0]] = mel
        lengths[i] = mel.shape[0]
        ids.append(utt.utt_id)
    return Batch(features=feats, lengths=lengths, utt_ids=ids,
                 epoch=desc.epoch, bucket_id=desc.bucket_id, cropped=cropped)


def iter_epoch(spec: BucketSpec, index: CorpusIndex, seed: int, epoch: int,
               workers: int = DEFAULT_WORKERS):
    """Yield the epoch's batches in schedule order, optionally prefetched.

    Worker count only affects wall-clock time; the yielded sequence is
    identical for any value because every load is a pure keyed function.
    """
    descriptors = schedule_epoch(spec, index, seed, epoch)
    yield from parallel.prefetch(lambda desc: load_batch(desc, spec, seed), descriptors, workers)
