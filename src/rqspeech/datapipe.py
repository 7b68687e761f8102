"""Corpus indexing, duration bucketing, and deterministic batch scheduling.

Utterances shorter than 0.3 s are dropped at scan time; anything beyond 40 s
is cropped to a random 40 s window whose offset is resampled each epoch from a
stream keyed by (seed, epoch, utterance id). Durations are split into
equal-count buckets and each bucket gets a batch size of roughly
tokens_per_batch / bucket_max_frames, so every batch carries a similar frame
budget. Batches are ordered by sampling the next bucket with probability
proportional to its remaining batch count, without replacement.

All randomness is keyed, so epochs are reproducible and independent of worker
count; ``iter_epoch`` may prefetch with a thread pool and still yields batches
in descriptor order.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import frontend
from .seeding import keyed_rng

MIN_DURATION_S = 0.3
MAX_DURATION_S = 40.0
DEFAULT_NUM_BUCKETS = 6
DEFAULT_TOKENS_PER_BATCH = 16000  # Mel frames per batch (~160 s of audio)


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
    boundaries: tuple  # ascending upper duration edges, one per bucket
    buckets: tuple

    def bucket_of(self, duration: float) -> int:
        for i, edge in enumerate(self.boundaries):
            if duration <= edge:
                return i
        return len(self.boundaries) - 1


@dataclass(frozen=True)
class BatchDescriptor:
    epoch: int
    bucket_id: int
    utterances: tuple


@dataclass
class Batch:
    features: np.ndarray     # (B, bucket_max_frames, 80) float32, zero padded
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
    if samples < frontend.WINDOW_SAMPLES:
        return 0
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


def read_manifest(path) -> CorpusIndex:
    """Manifest alternative to scanning: one "id<TAB>path<TAB>duration_s" per line,
    each id once (labels, masks and caches are keyed by id)."""
    entries, first_line = [], {}
    for lineno, line in text_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected id<TAB>path<TAB>duration_s")
        utt_id, wav_path, dur = parts
        if utt_id in first_line:
            raise ValueError(f"{path}:{lineno}: utterance id {utt_id!r} repeats "
                             f"line {first_line[utt_id]}")
        first_line[utt_id] = lineno
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


def crop(w: frontend.Waveform, max_seconds: float, seed: int, epoch: int,
         utt_id: str) -> frontend.Waveform:
    """Random contiguous window for over-long audio, resampled per epoch."""
    max_samples = int(round(max_seconds * w.sample_rate))
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

    Duplicate boundaries (fewer distinct durations than buckets) are merged
    with a warning.
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
        batch_size = max(1, tokens_per_batch // max(max_frames, 1))
        buckets.append(Bucket(bucket_id=i, max_duration=edge,
                              max_frames=max_frames, batch_size=batch_size))
    return BucketSpec(boundaries=tuple(merged), buckets=tuple(buckets))


def schedule_epoch(spec: BucketSpec, index: CorpusIndex, seed: int,
                   epoch: int) -> list:
    """Per-bucket shuffles grouped into batches, interleaved by sampling the
    next batch's bucket with probability proportional to its remaining count."""
    members = {b.bucket_id: [] for b in spec.buckets}
    for utt in index.entries:
        members[spec.bucket_of(utt.capped_duration)].append(utt)

    queues = {}
    for bucket in spec.buckets:
        utts = members[bucket.bucket_id]
        if not utts:
            continue
        order = keyed_rng(seed, "shuffle", epoch, bucket.bucket_id).permutation(len(utts))
        shuffled = [utts[i] for i in order]
        batches = [tuple(shuffled[i: i + bucket.batch_size])
                   for i in range(0, len(shuffled), bucket.batch_size)]
        queues[bucket.bucket_id] = batches

    rng = keyed_rng(seed, "schedule", epoch)
    bucket_ids = sorted(queues)
    remaining = np.array([len(queues[b]) for b in bucket_ids], dtype=np.float64)
    taken = {b: 0 for b in bucket_ids}
    out = []
    while remaining.sum() > 0:
        probs = remaining / remaining.sum()
        choice = int(rng.choice(len(bucket_ids), p=probs))
        b = bucket_ids[choice]
        out.append(BatchDescriptor(epoch=epoch, bucket_id=b,
                                   utterances=queues[b][taken[b]]))
        taken[b] += 1
        remaining[choice] -= 1
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
    """Decode, resample, crop, and featurize one batch; pad to the bucket max."""
    bucket = spec.buckets[desc.bucket_id]
    feats = np.zeros((len(desc.utterances), bucket.max_frames, frontend.NUM_MEL_BINS),
                     dtype=np.float32)
    lengths = np.zeros(len(desc.utterances), dtype=np.int64)
    cropped = np.zeros(len(desc.utterances), dtype=bool)
    ids = []
    for i, utt in enumerate(desc.utterances):
        w = load_utterance(utt)
        cropped[i] = w.duration > MAX_DURATION_S
        w = crop(w, MAX_DURATION_S, seed, desc.epoch, utt.utt_id)
        mel = frontend.log_mel(w)
        if mel.shape[0] > bucket.max_frames:
            mel = mel[: bucket.max_frames]  # resampling round-off guard
        feats[i, : mel.shape[0]] = mel
        lengths[i] = mel.shape[0]
        ids.append(utt.utt_id)
    return Batch(features=feats, lengths=lengths, utt_ids=ids,
                 epoch=desc.epoch, bucket_id=desc.bucket_id, cropped=cropped)


def iter_epoch(spec: BucketSpec, index: CorpusIndex, seed: int, epoch: int,
               workers: int = 1):
    """Yield the epoch's batches in schedule order, optionally prefetched.

    Worker count only affects wall-clock time; the yielded sequence is
    identical for any value because every load is a pure keyed function.
    """
    descriptors = schedule_epoch(spec, index, seed, epoch)
    if workers <= 1:
        for desc in descriptors:
            yield load_batch(desc, spec, seed)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        it = iter(descriptors)
        for desc in itertools.islice(it, 2 * workers):
            pending.append(pool.submit(load_batch, desc, spec, seed))
        for desc in it:
            batch = pending.popleft().result()
            pending.append(pool.submit(load_batch, desc, spec, seed))
            yield batch
        while pending:
            yield pending.popleft().result()
