import concurrent.futures
import itertools
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from rqspeech import datapipe, frontend, parallel
from rqspeech.datapipe import CorpusIndex, Utterance
from rqspeech.seeding import keyed_rng

from conftest import make_speechlike, tone


def build_corpus(tmp_path, durations, seed=0):
    rng = np.random.default_rng(seed)
    for i, seconds in enumerate(durations):
        frontend.write_wav(tmp_path / f"u{i:03d}.wav", make_speechlike(rng, seconds), 16000)
    return datapipe.scan_corpus(tmp_path)


class TestScanCorpus:
    def test_duration_filter(self, tmp_path):
        index = build_corpus(tmp_path, [0.1, 0.5, 2.0])
        assert len(index) == 2
        assert index.skipped == 0
        assert all(u.duration >= 0.3 for u in index.entries)

    def test_empty_dir(self, tmp_path):
        index = datapipe.scan_corpus(tmp_path)
        assert len(index) == 0

    def test_corrupt_file_skipped_with_count(self, tmp_path):
        build_corpus(tmp_path, [1.0, 1.5])
        (tmp_path / "bad.wav").write_bytes(b"RIFFxxxxWAVEjunk")
        with pytest.warns(UserWarning, match="skipping"):
            index = datapipe.scan_corpus(tmp_path)
        assert len(index) == 2
        assert index.skipped == 1

    def test_zero_sample_rate_skipped_with_count(self, tmp_path):
        build_corpus(tmp_path, [1.0])
        frontend.write_wav(tmp_path / "zero.wav", tone(440, 0.5), 0)
        with pytest.warns(UserWarning, match="sample rate 0"):
            index = datapipe.scan_corpus(tmp_path)
        assert len(index) == 1
        assert index.skipped == 1

    def test_missing_root(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            datapipe.scan_corpus(tmp_path / "nope")

    def test_manifest_round_trip(self, tmp_path):
        index = build_corpus(tmp_path, [0.7, 1.2])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"{u.utt_id}\t{u.path}\t{u.duration}\n"
                                    for u in index.entries))
        loaded = datapipe.read_manifest(manifest)
        assert [u.utt_id for u in loaded.entries] == [u.utt_id for u in index.entries]

    def test_manifest_rejects_repeated_id(self, tmp_path):
        index = build_corpus(tmp_path, [1.0, 1.6])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"X\t{u.path}\t{u.duration}\n" for u in index.entries))
        with pytest.raises(ValueError, match=r"manifest.tsv:2: utterance id 'X' repeats line 1"):
            datapipe.read_manifest(manifest)

    def test_manifest_drops_entries_under_minimum(self, tmp_path):
        index = build_corpus(tmp_path, [1.0])
        manifest = tmp_path / "manifest.tsv"
        path = index.entries[0].path
        manifest.write_text(f"a\t{path}\t0.29\nb\t{path}\t0.3\nc\t{path}\t0.0\n")
        loaded = datapipe.read_manifest(manifest)
        assert [u.utt_id for u in loaded.entries] == ["b"]

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "NaN"])
    def test_manifest_rejects_non_finite_duration(self, tmp_path, duration):
        # a NaN would reach the bucket arithmetic, an inf would bucket as 40 s
        index = build_corpus(tmp_path, [1.0])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a\t{index.entries[0].path}\t1.0\n"
                            f"b\t{index.entries[0].path}\t{duration}\n")
        with pytest.raises(ValueError, match=rf"manifest.tsv:2: duration '{duration}' is not finite"):
            datapipe.read_manifest(manifest)

    @pytest.mark.parametrize("line", ["b\tb.wav", "b\tb.wav\t1.0\tx"],
                             ids=["two_fields", "four_fields"])
    def test_manifest_rejects_wrong_field_count(self, tmp_path, line):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a\ta.wav\t1.0\n{line}\n")
        with pytest.raises(ValueError) as err:
            datapipe.read_manifest(manifest)
        assert str(err.value) == f"{manifest}:2: expected id<TAB>path<TAB>duration_s"

    @pytest.mark.parametrize("duration", ["abc", "", "1.5s"])
    def test_manifest_rejects_non_numeric_duration(self, tmp_path, duration):
        index = build_corpus(tmp_path, [1.0])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a\t{index.entries[0].path}\t1.0\n"
                            f"b\t{index.entries[0].path}\t{duration}\n")
        with pytest.raises(ValueError, match=rf"manifest.tsv:2: duration '{duration}' is not a number"):
            datapipe.read_manifest(manifest)


class TestCrop:
    def test_short_input_identity(self):
        w = frontend.Waveform(tone(100, 10.0), 16000)
        out = datapipe.crop(w, seed=0, epoch=0, utt_id="a")
        assert out is w

    def test_long_input_exact_length(self):
        w = frontend.Waveform(np.zeros(800000), 16000)  # 50 s
        out = datapipe.crop(w, seed=0, epoch=0, utt_id="a")
        assert len(out.samples) == 640000

    def test_offsets_vary_across_epochs(self):
        n = 800000
        w = frontend.Waveform(np.arange(n, dtype=np.float64) / n, 16000)
        starts = set()
        for epoch in range(20):
            out = datapipe.crop(w, seed=3, epoch=epoch, utt_id="long")
            starts.add(int(round(out.samples[0] * n)))
        assert len(starts) >= 2

    def test_same_key_same_offset(self):
        w = frontend.Waveform(np.arange(800000, dtype=np.float64), 16000)
        a = datapipe.crop(w, seed=1, epoch=4, utt_id="x")
        b = datapipe.crop(w, seed=1, epoch=4, utt_id="x")
        assert a.samples[0] == b.samples[0]


class TestBuildBuckets:
    def index_of(self, durations):
        return CorpusIndex(entries=[
            Utterance(utt_id=f"u{i}", path="", duration=d)
            for i, d in enumerate(durations)])

    def test_sextile_boundaries(self):
        index = self.index_of(list(range(1, 13)))  # 1..12 s
        spec = datapipe.build_buckets(index, num_buckets=6, tokens_per_batch=4000)
        assert tuple(b.max_duration for b in spec.buckets) == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        counts = Counter(spec.bucket_of(u.duration) for u in index.entries)
        assert all(counts[b] == 2 for b in range(6))

    def test_identical_durations_merge(self):
        index = self.index_of([2.0] * 10)
        with pytest.warns(UserWarning, match="merged"):
            spec = datapipe.build_buckets(index)
        assert len(spec.buckets) == 1

    @pytest.mark.parametrize("num_buckets", [5, 100, 100_000_000])
    def test_more_buckets_than_utterances_gives_one_edge_per_duration(self, num_buckets):
        # every duration is an edge and every further bucket merges; the
        # work is bounded by the utterances, not by the requested count
        index = self.index_of([3.0, 1.0, 2.0, 2.0])
        with pytest.warns(UserWarning, match=f"merged {num_buckets - 3} degenerate buckets"):
            spec = datapipe.build_buckets(index, num_buckets=num_buckets, tokens_per_batch=4000)
        assert tuple(b.max_duration for b in spec.buckets) == (1.0, 2.0, 3.0)

    def test_floor_duration_has_28_frames(self):
        assert datapipe.frames_for_duration(datapipe.MIN_DURATION_S) == 28

    def test_entry_under_one_window_is_refused(self):
        # both readers drop entries under 0.3 s; a hand-built index that holds
        # one under the 25 ms window gets no zero-frame bucket
        with pytest.raises(ValueError, match="need >= 400 samples, got 320"):
            datapipe.build_buckets(self.index_of([0.02, 1.0]), num_buckets=2)

    def test_inverse_proportional_batch_size(self):
        index = self.index_of([10.0] * 6 + [20.0] * 6)
        spec = datapipe.build_buckets(index, num_buckets=2, tokens_per_batch=4000)
        frames = [b.max_frames for b in spec.buckets]
        sizes = [b.batch_size for b in spec.buckets]
        assert frames == [998, 1998]  # 1 + (samples - 400) // 160
        assert sizes == [4, 2]
        products = [s * f for s, f in zip(sizes, frames)]
        assert max(products) - min(products) <= max(frames)  # within one utterance


class TestScheduleEpoch:
    def index_of(self, durations):
        return CorpusIndex(entries=[
            Utterance(utt_id=f"u{i}", path="", duration=d)
            for i, d in enumerate(durations)])

    def test_single_bucket_partitions(self):
        index = self.index_of([1.0 + 0.01 * i for i in range(10)])
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=300)
        descs = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)
        seen = [u.utt_id for d in descs for u in d.utterances]
        assert sorted(seen) == sorted(u.utt_id for u in index.entries)

    def test_every_utterance_once_per_epoch(self):
        rng = np.random.default_rng(0)
        index = self.index_of(list(rng.uniform(0.5, 12.0, size=100)))
        spec = datapipe.build_buckets(index, num_buckets=6, tokens_per_batch=2000)
        for epoch in range(3):
            descs = datapipe.schedule_epoch(spec, index, seed=5, epoch=epoch)
            seen = Counter(u.utt_id for d in descs for u in d.utterances)
            assert set(seen) == {u.utt_id for u in index.entries}
            assert all(c == 1 for c in seen.values())

    def test_total_batches_match_per_bucket_counts(self):
        rng = np.random.default_rng(1)
        index = self.index_of(list(rng.uniform(0.5, 30.0, size=83)))
        spec = datapipe.build_buckets(index, num_buckets=6, tokens_per_batch=3000)
        descs = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)
        per_bucket = Counter(d.bucket_id for d in descs)
        for b in spec.buckets:
            members = sum(1 for u in index.entries
                          if spec.bucket_of(u.capped_duration) == b.bucket_id)
            if members:
                want = -(-members // b.batch_size)  # ceil
                assert per_bucket[b.bucket_id] == want

    def test_sampling_proportional_to_remaining(self):
        # bucket A: 90 batches of 1 (short), bucket B: 10 batches of 1 (long);
        # expected bucket-A count in the first 10 draws is 9 (hypergeometric).
        durations = [1.0] * 90 + [30.0] * 10
        index = self.index_of(durations)
        spec = datapipe.build_buckets(index, num_buckets=2, tokens_per_batch=1)
        assert all(b.batch_size == 1 for b in spec.buckets)
        first = []
        for epoch in range(200):
            descs = datapipe.schedule_epoch(spec, index, seed=7, epoch=epoch)
            assert len(descs) == 100
            first.append(sum(1 for d in descs[:10] if d.bucket_id == 0))
        assert abs(np.mean(first) - 9.0) < 0.5


def edge_bucket_of(edges, duration):
    """``bucket_of`` as it read a spec's separate tuple of edges: the oracle
    for the bucket that the spec's own buckets give."""
    for i, edge in enumerate(edges):
        if duration <= edge:
            return i
    return len(edges) - 1


def dict_schedule_epoch(spec, index, seed, epoch):
    """``schedule_epoch`` as it keyed members, queues and counts by bucket id
    and sorted the ids back into order: the oracle for every draw."""
    edges = tuple(b.max_duration for b in spec.buckets)
    members = {b.bucket_id: [] for b in spec.buckets}
    for utt in index.entries:
        members[edge_bucket_of(edges, utt.capped_duration)].append(utt)
    queues = {}
    for bucket in spec.buckets:
        utts = members[bucket.bucket_id]
        order = keyed_rng(seed, "shuffle", epoch, bucket.bucket_id).permutation(len(utts))
        shuffled = [utts[i] for i in order]
        queues[bucket.bucket_id] = [tuple(shuffled[i: i + bucket.batch_size])
                                    for i in range(0, len(shuffled), bucket.batch_size)]
    rng = keyed_rng(seed, "schedule", epoch)
    bucket_ids = sorted(queues)
    remaining = np.array([len(queues[b]) for b in bucket_ids], dtype=np.float64)
    taken = {b: 0 for b in bucket_ids}
    out = []
    while remaining.sum() > 0:
        probs = remaining / remaining.sum()
        choice = int(rng.choice(len(bucket_ids), p=probs))
        b = bucket_ids[choice]
        out.append(datapipe.BatchDescriptor(epoch=epoch, bucket_id=b,
                                            utterances=queues[b][taken[b]]))
        taken[b] += 1
        remaining[choice] -= 1
    return out


class TestScheduleOracle:
    """The golden run has one bucket; these pin many-bucket schedules."""

    @pytest.mark.parametrize("num_buckets", [1, 3, 6, 9])
    def test_schedule_and_bucket_of_equal_the_keyed_oracle(self, num_buckets):
        rng = np.random.default_rng(num_buckets)
        # durations on a 0.5 s grid repeat, so edges tie and buckets merge;
        # some pass the 40 s crop
        durations = list(np.round(rng.uniform(0.5, 45.0, size=60) * 2) / 2)
        index = CorpusIndex(entries=[Utterance(utt_id=f"u{i}", path="", duration=d)
                                     for i, d in enumerate(durations)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # merged buckets
            spec = datapipe.build_buckets(index, num_buckets=num_buckets, tokens_per_batch=2500)
        assert [b.bucket_id for b in spec.buckets] == list(range(len(spec.buckets)))
        edges = tuple(b.max_duration for b in spec.buckets)
        for duration in np.linspace(0.0, 50.0, 401):
            assert spec.bucket_of(duration) == edge_bucket_of(edges, duration)
        for seed, epoch in itertools.product((0, 11), range(4)):
            assert (datapipe.schedule_epoch(spec, index, seed, epoch)
                    == dict_schedule_epoch(spec, index, seed, epoch))


class TestLoadBatch:
    def test_pad_to_bucket_max(self, tmp_path):
        index = build_corpus(tmp_path, [1.0, 2.0, 3.0, 4.0])
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=10000)
        descs = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)
        batch = datapipe.load_batch(descs[0], spec, seed=0)
        assert batch.features.shape[1] == spec.buckets[0].max_frames
        for i, utt_id in enumerate(batch.utt_ids):
            dur = next(u.duration for u in index.entries if u.utt_id == utt_id)
            assert batch.lengths[i] == datapipe.frames_for_duration(dur)
            assert np.all(batch.features[i, batch.lengths[i]:] == 0.0)

    def test_deterministic_reload(self, tmp_path):
        index = build_corpus(tmp_path, [0.8, 1.1])
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=10000)
        desc = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)[0]
        a = datapipe.load_batch(desc, spec, seed=0)
        b = datapipe.load_batch(desc, spec, seed=0)
        assert np.array_equal(a.features, b.features)

    def test_overlong_audio_cropped_to_forty_seconds(self, tmp_path):
        n = int(41.0 * 16000)
        x = 0.2 * np.sin(2 * np.pi * 440 * np.arange(n) / 16000)
        frontend.write_wav(tmp_path / "long.wav", x, 16000)
        index = datapipe.scan_corpus(tmp_path)
        assert index.entries[0].capped_duration == 40.0
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=8000)
        assert spec.buckets[0].max_frames == datapipe.frames_for_duration(40.0)
        desc = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)[0]
        batch = datapipe.load_batch(desc, spec, seed=0)
        assert batch.cropped[0]
        assert batch.lengths[0] == spec.buckets[0].max_frames
        # a different epoch picks a different window of the same file
        other = datapipe.load_batch(
            datapipe.BatchDescriptor(epoch=1, bucket_id=0, utterances=desc.utterances),
            spec, seed=0)
        assert not np.array_equal(batch.features, other.features)

    def test_vanished_file_names_utterance(self, tmp_path):
        index = build_corpus(tmp_path, [1.0])
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=1000)
        desc = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)[0]
        (tmp_path / "u000.wav").unlink()
        with pytest.raises(datapipe.UtteranceError, match="u000"):
            datapipe.load_batch(desc, spec, seed=0)

    def test_worker_count_does_not_change_output(self, tmp_path):
        index = build_corpus(tmp_path, [0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9, 3.3])
        spec = datapipe.build_buckets(index, num_buckets=3, tokens_per_batch=600)
        serial = list(datapipe.iter_epoch(spec, index, seed=2, epoch=1, workers=1))
        parallel = list(datapipe.iter_epoch(spec, index, seed=2, epoch=1, workers=4))
        assert len(serial) == len(parallel) > 1
        for a, b in zip(serial, parallel):
            assert a.utt_ids == b.utt_ids
            assert a.bucket_id == b.bucket_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.lengths, b.lengths)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_huge_worker_count_capped_at_cores(self, tmp_path, monkeypatch, cores):
        # one utterance per batch: nine batches keep the prefetch window full
        # for most of the epoch. The pool runs each load when it is submitted,
        # so no thread starts and the loads in flight can be counted
        index = build_corpus(tmp_path, [0.4 + 0.1 * i for i in range(9)])
        spec = datapipe.build_buckets(index, num_buckets=3, tokens_per_batch=1)
        serial = list(datapipe.iter_epoch(spec, index, seed=4, epoch=2, workers=1))
        asked, loaded, real = [], [], datapipe.load_batch

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        def load(*args):
            loaded.append(args[0])
            return real(*args)
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        monkeypatch.setattr(datapipe, "load_batch", load)
        prefetched = []
        for batch in datapipe.iter_epoch(spec, index, seed=4, epoch=2, workers=10**18):
            prefetched.append(batch)
            assert len(loaded) - len(prefetched) <= 2 * sum(asked)
        assert asked == ([cores] if cores > 1 else [])
        assert len(serial) == len(prefetched) == 9
        for a, b in zip(serial, prefetched):
            assert a.utt_ids == b.utt_ids
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.lengths, b.lengths)

    def test_closing_cancels_queued_loads(self, tmp_path, monkeypatch):
        if parallel.cores() < 2:
            pytest.skip("one core loads in the caller")
        index = build_corpus(tmp_path, [0.4 + 0.1 * i for i in range(9)])
        spec = datapipe.build_buckets(index, num_buckets=3, tokens_per_batch=1)
        first = datapipe.schedule_epoch(spec, index, seed=4, epoch=2)[0]
        loaded = []

        def load(desc, *_):
            loaded.append(desc)
            if desc != first:
                threading.Event().wait(1.0)
            return desc
        monkeypatch.setattr(datapipe, "load_batch", load)
        batches = datapipe.iter_epoch(spec, index, seed=4, epoch=2, workers=2)
        assert next(batches) == first
        batches.close()
        # the first load, and one held on each of the two threads
        assert len(loaded) <= 3, loaded

    def test_understated_duration_keeps_every_frame(self, tmp_path):
        # the manifest declares 2.0 s for 2.056 s of audio beside an exact entry
        rng = np.random.default_rng(1)
        frontend.write_wav(tmp_path / "long.wav", make_speechlike(rng, 2.056), 16000)
        frontend.write_wav(tmp_path / "exact.wav", make_speechlike(rng, 1.5), 16000)
        index = CorpusIndex(entries=[Utterance("long", str(tmp_path / "long.wav"), 2.0),
                                     Utterance("exact", str(tmp_path / "exact.wav"), 1.5)])
        spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=10000)
        (desc,) = datapipe.schedule_epoch(spec, index, seed=0, epoch=0)
        batch = datapipe.load_batch(desc, spec, seed=0)
        mels = {u.utt_id: frontend.log_mel(frontend.load_audio(u.path)) for u in index.entries}
        assert len(mels["long"]) > spec.buckets[0].max_frames
        assert batch.features.shape[1] == len(mels["long"])
        for i, utt_id in enumerate(batch.utt_ids):
            t = len(mels[utt_id])
            assert batch.lengths[i] == t
            assert np.array_equal(batch.features[i, :t], mels[utt_id])
            assert np.all(batch.features[i, t:] == 0.0)
