from collections import Counter

import numpy as np
import pytest

from rqspeech import datapipe, frontend
from rqspeech.datapipe import CorpusIndex, Utterance

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

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "NaN"])
    def test_manifest_rejects_non_finite_duration(self, tmp_path, duration):
        # a NaN would reach the bucket arithmetic, an inf would bucket as 40 s
        index = build_corpus(tmp_path, [1.0])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a\t{index.entries[0].path}\t1.0\n"
                            f"b\t{index.entries[0].path}\t{duration}\n")
        with pytest.raises(ValueError, match=rf"manifest.tsv:2: duration '{duration}' is not finite"):
            datapipe.read_manifest(manifest)

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
        out = datapipe.crop(w, 40.0, seed=0, epoch=0, utt_id="a")
        assert out is w

    def test_long_input_exact_length(self):
        w = frontend.Waveform(np.zeros(800000), 16000)  # 50 s
        out = datapipe.crop(w, 40.0, seed=0, epoch=0, utt_id="a")
        assert len(out.samples) == 640000

    def test_offsets_vary_across_epochs(self):
        n = 800000
        w = frontend.Waveform(np.arange(n, dtype=np.float64) / n, 16000)
        starts = set()
        for epoch in range(20):
            out = datapipe.crop(w, 40.0, seed=3, epoch=epoch, utt_id="long")
            starts.add(int(round(out.samples[0] * n)))
        assert len(starts) >= 2

    def test_same_key_same_offset(self):
        w = frontend.Waveform(np.arange(800000, dtype=np.float64), 16000)
        a = datapipe.crop(w, 40.0, seed=1, epoch=4, utt_id="x")
        b = datapipe.crop(w, 40.0, seed=1, epoch=4, utt_id="x")
        assert a.samples[0] == b.samples[0]


class TestBuildBuckets:
    def index_of(self, durations):
        return CorpusIndex(entries=[
            Utterance(utt_id=f"u{i}", path="", duration=d)
            for i, d in enumerate(durations)])

    def test_sextile_boundaries(self):
        index = self.index_of(list(range(1, 13)))  # 1..12 s
        spec = datapipe.build_buckets(index, num_buckets=6, tokens_per_batch=4000)
        assert spec.boundaries == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
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
        assert spec.boundaries == (1.0, 2.0, 3.0)

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
