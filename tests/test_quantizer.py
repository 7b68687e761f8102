import errno
import tracemalloc

import numpy as np
import pytest

from rqspeech import frontend, quantizer, records
from rqspeech.quantizer import QuantizerConfig

from conftest import make_speechlike


def brute_force_labels(qs, normalized):
    """Exhaustive double-precision distance scan (independent oracle)."""
    x = normalized.astype(np.float64)
    l = x.shape[0]
    n = qs.config.num_codebooks
    v = qs.config.vocab_size
    out = np.zeros((l, n), dtype=np.int64)
    for i in range(l):
        for j in range(n):
            proj = x[i] @ qs.projections[j]
            best, best_d = 0, np.inf
            for c in range(v):
                d = float(np.sum((proj - qs.codebooks[j][c]) ** 2))
                if d < best_d:
                    best, best_d = c, d
            out[i, j] = best
    return out


def reference_assign_labels(qs, normalized):
    """The difference-tensor scan: an (L, V, dim) float64 difference per
    codebook, its sum of squares, then the first argmin. ``assign_labels``
    must return these labels byte for byte."""
    x = normalized.astype(np.float64, copy=False)
    labels = np.empty((x.shape[0], qs.config.num_codebooks), dtype=np.uint16)
    for j in range(qs.config.num_codebooks):
        projected = x @ qs.projections[j]
        diff = projected[:, None, :] - qs.codebooks[j][None, :, :]
        labels[:, j] = np.argmin(np.einsum("lvd,lvd->lv", diff, diff), axis=1)
    return labels


def half_integer_state(rng, cfg, duplicates):
    """Projections and codewords on the half-integer grid, with ``duplicates``
    codewords per codebook copied from other ones, so distances tie exactly."""
    proj = np.round(rng.uniform(-1, 1, (cfg.num_codebooks, cfg.input_dim, cfg.dim)) * 2) / 2
    books = np.round(rng.uniform(-2, 2, (cfg.num_codebooks, cfg.vocab_size, cfg.dim)) * 2) / 2
    for j in range(cfg.num_codebooks):
        dst = rng.choice(cfg.vocab_size, duplicates, replace=False)
        books[j, dst] = books[j, rng.choice(cfg.vocab_size, duplicates)]
    return quantizer.QuantizerState(projections=proj, codebooks=books, seed=0, config=cfg)


def near_duplicate_state(rng, cfg):
    """Random codebooks whose odd codewords are the even ones moved by one or
    two units in the last place: scores and distances of each pair differ
    only by rounding."""
    qs = quantizer.init_quantizer(int(rng.integers(1000)), cfg)
    books = qs.codebooks.copy()
    steps = rng.integers(-2, 3, books[:, 1::2].shape)
    books[:, 1::2] = books[:, ::2] + steps * np.spacing(books[:, ::2])
    return quantizer.QuantizerState(projections=qs.projections, codebooks=books,
                                    seed=qs.seed, config=cfg)


class TestAgainstDifferenceScan:
    """Byte-equal labels to the difference-tensor scan, above all on ties."""

    def check(self, qs, x):
        got = quantizer.assign_labels(qs, x)
        assert got.dtype == np.uint16 and got.shape == (x.shape[0], qs.config.num_codebooks)
        assert got.tobytes() == reference_assign_labels(qs, x).tobytes()

    def test_default_config_on_log_mel(self):
        qs = quantizer.init_quantizer(17)
        samples = make_speechlike(np.random.default_rng(2), 2.0)
        mel = frontend.log_mel(frontend.Waveform(samples, 16000))
        self.check(qs, quantizer.normalize(quantizer.stack_downsample(mel)))

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_row_blocks(self, monkeypatch, block_rows):
        monkeypatch.setattr(quantizer, "LABEL_BLOCK_ROWS", block_rows)
        qs = quantizer.init_quantizer(3, QuantizerConfig(3, 200, 8, 24))
        self.check(qs, np.random.default_rng(5).standard_normal((40, 24)))

    def test_exact_ties_on_half_integer_grid(self):
        rng = np.random.default_rng(7)
        cfg = QuantizerConfig(num_codebooks=3, vocab_size=300, dim=4, input_dim=8)
        qs = half_integer_state(rng, cfg, duplicates=100)
        x = np.round(rng.uniform(-2, 2, (600, 8)) * 2) / 2
        self.check(qs, x)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_near_duplicate_codewords(self, scale):
        # at 1e6 the expanded form cancels: ||p||^2 ~ 1e13 dwarfs the gaps
        rng = np.random.default_rng(11)
        qs = near_duplicate_state(rng, QuantizerConfig(4, 512, 16, 32))
        self.check(qs, scale * rng.standard_normal((300, 32)))

    def test_scaled_input(self):
        qs = quantizer.init_quantizer(23, QuantizerConfig(4, 2048, 16, 320))
        x = quantizer.normalize(np.random.default_rng(4).standard_normal((60, 320)))
        self.check(qs, 1e6 * x)

    def test_single_codeword(self):
        qs = quantizer.init_quantizer(0, QuantizerConfig(2, 1, 4, 8))
        self.check(qs, np.random.default_rng(1).standard_normal((9, 8)))

    def test_no_frames(self):
        self.check(quantizer.init_quantizer(0), np.zeros((0, 320)))


class TestStackDownsample:
    def test_drop_remainder(self):
        mel = np.arange(10 * 80, dtype=np.float32).reshape(10, 80)
        stacked = quantizer.stack_downsample(mel)
        assert stacked.shape == (2, 320)
        assert np.array_equal(stacked[0], mel[0:4].reshape(-1))
        assert np.array_equal(stacked[1], mel[4:8].reshape(-1))

    def test_channel_order(self):
        # frame t holds the constant t; stacked row 0 must be 0*80,1*80,2*80,3*80
        mel = np.repeat(np.arange(8, dtype=np.float64)[:, None], 80, axis=1)
        row0 = quantizer.stack_downsample(mel)[0]
        expected = np.concatenate([np.full(80, k, dtype=np.float64) for k in range(4)])
        assert np.array_equal(row0, expected)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            quantizer.stack_downsample(np.zeros((3, 80)))


class TestNormalize:
    def test_constant_channel_becomes_zero(self):
        x = np.ones((5, 320)) * 3.7
        out = quantizer.normalize(x)
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_already_normalized_is_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2000, 8))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = quantizer.normalize(x)
        assert np.allclose(out, x, rtol=1e-5, atol=1e-5)

    def test_hand_arithmetic(self):
        x = np.zeros((2, 320))
        x[:, 0] = [1.0, 3.0]  # mean 2, population var 1
        out = quantizer.normalize(x)
        assert np.allclose(out[:, 0], [-1.0, 1.0], atol=1e-4)

    def test_moments(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-4, 9, size=(50, 320))
        out = quantizer.normalize(x)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-4)


class TestInitQuantizer:
    def test_deterministic(self):
        a = quantizer.init_quantizer(7)
        b = quantizer.init_quantizer(7)
        assert np.array_equal(a.projections, b.projections)
        assert np.array_equal(a.codebooks, b.codebooks)
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_parameters(self):
        a = quantizer.init_quantizer(7)
        b = quantizer.init_quantizer(8)
        assert not np.array_equal(a.codebooks, b.codebooks)

    def test_projection_bound_and_codebook_moments(self):
        qs = quantizer.init_quantizer(3)
        bound = np.sqrt(6.0 / (320 + 16))
        assert np.all(np.abs(qs.projections) <= bound)
        assert abs(qs.codebooks.mean()) < 0.01
        assert abs(qs.codebooks.std() - 1.0) < 0.01

    def test_single_codeword_degenerate(self):
        cfg = QuantizerConfig(num_codebooks=1, vocab_size=1, dim=4, input_dim=8)
        qs = quantizer.init_quantizer(0, cfg)
        rng = np.random.default_rng(1)
        labels = quantizer.assign_labels(qs, rng.standard_normal((6, 8)))
        assert np.all(labels == 0)


class TestAssignLabels:
    def test_nearest_by_inspection(self):
        cfg = QuantizerConfig(num_codebooks=1, vocab_size=2, dim=4, input_dim=4)
        qs = quantizer.init_quantizer(0, cfg)
        proj = np.eye(4)[None]
        code = np.zeros((1, 2, 4))
        code[0, 1, :2] = 1.0
        qs = quantizer.QuantizerState(projections=proj, codebooks=code, seed=0, config=cfg)
        x = np.array([[0.9, 0.8, 0.0, 0.0]])
        assert quantizer.assign_labels(qs, x)[0, 0] == 1

    def test_deterministic(self):
        qs = quantizer.init_quantizer(2, QuantizerConfig(4, 32, 8, 16))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16))
        assert np.array_equal(quantizer.assign_labels(qs, x),
                              quantizer.assign_labels(qs, x))

    def test_matches_brute_force(self):
        cfg = QuantizerConfig(num_codebooks=4, vocab_size=32, dim=8, input_dim=16)
        qs = quantizer.init_quantizer(11, cfg)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, 16))
        got = quantizer.assign_labels(qs, quantizer.normalize(x))
        want = brute_force_labels(qs, quantizer.normalize(x))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        qs = quantizer.init_quantizer(0, QuantizerConfig(2, 8, 4, 8))
        x = np.zeros((6, 8))
        x[3, 5] = bad
        x[5, 0] = bad
        with pytest.raises(ValueError, match="label frame 3 is not finite"):
            quantizer.assign_labels(qs, x)

    def test_peak_memory_independent_of_length(self):
        # the difference tensor of the scan above peaked at 516 MB for 1000
        # frames; the row-blocked screen keeps one (256, 2048) block at a time
        qs = quantizer.init_quantizer(1)
        x = np.random.default_rng(2).standard_normal((4000, 320))
        tracemalloc.start()
        try:
            quantizer.assign_labels(qs, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_dimension_mismatch(self):
        qs = quantizer.init_quantizer(0, QuantizerConfig(1, 4, 2, 8))
        with pytest.raises(ValueError, match="dim"):
            quantizer.assign_labels(qs, np.zeros((3, 9)))

    def test_frozen_state_across_calls(self):
        qs = quantizer.init_quantizer(9, QuantizerConfig(2, 16, 4, 8))
        before = qs.fingerprint()
        rng = np.random.default_rng(1)
        for _ in range(5):
            quantizer.assign_labels(qs, rng.standard_normal((10, 8)))
        assert qs.fingerprint() == before

    def test_codeword_permutation_equivariance(self):
        cfg = QuantizerConfig(num_codebooks=2, vocab_size=16, dim=4, input_dim=8)
        qs = quantizer.init_quantizer(4, cfg)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 8))
        base = quantizer.assign_labels(qs, x)

        perm = rng.permutation(16)
        permuted_books = qs.codebooks.copy()
        permuted_books[1] = qs.codebooks[1][perm]
        qs2 = quantizer.QuantizerState(projections=qs.projections,
                                       codebooks=permuted_books, seed=4, config=cfg)
        new = quantizer.assign_labels(qs2, x)
        inverse = np.argsort(perm)
        assert np.array_equal(new[:, 0], base[:, 0])
        assert np.array_equal(new[:, 1], inverse[base[:, 1]])

    def test_euclidean_equals_cosine_for_equal_norms(self):
        cfg = QuantizerConfig(num_codebooks=1, vocab_size=64, dim=8, input_dim=8)
        qs = quantizer.init_quantizer(6, cfg)
        books = qs.codebooks / np.linalg.norm(qs.codebooks, axis=2, keepdims=True)
        qs = quantizer.QuantizerState(projections=qs.projections, codebooks=books,
                                      seed=6, config=cfg)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1000, 8))
        euclid = quantizer.assign_labels(qs, x)[:, 0]
        dot = (x @ qs.projections[0]) @ books[0].T
        assert np.array_equal(euclid, np.argmax(dot, axis=1))


class TestLabelCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2048, size=(37, 32)).astype(np.int32)
        path = tmp_path / "utt.lab"
        records.write_label_cache(path, labels, 2048)
        assert np.array_equal(records.read_label_cache(path), labels)

    def test_read_is_uint16_at_stored_width(self, tmp_path):
        labels = np.random.default_rng(1).integers(0, 65536, size=(37, 32))
        labels[0, 0] = 65535
        path = tmp_path / "utt.lab"
        records.write_label_cache(path, labels, 65536)
        got = records.read_label_cache(path)
        assert got.dtype == np.uint16 and got.nbytes == 37 * 32 * 2
        assert np.array_equal(got, labels)

    def test_header_layout(self, tmp_path):
        labels = np.array([[1, 2], [3, 4]], dtype=np.int32)
        path = tmp_path / "x.lab"
        records.write_label_cache(path, labels, 16)
        raw = path.read_bytes()
        assert raw.startswith(b"MSEQ1 2 2 16\n")
        body = np.frombuffer(raw.split(b"\n", 1)[1], dtype="<u2")
        assert np.array_equal(body, [1, 2, 3, 4])  # row-major, frame-major

    def test_truncated_rejected(self, tmp_path):
        labels = np.zeros((4, 4), dtype=np.int32)
        path = tmp_path / "t.lab"
        records.write_label_cache(path, labels, 8)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            records.read_label_cache(path)

    @pytest.mark.parametrize("header", [b"MSEQ1 2 x 16", b"MSEQ1 2 2 1.5", b"MSEQ1 -1 2 16"])
    def test_non_integer_header_field_names_path(self, tmp_path, header):
        path = tmp_path / "h.lab"
        path.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(ValueError, match=f"not a label cache file: {path}"):
            records.read_label_cache(path)

    def test_failed_write_keeps_previous_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "u.lab"
        records.write_label_cache(path, np.ones((6, 2), np.int32), 8)
        before = path.read_bytes()

        class HalfWritten:
            """A file whose every write stores half its bytes and fails."""

            def __init__(self, f):
                self._f = f

            def write(self, data):
                data = memoryview(data).cast("B")
                self._f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

        monkeypatch.setattr(records, "open", lambda *a, **k: HalfWritten(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            records.write_label_cache(path, np.zeros((9, 2), np.int32), 8)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["u.lab"]

    def test_config_vocab_beyond_label_width_refused(self):
        assert QuantizerConfig(vocab_size=65536).vocab_size == 65536
        with pytest.raises(ValueError, match="^vocab_size 65537 exceeds the label cache "
                                             "format's 65536$"):
            QuantizerConfig(vocab_size=65537)

    def test_oversized_vocab_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="65536"):
            records.write_label_cache(tmp_path / "v.lab", np.zeros((1, 1), np.int32), 70000)
