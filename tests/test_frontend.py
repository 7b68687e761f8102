import struct

import numpy as np
import pytest

from rqspeech import frontend
from rqspeech.frontend import Waveform, WavError

from conftest import tone


def naive_log_mel(samples):
    """Independent log-Mel oracle: explicit DFT matrix, loop over frames."""
    n = len(samples)
    t_count = 1 + (n - 400) // 160
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)
    k = np.arange(512 // 2 + 1)
    nn = np.arange(512)
    dft = np.exp(-2j * np.pi * k[:, None] * nn[None, :] / 512)
    fb = frontend.mel_filterbank()
    out = np.zeros((t_count, 80))
    for t in range(t_count):
        frame = np.zeros(512)
        frame[:400] = samples[t * 160: t * 160 + 400] * win
        spec = dft @ frame
        power = np.abs(spec) ** 2
        out[t] = np.log(np.maximum(power @ fb.T, 1e-10))
    return out


def gather_log_mel(samples):
    """``log_mel`` as computed with one gather index per frame sample, kept as
    the reference that the strided-view framing must equal bit for bit."""
    x = np.asarray(samples, dtype=np.float64)
    t = frontend.num_frames(len(x))
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(400) / 400)
    starts = np.arange(t) * 160
    frames = x[starts[:, None] + np.arange(400)[None, :]] * win
    spec = np.fft.rfft(frames, n=512, axis=1)
    power = spec.real**2 + spec.imag**2
    mel_power = power @ frontend.mel_filterbank().T
    return np.log(np.maximum(mel_power, 1e-10)).astype(np.float32)


class TestLoadAudio:
    def test_mono_one_second(self, tmp_path):
        path = tmp_path / "a.wav"
        frontend.write_wav(path, tone(440, 1.0), 16000)
        w = frontend.load_audio(path)
        assert len(w.samples) == 16000
        assert w.sample_rate == 16000
        assert np.all(np.abs(w.samples) <= 1.0)

    def test_stereo_downmix_averages(self, tmp_path):
        path = tmp_path / "st.wav"
        left = np.full(100, 16384, dtype="<i2")   # 0.5
        right = np.full(100, -16384, dtype="<i2")  # -0.5
        pcm = np.stack([left, right], axis=1).tobytes()
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE")
            f.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16))
            f.write(b"data" + struct.pack("<I", len(pcm)) + pcm)
        w = frontend.load_audio(path)
        assert np.all(w.samples == 0.0)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        frontend.write_wav(path, tone(440, 0.5), 16000)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) // 2])
        with pytest.raises(WavError, match="malformed container"):
            frontend.load_audio(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WavError, match="no such file"):
            frontend.load_audio(tmp_path / "absent.wav")

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        data = np.zeros(10, dtype="<f4").tobytes()
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
            f.write(b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32))
            f.write(b"data" + struct.pack("<I", len(data)) + data)
        with pytest.raises(WavError, match="unsupported encoding"):
            frontend.load_audio(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "zero.wav"
        frontend.write_wav(path, tone(440, 0.5), 0)
        with pytest.raises(WavError, match="sample rate 0"):
            frontend.wav_info(path)
        with pytest.raises(WavError, match="sample rate 0"):
            frontend.load_audio(path)

    def test_wav_info_matches_load(self, tmp_path):
        path = tmp_path / "b.wav"
        frontend.write_wav(path, tone(200, 0.73), 16000)
        rate, n, ch = frontend.wav_info(path)
        w = frontend.load_audio(path)
        assert (rate, n, ch) == (16000, len(w.samples), 1)


class TestResample:
    def test_identity_rate_bit_identical(self):
        w = Waveform(tone(440, 0.5), 16000)
        out = frontend.resample(w, 16000)
        assert out.sample_rate == 16000
        assert np.array_equal(out.samples, w.samples)

    def test_upsample_length(self):
        w = Waveform(tone(300, 1.0, rate=8000), 8000)
        assert len(w.samples) == 8000
        out = frontend.resample(w, 16000)
        assert abs(len(out.samples) - 16000) <= 1

    def test_sine_peak_preserved(self):
        # DFT oracle: the 440 Hz peak must stay at the 440 Hz bin after 2x upsampling.
        w = Waveform(tone(440, 1.0, rate=8000), 8000)
        out = frontend.resample(w, 16000)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 16000 / len(out.samples)
        assert abs(peak_hz - 440.0) < 2.0

    def test_downsample_band_limited(self):
        # 3 kHz tone survives 16k -> 8k; spectral peak stays at 3 kHz.
        w = Waveform(tone(3000, 1.0, rate=16000), 16000)
        out = frontend.resample(w, 8000)
        assert abs(len(out.samples) - 8000) <= 1
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 8000 / len(out.samples)
        assert abs(peak_hz - 3000.0) < 2.0

    def test_downsample_rejects_aliasing_band(self):
        # 5 kHz exceeds the 4 kHz target Nyquist: it must be filtered out,
        # not folded to 3 kHz.
        passband = frontend.resample(Waveform(tone(3000, 1.0, 16000), 16000), 8000)
        stopband = frontend.resample(Waveform(tone(5000, 1.0, 16000), 16000), 8000)
        interior = slice(400, -400)  # ignore filter edge transients
        pass_rms = np.sqrt(np.mean(passband.samples[interior] ** 2))
        stop_rms = np.sqrt(np.mean(stopband.samples[interior] ** 2))
        assert stop_rms < 0.01 * pass_rms

    def test_amplitude_preserved_through_resampling(self):
        w = Waveform(tone(1000, 1.0, rate=16000, amp=0.5), 16000)
        out = frontend.resample(w, 8000)
        rms = np.sqrt(np.mean(out.samples[400:-400] ** 2))
        assert abs(rms - 0.5 / np.sqrt(2)) < 0.005


class TestLogMel:
    def test_frame_count_one_second(self):
        w = Waveform(tone(440, 1.0), 16000)
        assert frontend.log_mel(w).shape == (98, 80)

    def test_frame_count_formula_exhaustive(self):
        for n in range(400, 1600, 7):
            w = Waveform(np.zeros(n), 16000)
            assert frontend.log_mel(w).shape[0] == 1 + (n - 400) // 160

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            frontend.log_mel(Waveform(np.zeros(399), 16000))

    def test_silence_hits_log_floor(self):
        w = Waveform(np.zeros(1600), 16000)
        m = frontend.log_mel(w)
        assert np.allclose(m, np.log(1e-10), atol=1e-6)

    def test_double_amplitude_adds_log4(self):
        rng = np.random.default_rng(7)
        x = 0.2 * rng.standard_normal(3200)
        m1 = frontend.log_mel(Waveform(x, 16000)).astype(np.float64)
        m2 = frontend.log_mel(Waveform(2 * x, 16000)).astype(np.float64)
        above = m1 > np.log(1e-10) + 1.5  # comfortably above the floor
        assert above.mean() > 0.9
        assert np.allclose((m2 - m1)[above], np.log(4.0), atol=1e-4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        x = 0.3 * rng.standard_normal(1200)
        got = frontend.log_mel(Waveform(x, 16000)).astype(np.float64)
        want = naive_log_mel(x)
        assert np.allclose(got, want, atol=1e-4)

    @pytest.mark.parametrize("n", [400, 401, 559, 560, 16000, 240000])
    def test_bitwise_equal_to_gather_framing(self, n):
        x = 0.3 * np.random.default_rng(n).standard_normal(n)
        x[: n // 4] = 0.0  # floored frames as well
        got = frontend.log_mel(Waveform(x, 16000))
        assert got.tobytes() == gather_log_mel(x).tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = 0.1 * rng.standard_normal(2000)
        a = frontend.log_mel(Waveform(x, 16000))
        b = frontend.log_mel(Waveform(x.copy(), 16000))
        assert np.array_equal(a, b)

    def test_filterbank_well_formed(self):
        fb = frontend.mel_filterbank()
        assert fb.shape == (80, 257)
        assert np.all(fb >= 0)
        assert np.all((fb > 0).any(axis=1))
