"""Audio frontend: WAV decoding, resampling, and log-Mel features.

All functions are pure; the log-Mel output is the single feature
representation consumed by both the encoder and the quantizer.

Conventions (fixed so every frame count is exactly predictable):
  * 16 kHz analysis rate, 25 ms window (400 samples), 10 ms hop (160 samples)
  * periodic Hann window, 512-point FFT, no pre-emphasis, no center padding
  * 80 triangular HTK-mel filters spanning 0-8000 Hz
  * natural log with a power floor of 1e-10
  * frame count T = 1 + floor((num_samples - 400) / 160)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
NUM_MEL_BINS = 80
FFT_SIZE = 512
LOG_FLOOR = 1e-10

# Windowed-sinc resampler shape (Kaiser window).
_KAISER_BETA = 8.6
_ZERO_CROSSINGS = 64


class WavError(ValueError):
    """Raised for missing, malformed, or unsupported WAV input."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise WavError(f"malformed container: truncated {what}")
    return buf


def _parse_wav(f):
    """Parse a RIFF/WAVE stream; returns (rate, channels, int16 frame array)."""
    riff = _read_exact(f, 12, "RIFF header")
    if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
        raise WavError("malformed container: not a RIFF/WAVE file")

    fmt = None
    data = None
    while True:
        head = f.read(8)
        if len(head) == 0:
            break
        if len(head) < 8:
            raise WavError("malformed container: truncated chunk header")
        chunk_id, size = struct.unpack("<4sI", head)
        if chunk_id == b"fmt ":
            fmt = _read_exact(f, size, "fmt chunk")
        elif chunk_id == b"data":
            data = _read_exact(f, size, "data chunk")
        else:
            _read_exact(f, size, f"chunk {chunk_id!r}")
        if size % 2:  # RIFF pads chunks to even length
            f.read(1)
        if fmt is not None and data is not None:
            break

    if fmt is None or data is None:
        raise WavError("malformed container: missing fmt or data chunk")
    if len(fmt) < 16:
        raise WavError("malformed container: short fmt chunk")

    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag != 1:
        raise WavError(f"unsupported encoding: format tag {tag} (need 16-bit PCM)")
    if bits != 16:
        raise WavError(f"unsupported encoding: {bits}-bit samples (need 16)")
    if channels not in (1, 2):
        raise WavError(f"unsupported encoding: {channels} channels (need mono or stereo)")
    if rate == 0:
        raise WavError("malformed container: sample rate 0")

    frame_bytes = 2 * channels
    if len(data) % frame_bytes:
        raise WavError("malformed container: data size not a whole number of frames")
    pcm = np.frombuffer(data, dtype="<i2").reshape(-1, channels)
    return rate, channels, pcm


def load_audio(path) -> Waveform:
    """Decode a 16-bit PCM RIFF/WAVE file; stereo is downmixed by averaging."""
    path = Path(path)
    if not path.is_file():
        raise WavError(f"no such file: {path}")
    with open(path, "rb") as f:
        rate, channels, pcm = _parse_wav(f)
    samples = pcm.astype(np.float64) / 32768.0
    if channels == 2:
        samples = samples.mean(axis=1)
    else:
        samples = samples[:, 0]
    return Waveform(samples=samples, sample_rate=rate)


def load_16k(path) -> Waveform:
    """``load_audio``, resampled to SAMPLE_RATE when the file has another rate."""
    w = load_audio(path)
    return w if w.sample_rate == SAMPLE_RATE else resample(w, SAMPLE_RATE)


def wav_info(path):
    """(sample_rate, num_frames, channels) from the header, without decoding.

    The data chunk's presence and length are still validated so a truncated
    file is reported rather than silently indexed.
    """
    path = Path(path)
    if not path.is_file():
        raise WavError(f"no such file: {path}")
    with open(path, "rb") as f:
        rate, channels, pcm = _parse_wav(f)
    return rate, pcm.shape[0], channels


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM (test/demo helper)."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    data = pcm.tobytes()
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                                      sample_rate * 2, 2, 16))
        f.write(b"data" + struct.pack("<I", len(data)))
        f.write(data)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling with a Kaiser-windowed sinc kernel.

    Output length is round(n * target / source), so duration is preserved
    within one sample. Identical rates return the input samples unchanged.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return Waveform(samples=w.samples.copy(), sample_rate=target_rate)

    x = np.asarray(w.samples, dtype=np.float64)
    n_in = len(x)
    n_out = int(round(n_in * target_rate / w.sample_rate))
    if n_in == 0 or n_out == 0:
        return Waveform(samples=np.zeros(0), sample_rate=target_rate)

    ratio = target_rate / w.sample_rate
    rho = min(1.0, ratio)  # anti-alias cutoff relative to the input Nyquist
    half_width = _ZERO_CROSSINGS / rho  # kernel support in input samples

    def kernel(u):
        # sinc low-pass scaled by rho, shaped by a Kaiser window
        val = rho * np.sinc(rho * u)
        frac = u / half_width
        win = np.where(np.abs(frac) <= 1.0,
                       np.i0(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - frac**2)))
                       / np.i0(_KAISER_BETA),
                       0.0)
        return val * win

    y = np.empty(n_out, dtype=np.float64)
    taps = int(np.ceil(half_width))
    chunk = max(1, (1 << 22) // (2 * taps + 1))  # bound the gather matrix size
    for start in range(0, n_out, chunk):
        stop = min(start + chunk, n_out)
        t = np.arange(start, stop, dtype=np.float64) / ratio  # input-time positions
        base = np.floor(t).astype(np.int64)
        offsets = np.arange(-taps, taps + 1)
        idx = base[:, None] + offsets[None, :]
        weights = kernel(idx - t[:, None])
        valid = (idx >= 0) & (idx < n_in)
        gathered = np.where(valid, x[np.clip(idx, 0, n_in - 1)], 0.0)
        y[start:stop] = np.sum(gathered * np.where(valid, weights, 0.0), axis=1)
    return Waveform(samples=y, sample_rate=target_rate)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_bins: int = NUM_MEL_BINS, fft_size: int = FFT_SIZE,
                   sample_rate: int = SAMPLE_RATE, f_min: float = 0.0,
                   f_max: float = 8000.0) -> np.ndarray:
    """Triangular HTK-mel filters, shape (num_bins, fft_size // 2 + 1)."""
    n_freqs = fft_size // 2 + 1
    freqs = np.linspace(0.0, sample_rate / 2.0, n_freqs)
    mel_pts = np.linspace(_hz_to_mel(f_min), _hz_to_mel(f_max), num_bins + 2)
    hz_pts = _mel_to_hz(mel_pts)

    fb = np.zeros((num_bins, n_freqs), dtype=np.float64)
    for m in range(num_bins):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / (center - lo)
        down = (hi - freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES)
_FILTERBANK = mel_filterbank()


def num_frames(num_samples: int) -> int:
    """Frame count for a 16 kHz waveform; requires at least one full window."""
    if num_samples < WINDOW_SAMPLES:
        raise ValueError(f"need >= {WINDOW_SAMPLES} samples, got {num_samples}")
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def log_mel(w: Waveform) -> np.ndarray:
    """Log-Mel spectrogram, shape (T, 80), float32.

    Frames start at sample 0 with no padding; the power in each Mel channel is
    floored at 1e-10 before the natural log, so silence maps to log(1e-10).
    """
    if w.sample_rate != SAMPLE_RATE:
        raise ValueError(f"log_mel expects {SAMPLE_RATE} Hz input, got {w.sample_rate}")
    x = np.asarray(w.samples, dtype=np.float64)
    t = num_frames(len(x))

    # windowing a strided view copies each frame once, with no gather index
    frames = sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES][:t] * _HANN
    spec = np.fft.rfft(frames, n=FFT_SIZE, axis=1)
    # square the real and imaginary parts in the spectrum's own memory
    parts = spec.view(np.float64).reshape(*spec.shape, 2)
    np.square(parts, out=parts)
    mel_power = (parts[..., 0] + parts[..., 1]) @ _FILTERBANK.T
    np.maximum(mel_power, LOG_FLOOR, out=mel_power)
    return np.log(mel_power, out=mel_power).astype(np.float32)
