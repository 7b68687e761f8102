"""Seeded input synthesis for the benchmark workloads.

Everything here is a pure function of the workload seed. Durations and text
lengths are fixed grids; the seed draws the signal content and the words, so
every seed exercises the same batch shapes with different data.
"""

from __future__ import annotations

import numpy as np

from rqspeech import frontend

# 28 symbols: 26 letters, apostrophe and space.
ALPHABET = "abcdefghijklmnopqrstuvwxyz'"
CHAR_SECONDS = 0.16
_TONE_HZ = {ch: 220.0 + 120.0 * i for i, ch in enumerate(ALPHABET)}


def speechlike(rng: np.random.Generator, seconds: float, rate: int) -> np.ndarray:
    """A few drifting tones plus weak noise; distinct spectra per utterance."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for _ in range(4):
        f0, f1 = rng.uniform(120.0, 3500.0, 2)
        sweep = f0 * t + (f1 - f0) * t**2 / (2.0 * max(seconds, 1e-3))
        x += rng.uniform(0.05, 0.2) * np.sin(2.0 * np.pi * sweep + rng.uniform(0, 2 * np.pi))
    x += 0.01 * rng.standard_normal(n)
    return np.clip(x, -0.99, 0.99)


def random_text(rng: np.random.Generator, length: int) -> str:
    """Words of 2-8 letters separated by single spaces, exactly ``length`` chars."""
    out = []
    while len(out) < length:
        if out:
            out.append(" ")
        word_len = int(rng.integers(2, 9))
        out.extend(rng.choice(list(ALPHABET), size=word_len))
    text = "".join(out[:length])
    if text.endswith(" "):
        text = text[:-1] + str(rng.choice(list(ALPHABET[:26])))
    return text


def speak(rng: np.random.Generator, text: str, rate: int = frontend.SAMPLE_RATE) -> np.ndarray:
    """Render text as one tone per character; a space is near-silence."""
    n_char = int(round(CHAR_SECONDS * rate))
    t = np.arange(n_char) / rate
    parts = []
    for ch in text:
        if ch == " ":
            parts.append(0.01 * rng.standard_normal(n_char))
        else:
            phase = rng.uniform(0, 2 * np.pi)
            parts.append(0.4 * np.sin(2 * np.pi * _TONE_HZ[ch] * t + phase)
                         + 0.005 * rng.standard_normal(n_char))
    return np.concatenate(parts)


def write_manifest(path, rows) -> None:
    """rows: (utt_id, wav_path, duration_s) in the datapipe manifest format."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, wav, duration in rows:
            f.write(f"{utt_id}\t{wav}\t{duration!r}\n")

