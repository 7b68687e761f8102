import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from rqspeech import autodiff, frontend


def blas_thread_count():
    """numpy's OpenBLAS thread count, or None when it cannot be read."""
    blas = autodiff._openblas_threads()
    return blas and blas[0]()


def masked_norm_node(x, gamma, beta, eps, mask):
    """The conv module's norm over each utterance's frames where the (B, T, 1)
    ``mask`` is 1, as one node over the numpy pieces ``conv_module`` uses."""
    norm, _, inv, inv_count = autodiff._norm_forward(x.data, eps, mask)
    return autodiff._make(norm * gamma.data + beta.data, (x, gamma, beta),
                          lambda g: autodiff._norm_grad(g, norm, inv, gamma.data, mask=mask,
                                                        inv_count=inv_count))


def float_dropout(x, prob, rng):
    """Inverted dropout as a product with float multipliers, the node that
    the encoder's dropout was before each Conformer node drew and kept
    boolean masks of its own."""
    if prob <= 0.0:
        return x
    x = autodiff.as_tensor(x)
    return autodiff.mul(x, (rng.random(x.data.shape) >= prob).astype(x.data.dtype)
                        / (1.0 - prob))


def traced_bytes(call):
    """``(call(), retained, peak)``: the bytes ``call`` leaves allocated and
    the most it held at once, both above what tracemalloc counted when it
    started. Traces only the call, unless tracing is already on: then bytes
    allocated before the call and freed during it count against it, so a
    caller that traces a whole run can measure one step of it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, current - start, peak - start


@pytest.fixture(autouse=True)
def no_leaked_threads_or_blas_count():
    """Fail a test that leaves a thread running or OpenBLAS at another thread count."""
    count = blas_thread_count()
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not leaked, f"threads left running: {leaked}"
    assert blas_thread_count() == count, "OpenBLAS thread count changed"


def tone(freq_hz, seconds, rate=16000, amp=0.5, phase=0.0):
    t = np.arange(int(round(seconds * rate))) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def make_speechlike(rng, seconds, rate=16000):
    """Synthetic utterance: a few random tones plus weak noise."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for _ in range(3):
        f = rng.uniform(120.0, 3500.0)
        x += rng.uniform(0.05, 0.25) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x += 0.01 * rng.standard_normal(n)
    return np.clip(x, -0.99, 0.99)


def rewrite_checkpoint_header(path, edit):
    """Apply ``edit`` to the JSON header of an MSEC checkpoint in place.

    ``edit`` mutates the header dict; the tensor data is kept byte for byte.
    """
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12: 12 + header_len])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len:])


@pytest.fixture
def wav_dir(tmp_path):
    """Directory of small synthetic WAV files; returns (path, ids)."""
    rng = np.random.default_rng(1234)
    ids = []
    for i, seconds in enumerate([0.6, 1.0, 1.4]):
        name = f"utt{i:02d}.wav"
        frontend.write_wav(tmp_path / name, make_speechlike(rng, seconds), 16000)
        ids.append(f"utt{i:02d}")
    return tmp_path, ids


def build_chirp_corpus(root, count=32, seed=2024):
    """Synthetic pretraining corpus: chirp mixtures with distinct durations.

    Durations are evenly spaced over 1-2 s so every utterance has a unique
    frame count, and the chirps make frame content position-dependent.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        dur = 1.0 + i / (count - 1)
        n = int(round(dur * 16000))
        t = np.arange(n) / 16000
        x = np.zeros(n)
        for _ in range(3):
            f0, f1 = rng.uniform(200, 3000, 2)
            x += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * dur)))
        x += 0.02 * rng.standard_normal(n)
        frontend.write_wav(root / f"utt{i:02d}.wav", np.clip(x, -0.99, 0.99), 16000)
    return root


TOY_CHAR_FREQS = {ch: 300.0 * (i + 1) for i, ch in enumerate("abcdef")}

TOY_TEXTS = ["bad cab", "dec fad", "ace bed", "fab cad", "deaf ace",
             "cab fed", "bead fac", "dab ecd", "feed bac", "cafe bad"]


def speak_toy(text, rate=16000, char_seconds=0.16):
    """Render text over the a-f alphabet as a tone sequence; space is near-silence."""
    n_char = int(char_seconds * rate)
    rng = np.random.default_rng(0)
    parts = []
    for ch in text:
        t = np.arange(n_char) / rate
        if ch == " ":
            parts.append(0.01 * rng.standard_normal(n_char))
        else:
            parts.append(0.4 * np.sin(2 * np.pi * TOY_CHAR_FREQS[ch] * t))
    return np.concatenate(parts)


def build_toytone_corpus(root):
    """10-utterance character-tone corpus; returns (root, transcripts dict)."""
    root.mkdir(parents=True, exist_ok=True)
    transcripts = {}
    for i, text in enumerate(TOY_TEXTS):
        utt_id = f"toy{i:02d}"
        frontend.write_wav(root / f"{utt_id}.wav", speak_toy(text), 16000)
        transcripts[utt_id] = text
    return root, transcripts
