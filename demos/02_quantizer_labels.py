"""The random-projection quantizer: from log-Mel features to frozen labels.

Shows the 4x feature stacking, per-utterance normalization, nearest-codeword
assignment, and the on-disk label cache format.
"""

import tempfile
from pathlib import Path

import numpy as np

from rqspeech import frontend, quantizer, records

rng = np.random.default_rng(0)

# a second of noisy audio stands in for speech
samples = 0.2 * rng.standard_normal(16000)
mel = frontend.log_mel(frontend.Waveform(samples, 16000))
print(f"log-Mel: {mel.shape}")

stacked = quantizer.stack_downsample(mel)
print(f"stacked 4x: {stacked.shape} (label frames x 320 channels), "
      f"{mel.shape[0] % 4} trailing frames dropped")

normalized = quantizer.normalize(stacked)
print(f"after normalization: channel means ~ {np.abs(normalized.mean(axis=0)).max():.2e}, "
      f"variances ~ 1 +- {np.abs(normalized.var(axis=0) - 1).max():.2e}")

# the quantizer training uses: 32 codebooks of 2048 codewords in 16 dimensions
cfg = quantizer.QuantizerConfig()
qs = quantizer.init_quantizer(seed=11, config=cfg)
labels = quantizer.assign_labels(qs, normalized)
print(f"labels: {labels.shape} (frames x codebooks), values in "
      f"[{labels.min()}, {labels.max()}] of {cfg.vocab_size}")
print(f"distinct codewords used, per codebook: "
      f"{[int(np.unique(labels[:, j]).size) for j in range(cfg.num_codebooks)]}")

# determinism and frozenness: same seed, same labels, state never mutates
fp_before = qs.fingerprint()
again = quantizer.assign_labels(qs, normalized)
print(f"deterministic: {np.array_equal(labels, again)}, "
      f"state frozen: {qs.fingerprint() == fp_before}")

# label cache round trip
path = Path(tempfile.mkdtemp(prefix="rqspeech_demo_")) / "utt.lab"
records.write_label_cache(path, labels, cfg.vocab_size)
print(f"cache file starts with: {path.read_bytes()[:16]!r}")
print(f"cache round-trips: {np.array_equal(records.read_label_cache(path), labels)}")
