"""Inside the encoder: stride-4 extractor, Conformer states, layer mixing.

Runs a small batch through the network and inspects lengths, the retained
per-layer states, padding invariance, and the softmax-weighted layer
aggregation used for probing.
"""

import numpy as np

from rqspeech import encoder
from rqspeech.encoder import EncoderConfig

cfg = EncoderConfig(num_layers=3, hidden=32, ffn=64, heads=4, dropout=0.0)
params = encoder.params_to_tensors(encoder.init_encoder_params(cfg, seed=1))
total, breakdown = encoder.count_params(cfg)
print(f"config {cfg}")
print(f"parameters: {total:,} across {len(breakdown)} tensors")

rng = np.random.default_rng(0)
mel = rng.standard_normal((2, 120, 80)).astype(np.float32)
lengths = np.array([90, 120])

out = encoder.encode(params, cfg, mel, lengths)
print(f"\ninput frames {mel.shape[1]}, output label frames {out.final.shape[1]} "
      f"(stride 4), valid lengths {out.lengths}")
print(f"retained states: {len(out.layer_states)} = extractor + {cfg.num_layers} layers")

# padded vs solo forward agree on the valid region, whatever fills the padding:
# attention masks the padded keys, and the convolutions see zeros there
solo = encoder.encode(params, cfg, mel[:1, :90], np.array([90]))
noisy = mel.copy()
noisy[0, 90:] = 1e3
refill = encoder.encode(params, cfg, noisy, lengths)
l = 90 // 4
gap = np.abs(solo.final.data[0, :l] - out.final.data[0, :l]).max()
print(f"padding changes valid outputs by at most {gap:.2e}")
print(f"refilled padding leaves every state unchanged: "
      f"{all(np.array_equal(a.data, b.data) for a, b in zip(out.layer_states, refill.layer_states))}")

# layer-weighted aggregation: saturated logits select a single layer
logits = np.zeros(cfg.num_layers + 1)
logits[2] = 1e6
mixed = encoder.weighted_sum(out.layer_states, logits)
match = np.allclose(mixed.data, out.layer_states[2].data, atol=1e-6)
print(f"one-hot layer weights reproduce layer 2 exactly: {match}")

big_total, _ = encoder.count_params(encoder.REFERENCE_SCALE)
print(f"\nreference-scale config (24 x 1024): {big_total:,} parameters")
