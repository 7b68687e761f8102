"""Desk-scale self-supervised speech pretraining with random-projection
quantizer targets.

The package is organised as one module per pipeline stage:

- :mod:`rqspeech.frontend`  — WAV decoding, resampling, log-Mel features
- :mod:`rqspeech.quantizer` — frozen random-projection quantizer (label source)
- :mod:`rqspeech.masking`   — span masking and noise substitution
- :mod:`rqspeech.autodiff`  — minimal reverse-mode autodiff over numpy arrays
- :mod:`rqspeech.parallel`  — the process's threads: cores, OpenBLAS, pools
- :mod:`rqspeech.encoder`   — CNN feature extractor + Conformer stack
- :mod:`rqspeech.pretrain`  — masked-prediction training loop
- :mod:`rqspeech.records`   — checkpoint and label-cache files, crash-safe writes
- :mod:`rqspeech.datapipe`  — corpus indexing, bucketing, batch scheduling
- :mod:`rqspeech.finetune`  — CTC finetuning, decoding, WER/CER scoring
- :mod:`rqspeech.cli`       — command-line entry points
"""

__version__ = "0.1.0"
