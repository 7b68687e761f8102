"""The traced benchmark run wraps program functions by module and name.

A rename or deletion of one of them would otherwise show only in a traced
benchmark run; here it fails when the tracer installs its wrappers.
"""

import importlib.util
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from rqspeech import encoder, masking, pretrain
from rqspeech import quantizer as quant
from rqspeech.datapipe import Batch

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_uninstall_restores(monkeypatch):
    tracer = load_spans(monkeypatch).Tracer("tier1")
    try:
        tracer.install()
        patches = list(tracer._patches)
        replaced = [getattr(owner, attr) is not original for owner, attr, original in patches]
    finally:
        tracer.uninstall()
    assert patches and all(replaced)
    assert not tracer.active
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_split_train_step_spans_stay_on_calling_thread(monkeypatch):
    # the encoder's halves run on pool threads; the tracer keeps one stack of
    # open spans, so every span must still open on the calling thread
    tracer = load_spans(monkeypatch).Tracer("tier1")
    opened, halves = [], []
    real_open, real_halves = tracer.open, encoder._encode_halves

    def open_span(name):
        opened.append(threading.get_ident())
        return real_open(name)

    def encode_halves(*args):
        halves.append(len(args[3]))
        return real_halves(*args)
    monkeypatch.setattr(tracer, "open", open_span)
    monkeypatch.setattr(encoder, "_encode_halves", encode_halves)
    monkeypatch.setattr(encoder, "_SPLIT_MIN_FRAMES", 0)
    cfg = pretrain.PretrainConfig(
        peak_lr=1e-3, warmup_steps=20, total_steps=10, seed=0,
        mask=masking.MaskConfig(prob=0.4, span_frames=10),
        quantizer=quant.QuantizerConfig(num_codebooks=2, vocab_size=64, dim=8))
    state = pretrain.init_train_state(
        encoder.EncoderConfig(num_layers=2, hidden=32, ffn=64, heads=4), cfg)
    rng = np.random.default_rng(0)
    batches = [Batch(features=rng.standard_normal((5, 64, 80)).astype(np.float32),
                     lengths=np.array([64, 40, 64, 33, 50]), utt_ids=list("abcde"),
                     epoch=0, bucket_id=0) for _ in range(2)]
    tracer.install()
    try:
        for batch in batches:
            assert pretrain.train_step(state, batch, epoch=0) is not None
    finally:
        tracer.uninstall()
    assert halves == [5, 5]
    assert tracer._stack == []
    names = Counter(span.name for span in tracer.spans)
    assert names["pretrain.train_step"] == names["encoder.encode"] == 2
    assert names["autodiff.backward"] == 2
    assert set(opened) == {threading.get_ident()}
