"""Input guards that no other test reaches: each row calls one public
function (or the records' shared reader) with the input it refuses, and
checks the exception kind and a fragment of its message."""

import io
from pathlib import Path

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import datapipe, finetune, frontend, masking, pretrain, quantizer, records
from rqspeech.seeding import keyed_rng

# name -> (callable, arguments, exception, message fragment)
GUARDS = {
    "head_outputs_not_split_by_codebooks": (
        ad.multi_softmax_nll,
        (np.zeros((2, 3)), np.zeros((3, 10)), np.zeros(10), np.zeros((2, 3), np.int64), 3),
        ValueError, "10 head outputs do not split into 3 codebooks"),
    "bucketing_an_empty_corpus": (
        datapipe.build_buckets, (datapipe.CorpusIndex(entries=[]),),
        ValueError, "cannot bucket an empty corpus index"),
    "score_unit_unknown": (
        finetune.score, (["a b"], ["a b"], "phone"),
        ValueError, "unit must be 'word' or 'char', got 'phone'"),
    "score_pair_counts_differ": (
        finetune.score, (["a", "b"], ["a"]),
        ValueError, "refs and hyps must have equal length"),
    "waveform_rate_zero": (
        frontend.Waveform, (np.zeros(4), 0),
        ValueError, "sample_rate must be positive"),
    "waveform_sample_nan": (
        frontend.Waveform, (np.array([0.0, np.nan]), 16000),
        ValueError, "waveform contains non-finite samples"),
    "resample_to_rate_zero": (
        frontend.resample, (frontend.Waveform(np.zeros(4), 16000), 0),
        ValueError, "target_rate must be positive"),
    "log_mel_of_8k_audio": (
        frontend.log_mel, (frontend.Waveform(np.zeros(800), 8000),),
        ValueError, "log_mel expects 16000 Hz input, got 8000"),
    "mask_of_no_frame": (
        masking.sample_mask, (0, masking.MaskConfig(), keyed_rng(0, "mask")),
        ValueError, "num_frames must be >= 1"),
    "coverage_of_no_trial": (
        masking.coverage_estimate, (masking.MaskConfig(), 10, 0, keyed_rng(0, "mask")),
        ValueError, "trials must be >= 1"),
    "loss_labels_of_another_shape": (
        pretrain.multi_softmax_loss, (np.zeros((4, 2, 3)), np.zeros((4, 3)), np.ones(4, bool)),
        ValueError, "labels shape (4, 3) does not match logits (4, 2)"),
    "loss_mask_of_another_length": (
        pretrain.multi_softmax_loss, (np.zeros((4, 2, 3)), np.zeros((4, 2)), np.ones(3, bool)),
        ValueError, "target_mask length (3,) != 4"),
    "utilization_of_no_label": (
        pretrain.codebook_utilization, (np.zeros((0, 2)), 2, 4),
        ValueError, "need at least one label"),
    "quantizer_projection_nan": (
        quantizer.QuantizerState,
        (np.full((1, 320, 2), np.nan), np.zeros((1, 4, 2)), 0, quantizer.QuantizerConfig()),
        ValueError, "quantizer parameters must be finite"),
    "record_array_read_short": (
        records._read_array,
        (io.BytesIO(b"\x01\x02\x03"), 0, (2,), "<u2", records.LabelCacheError("cut short")),
        records.LabelCacheError, "cut short"),
    # refused before the file is opened; its directory does not exist either
    "label_cache_label_past_vocabulary": (
        records.write_label_cache, (Path("no-such-dir") / "u.lab", np.array([[4]]), 4),
        ValueError, "labels out of range for vocab_size"),
    "rng_key_float": (
        keyed_rng, (0, "mask", 1.5),
        TypeError, "unsupported rng key type: float"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_refuses_its_input(name):
    call, args, kind, fragment = GUARDS[name]
    with pytest.raises(kind) as refused:
        call(*args)
    assert fragment in str(refused.value)
