"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The two training criteria share one corpus and one
pretraining run; everything is seeded, so reruns are identical.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import datapipe, encoder, finetune, masking, pretrain
from rqspeech import quantizer as quant
from rqspeech.autodiff import Tensor
from rqspeech.cli import main
from rqspeech.datapipe import CorpusIndex, Utterance
from rqspeech.finetune import beam_decode, ctc_loss
from rqspeech.seeding import keyed_rng

from conftest import build_chirp_corpus, build_toytone_corpus
from test_finetune import enumerate_output_probs, random_logprobs


def report(num, description):
    print(f"ACCEPTANCE {num:2d} PASS: {description}", file=sys.stderr)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_quantizer_oracle_equivalence():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    for _ in range(50):
        n = int(rng.integers(1, 5))
        v = int(rng.integers(2, 33))
        dim = int(rng.integers(2, 9))
        in_dim = int(rng.integers(4, 17))
        l = int(rng.integers(1, 17))
        cfg = quant.QuantizerConfig(num_codebooks=n, vocab_size=v, dim=dim,
                                    input_dim=in_dim)
        qs = quant.init_quantizer(int(rng.integers(0, 10000)), cfg)
        x = rng.standard_normal((l, in_dim))
        got = quant.assign_labels(qs, x)
        for i in range(l):
            proj = x[i].astype(np.float64) @ qs.projections.astype(np.float64)
            for j in range(n):
                best, best_d = 0, np.inf
                for c in range(v):
                    d = float(np.sum((proj[j] - qs.codebooks[j][c]) ** 2))
                    if d < best_d:
                        best, best_d = c, d
                assert got[i, j] == best
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"assign_labels equals exhaustive scan on 50 instances ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_euclidean_cosine_argmin_agreement():
    cfg = quant.QuantizerConfig(num_codebooks=1, vocab_size=128, dim=8, input_dim=12)
    qs = quant.init_quantizer(200, cfg)
    books = qs.codebooks / np.linalg.norm(qs.codebooks, axis=2, keepdims=True)
    qs = quant.QuantizerState(projections=qs.projections, codebooks=books,
                              seed=200, config=cfg)
    rng = np.random.default_rng(201)
    x = rng.standard_normal((1000, 12))
    euclid = quant.assign_labels(qs, x)[:, 0]
    cosine = np.argmax((x @ qs.projections[0]) @ books[0].T, axis=1)
    mismatches = int(np.sum(euclid != cosine))
    assert mismatches == 0
    report(2, "Euclidean argmin equals cosine argmax on 1000 equal-norm frames")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_gradient_correctness_full_sweep():
    enc_cfg = encoder.EncoderConfig(num_layers=2, hidden=8, ffn=16, heads=2,
                                    conv_kernel=5, dropout=0.0)
    qcfg = quant.QuantizerConfig(num_codebooks=2, vocab_size=8, dim=4)
    rng = np.random.default_rng(300)

    arrays = encoder.init_encoder_params(enc_cfg, seed=3, dtype=np.float64)
    arrays.update({name: encoder.init_param(name, shape, 3, np.float64)
                   for name, shape in pretrain._head_shapes(enc_cfg, qcfg).items()})
    params = encoder.params_to_tensors(arrays)
    wlogits = Tensor(rng.standard_normal(enc_cfg.num_layers + 1), requires_grad=True)

    mel = rng.standard_normal((2, 20, 80))
    lengths = np.array([16, 20])
    labels = rng.integers(0, 8, size=(2 * 5, 2))
    target_mask = rng.random(2 * 5) < 0.7
    target_mask[0] = True
    probe = rng.standard_normal((2, 5, enc_cfg.hidden))
    rows_idx = np.flatnonzero(target_mask)

    def loss_fn():
        out = encoder.encode(params, enc_cfg, mel, lengths)
        rows = ad.take_rows(ad.reshape(out.final, (10, enc_cfg.hidden)), rows_idx)
        logits = ad.linear(rows, params["head.weight"], params["head.bias"])
        logits = ad.reshape(logits, (len(rows_idx), 2, 8))
        head_loss = pretrain._nll_mean(logits, labels[rows_idx])
        mixed = encoder.weighted_sum(out.layer_states, wlogits)
        return ad.add(head_loss, ad.mean(ad.mul(mixed, probe)))

    start = time.monotonic()
    loss = loss_fn()
    loss.backward()

    # step 1e-4 central differences: truncation is O(h^2), about 1e-8 absolute,
    # so entries are compared at 1e-4 relative with a truncation-scale floor,
    # and each tensor additionally at 1e-4 relative to its gradient magnitude.
    step = 1e-4
    checked = 0
    worst_tensor_rel = 0.0
    every = dict(params)
    every["weighted_sum.logits"] = wlogits
    for name, tensor in every.items():
        assert tensor.grad is not None, f"no gradient for {name}"
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        fd_all = np.zeros_like(grad)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            with ad.no_grad():
                hi = loss_fn().item()
            flat[i] = saved - step
            with ad.no_grad():
                lo = loss_fn().item()
            flat[i] = saved
            fd_all[i] = (hi - lo) / (2 * step)
            err = abs(grad[i] - fd_all[i])
            tol = 1e-4 * max(abs(grad[i]), abs(fd_all[i])) + 1e-7
            assert err <= tol, f"{name}[{i}]: analytic {grad[i]}, fd {fd_all[i]}"
            checked += 1
        # the 1e-8 floor covers structurally zero gradients (e.g. the depthwise
        # bias, which the following normalization cancels exactly)
        scale = max(np.abs(grad).max(), np.abs(fd_all).max(), 1e-8)
        tensor_rel = np.abs(grad - fd_all).max() / scale
        assert tensor_rel <= 1e-4, f"{name}: normalized max error {tensor_rel:.2e}"
        worst_tensor_rel = max(worst_tensor_rel, tensor_rel)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"
    report(3, f"{checked} parameter entries match finite differences "
              f"(worst per-tensor rel err {worst_tensor_rel:.2e}, {elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_loss_anchor():
    logits = np.zeros((4, 3, 2048))
    labels = np.zeros((4, 3), dtype=np.int64)
    loss = pretrain.multi_softmax_loss(logits, labels, np.ones(4, bool)).item()
    assert abs(loss - np.log(2048)) < 1e-4

    enc_cfg = encoder.DESK_SCALE
    qcfg = quant.QuantizerConfig(num_codebooks=2, vocab_size=2048, dim=16)
    cfg = pretrain.PretrainConfig(seed=400, quantizer=qcfg)
    state = pretrain.init_train_state(enc_cfg, cfg)
    rng = np.random.default_rng(401)
    from rqspeech.frontend import Waveform, log_mel
    mel = np.stack([log_mel(Waveform(0.1 * rng.standard_normal(16000), 16000))
                    for _ in range(4)])
    batch = datapipe.Batch(features=mel, lengths=np.full(4, mel.shape[1]),
                           utt_ids=[f"r{i}" for i in range(4)], epoch=0, bucket_id=0)
    metrics = pretrain.train_step(state, batch, epoch=0)
    assert abs(metrics.loss - np.log(2048)) < 0.5
    report(4, f"uniform-logit loss = ln(2048) +- 1e-4; fresh-model loss "
              f"{metrics.loss:.3f} within 0.5 of ln(2048) = {np.log(2048):.3f}")


# ------------------------------------------------------- shared training runs

OVERFIT_ENC = encoder.DESK_SCALE
OVERFIT_Q = quant.QuantizerConfig(num_codebooks=4, vocab_size=2048, dim=16)


def overfit_config(total_steps=2000):
    return pretrain.PretrainConfig(
        peak_lr=2e-3, warmup_steps=100, total_steps=total_steps, seed=7,
        mask=masking.MaskConfig(prob=0.4, span_frames=40), quantizer=OVERFIT_Q)


def run_overfit(index, spec, max_steps, stop_below=None):
    cfg = overfit_config(max_steps)
    state = pretrain.init_train_state(OVERFIT_ENC, cfg)
    losses = []
    epoch = 0
    while state.step < max_steps:
        for batch in datapipe.iter_epoch(spec, index, cfg.seed, epoch):
            m = pretrain.train_step(state, batch, epoch)
            if m is None:
                continue
            losses.append(m.loss)
            if m.step >= max_steps or (stop_below is not None and m.loss < stop_below):
                return state, np.array(losses)
        epoch += 1
    return state, np.array(losses)


@pytest.fixture(scope="module")
def chirp_setup(tmp_path_factory):
    root = build_chirp_corpus(tmp_path_factory.mktemp("acc") / "corpus32")
    index = datapipe.scan_corpus(root)
    spec = datapipe.build_buckets(index, num_buckets=4, tokens_per_batch=800)
    return index, spec


@pytest.fixture(scope="module")
def overfit_run(chirp_setup, tmp_path_factory):
    index, spec = chirp_setup
    start = time.monotonic()
    state, losses = run_overfit(index, spec, 2000, stop_below=1.0)
    runtime = time.monotonic() - start
    ckpt = tmp_path_factory.mktemp("acc_ckpt") / "overfit.msec"
    pretrain.save_checkpoint(state, ckpt)
    return {"state": state, "losses": losses, "runtime": runtime,
            "ckpt": ckpt, "index": index, "spec": spec}


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_pretrain_overfit(overfit_run):
    losses = overfit_run["losses"]
    runtime = overfit_run["runtime"]
    fingerprint = overfit_run["state"].quantizer_state.fingerprint()

    assert losses.min() < 1.0 and len(losses) <= 2000, \
        f"loss only reached {losses.min():.3f} in {len(losses)} steps"
    assert abs(losses[0] - np.log(2048)) < 0.5
    assert runtime < 15 * 60, f"run took {runtime:.0f}s"

    # same-seed rerun reproduces the trajectory
    _, losses2 = run_overfit(overfit_run["index"], overfit_run["spec"],
                             len(losses))
    assert len(losses2) == len(losses)
    np.testing.assert_allclose(losses2, losses, rtol=1e-6)

    # EMA(100) decreases after warmup; quantizer untouched by training
    ema = np.convolve(losses, np.ones(100) / 100, mode="valid")
    diffs = np.diff(ema[100:])
    assert diffs.size == 0 or diffs.max() < 0.01
    want = quant.init_quantizer(7, OVERFIT_Q).fingerprint()
    assert fingerprint == want
    report(5, f"loss {losses.min():.3f} < 1.0 at step {len(losses)} "
              f"({runtime:.0f}s), deterministic rerun matches")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_masking_statistics():
    span, frames, trials = 40, 4000, 1000
    for prob in (0.01, 0.15, 0.25, 0.4):
        cfg = masking.MaskConfig(prob=prob, span_frames=span)
        got = masking.coverage_estimate(cfg, frames, trials, keyed_rng(600, str(prob)))
        t = np.arange(frames)
        expected = float(np.mean(1.0 - (1.0 - prob) ** np.minimum(t + 1, span)))
        assert abs(got - expected) < 0.01, (prob, got, expected)
    report(6, "Monte Carlo coverage matches boundary-corrected expectation "
              "for prob in {0.01, 0.15, 0.25, 0.4}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_ctc_oracle_and_beam():
    rng = np.random.default_rng(700)
    checked = 0
    for t_frames in range(1, 7):
        for vocab in range(2, 5):
            lp = random_logprobs(rng, t_frames, vocab)
            table = enumerate_output_probs(lp)
            for length in range(1, 4):
                for target in itertools.product(range(1, vocab), repeat=length):
                    reps = sum(a == b for a, b in zip(target, target[1:]))
                    if t_frames < length + reps:
                        with pytest.raises(finetune.InfeasibleTargetError):
                            ctc_loss(lp, list(target))
                        continue
                    got = ctc_loss(lp, list(target)).item()
                    want = -np.log(table[target])
                    assert abs(got - want) < 1e-9, (t_frames, vocab, target)
                    checked += 1

    beam_checked = 0
    for _ in range(100):
        lp = random_logprobs(rng, 4, 3)
        table = enumerate_output_probs(lp)
        best_tokens, best_p = max(table.items(), key=lambda kv: kv[1])
        hyp = beam_decode(lp, 64)
        assert hyp.tokens == best_tokens
        assert abs(np.exp(hyp.log_prob) - best_p) < 1e-9
        beam_checked += 1
    report(7, f"CTC loss equals alignment enumeration on {checked} targets; "
              f"beam-64 equals exhaustive best on {beam_checked} instances")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_finetune_overfit(overfit_run, tmp_path_factory):
    root, transcripts = build_toytone_corpus(tmp_path_factory.mktemp("acc_ft") / "toy")
    index = datapipe.scan_corpus(root)
    spec = datapipe.build_buckets(index, num_buckets=1, tokens_per_batch=2000)

    tok = finetune.CharTokenizer.from_texts(transcripts.values())
    cfg = finetune.FinetuneConfig(encoder_lr=1e-3, decoder_lr=5e-3,
                                  warmup_steps=100, freeze_steps=100, seed=3)
    state = finetune.init_finetune_state(overfit_run["ckpt"], cfg, tok)

    frozen_hash = {k: p.data.tobytes() for k, p in state.encoder_params().items()}

    def training_cer():
        refs, hyps = [], []
        for batch in datapipe.iter_epoch(spec, index, cfg.seed, epoch=10_000):
            hyps.extend(finetune.transcribe(state, batch.features, batch.lengths))
            refs.extend(transcripts[u] for u in batch.utt_ids)
        return finetune.score(refs, hyps, unit="char")[0]

    cer = 100.0
    epoch = 0
    while state.step < 3000 and cer >= 5.0:
        for batch in datapipe.iter_epoch(spec, index, cfg.seed, epoch):
            finetune.finetune_step(state, batch, transcripts, epoch)
            if state.step == cfg.freeze_steps:
                for k, p in state.encoder_params().items():
                    assert p.data.tobytes() == frozen_hash[k], \
                        f"{k} changed during freeze"
            if state.step % 100 == 0:
                cer = training_cer()
            if state.step >= 3000 or cer < 5.0:
                break
        epoch += 1
    assert cer < 5.0, f"training CER stuck at {cer:.2f}% after {state.step} steps"

    # same result through the command-line decode + score path
    work = tmp_path_factory.mktemp("acc_cli")
    ckpt = work / "finetuned.msec"
    finetune.save_finetune_checkpoint(state, ckpt)
    manifest = work / "eval.tsv"
    manifest.write_text("".join(f"{u.utt_id}\t{u.path}\t{u.duration}\n"
                                for u in index.entries), encoding="utf-8")
    refs = work / "refs.tsv"
    refs.write_text("".join(f"{k}\t{v}\n" for k, v in sorted(transcripts.items())),
                    encoding="utf-8")
    hyps = work / "hyps.tsv"
    assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--out", str(hyps), "--greedy"]) == 0
    assert main(["score", "--refs", str(refs), "--hyps", str(hyps),
                 "--report", str(work / "report.csv")]) == 0
    total_row = (work / "report.csv").read_text().strip().splitlines()[-1].split(",")
    cli_cer = float(total_row[-1])
    assert cli_cer < 5.0, f"CLI decode/score CER {cli_cer:.2f}%"
    report(8, f"training CER {cer:.2f}% < 5% at step {state.step}; encoder hash "
              f"constant through the {cfg.freeze_steps} freeze steps; CLI "
              f"decode+score CER {cli_cer:.2f}%")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_datapipe(chirp_setup):
    index, spec = chirp_setup

    # epoch partition is exact
    for epoch in range(3):
        descs = datapipe.schedule_epoch(spec, index, seed=900, epoch=epoch)
        seen = sorted(u.utt_id for d in descs for u in d.utterances)
        assert seen == sorted(u.utt_id for u in index.entries)

    # bucket sampling proportional to remaining batches (90:10 construction)
    skew = CorpusIndex(entries=[Utterance(f"s{i}", "", 1.0) for i in range(90)]
                       + [Utterance(f"l{i}", "", 30.0) for i in range(10)])
    skew_spec = datapipe.build_buckets(skew, num_buckets=2, tokens_per_batch=1)
    first = []
    for epoch in range(200):
        descs = datapipe.schedule_epoch(skew_spec, skew, seed=901, epoch=epoch)
        first.append(sum(1 for d in descs[:10] if d.bucket_id == 0))
    assert abs(np.mean(first) - 9.0) < 0.5

    # frame budget constant across buckets within one utterance's frames
    for bucket in spec.buckets:
        product = bucket.batch_size * bucket.max_frames
        assert product <= 800
        assert product > 800 - bucket.max_frames

    # prefetch worker count does not change the batch stream
    serial = list(datapipe.iter_epoch(spec, index, seed=902, epoch=0, workers=1))
    parallel = list(datapipe.iter_epoch(spec, index, seed=902, epoch=0, workers=4))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.utt_ids == b.utt_ids
        assert np.array_equal(a.features, b.features)
    report(9, "epoch partition exact, 9:1 scheduler frequency, constant frame "
              "budget, worker-count independence")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_checkpoint_modes(overfit_run, tmp_path):
    state = overfit_run["state"]
    cfg = overfit_config()
    p1 = tmp_path / "a.msec"
    p2 = tmp_path / "b.msec"
    pretrain.save_checkpoint(state, p1)
    loaded = pretrain.load_checkpoint(p1, "full", OVERFIT_ENC, cfg)
    pretrain.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    fresh_cfg = pretrain.PretrainConfig(peak_lr=2e-3, warmup_steps=100,
                                        total_steps=10, seed=1234,
                                        quantizer=OVERFIT_Q)
    partial = pretrain.load_checkpoint(p1, "feature_extractor_only",
                                       OVERFIT_ENC, fresh_cfg)
    fresh = pretrain.init_train_state(OVERFIT_ENC, fresh_cfg)
    restored = {name for name, p in partial.params.items()
                if np.array_equal(p.data, state.params[name].data)
                and not np.array_equal(p.data, fresh.params[name].data)}
    assert restored == {n for n in state.params if n.startswith("extractor.")}
    for name, p in partial.params.items():
        if not name.startswith("extractor."):
            assert np.array_equal(p.data, fresh.params[name].data), name
    assert partial.step == 0
    report(10, "full round-trip byte-identical; feature_extractor_only "
               "restores exactly the extractor tensor set")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_schedule_anchor():
    assert pretrain.lr_schedule(4000, 8e-4, 4000) == pytest.approx(8e-4, abs=1e-12)
    assert pretrain.lr_schedule(16000, 8e-4, 4000) == pytest.approx(4e-4, abs=1e-12)
    report(11, "lr(warmup) = 8e-4 and lr(4x warmup) = 4e-4 with defaults")


# --------------------------------------------------------------- criterion 12

def test_criterion_12_inspect_reference_scale(tmp_path, capsys):
    cfg_path = tmp_path / "reference.ini"
    cfg_path.write_text("[encoder]\nnum_layers = 24\nhidden = 1024\n"
                        "ffn = 4096\nheads = 8\nconv_kernel = 5\ndropout = 0.1\n",
                        encoding="utf-8")
    assert main(["inspect", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    total = int(lines[-1].split(":")[1])
    breakdown_lines = [l for l in lines if "\t" in l]
    assert total == sum(int(l.split("\t")[1]) for l in breakdown_lines)
    gap = (total - 630e6) / 630e6
    assert abs(gap) < 0.05, f"parameter count {total} off by {gap:+.1%}"
    report(12, f"reference-scale count {total:,} within 5% of 630M ({gap:+.2%}), "
               f"{len(breakdown_lines)} tensors in breakdown")