import itertools
import re

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import encoder as enc
from rqspeech import finetune, pretrain, records
from rqspeech.quantizer import QuantizerConfig
from rqspeech.autodiff import Tensor
from rqspeech.cli import main
from rqspeech.datapipe import Batch
from rqspeech.finetune import (BLANK_ID, CharTokenizer, FinetuneConfig,
                               InfeasibleTargetError, SpecAugmentConfig, beam_decode,
                               ctc_loss, edit_distance, greedy_decode, score,
                               spec_augment)
from rqspeech.seeding import keyed_rng

from conftest import rewrite_checkpoint_header, spy_state_building

TINY_ENC = enc.EncoderConfig(num_layers=1, hidden=16, ffn=32, heads=2, dropout=0.0)


def random_logprobs(rng, t, v):
    x = rng.standard_normal((t, v))
    x = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
    return x


def collapse(path):
    out = []
    prev = -1
    for sym in path:
        if sym != prev and sym != BLANK_ID:
            out.append(sym)
        prev = sym
    return tuple(out)


def enumerate_output_probs(logprobs):
    """Exhaustive oracle: probability of every collapsed output."""
    t, v = logprobs.shape
    table = {}
    for path in itertools.product(range(v), repeat=t):
        p = np.exp(sum(logprobs[i, sym] for i, sym in enumerate(path)))
        key = collapse(path)
        table[key] = table.get(key, 0.0) + p
    return table


def reference_beam_decode(logprobs, beam_width):
    """The dict-based prefix beam search that ``beam_decode`` replaced, kept as
    the oracle its results must equal bit for bit."""
    lp = np.asarray(logprobs)
    t_frames, vocab = lp.shape
    ninf = -np.inf
    beams = {(): (0.0, ninf)}  # prefix -> (log P ending in blank, in non-blank)
    for t in range(t_frames):
        frame = lp[t]
        new = {}

        def bump(prefix, blank_part, nonblank_part):
            pb, pnb = new.get(prefix, (ninf, ninf))
            new[prefix] = (np.logaddexp(pb, blank_part) if blank_part != ninf else pb,
                           np.logaddexp(pnb, nonblank_part) if nonblank_part != ninf else pnb)

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            bump(prefix, total + frame[BLANK_ID], ninf)
            if prefix:
                bump(prefix, ninf, pnb + frame[prefix[-1]])  # repeat collapses
            for c in range(1, vocab):
                extended = prefix + (c,)
                if prefix and c == prefix[-1]:
                    bump(extended, ninf, pb + frame[c])  # needs a blank in between
                else:
                    bump(extended, ninf, total + frame[c])

        ranked = sorted(new.items(), key=lambda kv: -np.logaddexp(kv[1][0], kv[1][1]))
        beams = dict(ranked[:beam_width])

    best, (pb, pnb) = max(beams.items(), key=lambda kv: np.logaddexp(kv[1][0], kv[1][1]))
    return best, float(np.logaddexp(pb, pnb))


class TestTokenizer:
    def test_round_trip_and_blank(self):
        tok = CharTokenizer.from_texts(["hello", "world"])
        ids = tok.encode("hello world")
        assert BLANK_ID not in ids
        assert tok.decode(ids) == "hello world"

    def test_space_always_included(self):
        tok = CharTokenizer.from_texts(["ab"])
        assert " " in tok.alphabet

    def test_unknown_char_rejected(self):
        tok = CharTokenizer("ab")
        with pytest.raises(ValueError, match="alphabet"):
            tok.encode("abc")

    def test_vocab_size_counts_blank(self):
        assert CharTokenizer("abc").vocab_size == 4


class TestCtcLoss:
    def test_single_frame_uniform(self):
        lp = np.log(np.full((1, 2), 0.5))
        loss = ctc_loss(lp, [1]).item()
        assert abs(loss - np.log(2)) < 1e-9

    def test_repeat_needs_blank(self):
        lp = np.log(np.full((2, 2), 0.5))
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(lp, [1, 1])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            t = int(rng.integers(2, 7))
            v = int(rng.integers(2, 5))
            lp = random_logprobs(rng, t, v)
            table = enumerate_output_probs(lp)
            targets = [k for k in table if 1 <= len(k) <= 3]
            for target in targets[:10]:
                reps = sum(a == b for a, b in zip(target, target[1:]))
                if t < len(target) + reps:
                    continue
                got = ctc_loss(lp, list(target)).item()
                assert abs(got - (-np.log(table[target]))) < 1e-9

    def test_probability_conservation(self):
        rng = np.random.default_rng(1)
        lp = random_logprobs(rng, 4, 3)
        table = enumerate_output_probs(lp)
        assert abs(sum(table.values()) - 1.0) < 1e-9
        total = np.exp(np.sum(lp[:, BLANK_ID]))  # empty output
        for target in table:
            if target:
                total += np.exp(-ctc_loss(lp, list(target)).item())
        assert abs(total - 1.0) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        target = [1, 2, 1]
        from rqspeech import autodiff as ad

        def loss_of():
            return ctc_loss(ad.log_softmax(logits, axis=-1), target)

        loss_of().backward()
        g = logits.grad.copy()
        step = 1e-6
        flat = logits.data.reshape(-1)
        for i in rng.choice(flat.size, 8, replace=False):
            saved = flat[i]
            flat[i] = saved + step
            with ad.no_grad():
                hi = loss_of().item()
            flat[i] = saved - step
            with ad.no_grad():
                lo = loss_of().item()
            flat[i] = saved
            assert abs(g.reshape(-1)[i] - (hi - lo) / (2 * step)) < 1e-6

    @pytest.mark.parametrize("t, v, target", [
        (1, 2, [1]),                # one frame, the fewest a symbol needs
        (3, 3, [1, 1]),             # a repeat at exactly its 3-frame minimum
        (6, 4, [2, 2, 3, 3]),       # two repeats at the 6-frame minimum
        (7, 4, [1, 2, 1]),
        (12, 6, [5, 1, 5, 5, 2]),
    ])
    def test_full_gradient_matches_finite_differences(self, t, v, target):
        rng = np.random.default_rng(10 * t + v)
        lp = random_logprobs(rng, t, v)
        x = Tensor(lp, requires_grad=True)
        ctc_loss(x, target).backward()
        want = np.zeros_like(lp)
        step = 1e-6
        for idx in np.ndindex(lp.shape):
            saved = lp[idx]
            lp[idx] = saved + step
            hi = ctc_loss(lp, target).item()
            lp[idx] = saved - step
            lo = ctc_loss(lp, target).item()
            lp[idx] = saved
            want[idx] = (hi - lo) / (2 * step)
        np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-8)

    def test_float32_in_float32_out(self):
        lp = random_logprobs(np.random.default_rng(3), 9, 5).astype(np.float32)
        x = Tensor(lp, requires_grad=True)
        loss = ctc_loss(x, [4, 1, 1])
        loss.backward()
        assert loss.dtype == np.float32 and x.grad.dtype == np.float32
        x64 = Tensor(lp.astype(np.float64), requires_grad=True)
        loss64 = ctc_loss(x64, [4, 1, 1])
        loss64.backward()
        np.testing.assert_allclose(loss.item(), loss64.item(), rtol=1e-5)
        np.testing.assert_allclose(x.grad, x64.grad, atol=1e-5)

    def test_neginf_entries_get_zero_gradient(self):
        lp = random_logprobs(np.random.default_rng(4), 8, 5)
        lp[:, 4] = -np.inf            # a symbol the target never uses
        lp[[0, 3, 5], [2, 1, BLANK_ID]] = -np.inf
        x = Tensor(lp, requires_grad=True)
        loss = ctc_loss(x, [1, 2, 2])
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(x.grad))
        assert np.all(x.grad[np.isneginf(lp)] == 0.0)

    def test_records_one_node(self):
        x = Tensor(random_logprobs(np.random.default_rng(5), 10, 4), requires_grad=True)
        loss = ctc_loss(x, [1, 2, 3])
        assert loss._parents == (x,) and loss._backward is not None
        with ad.no_grad():
            loss = ctc_loss(x, [1, 2, 3])
        assert loss._parents == () and loss._backward is None

    def test_blank_in_target_rejected(self):
        with pytest.raises(ValueError, match="non-blank"):
            ctc_loss(np.zeros((3, 3)), [0, 1])

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ctc_loss(np.zeros((3, 3)), [])


def reference_ctc_nll(lp, target):
    """The per-utterance CTC node that the batched ``ad.ctc_nll`` replaced,
    kept as the oracle its loss and gradient must equal bit for bit."""
    ext = np.full(2 * len(target) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = target
    allow_skip = np.zeros(len(ext), dtype=bool)
    allow_skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])

    def alphas_of(emit, allow_skip):
        alphas = np.full_like(emit, -np.inf)
        alphas[0, :2] = emit[0, :2]
        shifted = np.full(emit.shape[1] + 2, -np.inf, emit.dtype)
        for t in range(1, len(emit)):
            shifted[2:] = alphas[t - 1]
            prev2 = np.where(allow_skip, shifted[:-2], -np.inf)
            alphas[t] = np.logaddexp(np.logaddexp(alphas[t - 1], shifted[1:-1]), prev2) + emit[t]
        return alphas

    emit = lp.data[:, ext]
    alphas = alphas_of(emit, allow_skip)
    log_p = np.logaddexp(alphas[-1, -1], alphas[-1, -2])

    def backward(g):
        skip_back = np.concatenate([[False, False], allow_skip[:1:-1]])
        betas = alphas_of(emit[::-1, ::-1], skip_back)[::-1, ::-1]
        post = np.exp(alphas + betas - np.where(np.isneginf(emit), 0.0, emit) - log_p)
        grad = np.zeros_like(lp.data)
        np.add.at(grad, (np.arange(len(emit))[:, None], ext), post * -float(g))
        return (grad,)

    return ad._make(np.asarray(-log_p), (lp,), backward)


def reference_batch_loss(lp, frames, targets):
    """The chain the batched node replaced: one slice and one CTC node per
    utterance, and the mean as a mul/add chain in batch order."""
    per_utt = [reference_ctc_nll(lp[i, : int(frames[i])], targets[i])
               for i in range(len(targets))]
    loss = ad.mul(per_utt[0], 1.0 / len(per_utt))
    for term in per_utt[1:]:
        loss = ad.add(loss, ad.mul(term, 1.0 / len(per_utt)))
    return loss


def random_ctc_batch(rng, b, dtype):
    """Padded (B, T, V) logits with unequal frame counts and target lengths;
    utterance 0 has the most frames, and the last utterance's target needs
    exactly its frame count."""
    vocab = int(rng.integers(3, 12))
    t_max = int(rng.integers(4, 30))
    frames = rng.integers(1, t_max + 1, b)
    frames[0] = t_max
    targets = []
    for t_frames in frames:
        target = rng.integers(1, vocab, int(rng.integers(1, t_frames + 1)))
        while len(target) + int(np.sum(target[1:] == target[:-1])) > t_frames:
            target = target[:-1]
        targets.append(target)
    # n ones need 2n - 1 frames; a final 2 adds one more
    n, odd = divmod(int(frames[-1]) + 1, 2)
    targets[-1] = np.array([1] * n if not odd else [1] * n + [2])
    logits = rng.standard_normal((b, t_max, vocab)).astype(dtype) * 3
    logits[0, 0, BLANK_ID] = -np.inf   # a -inf log-prob entry
    return logits, frames, targets


class TestBatchCtcLoss:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradient_bits_match_per_utterance_chain(self, dtype):
        rng = np.random.default_rng(11)
        for trial in range(40):
            logits, frames, targets = random_ctc_batch(rng, trial % 8 + 1, dtype)
            results = []
            for loss_of in (reference_batch_loss, finetune.batch_ctc_loss):
                x = Tensor(logits, requires_grad=True)
                loss = loss_of(ad.log_softmax(x, axis=-1), frames, targets)
                loss.backward()
                results.append((loss.data, x.grad))
            (want, want_grad), (got, got_grad) = results
            assert got.dtype == got_grad.dtype == dtype
            assert got.tobytes() == want.tobytes(), trial
            assert got_grad.tobytes() == want_grad.tobytes(), trial

    def test_zero_gradient_past_each_length(self):
        logits, frames, targets = random_ctc_batch(np.random.default_rng(12), 5, np.float64)
        with ad.no_grad():
            x = Tensor(ad.log_softmax(logits, axis=-1).data, requires_grad=True)
        finetune.batch_ctc_loss(x, frames, targets).backward()
        for i, (t_frames, target) in enumerate(zip(frames, targets)):
            assert np.all(x.grad[i, t_frames:] == 0.0)
            unused = np.setdiff1d(np.arange(1, logits.shape[2]), target)
            assert np.all(x.grad[i][:, unused] == 0.0)

    def test_errors_name_the_utterance(self):
        lp = random_logprobs(np.random.default_rng(13), 4, 3)[None].repeat(3, axis=0)
        names = ["u0", "u1", "u2"]
        with pytest.raises(InfeasibleTargetError, match="^utterance u1: 2 frames cannot"):
            finetune.batch_ctc_loss(lp, [4, 2, 4], [[1], [1, 1], [2]], names)
        with pytest.raises(ValueError, match="^utterance u2: target id outside"):
            finetune.batch_ctc_loss(lp, [4, 4, 4], [[1], [2], [3]], names)
        lp[2, :, 2] = -np.inf
        with pytest.raises(InfeasibleTargetError, match="^utterance u2: no feasible"):
            finetune.batch_ctc_loss(lp, [4, 4, 4], [[1], [2], [2]], names)


class TestGreedyDecode:
    def test_collapse_rule(self):
        # frames argmax: blank, a, a, blank, b  (a=1, b=2)
        lp = np.log(np.full((5, 3), 0.1))
        for t, sym in enumerate([0, 1, 1, 0, 2]):
            lp[t, sym] = np.log(0.8)
        assert greedy_decode(lp).tokens == (1, 2)

    def test_all_blank_empty(self):
        lp = np.zeros((4, 3))
        lp[:, 0] = 5.0
        hyp = greedy_decode(lp)
        assert hyp.tokens == ()

    def test_blank_separates_repeats(self):
        lp = np.log(np.full((3, 2), 0.1))
        for t, sym in enumerate([1, 0, 1]):
            lp[t, sym] = np.log(0.9)
        assert greedy_decode(lp).tokens == (1, 1)

    def test_invariant_under_per_frame_rescaling(self):
        rng = np.random.default_rng(3)
        lp = random_logprobs(rng, 10, 5)
        scaled = lp + rng.uniform(0.1, 2.0, size=(10, 1))
        assert greedy_decode(lp).tokens == greedy_decode(scaled).tokens

    def test_log_prob_nonpositive(self):
        rng = np.random.default_rng(4)
        hyp = greedy_decode(random_logprobs(rng, 6, 4))
        assert hyp.log_prob <= 0.0


class TestBeamDecode:
    def test_beam_one_on_peaked_equals_greedy(self):
        rng = np.random.default_rng(5)
        lp = random_logprobs(rng, 6, 4) * 20  # peaked after renorm
        lp = lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))
        assert beam_decode(lp, 1).tokens == greedy_decode(lp).tokens

    def test_matches_exhaustive_best_output(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            lp = random_logprobs(rng, 4, 3)
            table = enumerate_output_probs(lp)
            best = max(table.items(), key=lambda kv: kv[1])
            hyp = beam_decode(lp, 64)
            assert hyp.tokens == best[0]
            assert abs(np.exp(hyp.log_prob) - best[1]) < 1e-9

    def test_monotone_in_beam_width(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lp = random_logprobs(rng, 6, 4)
            scores = [beam_decode(lp, w).log_prob for w in (1, 2, 4, 8)]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            beam_decode(np.zeros((2, 2)), 0)

    @staticmethod
    def assert_matches_reference(lp, width):
        hyp = beam_decode(lp, width)
        tokens, log_prob = reference_beam_decode(lp, width)
        assert hyp.tokens == tokens
        # bitwise: equal, and the same sign of zero
        assert np.float64(hyp.log_prob).tobytes() == np.float64(log_prob).tobytes()

    def test_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(8)
        for case in range(1000):
            t = int(rng.integers(1, 9))
            v = int(rng.integers(2, 6))
            lp = random_logprobs(rng, t, v)
            if case % 2:
                lp = np.round(lp * 2) / 2  # coarse values make exact ties
            if case % 3 == 0:
                lp[rng.random(lp.shape) < 0.2] = -np.inf
            if case % 4 < 2:
                lp = lp.astype(np.float32)
            self.assert_matches_reference(lp, int(rng.integers(1, 71)))

    def test_edge_cases_match_reference(self):
        rng = np.random.default_rng(9)
        self.assert_matches_reference(np.zeros((0, 4)), 8)  # no frames
        assert beam_decode(np.zeros((0, 4)), 8) == finetune.Hypothesis((), 0.0)
        blank_only = np.log(rng.uniform(0.5, 1.0, size=(6, 1)))
        self.assert_matches_reference(blank_only, 3)
        assert beam_decode(blank_only, 3).tokens == ()
        self.assert_matches_reference(random_logprobs(rng, 2, 3), 100)  # 7 candidates

    def test_long_utterance_matches_reference(self):
        self.assert_matches_reference(random_logprobs(np.random.default_rng(13), 2000, 6), 8)

    def test_near_uniform_matches_reference(self):
        # an untrained model: every prefix's extensions score alike, so beams
        # that are one symbol apart both survive and merge on most frames
        rng = np.random.default_rng(14)
        lp = np.log(np.full((300, 30), 1 / 30)) + 1e-3 * rng.standard_normal((300, 30))
        lp = lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))
        self.assert_matches_reference(lp, 8)
        self.assert_matches_reference(lp.astype(np.float32), 8)

    def test_width_above_candidate_count_matches_reference(self):
        # every prefix survives, so from frame 2 on the empty prefix's
        # extension by c merges with the prefix (c,)
        rng = np.random.default_rng(15)
        for t, v in [(2, 2), (3, 3), (4, 3), (5, 2), (3, 4)]:
            self.assert_matches_reference(random_logprobs(rng, t, v), v ** t + 1)

    def test_tensor_input(self):
        lp = random_logprobs(np.random.default_rng(10), 5, 4)
        assert beam_decode(Tensor(lp), 4) == beam_decode(lp, 4)

    def test_decode_size_matches_reference(self):
        # the size of a 15 s utterance's search: 375 frames, 28 symbols and
        # blank, beam 8, near-uniform float32 scores as from an untrained head
        rng = np.random.default_rng(16)
        lp = np.log(np.full((375, 29), 1 / 29)) + 1e-3 * rng.standard_normal((375, 29))
        lp = lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))
        self.assert_matches_reference(lp.astype(np.float32), 8)


class TestLogaddexp:
    @staticmethod
    def assert_bits(x, y):
        got = finetune._logaddexp(float(x), float(y))
        assert isinstance(got, float)
        want = np.logaddexp(np.float64(x), np.float64(y))
        assert np.float64(got).tobytes() == want.tobytes(), (x, y)

    def test_special_values_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-300, -1e-300,
                  1.0, -1.0, 0.5, -745.2, 709.8, -1e308, 1e308, np.log(2.0)]
        # numpy warns where x - y overflows (+-1e308) and where it compares a NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in itertools.product(values, repeat=2):
                self.assert_bits(x, y)

    def test_random_pairs_bitwise(self):
        rng = np.random.default_rng(17)
        n = 100_000
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        # near, equal and far pairs
        y = np.where(rng.random(n) < 0.5, x + rng.standard_normal(n) * 1e-3,
                     rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n))
        y[::97] = x[::97]
        got = np.array([finetune._logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
        assert got.tobytes() == np.logaddexp(x, y).tobytes()


@pytest.mark.parametrize("decode", [greedy_decode, lambda lp: beam_decode(lp, 4)],
                         ids=["greedy", "beam"])
@pytest.mark.parametrize("shape", [(5,), (2, 5, 3)])
def test_decoder_rejects_non_matrix(decode, shape):
    with pytest.raises(ValueError, match=f"2-D.*{re.escape(str(shape))}"):
        decode(np.zeros(shape))


@pytest.mark.parametrize("decode", [greedy_decode, lambda lp: beam_decode(lp, 4)],
                         ids=["greedy", "beam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decoder_rejects_nan_and_posinf(decode, bad):
    lp = random_logprobs(np.random.default_rng(12), 5, 4)
    lp[2, 1] = bad
    with pytest.raises(FloatingPointError, match="NaN or \\+inf"):
        decode(lp)


class TestScore:
    def test_identical(self):
        rate, _ = score(["a b c"], ["a b c"])
        assert rate == 0.0

    def test_one_deletion(self):
        rate, pairs = score(["a b c"], ["a c"])
        assert rate == pytest.approx(100.0 / 3)
        assert pairs == [(1, 3)]

    def test_empty_hypothesis(self):
        rate, _ = score(["w x y z"], [""])
        assert rate == 100.0

    def test_char_unit(self):
        rate, _ = score(["abc"], ["axc"], unit="char")
        assert rate == pytest.approx(100.0 / 3)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            score([""], [""])

    def test_edit_distance_symmetric_cases(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance([], [1, 2]) == 2


def axis_loop_spec_augment(mel, cfg, rng):
    """``spec_augment`` as it drew its time bands and its frequency bands in a
    loop per axis: the oracle for the draws and zeros of its one band loop."""
    out = mel.copy()
    t, bins = out.shape
    apply_time = rng.random() < cfg.time_apply_prob
    if apply_time:
        for _ in range(cfg.time_masks):
            width = int(rng.integers(0, cfg.max_time_width + 1))
            width = min(width, t)
            start = int(rng.integers(0, t - width + 1))
            out[start: start + width, :] = 0.0
    for _ in range(cfg.freq_masks):
        width = int(rng.integers(0, cfg.max_freq_width + 1))
        width = min(width, bins)
        start = int(rng.integers(0, bins - width + 1))
        out[:, start: start + width] = 0.0
    return out


class TestSpecAugment:
    def test_zero_widths_identity(self):
        cfg = SpecAugmentConfig(max_time_width=0, max_freq_width=0, time_apply_prob=1.0)
        rng = np.random.default_rng(0)
        mel = rng.standard_normal((50, 80)).astype(np.float32)
        out = spec_augment(mel, cfg, keyed_rng(0, "sa"))
        assert np.array_equal(out, mel)

    def test_freq_band_zeroed_others_untouched(self):
        cfg = SpecAugmentConfig(time_masks=0, time_apply_prob=0.0,
                                freq_masks=1, max_freq_width=27)
        rng = np.random.default_rng(1)
        mel = np.abs(rng.standard_normal((40, 80))).astype(np.float32) + 0.5
        out = spec_augment(mel, cfg, keyed_rng(3, "sa"))
        zero_cols = np.flatnonzero((out == 0).all(axis=0))
        if zero_cols.size:
            assert np.array_equal(zero_cols, np.arange(zero_cols[0], zero_cols[-1] + 1))
        touched = np.ones(80, bool)
        touched[zero_cols] = False
        assert np.array_equal(out[:, touched], mel[:, touched])

    def test_time_gate_frequency(self):
        cfg = SpecAugmentConfig()
        rng = np.random.default_rng(2)
        mel = np.abs(rng.standard_normal((60, 80))) + 0.5
        hits = 0
        trials = 10000
        for seed in range(trials):
            out = spec_augment(mel, cfg, keyed_rng(seed, "gate"))
            if (out == 0).all(axis=1).any():  # some frame fully zeroed
                hits += 1
        assert abs(hits / trials - 0.2) < 0.01

    @pytest.mark.parametrize("time_apply_prob", [0.0, 0.2, 1.0])
    def test_equals_a_loop_per_axis(self, time_apply_prob):
        # the golden run's few finetune steps need not reach the time bands;
        # widths run past the frames and the bins, where the draw is cut
        rng = np.random.default_rng(int(time_apply_prob * 10))
        for case in range(80):
            t, bins = int(rng.integers(1, 60)), int(rng.choice([80, 9]))
            mel = rng.standard_normal((t, bins)).astype(np.float32)
            cfg = SpecAugmentConfig(time_masks=int(rng.integers(0, 5)),
                                    max_time_width=int(rng.integers(0, 2 * t)),
                                    time_apply_prob=time_apply_prob,
                                    freq_masks=int(rng.integers(0, 5)),
                                    max_freq_width=int(rng.integers(0, 2 * bins)))
            got_rng, want_rng = keyed_rng(case, "sa"), keyed_rng(case, "sa")
            got = spec_augment(mel, cfg, got_rng)
            want = axis_loop_spec_augment(mel, cfg, want_rng)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (case, cfg)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_mask_counts_bounded_by_frames_and_bins(self):
        # the frames of a 40 s utterance, and the Mel bins of a frame
        SpecAugmentConfig(time_masks=3998, freq_masks=80)
        with pytest.raises(ValueError, match="time_masks must be <= 3998"):
            SpecAugmentConfig(time_masks=3999)
        with pytest.raises(ValueError, match="freq_masks must be <= 80"):
            SpecAugmentConfig(freq_masks=81)


def char_pattern(ch):
    rng = keyed_rng(99, "charpat", ch)
    return rng.normal(0.0, 1.0, size=80).astype(np.float32)


def synth_batch(texts, frames_per_char=12):
    """Mel-space toy corpus: each character is a distinctive 12-frame block."""
    t_max = max(len(t) for t in texts) * frames_per_char
    feats = np.zeros((len(texts), t_max, 80), dtype=np.float32)
    lengths = np.zeros(len(texts), dtype=np.int64)
    ids = []
    for i, text in enumerate(texts):
        for k, ch in enumerate(text):
            feats[i, k * frames_per_char: (k + 1) * frames_per_char] = char_pattern(ch)
        lengths[i] = len(text) * frames_per_char
        ids.append(f"toy{i}")
    return Batch(features=feats, lengths=lengths, utt_ids=ids, epoch=0, bucket_id=0)


@pytest.fixture(scope="module")
def pretrained_ckpt(tmp_path_factory):
    """A small random-init checkpoint standing in for a pretrained encoder."""
    path = tmp_path_factory.mktemp("ft") / "enc.msec"
    state = pretrain.init_train_state(
        TINY_ENC, pretrain.PretrainConfig(
            seed=0, quantizer=QuantizerConfig(num_codebooks=1, vocab_size=8, dim=4)))
    pretrain.save_checkpoint(state, path)
    return path


class TestFinetuneLoop:
    def make_state(self, ckpt, texts, freeze_steps=2):
        tok = CharTokenizer.from_texts(texts)
        cfg = FinetuneConfig(encoder_lr=1e-3, decoder_lr=5e-3, warmup_steps=10,
                             freeze_steps=freeze_steps, seed=1,
                             spec_augment=SpecAugmentConfig(time_apply_prob=0.0,
                                                            max_freq_width=0))
        return finetune.init_finetune_state(ckpt, cfg, tok)

    def test_encoder_frozen_then_released(self, pretrained_ckpt):
        texts = ["ab", "ba", "aab"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=2)
        batch = synth_batch(texts)
        transcripts = dict(zip(batch.utt_ids, texts))
        frozen_hash = {k: p.data.tobytes() for k, p in state.encoder_params().items()}
        head_before = state.params["ctc_head.weight"].data.copy()

        m1 = finetune.finetune_step(state, batch, transcripts, epoch=0)
        assert m1["frozen"]
        for k, p in state.encoder_params().items():
            assert p.data.tobytes() == frozen_hash[k]
        assert not np.array_equal(state.params["ctc_head.weight"].data, head_before)

        finetune.finetune_step(state, batch, transcripts, epoch=0)
        m3 = finetune.finetune_step(state, batch, transcripts, epoch=0)
        assert not m3["frozen"]
        changed = any(p.data.tobytes() != frozen_hash[k]
                      for k, p in state.encoder_params().items())
        assert changed

    @pytest.mark.parametrize("split", [False, True])
    def test_frozen_step_records_no_encoder_node(self, pretrained_ckpt, monkeypatch, split):
        if split:  # the batch runs as one ``ad.batch_halves`` node
            monkeypatch.setattr(enc, "_SPLIT_MIN_FRAMES", 0)
        texts = ["ab", "ba", "aab"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=1)
        batch = synth_batch(texts)
        learners = []
        clipped = pretrain.clipped_gradients

        def keep_learners(loss, *args):  # the Tensors with requires_grad on the tape
            nodes, stack = {}, [loss]
            while stack:
                node = stack.pop()
                nodes[id(node)] = node
                stack.extend(p for p in node._parents if id(p) not in nodes)
            learners.append({key for key, node in nodes.items() if node.requires_grad})
            return clipped(loss, *args)
        monkeypatch.setattr(pretrain, "clipped_gradients", keep_learners)
        transcripts = dict(zip(batch.utt_ids, texts))
        steps = [finetune.finetune_step(state, batch, transcripts, epoch=0) for _ in range(2)]
        assert [m["frozen"] for m in steps] == [True, False]
        assert learners == [{id(p) for p in state.head_params().values()},
                            {id(p) for p in state.params.values()}]

    def test_frozen_step_clips_and_logs_the_heads_norm(self, pretrained_ckpt, monkeypatch):
        texts = ["ab", "ba"]
        batch = synth_batch(texts)
        received = {}
        adam_step = pretrain.adam_step

        def keep_grads(params, grads, *args):
            received.update((name, grads[name].copy()) for name in params)
            return adam_step(params, grads, *args)
        monkeypatch.setattr(pretrain, "adam_step", keep_grads)

        def frozen_step(clip):
            monkeypatch.setattr(pretrain, "GRAD_CLIP", clip)
            received.clear()
            state = self.make_state(pretrained_ckpt, texts, freeze_steps=1)
            m = finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
            assert m["frozen"] and list(received) == list(state.head_params())
            return m["grad_norm"], np.sqrt(sum(np.sum(g.astype(np.float64) ** 2)
                                              for g in received.values()))

        logged, head_norm = frozen_step(1e9)  # never clipped
        assert logged == pytest.approx(head_norm, rel=1e-12)
        logged_again, clipped_norm = frozen_step(1e-3)
        assert logged_again == logged
        assert clipped_norm == pytest.approx(1e-3, rel=1e-4)

    def test_encoder_adam_counts_from_the_freeze(self, pretrained_ckpt, monkeypatch):
        # the encoder's first update, at step 3 after a freeze of 2, is Adam's
        # update from zero moments at t = 1, not at t = 3
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=2)
        batch = synth_batch(texts)
        transcripts = dict(zip(batch.utt_ids, texts))
        for _ in range(2):
            finetune.finetune_step(state, batch, transcripts, epoch=0)
        encoder_group = state.encoder_params()
        before = {k: p.data.copy() for k, p in encoder_group.items()}
        assert not any(state.adam.m[k].any() or state.adam.v[k].any() for k in encoder_group)
        grads = {}
        adam_step = pretrain.adam_step

        def keep_grads(params, step_grads, *args):
            grads.update(step_grads)
            return adam_step(params, step_grads, *args)

        monkeypatch.setattr(pretrain, "adam_step", keep_grads)
        m = finetune.finetune_step(state, batch, transcripts, epoch=0)
        assert m["step"] == 3 and not m["frozen"]
        (beta1, beta2), eps = pretrain.ADAM_BETAS, pretrain.ADAM_EPS
        for k, p in encoder_group.items():
            g = grads[k]
            m1, v1 = (1.0 - beta1) * g, (1.0 - beta2) * g * g
            want = before[k] - (m["lr_encoder"] / (1.0 - beta1)) * m1 / (
                np.sqrt(v1 / (1.0 - beta2)) + eps)
            assert state.adam.m[k].tobytes() == m1.tobytes(), k
            assert state.adam.v[k].tobytes() == v1.tobytes(), k
            assert p.data.tobytes() == want.tobytes(), k

    def test_loss_decreases(self, pretrained_ckpt):
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=0)
        batch = synth_batch(texts)
        transcripts = dict(zip(batch.utt_ids, texts))
        losses = [finetune.finetune_step(state, batch, transcripts, epoch=0)["loss"]
                  for _ in range(50)]
        assert np.mean(losses[-5:]) < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN is on purpose
    def test_non_finite_loss_aborts_without_update(self, pretrained_ckpt):
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=0)
        state.params["ctc_head.weight"].data[:] = np.inf
        batch = synth_batch(texts)
        snapshot = {k: p.data.copy() for k, p in state.params.items()}
        with pytest.raises(pretrain.NonFiniteLossError, match="at step 1"):
            finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
        assert state.step == 0
        assert zero_moments(state.adam)
        for k, arr in snapshot.items():
            assert np.array_equal(state.params[k].data, arr)
            assert state.params[k].grad is None

    def test_grad_norm_is_pre_clip_norm(self, pretrained_ckpt, monkeypatch):
        texts = ["ab", "ba"]
        monkeypatch.setattr(pretrain, "GRAD_CLIP", 1e-3)
        cfg = FinetuneConfig(freeze_steps=0, seed=1,
                             spec_augment=SpecAugmentConfig(time_apply_prob=0.0,
                                                            max_freq_width=0))
        state = finetune.init_finetune_state(pretrained_ckpt, cfg,
                                             CharTokenizer.from_texts(texts))
        received = []
        adam_step = pretrain.adam_step

        def keep_grads(params, grads, *args):  # called once per Adam group
            received.extend(grads[name] for name in params)
            return adam_step(params, grads, *args)

        monkeypatch.setattr(pretrain, "adam_step", keep_grads)
        batch = synth_batch(texts)
        m = finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
        assert m["grad_norm"] > 1e-3  # reported before clipping scales it down
        assert len(received) == len(state.params)
        clipped = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in received))
        assert clipped == pytest.approx(1e-3, rel=1e-4)

    @pytest.mark.parametrize("freeze_steps", [0, 1])
    def test_step_leaves_no_gradient_on_parameters(self, pretrained_ckpt, freeze_steps):
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=freeze_steps)
        batch = synth_batch(texts)
        finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
        assert [name for name, p in state.params.items() if p.grad is not None] == []

    def test_loss_is_one_ctc_node_over_the_log_softmax(self, pretrained_ckpt, monkeypatch):
        texts = ["ab", "ba", "aab"]
        state = self.make_state(pretrained_ckpt, texts)
        batch = synth_batch(texts)
        seen = {}
        log_softmax, clipped = ad.log_softmax, pretrain.clipped_gradients

        def keep_output(*args, **kwargs):
            seen["logprobs"] = log_softmax(*args, **kwargs)
            return seen["logprobs"]

        def keep_loss(loss, *args):
            seen["parents"] = loss._parents  # the backward walk releases them
            return clipped(loss, *args)

        monkeypatch.setattr(ad, "log_softmax", keep_output)
        monkeypatch.setattr(pretrain, "clipped_gradients", keep_loss)
        finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
        assert seen["logprobs"].shape[0] == 3
        assert seen["parents"] == (seen["logprobs"],)

    def test_infeasible_utterance_raises_without_update(self, pretrained_ckpt):
        texts = ["ab", "ba", "aab"]
        state = self.make_state(pretrained_ckpt, texts + ["abababab"], freeze_steps=0)
        batch = synth_batch(texts)
        transcripts = dict(zip(batch.utt_ids, texts))
        transcripts["toy1"] = "abababab"   # 8 symbols in 24 input frames
        snapshot = {k: p.data.copy() for k, p in state.params.items()}
        with pytest.raises(InfeasibleTargetError, match="^utterance toy1: "):
            finetune.finetune_step(state, batch, transcripts, epoch=0)
        assert state.step == 0
        assert zero_moments(state.adam)
        for k, arr in snapshot.items():
            assert np.array_equal(state.params[k].data, arr)

    def test_transcribe_shapes(self, pretrained_ckpt):
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts)
        batch = synth_batch(texts)
        out = finetune.transcribe(state, batch.features, batch.lengths)
        assert len(out) == 2
        out_beam = finetune.transcribe(state, batch.features, batch.lengths, beam_width=4)
        assert len(out_beam) == 2

    def test_checkpoint_round_trip(self, pretrained_ckpt, tmp_path):
        texts = ["ab", "ba"]
        state = self.make_state(pretrained_ckpt, texts, freeze_steps=0)
        batch = synth_batch(texts)
        transcripts = dict(zip(batch.utt_ids, texts))
        for _ in range(3):
            finetune.finetune_step(state, batch, transcripts, epoch=0)
        path = tmp_path / "ft.msec"
        finetune.save_finetune_checkpoint(state, path)
        loaded = finetune.load_finetune_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.tokenizer.alphabet == state.tokenizer.alphabet
        a = finetune.transcribe(state, batch.features, batch.lengths)
        b = finetune.transcribe(loaded, batch.features, batch.lengths)
        assert a == b
        # continuing training from the restored state is identical
        ma = finetune.finetune_step(state, batch, transcripts, epoch=1)
        mb = finetune.finetune_step(loaded, batch, transcripts, epoch=1)
        assert ma["loss"] == pytest.approx(mb["loss"], rel=1e-6)


def trained_state(ckpt, steps=2):
    texts = ["ab", "ba"]
    state = TestFinetuneLoop().make_state(ckpt, texts, freeze_steps=1)
    batch = synth_batch(texts)
    for _ in range(steps):
        finetune.finetune_step(state, batch, dict(zip(batch.utt_ids, texts)), epoch=0)
    return state


def assert_same_state(a, b):
    assert (a.step, a.tokenizer.alphabet, a.cfg, a.encoder_cfg) == \
        (b.step, b.tokenizer.alphabet, b.cfg, b.encoder_cfg)
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name
    assert list(a.adam.m) == list(b.adam.m) == list(a.params)
    for name in a.adam.m:
        assert np.array_equal(a.adam.m[name], b.adam.m[name]), name
        assert np.array_equal(a.adam.v[name], b.adam.v[name]), name


def zero_moments(adam):
    return not any(np.any(a) for a in (*adam.m.values(), *adam.v.values()))


def drop_entry(name):
    def edit(header):
        header["tensors"] = [e for e in header["tensors"] if e["name"] != name]
    return edit


def reshape_entry(name, shape):
    def edit(header):
        for entry in header["tensors"]:
            if entry["name"] == name:
                entry["shape"] = shape
    return edit


def test_init_reads_encoder_tensors_only(pretrained_ckpt, monkeypatch):
    texts = ["ab", "ba"]
    read = []
    real = records.read_checkpoint

    def spy(*args, **kwargs):
        header, tensors = real(*args, **kwargs)
        read.extend(tensors)
        return header, tensors
    monkeypatch.setattr(records, "read_checkpoint", spy)
    state = TestFinetuneLoop().make_state(pretrained_ckpt, texts)
    assert sorted(read) == sorted(enc.param_shapes(TINY_ENC))
    # the same state as one built from every tensor of the file
    header, tensors = real(pretrained_ckpt)
    assert any(name.startswith(("head.", "opt.")) for name in tensors)
    full = finetune._finetune_state(header, tensors, pretrained_ckpt, state.cfg,
                                    CharTokenizer.from_texts(texts),
                                    reads=lambda name: not name.startswith("ctc_head."))
    assert_same_state(state, full)


def test_init_from_a_finetune_checkpoint_reads_its_encoder_only(pretrained_ckpt, tmp_path,
                                                                monkeypatch):
    path = tmp_path / "ft.msec"
    finetune.save_finetune_checkpoint(trained_state(pretrained_ckpt), path)
    read = []
    real = records.read_checkpoint

    def spy(*args, **kwargs):
        header, tensors = real(*args, **kwargs)
        read.extend(tensors)
        return header, tensors
    monkeypatch.setattr(records, "read_checkpoint", spy)
    state = TestFinetuneLoop().make_state(path, ["ab", "ba"])
    assert sorted(read) == sorted(enc.param_shapes(TINY_ENC))
    _, tensors = real(path)
    for name in enc.param_shapes(TINY_ENC):
        assert state.params[name].data.tobytes() == tensors[name].tobytes(), name
    # the head is drawn as a start from the pretraining checkpoint draws it
    fresh = TestFinetuneLoop().make_state(pretrained_ckpt, ["ab", "ba"])
    for name in ("ctc_head.weight", "ctc_head.bias"):
        assert not np.array_equal(state.params[name].data, tensors[name]), name
        assert state.params[name].data.tobytes() == fresh.params[name].data.tobytes(), name


def test_init_draws_only_the_ctc_head(pretrained_ckpt, monkeypatch):
    drawn, zeroed = spy_state_building(monkeypatch)
    state = TestFinetuneLoop().make_state(pretrained_ckpt, ["ab", "ba"])
    assert drawn == ["ctc_head.weight", "ctc_head.bias"]
    assert zeroed == [list(state.params)]


class TestFinetuneCheckpoint:
    @pytest.fixture
    def saved(self, pretrained_ckpt, tmp_path):
        state = trained_state(pretrained_ckpt)
        path = tmp_path / "ft.msec"
        finetune.save_finetune_checkpoint(state, path)
        return state, path

    @pytest.mark.parametrize("optimizer", [True, False])
    def test_load_draws_nothing(self, saved, monkeypatch, optimizer):
        # with the optimizer the moments are read, not zeros then replaced
        state, path = saved
        drawn, zeroed = spy_state_building(monkeypatch)
        loaded = finetune.load_finetune_checkpoint(path, optimizer=optimizer)
        assert drawn == []
        assert zeroed == ([] if optimizer else [list(state.params)])
        assert list(loaded.params) == list(state.params)

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        state, path = saved
        loaded = finetune.load_finetune_checkpoint(path)
        assert_same_state(loaded, state)
        again = tmp_path / "again.msec"
        finetune.save_finetune_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_older_header_form_loads(self, saved, tmp_path):
        # earlier writers also stored "quantizer": null, Adam's update counts
        # (the step for the head, the step less freeze_steps for the encoder)
        # and the Adam and clipping settings in "finetune_config", and named
        # the SpecAugment mask counts num_time_masks and num_freq_masks; all
        # are read or ignored on load, and training continues as from the
        # unedited file
        state, path = saved
        older = tmp_path / "older.msec"
        older.write_bytes(path.read_bytes())

        def edit(header):
            header["quantizer"] = None
            header["adam_count"] = state.step
            run = header["run_config"]
            run.update(adam_count_head=state.step,
                       adam_count_encoder=state.step - state.cfg.freeze_steps)
            run["finetune_config"].update(adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-8,
                                          grad_clip=1.0)
            spec = run["finetune_config"]["spec_augment"]
            spec["num_time_masks"] = spec.pop("time_masks")
            spec["num_freq_masks"] = spec.pop("freq_masks")
        rewrite_checkpoint_header(older, edit)
        assert_same_state(finetune.load_finetune_checkpoint(older), state)
        texts = ["ab", "ba"]
        batch = synth_batch(texts)
        runs = []
        for source in (path, older):
            loaded = finetune.load_finetune_checkpoint(source)
            m = finetune.finetune_step(loaded, batch, dict(zip(batch.utt_ids, texts)), epoch=1)
            out = tmp_path / f"{source.stem}.next.msec"
            finetune.save_finetune_checkpoint(loaded, out)
            runs.append((m, out.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key, edit", [
        ("encoder_config", lambda h: h.pop("encoder_config")),
        ("encoder_config", lambda h: h["encoder_config"].update(bogus=1)),
        ("encoder_config", lambda h: h["encoder_config"].update(heads=3)),
        ("alphabet", lambda h: h["run_config"].pop("alphabet")),
        ("alphabet", lambda h: h["run_config"].update(alphabet="")),
        ("finetune_config", lambda h: h["run_config"].pop("finetune_config")),
        ("finetune_config", lambda h: h["run_config"]["finetune_config"].pop("spec_augment")),
    ], ids=["encoder_config-missing", "encoder_config-unknown-key",
            "encoder_config-bad-value", "alphabet-missing", "alphabet-empty",
            "finetune_config-missing", "finetune_config-malformed"])
    def test_bad_header_rejected(self, saved, key, edit):
        _, path = saved
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(pretrain.CheckpointError, match=key):
            finetune.load_finetune_checkpoint(path)

    def test_init_rejects_missing_encoder_config(self, pretrained_ckpt, tmp_path):
        path = tmp_path / "enc.msec"
        path.write_bytes(pretrained_ckpt.read_bytes())
        rewrite_checkpoint_header(path, lambda h: h.pop("encoder_config"))
        with pytest.raises(pretrain.CheckpointError, match="encoder_config"):
            TestFinetuneLoop().make_state(path, ["ab"])

    def test_reshaped_tensor_rejected(self, saved):
        _, path = saved
        hidden = TINY_ENC.hidden
        rewrite_checkpoint_header(path, reshape_entry("extractor.proj.bias",
                                                      [2, hidden // 2]))
        with pytest.raises(pretrain.CheckpointError, match="extractor.proj.bias"):
            finetune.load_finetune_checkpoint(path)

    @pytest.mark.parametrize("name", ["opt.m.ctc_head.bias", "opt.v.extractor.proj.bias",
                                      "ctc_head.weight"])
    def test_missing_tensor_rejected(self, saved, name):
        _, path = saved
        rewrite_checkpoint_header(path, drop_entry(name))
        with pytest.raises(pretrain.CheckpointError, match=f"missing tensor {name}") as err:
            finetune.load_finetune_checkpoint(path)
        assert str(err.value).endswith(f": {path}")

    def test_load_without_optimizer_reads_no_moment(self, saved, monkeypatch):
        state, path = saved
        read = []
        real = records.read_checkpoint

        def spy(*args, **kwargs):
            header, tensors = real(*args, **kwargs)
            read.extend(tensors)
            return header, tensors
        monkeypatch.setattr(records, "read_checkpoint", spy)
        loaded = finetune.load_finetune_checkpoint(path, optimizer=False)
        assert sorted(read) == sorted(state.params)
        assert (loaded.step, loaded.tokenizer.alphabet, loaded.cfg, loaded.encoder_cfg) == \
            (state.step, state.tokenizer.alphabet, state.cfg, state.encoder_cfg)
        for name, p in state.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name
        # the optimizer starts fresh
        assert zero_moments(loaded.adam)

    def test_load_without_optimizer_ignores_missing_moment(self, saved):
        _, path = saved
        rewrite_checkpoint_header(path, drop_entry("opt.m.ctc_head.bias"))
        finetune.load_finetune_checkpoint(path, optimizer=False)
        with pytest.raises(pretrain.CheckpointError, match="missing tensor opt.m.ctc_head.bias"):
            finetune.load_finetune_checkpoint(path)

    def test_pretrain_checkpoint_is_not_a_finetune_checkpoint(self, pretrained_ckpt):
        with pytest.raises(pretrain.CheckpointError, match="not a finetune checkpoint"):
            finetune.load_finetune_checkpoint(pretrained_ckpt)


class TestCheckpointsWithDeletedBiases:
    """Checkpoints written while each layer had a key bias and a depthwise
    bias still load: readers take the tensors the config names and ignore
    the rest, and the softmax and the conv module's norm cancelled both."""

    CFG = enc.EncoderConfig(num_layers=2, hidden=16, ffn=32, heads=2, dropout=0.0)

    @pytest.fixture
    def biases(self):
        rng = np.random.default_rng(40)
        return {f"layers.{i}.{family}":
                (0.3 + 0.1 * rng.standard_normal(self.CFG.hidden)).astype(np.float32)
                for i in range(self.CFG.num_layers)
                for family in ("attn.wk.bias", "conv.dw.bias")}

    @pytest.fixture
    def old_writer(self, biases, monkeypatch):
        """The checkpoint writer, adding the biases and their Adam moments."""
        real = records.write_checkpoint

        def write(path, step, encoder_cfg, tensors, fields):
            moments = {f"opt.{kind}.{name}": np.abs(b) for name, b in biases.items()
                       for kind in "mv"}
            real(path, step, encoder_cfg, {**tensors, **biases, **moments}, fields)
        for writer in (pretrain, records):
            monkeypatch.setattr(writer, "write_checkpoint", write)

    def final_with_biases(self, params, biases, mel, lengths):
        """The encoder's final state with each layer's biases added back, to
        its keys and to its depthwise output, in layer order."""
        layers = range(self.CFG.num_layers)
        keys = iter([biases[f"layers.{i}.attn.wk.bias"] for i in layers])
        convs = iter([biases[f"layers.{i}.conv.dw.bias"] for i in layers])
        attention, depthwise = ad._rel_attention, ad._depthwise
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ad, "_rel_attention",
                      lambda q, k, *rest: attention(q, k + next(keys), *rest))
            m.setattr(ad, "_depthwise", lambda padded, w: depthwise(padded, w) + next(convs))
            with ad.no_grad():
                final = enc.encode(params, self.CFG, mel, lengths).final.data
        assert next(keys, None) is None and next(convs, None) is None
        return final

    def test_pretrain_and_finetune_checkpoints_load(self, biases, old_writer, tmp_path,
                                                    capsys):
        cfg = pretrain.PretrainConfig(seed=0, quantizer=QuantizerConfig(1, 8, 4))
        pre, ft = tmp_path / "pre.msec", tmp_path / "ft.msec"
        fresh = pretrain.init_train_state(self.CFG, cfg)
        pretrain.save_checkpoint(fresh, pre)
        loaded = pretrain.load_checkpoint(pre, "full", self.CFG, cfg)
        state = finetune.init_finetune_state(pre, FinetuneConfig(seed=1),
                                             CharTokenizer.from_texts(["ab"]))
        finetune.save_finetune_checkpoint(state, ft)
        restored = finetune.load_finetune_checkpoint(ft)
        for path in (pre, ft):
            assert main(["inspect", "--ckpt", str(path)]) == 0
            out = capsys.readouterr().out
            for name in biases:
                assert f"{name}\t{self.CFG.hidden}\n" in out
                assert f"opt.m.{name}\t{self.CFG.hidden}\n" in out

        assert list(loaded.params) == list(fresh.params)
        assert list(loaded.adam.m) == list(fresh.params)
        for name, p in fresh.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
        rng = np.random.default_rng(41)
        mel = rng.standard_normal((2, 60, 80)).astype(np.float32)
        lengths = np.array([60, 37])
        want = self.final_with_biases(fresh.params, biases, mel, lengths)
        for params in (loaded.params, state.params, restored.params):
            with ad.no_grad():
                got = enc.encode(params, self.CFG, mel, lengths).final.data
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestTranscriptManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trans.tsv"
        path.write_text("u1\thello there\nu2\tok\n", encoding="utf-8")
        got = finetune.read_transcripts(path)
        assert got == {"u1": "hello there", "u2": "ok"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("no-tab-here\n")
        with pytest.raises(ValueError, match="id<TAB>text"):
            finetune.read_transcripts(path)

    def test_blank_line_skipped_and_text_keeps_its_tabs(self, tmp_path):
        path = tmp_path / "trans.tsv"
        path.write_text("a\tx\ty\n\nb\t\n", encoding="utf-8")
        assert finetune.read_transcripts(path) == {"a": "x\ty", "b": ""}

    def test_training_id_without_a_line_rejected(self, tmp_path):
        path = tmp_path / "trans.tsv"
        path.write_text("a\thello\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            finetune.read_transcripts(path, need_text={"a", "b"})
        assert str(err.value) == f"{path}: transcripts missing for: b"

    def test_repeated_id_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\thello\nb\tok\na\tworld\n", encoding="utf-8")
        with pytest.raises(ValueError, match="dup.tsv:3: utterance id 'a' repeats line 1"):
            finetune.read_transcripts(path)
