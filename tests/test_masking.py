import numpy as np
import pytest

from rqspeech.masking import MaskConfig, apply_mask, coverage_estimate, sample_mask
from rqspeech.seeding import keyed_rng


def analytic_coverage(prob, span, num_frames):
    """Exact expected masked fraction: frame t is covered by min(t+1, span)
    potential starts, each independently active with probability prob."""
    t = np.arange(num_frames)
    per_frame = 1.0 - (1.0 - prob) ** np.minimum(t + 1, span)
    return per_frame.mean()


# prob must be > 0; at this prob no frame of these streams starts a mask
NO_STARTS = MaskConfig(prob=1e-300)


class TestSampleMask:
    def test_prob_zero(self):
        plan = sample_mask(100, NO_STARTS, keyed_rng(0, "m"))
        assert not plan.input_mask.any()
        assert not plan.target_mask.any()

    @pytest.mark.parametrize("prob", [0.0, -0.0])
    def test_zero_prob_rejected(self, prob):
        with pytest.raises(ValueError, match="prob must be > 0"):
            MaskConfig(prob=prob)

    def test_prob_one(self):
        plan = sample_mask(100, MaskConfig(prob=1.0), keyed_rng(0, "m"))
        assert plan.input_mask.all()
        assert plan.target_mask.all()

    def test_interior_coverage_matches_formula(self):
        cfg = MaskConfig(prob=0.05, span_frames=10)
        fractions = []
        for seed in range(100):
            plan = sample_mask(10000, cfg, keyed_rng(seed, "cov"))
            fractions.append(plan.input_mask[9:].mean())
        expected = 1.0 - 0.95**10
        assert abs(np.mean(fractions) - expected) < 0.01

    def test_target_mask_is_or_reduction(self):
        cfg = MaskConfig(prob=0.3, span_frames=7)
        for seed in range(20):
            plan = sample_mask(103, cfg, keyed_rng(seed, "or"))
            want = plan.input_mask[:100].reshape(25, 4).any(axis=1)
            assert np.array_equal(plan.target_mask, want)

    def test_deterministic_given_key(self):
        cfg = MaskConfig()
        a = sample_mask(500, cfg, keyed_rng(3, 7, "utt1"))
        b = sample_mask(500, cfg, keyed_rng(3, 7, "utt1"))
        assert np.array_equal(a.input_mask, b.input_mask)

    def test_union_of_spans_oracle(self):
        # regenerate the starts from the same keyed stream and build the
        # union naively; the plan must match exactly
        cfg = MaskConfig(prob=0.15, span_frames=13)
        for seed in range(20):
            plan = sample_mask(300, cfg, keyed_rng(seed, "union"))
            starts = keyed_rng(seed, "union").random(300) < cfg.prob
            want = np.zeros(300, dtype=bool)
            for t in np.flatnonzero(starts):
                want[t: t + cfg.span_frames] = True
            assert np.array_equal(plan.input_mask, want)

    def test_masked_frames_follow_a_start(self):
        # every masked frame lies within span-1 frames after some start;
        # equivalently runs of True are at most... we verify the union property
        # by re-deriving the mask from inferred starts being impossible to
        # contradict: a masked frame with no masked predecessor must be a start.
        cfg = MaskConfig(prob=0.1, span_frames=5)
        for seed in range(20):
            plan = sample_mask(400, cfg, keyed_rng(seed, "runs"))
            m = plan.input_mask
            # each maximal run of True must be at least span long unless it
            # hits the right boundary (truncated span)
            t = 0
            while t < len(m):
                if m[t]:
                    run = 0
                    while t + run < len(m) and m[t + run]:
                        run += 1
                    assert run >= cfg.span_frames or t + run == len(m)
                    t += run
                else:
                    t += 1


class TestApplyMask:
    def test_identity_when_unmasked(self):
        rng = np.random.default_rng(0)
        mel = rng.standard_normal((50, 80)).astype(np.float32)
        plan = sample_mask(50, NO_STARTS, keyed_rng(0, "a"))
        out = apply_mask(mel, plan, NO_STARTS, keyed_rng(0, "n"))
        assert np.array_equal(out, mel)

    def test_noise_moments(self):
        cfg = MaskConfig(prob=1.0)
        frames = 12500  # 12500 * 80 = 1e6 replaced entries
        mel = np.zeros((frames, 80), dtype=np.float64)
        plan = sample_mask(frames, cfg, keyed_rng(1, "p"))
        out = apply_mask(mel, plan, cfg, keyed_rng(1, "noise"))
        assert abs(out.mean()) < 1e-3
        assert abs(out.std() - 0.1) < 2e-3

    def test_unmasked_frames_untouched(self):
        rng = np.random.default_rng(2)
        mel = rng.standard_normal((200, 80)).astype(np.float32)
        cfg = MaskConfig(prob=0.2, span_frames=10)
        plan = sample_mask(200, cfg, keyed_rng(2, "p"))
        out = apply_mask(mel, plan, cfg, keyed_rng(2, "n"))
        keep = ~plan.input_mask
        assert keep.any() and plan.input_mask.any()
        assert out[keep].tobytes() == mel[keep].tobytes()
        assert not np.array_equal(out[plan.input_mask], mel[plan.input_mask])

    def test_length_mismatch(self):
        plan = sample_mask(10, MaskConfig(), keyed_rng(0, "x"))
        with pytest.raises(ValueError, match="length"):
            apply_mask(np.zeros((11, 80), np.float32), plan, MaskConfig(), keyed_rng(0, "y"))


class TestCoverage:
    def test_degenerate_probs(self):
        assert coverage_estimate(NO_STARTS, 100, 5, keyed_rng(0, "c")) == 0.0
        assert coverage_estimate(MaskConfig(prob=1.0), 100, 5, keyed_rng(0, "c")) == 1.0

    def test_matches_analytic_expectation(self):
        cfg = MaskConfig(prob=0.01, span_frames=40)
        got = coverage_estimate(cfg, 4000, 1000, keyed_rng(9, "cov"))
        want = analytic_coverage(0.01, 40, 4000)
        assert abs(want - (1 - 0.99**40)) < 0.01  # interior value sanity anchor
        assert abs(got - want) < 0.01
