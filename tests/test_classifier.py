"""Score functions, the expected classifier, and disagreement audits."""

import math
import warnings

import numpy as np
import pytest

from tropnet.classifier import (
    ScoreSpec,
    ScoreSpecError,
    disagreement_audit,
    expected_classify,
    expected_score,
    score,
)
from tropnet.networks import (
    DistributionSpec,
    NetworkSpec,
    degenerate,
    reference_classifier_spec,
    uniform_real,
)


class TestScore:
    def test_sigmoid_midpoint(self):
        assert score(ScoreSpec(), 0.0) == 0.5

    def test_sigmoid_strictly_monotone(self):
        rng = np.random.default_rng(0)
        spec = ScoreSpec()
        pairs = np.sort(rng.normal(size=(50, 2)) * 4, axis=1)
        for v1, v2 in pairs:
            if v1 < v2:
                assert score(spec, v1) < score(spec, v2)

    def test_clamped_identity(self):
        spec = ScoreSpec(kind="clamped-identity", a=-1.0, b=1.0, c=0.0)
        assert score(spec, 5.0) == 1.0
        assert score(spec, -5.0) == -1.0
        assert score(spec, 0.25) == 0.25

    def test_table_interpolation(self):
        spec = ScoreSpec(kind="table", a=0.0, b=1.0, c=0.5,
                         table=((-2.0, 0.0), (0.0, 0.5), (2.0, 1.0)))
        assert score(spec, -1.0) == 0.25
        assert score(spec, 0.0) == 0.5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ScoreSpec(c=1.5)  # threshold outside (a, b)
        with pytest.raises(ValueError):
            ScoreSpec(kind="table", table=((0.0, 0.3), (1.0, 0.2)))  # not injective

    def test_range_wider_than_double_precision_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScoreSpecError, match="wider than double precision"):
                ScoreSpec(kind="table", a=-1e308, b=1e308, c=0.0,
                          table=((-1e308, -1e308), (1e308, 1e308)))
            # Knots far apart are a valid table; comparing them does not overflow.
            ScoreSpec(kind="table", table=((-1e308, 0.0), (1e308, 1.0)))


def deterministic_net(a=2.0, b=0.25):
    return NetworkSpec(widths=(1, 1), weight_dist=degenerate(a),
                       bias_dist=degenerate(b), thresholds=("identity",),
                       init_mode="identity", input_box=((-1.0, 1.0),))


class TestExpectedScore:
    def test_deterministic_network_exact(self):
        net = deterministic_net()
        x = [0.5]
        est, se = expected_score(net, ScoreSpec(), x, n=2000, seed=0)
        want = 1.0 / (1.0 + math.exp(-(2.0 * 0.5 + 0.25)))
        assert est == pytest.approx(want, abs=1e-12)
        assert se <= 1e-12  # degenerate draws: only float-summation dust

    def test_symmetric_weight_at_origin(self):
        # Weight +-1 equally likely, zero bias, identity activation:
        # nu(0) = 0 for every draw, so the estimate equals s(0) exactly.
        net = NetworkSpec(
            widths=(1, 1),
            weight_dist=DistributionSpec("finite-support", values=(-1.0, 1.0)),
            bias_dist=degenerate(0.0), thresholds=("identity",),
            init_mode="identity", input_box=((-1.0, 1.0),))
        est, se = expected_score(net, ScoreSpec(), [0.0], n=2000, seed=1)
        assert est == 0.5 and se == 0.0

    def test_seed_replication_within_three_se(self):
        net = reference_classifier_spec()
        rng = np.random.default_rng(2)
        for i in range(5):
            x = rng.uniform(-1, 1, 2)
            e1, s1 = expected_score(net, ScoreSpec(), x, n=20_000, seed=10 + i)
            e2, s2 = expected_score(net, ScoreSpec(), x, n=20_000, seed=900 + i)
            assert abs(e1 - e2) <= 3 * math.sqrt(s1 ** 2 + s2 ** 2)

    def test_wide_finite_range_gives_a_finite_estimate(self):
        # Scores of 4e307..8e307: their sum over the draws leaves double range,
        # the mean of the scores rescaled to [0, 1] does not.
        net = NetworkSpec(widths=(1, 1), weight_dist=degenerate(1.0),
                          bias_dist=uniform_real(0.5, 1.0), thresholds=("identity",),
                          init_mode="identity", input_box=((-1.0, 1.0),))
        spec = ScoreSpec(kind="table", a=-8e307, b=8e307, c=0.0,
                         table=((-1.0, -8e307), (1.0, 8e307)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = expected_score(net, spec, [0.0], n=2000, seed=4)
            d = expected_classify(est, spec, se)
        assert est == pytest.approx(6e307, rel=0.02)
        assert 0.0 < se < 1e306
        assert d.label == "C1"
        assert d.error_bound == pytest.approx(math.exp(-2.0 * (est / 1.6e308) ** 2))

    def test_estimate_at_the_top_of_the_range_stays_in_it(self):
        # a + (b - a) is b + 1 ulp for this range; every draw scores b.
        spec = ScoreSpec(kind="clamped-identity", a=-0.039434241329459184,
                         b=0.9818687140176878, c=0.5)
        est, se = expected_score(deterministic_net(b=5.0), spec, [0.0], n=1000)
        assert est == spec.b and se == 0.0
        assert expected_classify(est, spec, se).label == "C1"

    def test_vector_output_rejected(self):
        net = NetworkSpec(widths=(1, 2), weight_dist=degenerate(1.0),
                          bias_dist=degenerate(0.0))
        with pytest.raises(ValueError):
            expected_score(net, ScoreSpec(), [0.0], n=2000)


class TestExpectedClassify:
    def test_c1_with_bound(self):
        spec = ScoreSpec()  # a=0, b=1, c=0.5
        d = expected_classify(spec.c + (spec.b - spec.a) / 2, spec)
        assert d.label == "C1"
        # t = (b-a)/2: bound exp(-2 t^2 / (b-a)^2) = exp(-1/2)
        assert d.error_bound == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_c2_with_bound(self):
        wide = ScoreSpec(kind="clamped-identity", a=-1.0, b=1.0, c=0.5)
        d = expected_classify(-0.5, wide)
        assert d.label == "C2"
        # t = 1.0, (b-a) = 2: bound exp(-2 t^2 / 4) = exp(-1/2)
        assert d.error_bound == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_full_separation_bound(self):
        # estimate a full range below c: t = b - a, bound exp(-2) clamped <= 1.
        wide = ScoreSpec(kind="clamped-identity", a=-2.0, b=2.0, c=1.5)
        d = expected_classify(-2.0, wide)
        assert d.label == "C2"
        # t = 3.5 < b-a = 4 here, so take the documented arithmetic case:
        exact = ScoreSpec(kind="clamped-identity", a=0.0, b=1.0, c=0.75)
        # estimate = c - (b-a) would leave the range; t = (b-a) * 0.75:
        d2 = expected_classify(0.0, exact)
        assert d2.error_bound == pytest.approx(math.exp(-2 * 0.75 ** 2), abs=1e-12)

    def test_boundary_error(self):
        # An estimate on c has no class: it abstains at t = 0, whatever its se.
        for se in (0.0, 0.01):
            d = expected_classify(0.5, ScoreSpec(), se=se)
            assert (d.label, d.t, d.error_bound) == ("abstain", 0.0, 1.0)

    def test_abstention_band(self):
        d = expected_classify(0.5005, ScoreSpec(), se=0.01)
        assert d.label == "abstain" and d.error_bound == 1.0

    def test_label_depends_only_on_sign(self):
        spec = ScoreSpec()
        for eps in (1e-6, 0.01, 0.3):
            assert expected_classify(0.5 + eps, spec).label == "C1"
            assert expected_classify(0.5 - eps, spec).label == "C2"

    def test_bounds_decrease_in_separation(self):
        spec = ScoreSpec()
        seps = [0.05, 0.1, 0.2, 0.4]
        bounds = [expected_classify(0.5 + s, spec).error_bound for s in seps]
        assert all(u > v for u, v in zip(bounds, bounds[1:]))
        assert all(0 < b <= 1 for b in bounds)

    def test_raising_threshold_never_promotes(self):
        # Moving c upward can only move labels from C1 toward C2.
        for est in (0.2, 0.45, 0.6, 0.9):
            lo = expected_classify(est, ScoreSpec(c=0.4)).label if est != 0.4 else None
            hi = expected_classify(est, ScoreSpec(c=0.7)).label if est != 0.7 else None
            if lo == "C2":
                assert hi == "C2"


class TestDisagreementAudit:
    def test_deterministic_network_disagreement_zero(self):
        net = deterministic_net()
        rows = disagreement_audit(net, ScoreSpec(), np.array([[0.5], [-0.9]]),
                                  n=2000, seed=0)
        for row in rows:
            assert row.verdict == "consistent"
            assert row.empirical == 0.0

    def test_reference_audit_consistent(self):
        net = reference_classifier_spec()
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1, 1, size=(6, 2))
        rows = disagreement_audit(net, ScoreSpec(), inputs, n=20_000, seed=1)
        resolved = [r for r in rows if r.verdict != "unresolved"]
        assert len(resolved) >= 4
        assert all(r.verdict == "consistent" for r in resolved)
        for r in resolved:
            assert r.empirical <= r.bound + 3 * r.empirical_se

    def test_audit_labels_inputs_with_expected_classify(self):
        net = reference_classifier_spec()
        inputs = np.random.default_rng(4).uniform(-1, 1, size=(4, 2))
        for row in disagreement_audit(net, ScoreSpec(), inputs, n=2000, seed=3):
            d = expected_classify(row.estimate, ScoreSpec(), se=row.se)
            assert (row.label, row.t, row.bound) == (d.label, d.t, d.error_bound)
            assert (row.verdict == "unresolved") == (d.label == "abstain")

    def test_unresolved_flagged_not_judged(self):
        # A symmetric network pins E[s] at exactly 0.5: never resolved.
        net = NetworkSpec(
            widths=(1, 1),
            weight_dist=DistributionSpec("finite-support", values=(-1.0, 1.0)),
            bias_dist=degenerate(0.0), thresholds=("identity",),
            init_mode="identity", input_box=((-1.0, 1.0),))
        rows = disagreement_audit(net, ScoreSpec(), np.array([[0.0]]),
                                  n=2000, seed=2)
        assert rows[0].verdict == "unresolved"
        assert math.isnan(rows[0].empirical)
