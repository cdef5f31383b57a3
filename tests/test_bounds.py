"""Closed-form bound evaluators, tail estimation, and order checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, norm

import tropnet.bounds
from tropnet.bounds import (
    SE_SLACK,
    BoundReport,
    binomial_estimate,
    convex_order_check,
    estimate_tail,
    exceeds,
    hoeffding_bound,
    martingale_grade_check,
    mgale_bound,
    nsg_bound,
    region_count_bound,
    region_count_concentration,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)
from tropnet.networks import (
    NetworkSpec,
    degenerate,
    uniform_int,
    uniform_real,
)
from tropnet.seeding import stream


class TestClosedForms:
    def test_nsg_values(self):
        assert nsg_bound(0.0, 1.0) == 2.0
        assert nsg_bound(1.0, 1.0) == pytest.approx(2 * math.exp(-0.5), abs=1e-12)
        assert nsg_bound(3.0, 1.5) == pytest.approx(2 * math.exp(-9 / 4.5), abs=1e-12)
        # xi = 0 certifies a layer pinned at 0: the bound is its limit.
        assert nsg_bound(0.0, 0.0) == 2.0
        assert nsg_bound(1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            nsg_bound(1.0, -1.0)

    def test_hoeffding_values(self):
        assert hoeffding_bound(1.0, 0.0, 1.0) == pytest.approx(2 * math.exp(-2),
                                                               abs=1e-12)
        assert hoeffding_bound(1e-9, 0.0, 1.0) == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(ValueError):
            hoeffding_bound(1.0, 1.0, 1.0)

    def test_mgale_values(self):
        assert mgale_bound(1.0, 1.0, 1) == pytest.approx(2 * math.e, abs=1e-12)
        assert mgale_bound(5.0, 1.0, 2) == pytest.approx(2 * math.exp(-3), abs=1e-12)
        assert mgale_bound(1e308, 1.0, 1) == 0.0  # (Ma - 1)^2 overflows a float
        with pytest.raises(ValueError):
            mgale_bound(0.0, 1.0, 1)

    def test_monotone_decreasing_in_t(self):
        ts = np.linspace(0.1, 5.0, 40)
        for f in (lambda t: nsg_bound(t, 2.0),
                  lambda t: hoeffding_bound(t, -1.0, 1.0)):
            vals = [f(t) for t in ts]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        # The martingale bound peaks at Ma = 1 (vacuously above 2 there)
        # and decreases beyond it.
        avals = [mgale_bound(a, 1.0, 3) for a in np.linspace(1.0, 8.0, 40)]
        assert all(u >= v for u, v in zip(avals, avals[1:]))

    def test_region_bound_is_hoeffding_on_unit_floor(self):
        assert region_count_bound(1.0, 5) == hoeffding_bound(1.0, 1.0, 5.0)


class TestVerdictRule:
    def test_tie_is_not_an_excess(self):
        # 0.5 - 3 * 0.125 == 0.125 exactly in binary floating point.
        assert SE_SLACK == 3.0 and 0.5 - 3 * 0.125 == 0.125
        assert not exceeds(0.5, 0.125, 0.125)
        assert exceeds(0.5, 0.125, math.nextafter(0.125, 0.0))
        tie = BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.125,
                          empirical=0.5, se=0.125, n=1000)
        assert tie.verdict == "consistent"

    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_binomial_extremes_have_zero_se(self, n):
        assert binomial_estimate(0, n) == (0.0, 0.0)
        assert binomial_estimate(n, n) == (1.0, 0.0)


class TestEstimateTail:
    def test_degenerate_distribution(self):
        samples = np.zeros((1000, 2))
        p, se = estimate_tail(samples, np.zeros(2), 0.5)
        assert p == 0.0 and se == 0.0

    def test_zero_threshold(self):
        samples = np.random.default_rng(0).normal(size=(1000, 3))
        p, _ = estimate_tail(samples, np.zeros(3), 0.0)
        assert p == 1.0

    def test_gaussian_quantile_oracle(self):
        # Exact two-sided tail at 1.96 from the error function: 0.0500.
        expected = 2 * norm.sf(1.96)
        assert expected == pytest.approx(0.05, abs=1e-4)
        samples = stream(0, "gauss").normal(size=(100_000, 1))
        p, se = estimate_tail(samples, np.zeros(1), 1.96)
        assert abs(p - expected) <= 3 * max(se, 1e-12) + 1e-3

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_tail(np.zeros((10, 1)), np.zeros(1), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_rejected(self, bad):
        samples = np.zeros((1000, 2))
        samples[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            estimate_tail(samples, np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            estimate_tail(np.zeros((1000, 2)), np.array([0.0, bad]), 1.0)

    def test_finite_samples_whose_norm_overflows_are_counted(self):
        samples = np.full((1000, 2), 1e200)
        with np.errstate(over="ignore"):
            assert estimate_tail(samples, np.zeros(2), 1.0) == (1.0, 0.0)

    def test_sphere_sampler_stays_under_nsg_bound(self):
        # Uniform on the radius-xi sphere in R^3 via normalized Gaussians.
        rng = stream(1, "sphere")
        xi = 2.0
        g = rng.normal(size=(100_000, 3))
        samples = xi * g / np.linalg.norm(g, axis=1, keepdims=True)
        t = 1.5 * xi
        p, se = estimate_tail(samples, samples.mean(axis=0), t)
        assert p <= nsg_bound(t, xi) + 3 * se

    def test_two_point_enumeration(self):
        # Bernoulli(1/2) on {0,1}: |X - 1/2| >= 0.4 happens surely, and the
        # bound 2 exp(-0.32) ~ 1.452 stays above it.
        samples = np.array([[0.0], [1.0]] * 500)
        p, se = estimate_tail(samples, np.array([0.5]), 0.4)
        assert p == 1.0
        assert hoeffding_bound(0.4, 0.0, 1.0) == pytest.approx(2 * math.exp(-0.32),
                                                               abs=1e-12)
        assert p <= hoeffding_bound(0.4, 0.0, 1.0)


class TestBoundReport:
    def test_verdict_logic_is_pure(self):
        r = BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.1,
                        empirical=0.2, se=0.01, n=1000)
        assert r.verdict == "violated"
        r2 = BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.1,
                         empirical=0.12, se=0.01, n=1000)
        assert r2.verdict == "consistent"

    def test_analytic_clamped_to_two(self):
        r = BoundReport(kind="martingale", layer=1, t=1.0,
                        analytic=2 * math.e, empirical=1.0, se=0.0, n=1000)
        assert r.analytic == 2.0


class TestLayerConcentration:
    def test_deterministic_network_tail_zero(self):
        spec = NetworkSpec(widths=(1, 1, 1), weight_dist=degenerate(2.0),
                           bias_dist=degenerate(0.1), init_mode="identity",
                           input_box=((0.3, 0.3),))
        reports = verify_layer_concentration(spec, t_grid=[0.5, 1.0], n=2000, seed=0)
        assert all(r.empirical == 0.0 for r in reports)
        assert all(r.verdict == "consistent" for r in reports)

    def test_tail_zero_beyond_twice_xi(self):
        spec = NetworkSpec(widths=(2, 3), r=2,
                           weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-0.5, 0.5),
                           coeff_dists=uniform_real(-1, 1),
                           exponent_dists=uniform_int(0, 1))
        from tropnet.networks import propagate_intervals
        xi = propagate_intervals(spec)[1].xi
        reports = verify_layer_concentration(spec, t_grid=[2.0 * xi + 1e-6],
                                             n=2000, seed=1)
        assert all(r.empirical == 0.0 for r in reports)

    def test_reference_style_spec_consistent(self):
        spec = NetworkSpec(widths=(2, 3, 3), r=2,
                           weight_dist=uniform_int(-2, 2),
                           bias_dist=uniform_real(-1, 1),
                           coeff_dists=uniform_real(-1, 1),
                           exponent_dists=uniform_int(0, 2))
        from tropnet.networks import propagate_intervals
        xi = propagate_intervals(spec)[-1].xi
        reports = verify_layer_concentration(spec, t_grid=np.linspace(0, 2 * xi, 5),
                                             n=5000, seed=2)
        assert all(r.verdict == "consistent" for r in reports)

    def test_default_grid_is_per_layer(self):
        # Layer 1 is >= 0 and the weights are < 0, so nu_2 = 0 (xi_2 = 0)
        # while xi_1 = 2 sqrt(2).  A grid built from the last layer's xi
        # alone would test layer 1 only at t = 0.
        spec = NetworkSpec(widths=(1, 2, 2), init_mode="identity",
                           weight_dist=uniform_int(-2, -1), bias_dist=degenerate(0.0))
        reports = verify_layer_concentration(spec, n=2000, seed=2)
        by_layer = {l: [r.t for r in reports if r.layer == l] for l in (1, 2)}
        assert by_layer[1] == pytest.approx(np.linspace(0.0, 4.0 * math.sqrt(2), 10))
        assert by_layer[2] == [0.0] * 10
        assert all(r.verdict == "consistent" for r in reports)

    def test_xi_is_checked_against_the_sample(self, monkeypatch):
        # A certificate shrunk below what the draws reach must be refused,
        # not used as the bound's xi.
        spec = NetworkSpec(widths=(2, 3, 3), r=2,
                           weight_dist=uniform_int(-2, 2),
                           bias_dist=uniform_real(-1, 1),
                           coeff_dists=uniform_real(-1, 1),
                           exponent_dists=uniform_int(0, 2))
        propagate = tropnet.bounds.propagate_intervals

        def shrunk(s):
            return [replace(iv, nu_lo=iv.nu_lo * 1e-3, nu_hi=iv.nu_hi * 1e-3)
                    for iv in propagate(s)]

        monkeypatch.setattr(tropnet.bounds, "propagate_intervals", shrunk)
        with pytest.raises(ValueError, match="certificate violated"):
            verify_layer_concentration(spec, t_grid=[1.0], n=2000, seed=2)


class TestRegionCountConcentration:
    def test_constant_counts(self):
        reports = region_count_concentration([3] * 50, b1=5, t_grid=[0.5, 1.0])
        assert all(r.empirical == 0.0 and r.verdict == "consistent" for r in reports)

    def test_range_bound_at_full_width(self):
        counts = [1, 5] * 25
        b1 = 5
        t = b1 - 1
        reports = region_count_concentration(counts, b1, [t])
        assert reports[0].analytic == pytest.approx(2 * math.exp(-2), abs=1e-12)
        assert reports[0].verdict == "consistent"

    def test_out_of_range_counts_rejected(self):
        with pytest.raises(ValueError):
            region_count_concentration([0, 2], b1=3, t_grid=[1.0])
        with pytest.raises(ValueError):
            region_count_concentration([1, 7], b1=3, t_grid=[1.0])
        with pytest.raises(ValueError):
            region_count_concentration([], b1=3, t_grid=[1.0])

    @pytest.mark.parametrize("n", [50, 1500])
    def test_matches_the_small_and_large_sample_formulas(self, n):
        # Below 1000 counts the frequency was mean(|c - mean| >= t); from
        # 1000 on it was mean(||c - mean||_2 >= t) in one dimension.  One
        # binomial estimate now serves both, with the same floats.
        counts = stream(5, "counts").integers(1, 9, size=n).astype(float)
        t_grid = [0.5, 1.0, 2.5, 3.0, 7.5]
        reports = region_count_concentration(counts, 8, t_grid)
        center = counts.mean()
        for r, t in zip(reports, t_grid):
            if n < 1000:
                p = float(np.mean(np.abs(counts - center) >= t))
            else:
                dist = np.linalg.norm(counts[:, None] - np.array([center]), axis=1)
                p = float(np.mean(dist >= t))
            assert (r.empirical, r.se) == (p, math.sqrt(p * (1.0 - p) / n))


class TestConvexOrder:
    def test_identical_samples_never_falsified(self):
        rng = stream(3, "cx")
        for _ in range(5):
            s = rng.normal(size=(2000, 2)) * rng.uniform(0.5, 2.0)
            rep = convex_order_check(s, s)
            assert not rep.falsified
            assert rep.worst_z == 0.0

    def test_jensen_noise_not_falsified(self):
        rng = stream(4, "cx")
        x1 = rng.normal(size=(10_000, 2))
        x2 = x1 + rng.normal(size=(10_000, 2))  # X2 = X1 + independent noise
        rep = convex_order_check(x1, x2, seed=0)
        assert not rep.falsified

    def test_mean_shift_falsified_by_linear_function(self):
        rng = stream(5, "cx")
        x1 = rng.normal(size=(10_000, 2))
        x2 = x1 + 1.0
        rep = convex_order_check(x1, x2, alpha=0.01, seed=0)
        assert rep.falsified
        # With only the linear/coordinate-max core family the shift is still
        # caught, so linear test functions alone suffice.
        core = convex_order_check(x1, x2, k=0, alpha=0.01, seed=0)
        assert core.falsified
        assert "linear" in core.worst_function

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convex_order_check(np.zeros((100, 2)), np.zeros((100, 3)))

    @pytest.mark.parametrize("k", [0, 16])
    def test_bonferroni_threshold_is_the_normal_quantile(self, k):
        s = stream(6, "cx").normal(size=(200, 2))
        rep = convex_order_check(s, s, k=k, alpha=0.01)
        assert rep.threshold == norm.ppf(1.0 - 0.01 / rep.n_functions)


class TestMartingaleGrades:
    def test_random_walk_not_falsified(self):
        traj = simulate_random_walk(steps=5, n=8000, seed=0, dim=2)
        rep = martingale_grade_check(traj, seed=1)
        assert not rep.weak_falsified
        assert not rep.very_weak_falsified
        assert rep.increment_bound == pytest.approx(1.0)

    def test_drifting_sequence_falsified(self):
        # nu_l = l * 1: deterministic upward drift, caught by a linear test.
        steps, n, p = 4, 3000, 2
        traj = np.tile(np.arange(steps + 1)[None, :, None], (n, 1, p)).astype(float)
        traj += stream(6, "noise").normal(size=traj.shape) * 1e-3
        rep = martingale_grade_check(traj, seed=2)
        assert rep.weak_falsified and rep.very_weak_falsified

    def test_walk_increment_bound_is_one(self):
        traj = simulate_random_walk(steps=10, n=500, seed=3, dim=1)
        inc = np.abs(np.diff(traj[:, :, 0], axis=1))
        assert inc.max() == 1.0 and inc.min() == 1.0

    def test_pair_seeds_never_repeat_across_runs(self, monkeypatch):
        # Seed arithmetic gave run 0's pair (0, 2) and run 1's pair (0, 1)
        # the same convex-order seed.
        seen = []

        def recording(s1, s2, seed):
            seen.append(seed)
            return convex_order_check(s1, s2, seed=seed)

        monkeypatch.setattr(tropnet.bounds, "convex_order_check", recording)
        traj = simulate_random_walk(steps=4, n=200, seed=5, dim=1)
        for run_seed in (0, 1):
            martingale_grade_check(traj, seed=run_seed)
        assert len(seen) == 2 * 10
        assert len(set(seen)) == len(seen)


class TestWalkTailBound:
    def test_mc_matches_exact_binomial_and_bound(self):
        steps, n = 12, 50_000
        traj = simulate_random_walk(steps, n, seed=4, dim=1)
        a_grid = [1.0, 2.0, 3.5, 5.0]
        reports = walk_tail_reports(traj, a_grid, m=1.0)
        for rep in reports:
            l, a = rep.layer, rep.t
            # Exact oracle: S_l = 2 B - l with B ~ Binom(l, 1/2).
            k = math.ceil((l + a) / 2.0)
            exact = 2.0 * binom.sf(k - 1, l, 0.5) if a > 0 else 1.0
            assert rep.verdict == "consistent"
            assert abs(rep.empirical - exact) <= 3 * max(rep.se, 1e-12) + 1e-12
            assert exact <= mgale_bound(a, 1.0, l)
