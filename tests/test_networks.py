"""Sampling, forward recursions, the symbolic pass, and interval bounds."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

import tropnet

from tropnet.networks import (
    DistributionSpec,
    LayerSample,
    NetworkSpec,
    SpecError,
    SymbolicRun,
    _batch_weight_dtype,
    degenerate,
    forward_fg,
    forward_relu_direct,
    network_spec_from_dict,
    network_spec_to_dict,
    propagate_intervals,
    reference_classifier_spec,
    reference_spec,
    run_network,
    run_symbolic,
    sample_network,
    simulate_block,
    simulate_layer_outputs,
    uniform_int,
    uniform_real,
)
from tropnet.seeding import BLOCK_SIZE, stream
from tropnet.tropical import (
    MonomialCapError,
    count_linear_regions,
    poly_add,
    poly_weighted_combine,
)


def small_spec(widths=(2, 3, 2), r=2, wlo=-2, whi=2, seed_box=1.0):
    return NetworkSpec(
        widths=widths, r=r,
        weight_dist=uniform_int(wlo, whi),
        bias_dist=uniform_real(-1.0, 1.0),
        coeff_dists=uniform_real(-1.0, 1.0),
        exponent_dists=uniform_int(0, 2),
        input_box=tuple([(-seed_box, seed_box)] * widths[0]),
    )


class TestDistributionSpec:
    def test_unbounded_rejected(self):
        with pytest.raises(SpecError):
            DistributionSpec("bounded-uniform-real", lo=-np.inf, hi=0.0)
        with pytest.raises(SpecError):
            DistributionSpec("bounded-uniform-integer", lo=3, hi=1)

    def test_truncated_gaussian_stays_in_bounds(self):
        spec = DistributionSpec("truncated-gaussian", lo=-0.5, hi=0.5, mu=0.0, sigma=2.0)
        draws = spec.sample(stream(0, "t"), 5000)
        assert draws.min() >= -0.5 and draws.max() <= 0.5

    def test_zero_width_truncated_gaussian_rejected(self):
        # Rejection sampling could never accept a draw from [0.3, 0.3].
        with pytest.raises(SpecError, match="lo < hi"):
            DistributionSpec("truncated-gaussian", lo=0.3, hi=0.3, mu=0.0, sigma=1.0)

    def test_far_tail_truncated_gaussian_draws_finish(self):
        # Rejection would need ~1e15 normals per value; run in a child so a
        # hang fails the test instead of stalling the suite.
        code = ("import numpy as np\n"
                "from tropnet.networks import DistributionSpec\n"
                "spec = DistributionSpec('truncated-gaussian', lo=8, hi=9, mu=0, sigma=1)\n"
                "x = spec.sample(np.random.default_rng(0), 10)\n"
                "assert x.shape == (10,) and x.min() >= 8 and x.max() <= 9, x\n")
        env = dict(os.environ, PYTHONPATH=str(Path(tropnet.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_low_mass_window_draws_by_inverse_cdf(self):
        spec = DistributionSpec("truncated-gaussian", lo=2.0, hi=3.0, mu=0.0, sigma=0.5)
        assert spec.window_mass < 1e-4
        draws = spec.sample(stream(0, "t"), 20000)
        assert draws.min() >= 2.0 and draws.max() <= 3.0
        assert abs(draws.mean() - truncnorm.mean(4.0, 6.0, scale=0.5)) < 0.01

    def test_high_mass_window_keeps_the_rejection_stream(self):
        spec = DistributionSpec("truncated-gaussian", lo=-1.0, hi=2.0, mu=0.5, sigma=1.5)
        rng = stream(3, "t")
        expected = rng.normal(0.5, 1.5, size=200)
        bad = (expected < -1.0) | (expected > 2.0)
        while bad.any():
            expected[bad] = rng.normal(0.5, 1.5, size=int(bad.sum()))
            bad = (expected < -1.0) | (expected > 2.0)
        np.testing.assert_array_equal(spec.sample(stream(3, "t"), 200), expected)

    def test_underflowing_window_rejected(self):
        with pytest.raises(SpecError, match="no normal mass"):
            DistributionSpec("truncated-gaussian", lo=40.0, hi=41.0, mu=0.0, sigma=1.0)
        with pytest.raises(SpecError, match="no normal mass"):
            DistributionSpec("truncated-gaussian", lo=-41.0, hi=-40.0, mu=0.0, sigma=1.0)

    def test_integer_draws_in_requested_dtype(self):
        spec = uniform_int(-2, 2)
        draws = spec.sample(stream(0, "t"), (50, 4), dtype=np.int8)
        assert draws.dtype == np.int8
        assert draws.min() >= -2 and draws.max() <= 2
        wide = spec.sample(stream(0, "t"), (50, 4), dtype=np.int64)
        np.testing.assert_array_equal(wide, spec.sample(stream(0, "t"), (50, 4)))

    def test_finite_support_probs_validated(self):
        with pytest.raises(SpecError):
            DistributionSpec("finite-support", values=(1.0, 2.0), probs=(0.0, 1.0))

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.5), (-2.0, -0.5), (0, 1.5)])
    def test_integer_law_needs_integral_bounds(self, lo, hi):
        # Rounded draws would leave [lo, hi] while is_integer still held.
        with pytest.raises(SpecError, match="integral bounds"):
            DistributionSpec("bounded-uniform-integer", lo=lo, hi=hi)
        assert DistributionSpec("bounded-uniform-integer", lo=-2.0, hi=3.0).is_integer

    @pytest.mark.parametrize("lo, hi", [(0, 1e308), (-1e19, 0), (0, 2.0 ** 63)])
    def test_integer_law_bounds_fit_int64(self, lo, hi):
        # Integer laws are drawn as int64; numpy would refuse the first draw.
        with pytest.raises(SpecError, match="int64 range"):
            DistributionSpec("bounded-uniform-integer", lo=lo, hi=hi)
        widest = DistributionSpec("bounded-uniform-integer", lo=-2.0 ** 63,
                                  hi=2.0 ** 63 - 1024)
        assert widest.sample(stream(0, "t"), 3).shape == (3,)

    def test_integer_detection(self):
        assert uniform_int(-3, 3).is_integer
        assert degenerate(2.0).is_integer
        assert not uniform_real(0, 1).is_integer


class TestSampleInit:
    def test_identity_initialization(self):
        # Degenerate coefficient at 0 with exponent atom e_j gives F0_j(x) = x_j.
        spec = NetworkSpec(
            widths=(2, 2), r=1,
            weight_dist=degenerate(1.0), bias_dist=degenerate(0.0),
            coeff_dists=degenerate(0.0),
            exponent_dists=(
                DistributionSpec("finite-support", values=((1, 0),)),
                DistributionSpec("finite-support", values=((0, 1),)),
            ),
        )
        f0 = sample_network(spec, seed=0).f0
        x = np.array([0.7, -0.3])
        assert f0[0](x) == pytest.approx(0.7)
        assert f0[1](x) == pytest.approx(-0.3)

    def test_identity_mode(self):
        spec = replace(small_spec(), init_mode="identity", r=1)
        net = sample_network(spec, seed=0)
        f0, g0 = net.f0, net.g0
        x = np.array([0.2, -0.9])
        assert [p(x) for p in f0] == pytest.approx(list(x))
        assert [p(x) for p in g0] == [0.0, 0.0]

    def test_fixed_seed_reproduces_polynomials(self):
        spec = small_spec()
        a = sample_network(spec, seed=42)
        b = sample_network(spec, seed=42)
        assert a.f0 == b.f0 and a.g0 == b.g0
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.a, lb.a)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_draws_respect_bounds(self):
        spec = small_spec()
        for seed in range(1000):
            net = sample_network(spec, seed)
            for p in net.f0 + net.g0:
                for alpha, c in zip(p._alpha.tolist(), p._coeff.tolist()):
                    assert -1.0 <= c <= 1.0
                    assert all(0 <= e <= 2 for e in alpha)


class TestSampleLayer:
    def test_positive_entry_split(self):
        spec = NetworkSpec(widths=(1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0))
        layer = sample_network(spec, seed=0).layers[0]
        assert layer.a_plus[0, 0] == 1.0 and layer.a_minus[0, 0] == 0.0

    def test_negative_entry_split(self):
        layer = LayerSample(np.array([[-3.0]]), np.zeros(1), np.zeros(1))
        assert layer.a_plus[0, 0] == 0.0 and layer.a_minus[0, 0] == 3.0

    def test_int8_bottom_splits_exactly(self):
        # -(-128) does not fit int8; the halves cast to float first.
        spec = NetworkSpec(widths=(8, 8), weight_dist=uniform_int(-128, 127))
        layer = next(layer for seed in range(100)
                     for layer in sample_network(spec, seed).layers
                     if (layer.a == -128).any())
        assert layer.a.dtype == np.int8
        low = layer.a == -128
        assert np.all(layer.a_minus[low] == 128.0) and np.all(layer.a_plus[low] == 0.0)
        np.testing.assert_array_equal(layer.a_plus - layer.a_minus, layer.a)

    def test_decomposition_identity_over_support(self):
        spec = NetworkSpec(widths=(4, 4), weight_dist=uniform_int(-3, 3),
                           bias_dist=uniform_real(-1, 1))
        seen = set()
        for seed in range(700):  # 700 * 16 > 1e4 entries
            layer = sample_network(spec, seed).layers[0]
            seen.update(np.unique(layer.a).astype(int).tolist())
            np.testing.assert_array_equal(layer.a_plus - layer.a_minus, layer.a)
            assert np.all(np.minimum(layer.a_plus, layer.a_minus) == 0.0)
        assert seen == set(range(-3, 4))

    def test_non_integer_weights_rejected(self):
        with pytest.raises(SpecError):
            NetworkSpec(widths=(1, 1), weight_dist=uniform_real(0, 1))

    @pytest.mark.parametrize("field, layers", [
        ("weight_overrides", (0,)), ("weight_overrides", (3,)),
        ("bias_overrides", (-1,)), ("weight_overrides", (2, 2)), ("bias_overrides", (1, 1)),
    ])
    def test_override_layers_validated(self, field, layers):
        # An override outside 1..depth would be ignored, a repeat would
        # silently keep the last law.
        dist = degenerate(1.0)
        with pytest.raises(SpecError, match=field):
            NetworkSpec(widths=(1, 1, 1), **{field: tuple((l, dist) for l in layers)})

    def test_per_layer_override(self):
        spec = NetworkSpec(widths=(1, 1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0),
                           weight_overrides=((2, degenerate(-2.0)),))
        layers = sample_network(spec, seed=3).layers
        assert layers[0].a[0, 0] == 1.0
        assert layers[1].a[0, 0] == -2.0


class TestForward:
    def relu_layer(self):
        return LayerSample(np.array([[1.0]]), np.zeros(1), np.zeros(1))

    def test_relu_kills_negative_input(self):
        f, g, h = forward_fg(np.array([-2.0]), np.array([0.0]), self.relu_layer())
        assert (f - g)[0] == 0.0

    def test_relu_passes_positive_input(self):
        f, g, h = forward_fg(np.array([3.0]), np.array([0.0]), self.relu_layer())
        assert (f - g)[0] == 3.0

    def test_direct_coordinatewise(self):
        layer = LayerSample(np.eye(2), np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(forward_relu_direct(np.array([-1.0, 2.0]), layer),
                                      [0.0, 2.0])

    def test_identity_threshold(self):
        layer = LayerSample(np.array([[2.0]]), np.array([0.5]), np.array([-np.inf]))
        assert forward_relu_direct(np.array([-4.0]), layer)[0] == -7.5

    def test_dimension_mismatch(self):
        with pytest.raises(SpecError):
            forward_fg(np.zeros(2), np.zeros(3), self.relu_layer())
        with pytest.raises(SpecError):
            forward_relu_direct(np.zeros(2), self.relu_layer())

    def test_pair_step_takes_one_draw(self):
        batch = LayerSample(np.ones((3, 1, 1), dtype=np.int8), np.zeros((3, 1)),
                            np.zeros((1, 1)))
        with pytest.raises(SpecError):
            forward_fg(np.zeros(1), np.zeros(1), batch)

    def test_pair_recursion_matches_direct_oracle(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for trial in range(30):
            d = int(rng.integers(1, 5))
            L = int(rng.integers(1, 5))
            widths = (d,) + tuple(int(rng.integers(1, 9)) for _ in range(L))
            spec = small_spec(widths=widths, wlo=-3, whi=3)
            for k in range(10):
                x = rng.uniform(-1, 1, d)
                run = run_network(spec, x, seed=trial * 1000 + k)
                nu = run.nu[0]
                net = sample_network(spec, seed=trial * 1000 + k)
                for li, layer in enumerate(net.layers, start=1):
                    nu = forward_relu_direct(nu, layer)
                    worst = max(worst, float(np.max(np.abs(run.nu[li] - nu))))
        assert worst <= 1e-9


class TestRunNetwork:
    def test_single_relu_layer_base_case(self):
        spec = NetworkSpec(widths=(1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0), init_mode="identity")
        run = run_network(spec, [-2.0], seed=0)
        assert run.nu[1][0] == 0.0
        run = run_network(spec, [3.0], seed=0)
        assert run.nu[1][0] == 3.0

    def test_same_seed_identical(self):
        spec = small_spec()
        a = run_network(spec, [0.3, -0.4], seed=9)
        b = run_network(spec, [0.3, -0.4], seed=9)
        for u, v in zip(a.nu, b.nu):
            np.testing.assert_array_equal(u, v)

    def test_norm_within_certificate(self):
        spec = small_spec()
        intervals = propagate_intervals(spec)
        for k in range(200):
            x = stream(5, "x", k).uniform(-1, 1, 2)
            run = run_network(spec, x, seed=k)
            for l in range(1, spec.depth + 1):
                assert np.linalg.norm(run.nu[l]) <= intervals[l].xi + 1e-9

    def test_input_dimension_checked(self):
        with pytest.raises(SpecError, match="input has dimension 3, expected 2"):
            run_network(small_spec(), [0.1, 0.2, 0.3], seed=0)

    def test_overflowing_layer_is_a_spec_error(self):
        # Simulated draws name the same error (TestBatchedSimulation).
        with pytest.raises(SpecError, match="outputs are not finite"):
            run_network(overflowing_spec(), [0.5, -0.5], seed=0)

    def test_json_round_trip(self):
        run = run_network(small_spec(), [0.1, 0.2], seed=3)
        data = run.to_dict()
        assert data["nu"][0] == pytest.approx(list(np.asarray(run.nu[0])))


def overflowing_spec() -> NetworkSpec:
    """Accepted by the validator, but finite parameters overflow a double."""
    return NetworkSpec(widths=(2, 3, 3, 1), r=1, weight_dist=uniform_int(-3, 3),
                       bias_dist=uniform_real(-8e307, 8e307),
                       thresholds=("relu", "relu", "identity"))


LAW_KINDS = ["random-thresholds", "identity-init", "overrides",
             "int64-weights", "finite-support-weights", "int8-weights"]


def _law_family(kind: str) -> NetworkSpec:
    """One spec per sampling feature the batch-of-one identity must cover."""
    if kind == "random-thresholds":
        return replace(small_spec(widths=(3, 4, 2)), thresholds=("random", "identity"),
                       threshold_dist=DistributionSpec("truncated-gaussian", lo=-1.0,
                                                       hi=1.0, mu=0.2, sigma=1.0))
    if kind == "identity-init":
        return replace(small_spec(widths=(2, 3, 3)), init_mode="identity", r=1)
    if kind == "overrides":
        return replace(small_spec(widths=(2, 3, 3, 2), wlo=-1, whi=1),
                       weight_overrides=((2, uniform_int(-3, 3)),),
                       bias_overrides=((3, uniform_real(0.0, 2.0)),))
    if kind == "int64-weights":
        return small_spec(widths=(2, 4, 4), wlo=-300, whi=300)
    if kind == "finite-support-weights":
        return replace(small_spec(widths=(2, 3, 1)),
                       weight_dist=DistributionSpec("finite-support", values=(-1.0, 1.0)),
                       thresholds=("relu", "identity"))
    return reference_classifier_spec()  # int8 weights, identity last layer


class TestSingleDrawIsABatchOfOne:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(LAW_KINDS), st.integers(0, 2 ** 63), st.data())
    def test_run_network_is_a_monte_carlo_draw(self, kind, seed, data):
        spec = _law_family(kind)
        x = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=spec.d, max_size=spec.d))
        run = run_network(spec, x, seed)
        outs = simulate_layer_outputs(spec, 1, seed, x=x, tag="network")
        for l in range(1, spec.depth + 1):
            # The pair recursion rounds on the scale of F and G, not of nu.
            scale = max(1.0, np.abs(run.f[l]).max(), np.abs(run.g[l]).max())
            np.testing.assert_allclose(outs[l - 1][0], run.nu[l], rtol=1e-9,
                                       atol=1e-9 * scale)


def regions_symbolic_spec() -> NetworkSpec:
    """The small nets of the ``regions-symbolic`` benchmark workload."""
    return NetworkSpec(widths=(2, 4, 4, 1), r=1,
                       weight_dist=DistributionSpec("finite-support", values=(-1.0, 1.0)),
                       bias_dist=uniform_real(-1.0, 1.0),
                       coeff_dists=uniform_real(-1.0, 1.0),
                       exponent_dists=uniform_int(0, 2),
                       thresholds=("relu", "relu", "identity"))


def combine_per_output(sym: SymbolicRun, cap: int):
    """F and G of every layer of ``sym``'s draw with one public
    ``poly_weighted_combine`` per output and F_i = H_i ⊕ t_i ⊙ G_i."""
    f_layers, g_layers = [sym.f_polys[0]], [sym.g_polys[0]]
    for layer in sym.layers:
        polys = g_layers[-1] + f_layers[-1]
        swapped = f_layers[-1] + g_layers[-1]
        f_new, g_new = [], []
        for i, weights in enumerate(np.hstack([layer.a_plus, layer.a_minus]).astype(int)):
            g_i = poly_weighted_combine(polys, weights, cap=cap)
            h_i = poly_weighted_combine(swapped, weights, bias=layer.b[i], cap=cap)
            f_new.append(poly_add(h_i, g_i.shift(layer.t[i])))
            g_new.append(g_i)
        f_layers.append(tuple(f_new))
        g_layers.append(tuple(g_new))
    return f_layers, g_layers


class TestRunSymbolic:
    def test_single_relu_neuron_polynomials(self):
        spec = NetworkSpec(widths=(1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0), init_mode="identity")
        sym = run_symbolic(spec, seed=0)
        f1 = sym.f_polys[1][0]
        exps = {tuple(a) for a in f1._alpha.tolist()}
        assert exps == {(1,), (0,)}  # max(x, 0)
        assert {tuple(a) for a in sym.g_polys[1][0]._alpha.tolist()} == {(0,)}
        assert count_linear_regions(f1).count == 2

    def test_symbolic_matches_numeric(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            spec = small_spec()
            sym = run_symbolic(spec, seed=seed)
            for _ in range(20):
                x = rng.uniform(-1, 1, 2)
                run = run_network(spec, x, seed=seed)
                for l in range(spec.depth + 1):
                    np.testing.assert_allclose(sym.evaluate_nu(l, x), run.nu[l],
                                               atol=1e-9)

    @pytest.mark.parametrize("spec, seeds", [(regions_symbolic_spec(), range(40)),
                                             (reference_classifier_spec(), range(4))])
    def test_layer_products_equal_one_combine_per_output(self, spec, seeds):
        # The layer pass folds all of a layer's outputs under one key
        # layout; each polynomial is the per-output combine's, bit for bit.
        for seed in seeds:
            sym = run_symbolic(spec, seed=seed)
            want_f, want_g = combine_per_output(sym, cap=10_000)
            for got, want in ((sym.f_polys, want_f), (sym.g_polys, want_g)):
                assert len(got) == len(want)
                for got_layer, want_layer in zip(got, want):
                    assert [(p._alpha.tobytes(), p._coeff.tobytes()) for p in got_layer] \
                        == [(p._alpha.tobytes(), p._coeff.tobytes()) for p in want_layer]

    def test_hull_count_equals_lp_on_test_09_networks(self):
        spec = NetworkSpec(widths=(2, 2, 1), r=2, weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-1.0, 1.0),
                           coeff_dists=uniform_real(-1.0, 1.0),
                           exponent_dists=uniform_int(0, 2),
                           thresholds=("relu", "identity"),
                           input_box=((-1.0, 1.0), (-1.0, 1.0)))
        for i in range(200):
            f = run_symbolic(spec, seed=31_000 + i).f_polys[-1][0]
            assert (count_linear_regions(f).count
                    == count_linear_regions(f, method="exact-lp").count), i

    def test_reference_classifier_symbolic_pass_matches_direct(self):
        # Pruning happens at the cap here; seed 4 runs in about 3 s.
        spec = reference_classifier_spec()
        sym = run_symbolic(spec, seed=4)
        rng = np.random.default_rng(16)
        box = np.asarray(spec.input_box)
        for x in rng.uniform(box[:, 0], box[:, 1], size=(10, spec.d)):
            nu = sym.evaluate_nu(0, x)
            for l, layer in enumerate(sym.layers, start=1):
                nu = forward_relu_direct(nu, layer)
                np.testing.assert_allclose(sym.evaluate_nu(l, x), nu,
                                           rtol=1e-9, atol=1e-9)

    def test_cap_exceeded_raises(self):
        spec = small_spec(widths=(2, 6, 6, 6), r=3, wlo=-3, whi=3)
        with pytest.raises(MonomialCapError):
            run_symbolic(spec, seed=0, cap=20)

    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_coefficients_are_a_spec_error(self, seed):
        # Without the guard these draws give polynomials with +inf and NaN
        # coefficients, and regions counts them.
        with pytest.raises(SpecError, match="symbolic coefficients are not finite"):
            run_symbolic(overflowing_spec(), seed=seed)

    def test_overflowing_exponents_are_a_spec_error(self):
        # Ten layers of weights near 110 reach exponents of about 2 * 110**10,
        # past 2**63; unguarded, they wrapped to negative exponents.
        spec = small_spec(widths=(1,) * 11, r=1, wlo=100, whi=120)
        with pytest.raises(SpecError, match="symbolic exponents overflow"):
            run_symbolic(spec, seed=0)
        # Nine layers of weights up to 30 stay far inside it.
        spec = small_spec(widths=(1,) * 10, r=1, wlo=20, whi=30)
        assert run_symbolic(spec, seed=0).f_polys[-1][0]._alpha.min() >= 0


class TestBatchedSimulation:
    def test_block_structure_is_seed_deterministic(self):
        spec = small_spec()
        a = simulate_layer_outputs(spec, 1000, seed=7)
        b = simulate_layer_outputs(spec, 1000, seed=7)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    def test_fixed_input_vs_drawn_input(self):
        spec = small_spec()
        fixed = simulate_layer_outputs(spec, 500, seed=1, x=[0.5, 0.5])
        drawn = simulate_layer_outputs(spec, 500, seed=1)
        assert fixed[0].shape == drawn[0].shape == (500, 3)

    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_interval_certificate_dominates_batch(self, kind):
        spec = _law_family(kind)
        intervals = propagate_intervals(spec)
        outs = simulate_layer_outputs(spec, 20_000, seed=2)
        for l in range(1, spec.depth + 1):
            norms = np.linalg.norm(outs[l - 1], axis=1)
            assert norms.max() <= intervals[l].xi


    def test_direct_block_step_matches_pair_step(self):
        rng = np.random.default_rng(3)
        n, n_in, n_out = 200, 7, 5
        a = rng.integers(-3, 4, size=(n, n_out, n_in)).astype(np.int8)
        b = rng.uniform(-1, 1, size=(n, n_out))
        f = rng.uniform(-2, 2, size=(n, n_in))
        g = rng.uniform(-2, 2, size=(n, n_in))
        t = rng.uniform(-1, 1, size=(n, n_out))
        direct = forward_relu_direct(f - g, LayerSample(a, b, t))
        for k in range(n):
            f_next, g_next, _ = forward_fg(f[k], g[k], LayerSample(a[k], b[k], t[k]))
            np.testing.assert_allclose(direct[k], f_next - g_next, rtol=1e-12, atol=1e-12)

    def test_weight_dtype_follows_the_law(self):
        assert _batch_weight_dtype(uniform_int(-2, 2)) is np.int8
        assert _batch_weight_dtype(uniform_int(-128, 127)) is np.int8
        assert _batch_weight_dtype(uniform_int(-300, 300)) is np.int64
        assert _batch_weight_dtype(degenerate(1.0)) is None

    def test_wide_integer_law_stays_in_certificate(self):
        spec = small_spec(widths=(2, 4, 4), wlo=-300, whi=300)
        intervals = propagate_intervals(spec)
        outs = simulate_layer_outputs(spec, 3000, seed=4)
        for l in range(1, spec.depth + 1):
            assert np.linalg.norm(outs[l - 1], axis=1).max() <= intervals[l].xi

    def test_blocks_assemble_the_batch(self):
        spec = small_spec()
        n = BLOCK_SIZE + 100
        outs = simulate_layer_outputs(spec, n, seed=9, tag="t")
        first = simulate_block(spec, BLOCK_SIZE, 9, 0, tag="t")
        last = simulate_block(spec, 100, 9, 1, tag="t")
        for l in range(spec.depth):
            np.testing.assert_array_equal(outs[l], np.vstack([first[l], last[l]]))


class TestIntervals:
    def test_single_relu_neuron_certificate(self):
        spec = NetworkSpec(widths=(1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0), init_mode="identity",
                           input_box=((-1.0, 1.0),))
        assert propagate_intervals(spec)[1].xi == pytest.approx(1.0)

    def test_degenerate_spec_is_exact(self):
        spec = NetworkSpec(widths=(1, 1, 1), weight_dist=degenerate(-2.0),
                           bias_dist=degenerate(0.25), init_mode="identity",
                           input_box=((0.5, 0.5),))
        run = run_network(spec, [0.5], seed=0)
        intervals = propagate_intervals(spec)
        for l in range(1, 3):
            assert intervals[l].xi == pytest.approx(np.linalg.norm(run.nu[l]))

    def test_overflowing_intervals_are_a_spec_error(self):
        # Layer 1's bounds overflow to inf; the next layer's inf * 0 would
        # make a NaN certificate.
        spec = NetworkSpec(widths=(2, 3, 3, 1), r=2, weight_dist=uniform_int(-3, 3),
                           bias_dist=uniform_real(-8e307, 8e307),
                           thresholds=("relu", "relu", "identity"))
        with pytest.raises(SpecError, match="layer 1 intervals are not finite"):
            propagate_intervals(spec)

    @pytest.mark.parametrize("spec, xi", [
        (reference_spec(), [6 * np.sqrt(2), 50, 402, 3218]),
        (reference_classifier_spec(), [6 * np.sqrt(2), 50, 402, 1610]),
    ], ids=["reference", "reference-classifier"])
    def test_reference_certificate_is_the_all_extreme_draw(self, spec, xi):
        # At x = (1, 1), every F0 monomial at c = 1 and alpha = (2, 2) and
        # every G0 monomial at c = -1 and alpha = 0 give nu0 = (6, 6); every
        # weight at +2 and every bias at the top of its window then reach xi.
        nu, norms = np.full(2, 6.0), [6 * np.sqrt(2)]
        for l in range(1, spec.depth + 1):
            n_out, n_in = spec.widths[l], spec.widths[l - 1]
            nu = forward_relu_direct(nu, LayerSample(
                np.full((n_out, n_in), 2.0), np.full(n_out, spec.bias_dist_for(l).hi),
                np.zeros(n_out)))
            norms.append(np.linalg.norm(nu))
        np.testing.assert_allclose(norms, xi, rtol=1e-12)
        np.testing.assert_allclose([iv.xi for iv in propagate_intervals(spec)], xi,
                                   rtol=1e-12)

    def test_cancelling_layer_is_certified_zero(self):
        # Layer 1 is >= 0 and every weight is < 0, so layer 2 is max(<= 0, 0) = 0;
        # F and G bounded apart cannot see the cancellation.
        spec = NetworkSpec(widths=(1, 2, 2), init_mode="identity",
                           weight_dist=uniform_int(-2, -1), bias_dist=degenerate(0.0))
        intervals = propagate_intervals(spec)
        assert intervals[1].xi == pytest.approx(2 * np.sqrt(2))
        assert intervals[2].xi == 0.0
        assert not simulate_layer_outputs(spec, 1000, seed=0)[1].any()


def through_json(spec: NetworkSpec) -> NetworkSpec:
    return network_spec_from_dict(json.loads(json.dumps(network_spec_to_dict(spec))))


class TestSpecJson:
    def test_round_trip(self):
        spec = reference_spec()
        assert through_json(spec) == spec

    @pytest.mark.parametrize("field, index, path", [
        ("bias_dist", None, "bias_dist"), ("exponent_dists", 1, "exponent_dists[1]")])
    def test_integer_law_past_int64_names_its_field(self, field, index, path):
        law = {"kind": "bounded-uniform-integer", "lo": 0, "hi": 1e308}
        value = law if index is None else [{**law, "hi": 1}, law]
        with pytest.raises(SpecError, match=rf"^{re.escape(path)}: .*int64 range"):
            network_spec_from_dict({"widths": [2, 2], field: value})

    def test_round_trip_with_options(self):
        spec = NetworkSpec(widths=(2, 2, 1), r=2,
                           weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-1, 1),
                           coeff_dists=(degenerate(0.0), degenerate(1.0)),
                           exponent_dists=(
                               DistributionSpec("finite-support", values=((1, 0),)),
                               DistributionSpec("finite-support", values=((0, 1),)),
                           ),
                           thresholds=("random", "identity"),
                           threshold_dist=DistributionSpec("truncated-gaussian", lo=-0.5,
                                                           hi=0.5, mu=0.1, sigma=2.0),
                           weight_overrides=((1, degenerate(2.0)),),
                           bias_overrides=((2, DistributionSpec(
                               "finite-support", values=(0.0, 1.0), probs=(0.25, 0.75))),))
        assert through_json(spec) == spec

    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_every_law_family_round_trips(self, kind):
        spec = _law_family(kind)
        assert through_json(spec) == spec


#: Values a drawn law reads: mostly small integers, some halves, and one
#: that overflows a double as soon as two of them add.
LAW_NUMBERS = st.sampled_from([-2, -1, 0, 1, 2, -1, 0, 1, 0.5, -1.5, 1e308])
LAW_KINDS_JSON = ("bounded-uniform-integer", "bounded-uniform-real",
                  "truncated-gaussian", "finite-support")
SPEC_FIELDS = [f.name for f in fields(NetworkSpec)]


@st.composite
def law_dicts(draw, numbers=LAW_NUMBERS, integral=False):
    """A JSON law of any kind, of an integer kind four times in five if
    ``integral``.  One draw in eight crosses its bounds, and a Gaussian's
    sigma may be 0."""
    kinds = LAW_KINDS_JSON[::3] * 3 + LAW_KINDS_JSON if integral else LAW_KINDS_JSON
    kind = draw(st.sampled_from(kinds))
    if kind == "finite-support":
        return {"kind": kind, "values": draw(st.lists(numbers, min_size=1, max_size=3))}
    lo, hi = sorted([draw(numbers), draw(numbers)],
                    reverse=draw(st.sampled_from([False] * 7 + [True])))
    law = {"kind": kind, "lo": lo, "hi": hi}
    if kind == "truncated-gaussian":
        law["sigma"] = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0]))
    return law


@st.composite
def tiny_spec_dicts(draw):
    """A JSON network spec of widths <= 3 and depth <= 3, with relu,
    identity or random thresholds."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    modes = st.sampled_from(["relu", "identity", "random"])
    depth = len(widths) - 1
    spec = {"widths": widths, "r": draw(st.integers(1, 2)),
            "weight_dist": draw(law_dicts(st.integers(-2, 2), integral=True)),
            "bias_dist": draw(law_dicts()),
            "coeff_dists": draw(law_dicts()),
            "exponent_dists": draw(law_dicts(st.integers(-1, 2), integral=True)),
            "init_mode": draw(st.sampled_from(["random", "identity", "random", "zero"])),
            "thresholds": draw(modes | st.lists(modes, min_size=depth, max_size=depth)
                               | st.lists(modes, min_size=1, max_size=3))}
    if draw(st.integers(0, 3)):
        spec["threshold_dist"] = draw(law_dicts())
    return spec


class TestDrawnSpecs:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tiny_spec_dicts(), st.integers(0, 2 ** 32))
    def test_symbolic_pass_matches_the_pair_recursion_or_both_are_typed_errors(
            self, data, seed):
        # A rejected spec names its field.  An accepted one evaluates to the
        # pair recursion's nu; otherwise each pass raises a typed error.  Only
        # a cap error and an int64 exponent overflow have no numeric twin.
        try:
            spec = network_spec_from_dict(data)
        except SpecError as exc:
            assert re.match(rf"({'|'.join(SPEC_FIELDS)})\b", str(exc)), str(exc)
            return
        sym = error = None
        try:
            sym = run_symbolic(spec, seed, cap=300)
        except MonomialCapError:
            pass
        except SpecError as exc:
            if not str(exc).startswith("symbolic exponents overflow"):
                error = exc
        box = np.asarray(spec.input_box)
        for x in np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(3, spec.d)):
            if error is not None:
                with pytest.raises(SpecError):
                    run_network(spec, x, seed)
                continue
            try:
                run = run_network(spec, x, seed)
            except SpecError:
                assert sym is None, "the pair recursion failed where the symbolic pass ran"
                continue
            for l in range(spec.depth + 1) if sym is not None else ():
                scale = max(1.0, np.abs(run.f[l]).max(), np.abs(run.g[l]).max())
                np.testing.assert_allclose(sym.evaluate_nu(l, x), run.nu[l], rtol=1e-9,
                                           atol=1e-9 * scale)
