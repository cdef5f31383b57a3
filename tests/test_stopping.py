"""Utility construction, backward induction, the oracle, and LSMC."""

import math

import numpy as np
import pytest

from tropnet.networks import NetworkSpec, degenerate, uniform_int, uniform_real
from tropnet.seeding import stream
from tropnet.stopping import (
    FiniteSupportProcess,
    GammaSpec,
    StateExplosionError,
    StoppingError,
    backward_induction_exact,
    backward_induction_lsmc,
    exhaustive_stopping_oracle,
    gamma_value,
    loss_mse,
    select_layers,
    simulate_gamma_trajectories,
)

from finite_support import (
    induction_stop_stages,
    iid_process,
    random_finite_support_process,
    sample_trajectories,
    stopped_envelope_means,
)


class TestLoss:
    def test_perfect_fit(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_residuals(self):
        assert loss_mse([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_three_four_five(self):
        assert loss_mse([3.0, 0.0, 4.0], [0.0, 0.0, 0.0]) == pytest.approx(25 / 3)

    def test_dim_mismatch(self):
        with pytest.raises(StoppingError):
            loss_mse([1.0], [1.0, 2.0])

    def test_last_axis(self):
        nu = np.array([[1.0, 1.0], [3.0, 4.0]])
        np.testing.assert_array_equal(loss_mse(nu, [0.0, 0.0]), [1.0, 12.5])


class TestGammaValue:
    def test_units_case(self):
        spec = GammaSpec(horizon=10, penalty_c=1.0)
        assert gamma_value(spec, 1, 1.0) == 1.0

    def test_arithmetic(self):
        spec = GammaSpec(horizon=10, penalty_c=1.0)
        assert gamma_value(spec, 4, 0.5) == pytest.approx(1.0)  # (1/0.5) * (1/2)

    def test_zero_loss_diverges(self):
        spec = GammaSpec(horizon=10)
        assert gamma_value(spec, 1, 0.0) == math.inf

    def test_broadcasts_over_layers_and_losses(self):
        spec = GammaSpec(horizon=4, penalty_c=2.0)
        losses = np.array([[1.0, 0.5], [0.0, 2.0]])
        np.testing.assert_array_equal(gamma_value(spec, [1, 4], losses),
                                      [[0.5, 0.5], [math.inf, 0.125]])

    def test_log_over_sqrt_peaks_at_seven(self):
        # Reciprocal utility against loss 1/log(L) realizes log(L)/sqrt(L).
        spec = GammaSpec(horizon=1000, penalty_c=1.0)
        gammas = [gamma_value(spec, L, 1.0 / math.log(L)) for L in range(2, 1001)]
        gammas = [0.0] + gammas  # log(1) = 0: utility 0 at L = 1
        assert int(np.argmax(gammas)) + 1 == 7

    def test_out_of_horizon(self):
        with pytest.raises(StoppingError):
            gamma_value(GammaSpec(horizon=3), 4, 1.0)


class TestExactInduction:
    def test_deterministic_one_three(self):
        process = FiniteSupportProcess.from_deterministic([1.0, 3.0])
        sol = backward_induction_exact(process)
        assert sol.value == 3.0
        assert sol.tau == 2
        assert sol.snell_mean == (3.0, 3.0)

    def test_deterministic_five_three(self):
        sol = backward_induction_exact(FiniteSupportProcess.from_deterministic([5.0, 3.0]))
        assert sol.value == 5.0 and sol.tau == 1

    def test_iid_two_point_matches_enumeration(self):
        process = iid_process([0.0, 1.0], [0.5, 0.5], horizon=4)
        sol = backward_induction_exact(process)
        oracle = exhaustive_stopping_oracle(process)
        assert sol.value == pytest.approx(oracle.value, abs=1e-12)
        # tau distribution from the induction matches the oracle's earliest
        # profile aggregated over paths.
        atoms, probs, _ = process.enumerate_paths()
        stages = induction_stop_stages(process, sol)
        np.testing.assert_array_equal(stages, oracle.earliest_profile)

    def test_envelope_dominates_payoff(self):
        for seed in range(10):
            process = random_finite_support_process(seed, horizon=4, support=2)
            sol = backward_induction_exact(process)
            for l in range(process.horizon):
                assert np.all(sol.snell_atoms[l] >= process.values[l] - 1e-12)
            # base case: the envelope at the horizon IS the payoff
            np.testing.assert_array_equal(sol.snell_atoms[-1], process.values[-1])

    def test_negative_utilities_every_path_stops(self):
        # At the horizon S = gamma < 0; the rule must still stop there.
        sol = backward_induction_exact(
            iid_process([-1.0, -3.0], [0.5, 0.5], 3))
        assert sum(p for _, p in sol.tau_distribution) == pytest.approx(1.0)
        assert 1 <= sol.tau_mean <= 3

    def test_positive_probabilities_required(self):
        with pytest.raises(StoppingError):
            FiniteSupportProcess(values=(np.array([1.0, 2.0]),),
                                 initial=np.array([1.0, 0.0]), transitions=())

    def test_stopped_envelope_is_a_martingale(self):
        for seed in range(10):
            process = random_finite_support_process(100 + seed, horizon=4, support=2)
            sol = backward_induction_exact(process)
            means = stopped_envelope_means(process, sol)
            np.testing.assert_allclose(means, means[0], atol=1e-12)

    def test_scaling_penalty_leaves_tau_unchanged(self):
        for seed in range(5):
            process = random_finite_support_process(200 + seed, horizon=4, support=3)
            scaled = FiniteSupportProcess(
                values=tuple(v * 7.5 for v in process.values),
                initial=process.initial, transitions=process.transitions)
            a = backward_induction_exact(process)
            b = backward_induction_exact(scaled)
            np.testing.assert_array_equal(induction_stop_stages(process, a),
                                          induction_stop_stages(scaled, b))
            assert b.value == pytest.approx(7.5 * a.value, rel=1e-12)


class TestOracle:
    def test_horizon_one(self):
        process = iid_process([0.3, 0.9], [0.4, 0.6], horizon=1)
        oracle = exhaustive_stopping_oracle(process)
        assert oracle.value == pytest.approx(0.3 * 0.4 + 0.9 * 0.6, abs=1e-15)

    def test_deterministic_two_stage(self):
        oracle = exhaustive_stopping_oracle(
            FiniteSupportProcess.from_deterministic([1.0, 3.0]))
        assert oracle.value == 3.0

    def test_induction_matches_oracle_and_is_earliest(self):
        for seed in range(25):
            horizon, support = [(3, 3), (4, 2), (6, 1), (2, 3), (3, 2)][seed % 5]
            process = random_finite_support_process(300 + seed, horizon, support)
            sol = backward_induction_exact(process)
            oracle = exhaustive_stopping_oracle(process)
            assert sol.value == pytest.approx(oracle.value, abs=1e-12)
            stages = induction_stop_stages(process, sol)
            # Earliest-optimality: the induction rule stops no later than any
            # optimal rule on every path.
            assert np.all(stages[None, :] <= oracle.stop_stages)
            assert oracle.earliest_achieved
            np.testing.assert_array_equal(stages, oracle.earliest_profile)

    def test_state_explosion_guard(self):
        process = iid_process([0.0, 1.0], [0.5, 0.5], horizon=8)
        with pytest.raises(StateExplosionError):
            exhaustive_stopping_oracle(process)


class TestLSMC:
    def test_deterministic_process_reproduces_exact(self):
        gammas = [1.0, 3.0, 2.0]
        traj = np.tile(gammas, (2000, 1))
        sol = backward_induction_lsmc(traj, basis_degree=3)
        exact = backward_induction_exact(
            FiniteSupportProcess.from_deterministic(gammas))
        assert sol.value == pytest.approx(exact.value, abs=1e-12)
        assert sol.tau_mean == exact.tau

    def test_two_point_value_within_two_percent(self):
        process = iid_process([0.0, 1.0], [0.5, 0.5], horizon=4)
        exact = backward_induction_exact(process)
        traj = sample_trajectories(process, 10_000, stream(1, "lsmc"))
        sol = backward_induction_lsmc(traj, basis_degree=3)
        assert abs(sol.value - exact.value) <= 0.02 * exact.value

    def test_never_beats_optimum_beyond_noise(self):
        for seed in range(10):
            process = random_finite_support_process(400 + seed, horizon=5, support=3)
            exact = backward_induction_exact(process)
            traj = sample_trajectories(process, 8000, stream(seed, "lsmc2"))
            sol = backward_induction_lsmc(traj, basis_degree=3)
            assert sol.value <= exact.value + 3 * sol.value_se

    def test_needs_enough_trajectories(self):
        with pytest.raises(StoppingError):
            backward_induction_lsmc(np.zeros((10, 3)))

    def test_infinite_values_rejected(self):
        traj = np.ones((2000, 2))
        traj[5, 1] = np.inf
        with pytest.raises(StoppingError):
            backward_induction_lsmc(traj)


class TestSelectLayers:
    def test_log_sqrt_horizon_1000(self):
        L = np.arange(1, 1001)
        sol = select_layers("deterministic", gamma=np.log(L) / np.sqrt(L))
        assert sol.tau == 7
        # direct integer comparison around the peak
        assert np.log(7) / np.sqrt(7) > np.log(8) / np.sqrt(8)
        assert np.log(7) / np.sqrt(7) > np.log(6) / np.sqrt(6)

    def test_deterministic_table_has_one_row_or_column(self):
        table = np.arange(1.0, 7.0).reshape(2, 3)
        with pytest.raises(StoppingError, match="one row or one column"):
            select_layers("deterministic", gamma=table)
        # An increasing profile is stopped at its last depth.
        assert select_layers("deterministic", gamma=table[:1]).tau == 3
        assert select_layers("deterministic", gamma=table[:, :1]).tau == 2

    def test_constant_gamma_stops_immediately(self):
        sol = select_layers("deterministic", gamma=np.ones(25))
        assert sol.tau == 1

    def test_exact_matches_deterministic(self):
        gammas = [0.5, 2.0, 1.0]
        a = select_layers("deterministic", gamma=gammas)
        b = select_layers("exact",
                          process=FiniteSupportProcess.from_deterministic(gammas))
        assert a.tau == b.tau and a.value == b.value

    def test_infinite_gamma_rejected(self):
        with pytest.raises(StoppingError):
            select_layers("deterministic", gamma=[1.0, np.inf])

    def test_negative_utilities_stop_on_a_tie(self):
        # The envelope touches a negative payoff exactly; the rule must stop.
        sol = select_layers("deterministic", gamma=[-1.0, -2.0])
        assert sol.method == "deterministic"
        assert sol.tau == 1 and sol.value == -1.0

    def test_lsmc_on_simulated_network(self):
        spec = NetworkSpec(widths=(2, 3, 3, 3), r=2,
                           weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-0.5, 0.5),
                           coeff_dists=uniform_real(-1, 1),
                           exponent_dists=uniform_int(0, 1))
        gspec = GammaSpec(horizon=3)
        sol = select_layers("lsmc", network_spec=spec, gamma_spec=gspec,
                            y_star=[1.0, 1.0, 1.0], n_trajectories=2000, seed=0)
        assert 1 <= sol.tau_mean <= 3
        assert "loss_monotone_fraction" in sol.extras

    def test_perfect_fit_short_circuits(self):
        # A frozen network hitting the target exactly at depth 1.
        spec = NetworkSpec(widths=(1, 1, 1), weight_dist=degenerate(1.0),
                           bias_dist=degenerate(0.0), init_mode="identity",
                           thresholds=("identity", "identity"),
                           input_box=((0.5, 0.5),))
        gspec = GammaSpec(horizon=2)
        with pytest.warns(UserWarning, match="perfect fit"):
            sol = select_layers("lsmc", network_spec=spec, gamma_spec=gspec,
                                y_star=[0.5], n_trajectories=1000, seed=0)
        assert sol.tau == 1 and sol.value == math.inf


class TestGammaTrajectories:
    def test_common_random_numbers_are_nested(self):
        spec = NetworkSpec(widths=(2, 3, 3), r=2,
                           weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-0.5, 0.5),
                           coeff_dists=uniform_real(-1, 1),
                           exponent_dists=uniform_int(0, 1))
        gspec = GammaSpec(horizon=2)
        g1, l1 = simulate_gamma_trajectories(spec, gspec, [0.0, 0.0, 0.0], 500, seed=7)
        g2, l2 = simulate_gamma_trajectories(spec, gspec, [0.0, 0.0, 0.0], 500, seed=7)
        np.testing.assert_array_equal(g1, g2)
        assert g1.shape == (500, 2)

    def test_rectangular_required(self):
        spec = NetworkSpec(widths=(2, 3, 2), weight_dist=uniform_int(-1, 1),
                           bias_dist=uniform_real(-0.5, 0.5))
        with pytest.raises(ValueError):
            simulate_gamma_trajectories(spec, GammaSpec(horizon=2), [0.0, 0.0], 100)
