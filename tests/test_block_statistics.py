"""Per-block statistics of ``simulate_layer_outputs``.

Callers that read a scalar or two per draw pass a statistic that each
simulation block applies to its layer outputs, so the full sample is never
held.  Every statistic must equal the same computation on the full sample
bit for bit, whether the blocks run here or in a process pool.
"""

import concurrent.futures
import tracemalloc
from functools import partial

import numpy as np
import pytest

from tropnet.bounds import (
    _norms_and_distances,
    estimate_tail,
    nsg_bound,
    tail_distances,
    verify_layer_concentration,
)
from tropnet.classifier import ScoreSpec, _output, disagreement_audit
from tropnet.networks import (
    NetworkSpec,
    SpecError,
    propagate_intervals,
    simulate_layer_outputs,
    uniform_int,
    uniform_real,
)
from tropnet.seeding import BLOCK_SIZE
from tropnet.stopping import GammaSpec, _block_losses, loss_mse, simulate_gamma_trajectories

#: Three blocks, the last one partial.
N = 2 * BLOCK_SIZE + 1000


def rectangular_spec(width: int = 3, depth: int = 3) -> NetworkSpec:
    return NetworkSpec(widths=(2,) + (width,) * depth, r=2,
                       weight_dist=uniform_int(-2, 2),
                       bias_dist=uniform_real(-1.0, 1.0),
                       coeff_dists=uniform_real(-1.0, 1.0),
                       exponent_dists=uniform_int(0, 2))


def overflowing_spec() -> NetworkSpec:
    """Accepted by the validator, but layer 2 overflows a double."""
    return NetworkSpec(widths=(2, 3, 3, 1), r=1, weight_dist=uniform_int(-3, 3),
                       bias_dist=uniform_real(-8e307, 8e307),
                       thresholds=("relu", "relu", "identity"))


@pytest.fixture(scope="module")
def pool():
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


@pytest.fixture(params=["serial", "pool"])
def mapper(request, pool):
    return map if request.param == "serial" else pool.map


@pytest.fixture(scope="module")
def full_sample():
    return simulate_layer_outputs(rectangular_spec(), N, 5, tag="t")


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestStreamedStatistics:
    def test_default_keeps_every_layer(self, full_sample, mapper):
        streamed = simulate_layer_outputs(rectangular_spec(), N, 5, tag="t", map=mapper)
        assert len(streamed) == len(full_sample) == 3
        for a, b in zip(streamed, full_sample):
            assert_bitwise_equal(a, b)

    def test_losses_match_the_full_sample(self, full_sample, mapper):
        y_star = np.array([1.0, -0.5, 0.25])
        [losses] = simulate_layer_outputs(rectangular_spec(), N, 5, tag="t", map=mapper,
                                          stat=partial(_block_losses, y_star=y_star))
        want = np.stack([loss_mse(nu, y_star) for nu in full_sample], axis=1)
        assert_bitwise_equal(losses, want)

    def test_norms_and_distances_match_the_full_sample(self, full_sample, mapper):
        layers = [3, 1]
        centers = [full_sample[l - 1][:100].mean(axis=0) for l in layers]
        stats = simulate_layer_outputs(
            rectangular_spec(), N, 5, tag="t", map=mapper,
            stat=partial(_norms_and_distances, layers=layers, centers=centers))
        want = ([np.linalg.norm(full_sample[l - 1], axis=1) for l in layers]
                + [np.linalg.norm(full_sample[l - 1] - c, axis=1)
                   for l, c in zip(layers, centers)])
        assert len(stats) == len(want) == 4
        for a, b in zip(stats, want):
            assert_bitwise_equal(a, b)

    def test_scalar_output_matches_the_full_sample(self, mapper):
        spec = NetworkSpec(widths=(2, 3, 1), weight_dist=uniform_int(-2, 2),
                           thresholds=("relu", "identity"))
        full = simulate_layer_outputs(spec, N, 8, x=[0.3, -0.2], tag="s")
        [nu] = simulate_layer_outputs(spec, N, 8, x=[0.3, -0.2], tag="s",
                                      map=mapper, stat=_output)
        assert_bitwise_equal(nu, np.ascontiguousarray(full[-1][:, 0]))

    def test_no_draws_keep_their_shapes(self):
        outs = simulate_layer_outputs(rectangular_spec(), 0, 5)
        assert [o.shape for o in outs] == [(0, 3)] * 3
        [losses] = simulate_layer_outputs(rectangular_spec(), 0, 5,
                                          stat=partial(_block_losses, y_star=np.zeros(3)))
        assert losses.shape == (0, 3)

    def test_gamma_losses_match_the_full_sample(self):
        spec, y_star = rectangular_spec(), [0.5, 0.5, 0.5]
        _, losses = simulate_gamma_trajectories(spec, GammaSpec(horizon=3), y_star, N, seed=4)
        full = simulate_layer_outputs(spec, N, 4, tag="gamma")
        assert_bitwise_equal(losses, np.stack([loss_mse(nu, y_star) for nu in full], axis=1))

    def test_verify_matches_a_full_sample_recomputation(self, mapper):
        spec, n = rectangular_spec(), BLOCK_SIZE + 500
        reports = verify_layer_concentration(spec, n=n, seed=3, layers=[2, 3],
                                             map=mapper)
        pilot = simulate_layer_outputs(spec, n, 3, tag="pilot")
        sample = simulate_layer_outputs(spec, n, 3, tag="eval")
        xi = [iv.xi for iv in propagate_intervals(spec)]
        want = []
        for l in (2, 3):
            grid = [float(t) for t in np.linspace(0.0, 2.0 * xi[l], 10)]
            dist = tail_distances(sample[l - 1], pilot[l - 1].mean(axis=0))
            want += [(l, t, nsg_bound(t, xi[l]), p, se)
                     for t, (p, se) in zip(grid, estimate_tail(dist, grid))]
        assert [(r.layer, r.t, r.analytic, r.empirical, r.se) for r in reports] == want


class TestOverflowInABlock:
    def test_overflow_names_the_layer(self, mapper):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpecError, match="layer 2 outputs are not finite"):
                simulate_layer_outputs(overflowing_spec(), N, 0, map=mapper,
                                       stat=_output)

    def test_overflow_in_a_pooled_audit_names_the_layer(self, pool):
        # The audit pools its inputs, and each input simulates its blocks.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpecError, match="layer 2 outputs are not finite"):
                disagreement_audit(overflowing_spec(), ScoreSpec(), [[0.0, 0.0]] * 2,
                                   n=BLOCK_SIZE + 10, map=pool.map)


def test_gamma_trajectories_never_hold_the_full_sample():
    # The full sample of a width-16, depth-8 net at 50 000 draws is 51.2 MB;
    # streamed losses keep 8 floats per draw, plus one block's layer outputs.
    spec = rectangular_spec(width=16, depth=8)
    n = 50_000
    full_bytes = n * sum(spec.widths[1:]) * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        gammas, losses = simulate_gamma_trajectories(spec, GammaSpec(horizon=8),
                                                     np.zeros(16), n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gammas.shape == losses.shape == (n, 8)
    assert peak < full_bytes / 2, f"peak {peak / 2**20:.1f} MiB of {full_bytes / 2**20:.1f}"
