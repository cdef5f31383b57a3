"""Acceptance gate: one test per criterion, each printing a verdict line.

Every criterion is oracle- or property-based and runs at its stated
tolerance with pinned seeds.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion verdict lines.
"""

import math
import time

import numpy as np
from scipy.stats import binom

from tropnet.bounds import (
    convex_order_check,
    mgale_bound,
    region_count_concentration,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)
from tropnet.classifier import ScoreSpec, disagreement_audit
from tropnet.harness import parse_config, run_subcommand
from tropnet.networks import (
    NetworkSpec,
    forward_fg,
    forward_relu_direct,
    network_spec_to_dict,
    reference_classifier_spec,
    reference_spec,
    run_symbolic,
    sample_network,
    uniform_int,
    uniform_real,
)
from tropnet.seeding import stream
from tropnet.stopping import (
    backward_induction_exact,
    backward_induction_lsmc,
    exhaustive_stopping_oracle,
    select_layers,
)
from tropnet.tropical import TropicalPolynomial, count_linear_regions

from finite_support import (
    induction_stop_stages,
    random_finite_support_process,
    sample_trajectories,
)


def _verdict(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_tropical_relu_equivalence():
    """Pair recursion equals the direct ReLU recursion on random networks."""
    t0 = time.time()
    rng = np.random.default_rng(20260801)
    worst = 0.0
    n_inputs = 1000
    for trial in range(200):
        d = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 5))
        widths = (d,) + tuple(int(rng.integers(1, 9)) for _ in range(depth))
        spec = NetworkSpec(widths=widths, r=2,
                           weight_dist=uniform_int(-3, 3),
                           bias_dist=uniform_real(-1.0, 1.0),
                           coeff_dists=uniform_real(-1.0, 1.0),
                           exponent_dists=uniform_int(0, 2),
                           input_box=tuple([(-1.0, 1.0)] * d))
        net = sample_network(spec, seed=trial)
        xs = rng.uniform(-1, 1, size=(n_inputs, d))
        f = np.column_stack([p.evaluate_batch(xs) for p in net.f0])
        g = np.column_stack([p.evaluate_batch(xs) for p in net.g0])
        nu = f - g
        for layer in net.layers:
            f, g, _ = forward_fg(f, g, layer)
            nu = forward_relu_direct(nu, layer)
            worst = max(worst, float(np.max(np.abs((f - g) - nu))))
    elapsed = time.time() - t0
    _verdict("1 tropical/ReLU equivalence (200 nets x 1000 inputs)",
             worst <= 1e-9 and elapsed < 60,
             f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_02_layer_concentration_bound():
    """Empirical layer tails stay below the norm-sub-Gaussian bound."""
    t0 = time.time()
    spec = reference_spec()
    from tropnet.networks import propagate_intervals
    xi_max = propagate_intervals(spec)[-1].xi
    t_grid = np.linspace(0.0, 2.0 * xi_max, 10)
    reports = verify_layer_concentration(spec, t_grid, n=100_000, seed=11)
    bad = [r for r in reports if r.verdict != "consistent"]
    elapsed = time.time() - t0
    _verdict("2 layer concentration (all layers, 10-point grid, n=1e5)",
             not bad and elapsed < 120,
             f"{len(reports)} reports, {elapsed:.1f}s")


def test_03_expected_classifier_audit():
    """Disagreement with the expected classifier respects its bound."""
    t0 = time.time()
    spec = reference_classifier_spec()
    rng = np.random.default_rng(77)
    inputs = rng.uniform(-1, 1, size=(30, 2))
    rows = disagreement_audit(spec, ScoreSpec(), inputs, n=100_000, seed=5)
    resolved = [r for r in rows if r.verdict != "unresolved"]
    violated = [r for r in resolved if r.verdict == "violated"]
    elapsed = time.time() - t0
    _verdict("3 expected-classifier audit (>=20 resolved inputs, n=1e5)",
             len(resolved) >= 20 and not violated and elapsed < 300,
             f"{len(resolved)} resolved, {len(violated)} violated, {elapsed:.1f}s")


def test_04_martingale_walk_bound():
    """Walk tails stay below the martingale bound and match the binomial."""
    t0 = time.time()
    steps, n = 20, 100_000
    traj = simulate_random_walk(steps, n, seed=13, dim=1)
    a_grid = np.linspace(1.0, 10.0, 10)
    reports = walk_tail_reports(traj, a_grid, m=1.0)
    ok = True
    detail = ""
    for rep in reports:
        l, a = rep.layer, rep.t
        k = math.ceil((l + a) / 2.0)
        exact = 2.0 * binom.sf(k - 1, l, 0.5)
        if rep.verdict != "consistent":
            ok, detail = False, f"bound violated at l={l}, a={a}"
            break
        if abs(rep.empirical - exact) > 3 * max(rep.se, 1e-12) + 1e-12:
            ok, detail = False, f"MC vs binomial off at l={l}, a={a}"
            break
        if exact > mgale_bound(a, 1.0, l):
            ok, detail = False, f"exact tail above bound at l={l}, a={a}"
            break
    elapsed = time.time() - t0
    _verdict("4 martingale tail bound (walk, l=1..20, 10 a-values)",
             ok and elapsed < 60, detail or f"{len(reports)} reports, {elapsed:.1f}s")


def _stopping_instances():
    shapes = [(6, 1), (4, 2), (3, 3), (2, 3), (3, 2), (2, 2), (5, 1), (4, 1)]
    for i in range(50):
        horizon, support = shapes[i % len(shapes)]
        yield random_finite_support_process(9000 + i, horizon, support)


def test_05_backward_induction_exactness():
    """Induction value equals rule enumeration; its rule stops earliest."""
    t0 = time.time()
    worst = 0.0
    for process in _stopping_instances():
        sol = backward_induction_exact(process)
        oracle = exhaustive_stopping_oracle(process)
        worst = max(worst, abs(sol.value - oracle.value))
        stages = induction_stop_stages(process, sol)
        assert np.all(stages[None, :] <= oracle.stop_stages), \
            "induction rule stops later than an optimal rule"
    elapsed = time.time() - t0
    _verdict("5 backward-induction exactness (50 finite-support instances)",
             worst <= 1e-12 and elapsed < 60,
             f"max value gap {worst:.2e}, {elapsed:.1f}s")


def test_06_lsmc_consistency():
    """LSMC value lands within 2% of the exact optimum."""
    t0 = time.time()
    worst_rel = 0.0
    for i, process in enumerate(_stopping_instances()):
        exact = backward_induction_exact(process)
        traj = sample_trajectories(process, 10_000, stream(i, "accept-lsmc"))
        sol = backward_induction_lsmc(traj, basis_degree=3)
        worst_rel = max(worst_rel, abs(sol.value - exact.value) / exact.value)
    elapsed = time.time() - t0
    _verdict("6 LSMC within 2% of exact (same 50 instances, 1e4 paths)",
             worst_rel <= 0.02 and elapsed < 120,
             f"worst rel err {worst_rel:.4f}, {elapsed:.1f}s")


def test_07_unimodal_example_selects_seven():
    """Deterministic utility log(L)/sqrt(L) selects depth 7 at horizon 1000."""
    t0 = time.time()
    L = np.arange(1, 1001)
    sol = select_layers("deterministic", gamma=np.log(L) / np.sqrt(L))
    g7, g8 = np.log(7) / np.sqrt(7), np.log(8) / np.sqrt(8)
    elapsed = time.time() - t0
    _verdict("7 log/sqrt utility selects depth 7 (horizon 1000)",
             sol.tau == 7 and g7 > g8 and elapsed < 1.0,
             f"tau={sol.tau}, {elapsed:.3f}s")


def test_08_region_counting_cross_method():
    """Dominance-LP counts equal the grid oracle on random polynomials."""
    t0 = time.time()
    relu = TropicalPolynomial([(1,), (0,)], [0.0, 0.0])
    planes = TropicalPolynomial([(1, 0), (0, 1), (0, 0)], [0.0, 0.0, 0.0])
    assert count_linear_regions(relu).count == 2
    assert count_linear_regions(planes).count == 3

    rng = np.random.default_rng(424242)
    mismatches = 0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        r = min(int(rng.integers(2, 7)), 3 ** d)
        terms, seen = [], set()
        while len(terms) < r:
            alpha = tuple(int(a) for a in rng.integers(0, 3, size=d))
            if alpha not in seen:
                seen.add(alpha)
                terms.append((rng.uniform(-2, 2), alpha))
        f = TropicalPolynomial([a for _, a in terms], [c for c, _ in terms])
        lp = count_linear_regions(f, method="exact-lp").count
        grid = count_linear_regions(f, method="grid-oracle").count
        mismatches += lp != grid
    elapsed = time.time() - t0
    _verdict("8 region counting LP == grid (100 random, d<=2, r<=6)",
             mismatches == 0 and elapsed < 60,
             f"{mismatches} mismatches, {elapsed:.1f}s")


def test_09_region_count_concentration():
    """Sampled region counts respect the bounded-range tail bound."""
    t0 = time.time()
    spec = NetworkSpec(widths=(2, 2, 1), r=2,
                       weight_dist=uniform_int(-1, 1),
                       bias_dist=uniform_real(-1.0, 1.0),
                       coeff_dists=uniform_real(-1.0, 1.0),
                       exponent_dists=uniform_int(0, 2),
                       thresholds=("relu", "identity"),
                       input_box=((-1.0, 1.0), (-1.0, 1.0)))
    counts, monos = [], []
    for i in range(200):
        sym = run_symbolic(spec, seed=31_000 + i)
        f = sym.f_polys[-1][0]
        monos.append(f.num_monomials)
        counts.append(count_linear_regions(f).count)
    b1 = max(monos)
    t_grid = np.linspace(0.5, b1 - 1.0, 5)
    reports = region_count_concentration(counts, b1, t_grid)
    bad = [r for r in reports if r.verdict != "consistent"]
    elapsed = time.time() - t0
    _verdict("9 region-count concentration (200 symbolic nets)",
             not bad and elapsed < 180,
             f"b1={b1}, counts in [{min(counts)},{max(counts)}], {elapsed:.1f}s")


def test_10_convex_order_checker():
    """Not falsified under added noise; falsified under a unit mean shift."""
    t0 = time.time()
    rng = stream(99, "accept-cx")
    n = 10_000
    failures = []
    for case in range(20):
        dim = int(rng.integers(1, 4))
        base_kind = case % 4
        if base_kind == 0:
            x1 = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0)
        elif base_kind == 1:
            x1 = rng.uniform(-2, 2, size=(n, dim))
        elif base_kind == 2:
            x1 = rng.standard_gamma(2.0, size=(n, dim)) - 2.0
        else:
            x1 = rng.choice([-1.0, 0.0, 2.0], size=(n, dim))
        noise = rng.normal(size=(n, dim)) * rng.uniform(0.2, 1.0)
        not_fals = convex_order_check(x1, x1 + noise, alpha=0.01, seed=case)
        shifted = convex_order_check(x1, x1 + 1.0, alpha=0.01, seed=case)
        if not_fals.falsified:
            failures.append(f"case {case}: noise pair falsified "
                            f"({not_fals.worst_function})")
        if not shifted.falsified:
            failures.append(f"case {case}: mean shift not detected")
    elapsed = time.time() - t0
    _verdict("10 convex-order checker (20 base distributions, n=1e4)",
             not failures and elapsed < 60,
             failures[0] if failures else f"{elapsed:.1f}s")


def test_11_worker_determinism(tmp_path):
    """Same seed, different worker counts: byte-identical CSV artifacts."""
    t0 = time.time()
    base = {
        "seed": 2026,
        "network": network_spec_to_dict(reference_spec()),
        "bounds": {"n": 30_000, "t_grid": [0.0, 50.0, 500.0, 5000.0]},
    }
    outputs = {}
    for workers in (1, 2, 4):
        cfg = parse_config("bounds", dict(base, workers=workers))
        run_subcommand("bounds", cfg, out_dir=tmp_path / f"w{workers}")
        outputs[workers] = (tmp_path / f"w{workers}" / "bound_reports.csv").read_bytes()
    same = outputs[1] == outputs[2] == outputs[4]
    elapsed = time.time() - t0
    _verdict("11 worker-count determinism (byte-identical CSVs)",
             same, f"{elapsed:.1f}s")
