"""Monte Carlo verification of the concentration inequalities.

Certifies a norm bound xi per layer by interval propagation, checks the
norm-sub-Gaussian tail bound on simulated layer outputs, and probes the
martingale tail bound on the +-1 random walk where the exact binomial
tail is available for comparison.
"""

import numpy as np
from scipy.stats import binom

from tropnet import (
    convex_order_check,
    martingale_grade_check,
    mgale_bound,
    propagate_intervals,
    reference_spec,
    simulate_layer_outputs,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)

spec = reference_spec()

# --- xi certificates -------------------------------------------------------
# Interval arithmetic on the direct recursion nu' = max(A nu + b, t) gives a
# hard bound on ||nu^(l)||; every simulated run must stay inside it.
xi = [iv.xi for iv in propagate_intervals(spec)]
outs = simulate_layer_outputs(spec, 50_000, seed=0)
for l in range(1, spec.depth + 1):
    observed = np.linalg.norm(outs[l - 1], axis=1).max()
    print(f"layer {l}: xi = {xi[l]:10.1f}   observed max = {observed:8.3f}")

# --- tail bound vs simulation ----------------------------------------------
xi_last = xi[-1]
t_grid = np.linspace(0.0, 2 * xi_last, 6)
reports = verify_layer_concentration(spec, t_grid, n=50_000, seed=1)
print("\nkind  l        t       analytic   empirical   verdict")
for r in reports[:12]:
    print(f"{r.kind:>4} {r.layer:>2} {r.t:10.1f} {r.analytic:10.4f} "
          f"{r.empirical:10.4f}   {r.verdict}")

# --- martingale bound on the random walk ------------------------------------
# The walk has unit increments, so the bounded-increment tail bound
# applies with M = 1; the binomial tail is the exact reference.
traj = simulate_random_walk(steps=12, n=100_000, seed=2, dim=1)
print("\nwalk tails at l = 12:")
for a in (2.0, 4.0, 6.0):
    k = int(np.ceil((12 + a) / 2))
    exact = 2 * binom.sf(k - 1, 12, 0.5)
    rep = [r for r in walk_tail_reports(traj[:, : 13], [a]) if r.layer == 12][0]
    print(f"  a={a}: MC {rep.empirical:.5f}  exact {exact:.5f}  "
          f"bound {mgale_bound(a, 1.0, 12):.5f}")

# --- martingale grades by convex order --------------------------------------
# The walk is a strong martingale, so no convex test function should
# falsify the (very-)weak grades; a drifting sequence is caught at once.
grade = martingale_grade_check(traj[:4000, :6], seed=3)
print("\nwalk grade check: weak falsified =", grade.weak_falsified,
      " increment bound =", grade.increment_bound)

drift = np.cumsum(np.ones((4000, 5, 1)), axis=1)
rng = np.random.default_rng(4)
report = convex_order_check(drift[:, 0], drift[:, 3], seed=5)
print("drifting pair falsified =", report.falsified,
      f"(worst function {report.worst_function})")
