"""Choosing the number of layers by optimal stopping.

The utility of stopping at depth L is gamma(L) = g(LOSS(L)) * h(L): an
accuracy payoff that grows with depth against a cost penalty that decays
with it.  Backward induction of the value envelope S picks the earliest
depth where stopping is as good as continuing.
"""

import numpy as np

from tropnet import (
    FiniteSupportProcess,
    GammaSpec,
    NetworkSpec,
    backward_induction_exact,
    backward_induction_lsmc,
    exhaustive_stopping_oracle,
    select_layers,
    stream,
    uniform_int,
    uniform_real,
)

# --- the textbook deterministic profile --------------------------------------
# With g(LOSS(L)) ~ log L and h(L) = 1/sqrt(L) the utility rises until
# depth 7 and falls afterwards; the selector finds exactly that depth.
L = np.arange(1, 1001)
gamma = np.log(L) / np.sqrt(L)
print("gamma peaks at depth", int(np.argmax(gamma)) + 1)
sol = select_layers("deterministic", gamma=gamma)
print(f"selected depth tau = {sol.tau}, value = {sol.value:.4f}\n")

# --- stochastic utilities: exact induction vs brute force --------------------
# On a finite-support Markov process the envelope can be computed exactly
# and verified against literal enumeration of every stopping rule.
support, probs = np.array([0.2, 1.0]), np.array([0.5, 0.5])
process = FiniteSupportProcess(values=(support,) * 4, initial=probs,
                               transitions=(np.tile(probs, (2, 1)),) * 3)
exact = backward_induction_exact(process)
oracle = exhaustive_stopping_oracle(process)
print("iid two-point utility, horizon 4:")
print(f"  induction value   = {exact.value:.6f}")
print(f"  enumeration value = {oracle.value:.6f}  "
      f"({oracle.n_rules} rules examined)")
print("  tau distribution  =", dict(exact.tau_distribution))

# --- regression Monte Carlo on sampled paths ----------------------------------
# The stages are iid, so a path is four independent draws of the law.
traj = support[stream(0, "demo").choice(len(support), size=(20_000, 4), p=probs)]
lsmc = backward_induction_lsmc(traj, basis_degree=3)
print(f"  LSMC estimate     = {lsmc.value:.6f} (+- {3 * lsmc.value_se:.6f})\n")

# --- utilities simulated from a network ---------------------------------------
# One parameter draw is pushed through all depths (common random numbers),
# the loss against a fixed target defines gamma per depth, and LSMC picks
# the depth.
spec = NetworkSpec(widths=(2, 3, 3, 3, 3), r=2,
                   weight_dist=uniform_int(-1, 1),
                   bias_dist=uniform_real(-0.5, 0.5),
                   coeff_dists=uniform_real(-1, 1),
                   exponent_dists=uniform_int(0, 1))
sol = select_layers("lsmc", network_spec=spec,
                    gamma_spec=GammaSpec(horizon=4, penalty_c=1.0),
                    y_star=[0.5, 0.5, 0.5], n_trajectories=5000, seed=1)
print("network-driven selection:")
print(f"  mean tau = {sol.tau_mean:.3f}, value = {sol.value:.4f}")
print(f"  tau distribution = {dict(sol.tau_distribution)}")
print(f"  fraction of runs with monotone loss = "
      f"{sol.extras['loss_monotone_fraction']:.3f}")
