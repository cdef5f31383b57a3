"""The expected classifier and its disagreement bound.

A stochastic network gives a random score s(nu(x)) per input; the
expected classifier thresholds the mean score.  The probability that a
single stochastic decision disagrees with the expected one is bounded by
exp(-2 t^2 / (b-a)^2) where t is the margin of the mean over the
threshold, and the audit checks that frequency empirically.
"""

import numpy as np

from tropnet import (
    ScoreSpec,
    disagreement_audit,
    expected_classify,
    expected_score,
    reference_classifier_spec,
    score,
)

net = reference_classifier_spec()
sigmoid = ScoreSpec()  # range [0, 1], threshold c = 0.5

# --- expected scores ---------------------------------------------------------
rng = np.random.default_rng(0)
print("input                E[s]      SE     label   margin   error bound")
for _ in range(6):
    x = rng.uniform(-1, 1, 2)
    est, se = expected_score(net, sigmoid, x, n=20_000, seed=11)
    decision = expected_classify(est, sigmoid, se=se)
    print(f"({x[0]:+.2f}, {x[1]:+.2f})   {est:.4f}  {se:.4f}   "
          f"{decision.label:>7}  {decision.t:.4f}   {decision.error_bound:.4f}")

# --- the decision boundary is a real obstruction -----------------------------
try:
    expected_classify(0.5, sigmoid)
except Exception as exc:
    print("\nestimate exactly at c:", type(exc).__name__, "-", exc)

# --- audit: how often does a fresh draw disagree? ----------------------------
inputs = rng.uniform(-1, 1, size=(8, 2))
rows = disagreement_audit(net, sigmoid, inputs, n=20_000, seed=1)
print("\nid  estimate  label   margin   bound    observed  verdict")
for r in rows:
    print(f"{r.input_id:>2}  {r.estimate:.4f}  {r.label:>7}  {r.t:.4f}  "
          f"{r.bound:.4f}   {r.empirical:.5f}  {r.verdict}")

# Clamped-identity scores make the same machinery work on raw outputs.
wide = ScoreSpec(kind="clamped-identity", a=-1.0, b=1.0, c=0.0)
print("\nclamped score of 5.0:", score(wide, 5.0))
