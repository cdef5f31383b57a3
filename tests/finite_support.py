"""Finite-support stopping instances and an exact oracle, for the tests.

``random_finite_support_process`` draws the benchmark instances of the
stopping tests (acceptance tests 05 and 06 among them), ``iid_process``
builds an iid one, and ``sample_trajectories`` draws utility paths of a
process for Monte Carlo; ``induction_stop_stages`` reads the induction
rule along every path, and ``stopped_envelope_means`` is an independent
check of ``backward_induction_exact``.
"""

import numpy as np

from tropnet.stopping import FiniteSupportProcess, StoppingSolution


def random_finite_support_process(seed: int, horizon: int,
                                  support: int) -> FiniteSupportProcess:
    """Random benchmark instance with positive utilities in (0, 2)."""
    rng = np.random.default_rng(seed)
    vals = tuple(np.sort(rng.uniform(0.05, 2.0, size=support)) for _ in range(horizon))
    initial = rng.dirichlet(np.ones(support) * 2.0) * 0.9 + 0.1 / support
    initial /= initial.sum()
    trans = []
    for _ in range(horizon - 1):
        t = rng.dirichlet(np.ones(support) * 2.0, size=support) * 0.9 + 0.1 / support
        t /= t.sum(axis=1, keepdims=True)
        trans.append(t)
    return FiniteSupportProcess(values=vals, initial=initial, transitions=tuple(trans))


def iid_process(support, probs, horizon: int) -> FiniteSupportProcess:
    """The process whose stages are iid draws from one finite law."""
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    vals = tuple(support.copy() for _ in range(horizon))
    trans = tuple(np.tile(probs, (len(support), 1)) for _ in range(horizon - 1))
    return FiniteSupportProcess(values=vals, initial=probs, transitions=trans)


def sample_trajectories(process: FiniteSupportProcess, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw n utility trajectories of ``process``, shape (n, horizon)."""
    out = np.empty((n, process.horizon))
    state = rng.choice(len(process.initial), size=n, p=process.initial)
    out[:, 0] = process.values[0][state]
    for l, t in enumerate(process.transitions):
        nxt = np.empty(n, dtype=int)
        for j in range(t.shape[0]):
            mask = state == j
            if mask.any():
                nxt[mask] = rng.choice(t.shape[1], size=int(mask.sum()), p=t[j])
        state = nxt
        out[:, l + 1] = process.values[l + 1][state]
    return out


def induction_stop_stages(process: FiniteSupportProcess,
                          solution: StoppingSolution) -> np.ndarray:
    """Stopping stage (0-based) of the envelope rule along every atom path."""
    atoms, _, _ = process.enumerate_paths()
    stages = np.full(len(atoms), process.horizon - 1, dtype=int)
    for p, path in enumerate(atoms):
        for l in range(process.horizon):
            if solution.stop_rule[l][path[l]]:
                stages[p] = l
                break
    return stages


def stopped_envelope_means(process: FiniteSupportProcess,
                           solution: StoppingSolution) -> np.ndarray:
    """E[S_{k and tau}] for k = 1..horizon, computed exactly over paths.

    The stopped envelope sequence is a strong martingale, so these means
    are all equal for an exact solution.
    """
    atoms, probs, _ = process.enumerate_paths()
    stages = induction_stop_stages(process, solution)
    means = np.zeros(process.horizon)
    for k in range(process.horizon):
        idx = np.minimum(k, stages)
        s_vals = np.array([solution.snell_atoms[i][atoms[p, i]]
                           for p, i in enumerate(idx)])
        means[k] = float(s_vals @ probs)
    return means
