"""Depth selection by optimal stopping of a utility process.

Each candidate depth L carries a utility gamma(L) = g(LOSS(L)) * h(L):
an accuracy term that grows with depth times a cost penalty that shrinks
with it.  Choosing the depth is the optimal stopping problem
sup_tau E[gamma(tau)], solved by backward induction of the value envelope

    S_L = gamma(L)                       at the horizon,
    S_L = max(gamma(L), E[S_{L+1} | history])   below it,

with the selected depth the earliest L where the envelope touches the
payoff.  Two solvers are provided: exact atom conditioning for
finite-support processes (a deterministic sequence is the one-atom case),
and least-squares Monte Carlo for simulated ones.  A brute-force
enumerator over every history-measurable stopping rule serves as the
independent oracle on small instances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .networks import NetworkSpec, SpecError, simulate_layer_outputs
from .tropical import _finite


class StoppingError(ValueError):
    pass


class StateExplosionError(StoppingError):
    """The exhaustive oracle would enumerate too many stopping rules."""


#: Relative tolerance of the stop rule S_L = gamma_L.
EPS_STOP = 1e-9


# ---------------------------------------------------------------------------
# Utility process construction
# ---------------------------------------------------------------------------

def loss_mse(nu, y_star):
    """Mean squared error (1/p) ||nu - y*||_2^2 along the last axis."""
    nu = np.asarray(nu, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    if nu.shape[-1] != y_star.shape[-1]:
        raise StoppingError(f"output dim {nu.shape[-1]} != target dim {y_star.shape[-1]}")
    return np.sum((nu - y_star) ** 2, axis=-1) / nu.shape[-1]


@dataclass(frozen=True)
class GammaSpec:
    """Shape of the per-depth utility gamma(L) = g(LOSS(L)) * h(L).

    g is the reciprocal utility g(x) = 1/x and h the penalty
    h(L) = 1/(c sqrt(L)) with c = ``penalty_c``.
    """

    horizon: int
    penalty_c: float = 1.0

    def __post_init__(self):
        if self.horizon < 1:
            raise StoppingError("horizon must be at least 1")
        if self.penalty_c <= 0:
            raise StoppingError("penalty constant must be positive")

    def g(self, loss):
        """1/loss; a zero loss (perfect fit) gives +inf."""
        loss = np.asarray(loss, dtype=float)
        if np.any(loss < 0):
            raise StoppingError("loss must be nonnegative")
        with np.errstate(divide="ignore"):
            return 1.0 / loss

    def h(self, layer):
        return 1.0 / (self.penalty_c * np.sqrt(layer))


def gamma_value(spec: GammaSpec, layer, loss):
    """Utility of stopping at ``layer`` given the realized loss there.

    Broadcasts over arrays of layers and losses.
    """
    layer = np.asarray(layer)
    if np.any(layer < 1) or np.any(layer > spec.horizon):
        raise StoppingError(f"layer {layer} outside 1..{spec.horizon}")
    return spec.g(loss) * spec.h(layer)


# ---------------------------------------------------------------------------
# Finite-support processes
# ---------------------------------------------------------------------------

def _stage_array(value, name: str, ndim: int) -> np.ndarray:
    """A nonempty ``ndim``-d array of finite numbers (utilities are integrable)."""
    arr = _finite(value, ndim)
    if arr is None or arr.size == 0:
        raise StoppingError(f"{name}: expected a nonempty {ndim}-d array of finite "
                            f"numbers, got {value!r:.80}")
    return arr


@dataclass(frozen=True)
class FiniteSupportProcess:
    """Markov utility process with finitely many atoms per stage.

    ``values[l][k]`` is the utility of stopping at stage l (0-based; stage
    l corresponds to depth L = l+1) in atom k, ``initial[k]`` the law of
    the first atom, and ``transitions[l][j, k]`` the probability of moving
    from atom j at stage l to atom k at stage l+1.  Histories are paths
    through the chain.
    """

    values: tuple
    initial: tuple
    transitions: tuple = ()

    def __post_init__(self):
        if not (np.iterable(self.values) and np.iterable(self.transitions)):
            raise StoppingError("values and transitions must be sequences of arrays")
        values = tuple(_stage_array(v, "values", 1) for v in self.values)
        initial = _stage_array(self.initial, "initial", 1)
        transitions = tuple(_stage_array(t, "transitions", 2) for t in self.transitions)
        if len(values) < 1:
            raise StoppingError("need at least one stage")
        if len(transitions) != len(values) - 1:
            raise StoppingError("need one transition matrix between consecutive stages")
        if initial.shape != (values[0].shape[0],):
            raise StoppingError("initial law does not match stage-0 support")
        for probs in (initial, *[t.ravel() for t in transitions]):
            if np.any(probs <= 0):
                raise StoppingError("support probabilities must be positive")
        if abs(initial.sum() - 1.0) > 1e-9:
            raise StoppingError("initial law must sum to 1")
        for l, t in enumerate(transitions):
            if t.shape != (values[l].shape[0], values[l + 1].shape[0]):
                raise StoppingError(f"transition {l} has shape {t.shape}")
            if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-9:
                raise StoppingError(f"transition {l} rows must sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", transitions)

    @property
    def horizon(self) -> int:
        return len(self.values)

    @property
    def is_deterministic(self) -> bool:
        return all(len(v) == 1 for v in self.values)

    @classmethod
    def from_deterministic(cls, gammas: Sequence[float]) -> "FiniteSupportProcess":
        vals = tuple(np.array([float(g)]) for g in gammas)
        trans = tuple(np.array([[1.0]]) for _ in range(len(vals) - 1))
        return cls(values=vals, initial=np.array([1.0]), transitions=trans)

    def enumerate_paths(self):
        """All atom paths with their probabilities and utility sequences."""
        paths = [((k,), p) for k, p in enumerate(self.initial)]
        for t in self.transitions:
            paths = [(path + (k,), prob * t[path[-1], k])
                     for path, prob in paths
                     for k in range(t.shape[1])]
        atoms = np.array([p for p, _ in paths], dtype=int)
        probs = np.array([pr for _, pr in paths])
        gammas = np.array([[self.values[l][p[l]] for l in range(self.horizon)]
                           for p, _ in paths])
        return atoms, probs, gammas


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

def _json_float(x) -> float | str:
    """``x`` as a float, or as the string "inf"/"-inf" that JSON can hold."""
    x = float(x)
    return repr(x) if math.isinf(x) else x


@dataclass
class StoppingSolution:
    """Envelope values, selected depth, and attained utility."""

    method: str   # "exact-finite-support" | "deterministic" | "least-squares-MC"
                  # | "lsmc-short-circuit"
    value: float
    snell_mean: tuple          # E[S_L] per depth L = 1..horizon
    tau_mean: float
    tau_distribution: tuple    # ((L, prob), ...)
    tau: int | None = None     # realized depth when the process is deterministic
    snell_atoms: tuple | None = None
    stop_rule: tuple | None = None
    value_se: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.snell_mean)

    def to_dict(self) -> dict:
        """JSON-ready fields; an infinite value (perfect fit) becomes "inf"."""
        return {
            "tau": self.tau if self.tau is not None else self.tau_mean,
            "value": _json_float(self.value),
            "S": [_json_float(s) for s in self.snell_mean],
            "tau_distribution": {str(l): p for l, p in self.tau_distribution},
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Exact backward induction
# ---------------------------------------------------------------------------

def backward_induction_exact(process: FiniteSupportProcess) -> StoppingSolution:
    """Exact envelope by atom conditioning on a finite-support process.

    The rule stops at the first stage where S_L - gamma_L <= EPS_STOP *
    |gamma_L|; at the horizon S_L = gamma_L, so every path stops by then.
    """
    horizon = process.horizon
    snell = [None] * horizon
    snell[-1] = process.values[-1].copy()
    for l in range(horizon - 2, -1, -1):
        cont = process.transitions[l] @ snell[l + 1]
        snell[l] = np.maximum(process.values[l], cont)
    stop_rule = tuple(snell[l] - v <= EPS_STOP * np.abs(v)
                      for l, v in enumerate(process.values))

    # Forward pass for the stopping-depth distribution and E[S_L].
    dist = process.initial.copy()
    tau_probs = np.zeros(horizon)
    snell_mean = []
    reach = process.initial.copy()
    for l in range(horizon):
        snell_mean.append(float(reach @ snell[l]))
        stopped_here = np.where(stop_rule[l], dist, 0.0)
        tau_probs[l] = stopped_here.sum()
        dist = dist - stopped_here
        if l < horizon - 1:
            dist = dist @ process.transitions[l]
            reach = reach @ process.transitions[l]

    value = float(process.initial @ snell[0])
    tau_mean = float(np.sum((np.arange(horizon) + 1) * tau_probs))
    tau = int(np.argmax(tau_probs)) + 1 if process.is_deterministic else None
    return StoppingSolution(
        method="exact-finite-support",
        value=value,
        snell_mean=tuple(snell_mean),
        tau_mean=tau_mean,
        tau_distribution=tuple((l + 1, float(p)) for l, p in enumerate(tau_probs)
                               if p > 0),
        tau=tau,
        snell_atoms=tuple(snell),
        stop_rule=stop_rule,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleSolution:
    """Brute-force optimum over every history-measurable stopping rule."""

    value: float
    stop_stages: np.ndarray       # (n_optimal_rules, n_paths), 0-based stages
    earliest_profile: np.ndarray  # pointwise min over optimal rules, per path
    earliest_achieved: bool       # some optimal rule attains the profile everywhere
    n_rules: int
    n_optimal: int


def exhaustive_stopping_oracle(process: FiniteSupportProcess,
                               max_nodes: int = 16,
                               atol: float = 1e-12) -> OracleSolution:
    """Enumerate all stopping rules on the history tree and maximize exactly.

    A rule assigns stop/continue to every history node before the horizon
    (stopping at the horizon is forced), so there are 2^nodes rules; the
    guard rejects instances whose tree has more than ``max_nodes`` decision
    nodes.  Completely independent of the backward induction.
    """
    horizon = process.horizon
    atoms, probs, gammas = process.enumerate_paths()
    n_paths = len(atoms)

    node_ids: dict[tuple, int] = {}
    for path in map(tuple, atoms):
        for l in range(horizon - 1):
            node_ids.setdefault(path[:l + 1], None)
    for i, key in enumerate(sorted(node_ids)):
        node_ids[key] = i
    n_nodes = len(node_ids)
    if n_nodes > max_nodes:
        raise StateExplosionError(
            f"{n_nodes} decision nodes -> 2^{n_nodes} rules; "
            f"cap is {max_nodes} nodes")

    path_nodes = np.array([[node_ids[tuple(path[:l + 1])]
                            for l in range(horizon - 1)]
                           for path in map(tuple, atoms)], dtype=np.int64) \
        if horizon > 1 else np.zeros((n_paths, 0), dtype=np.int64)

    rules = np.arange(1 << n_nodes, dtype=np.int64)
    stop_stage = np.full((len(rules), n_paths), horizon - 1, dtype=np.int64)
    open_mask = np.ones((len(rules), n_paths), dtype=bool)
    for l in range(horizon - 1):
        bits = ((rules[:, None] >> path_nodes[None, :, l]) & 1).astype(bool)
        stopping = bits & open_mask
        stop_stage[stopping] = l
        open_mask &= ~bits

    payoff = gammas[np.arange(n_paths)[None, :], stop_stage]
    values = payoff @ probs
    vmax = float(values.max())
    optimal = np.abs(values - vmax) <= atol * max(1.0, abs(vmax))
    opt_stages = stop_stage[optimal]
    earliest = opt_stages.min(axis=0)
    achieved = bool(np.any(np.all(opt_stages == earliest[None, :], axis=1)))
    return OracleSolution(value=vmax, stop_stages=opt_stages,
                          earliest_profile=earliest, earliest_achieved=achieved,
                          n_rules=len(rules), n_optimal=int(optimal.sum()))


# ---------------------------------------------------------------------------
# Least-squares Monte Carlo
# ---------------------------------------------------------------------------

def _poly_basis(x: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(x, degree + 1, increasing=True)


def _fit_continuation(x: np.ndarray, y: np.ndarray, degree: int):
    """Least-squares polynomial fit with automatic degree reduction."""
    deg = degree
    while True:
        basis = _poly_basis(x, deg)
        coef, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
        if rank == basis.shape[1] or deg == 0:
            if rank < basis.shape[1]:
                warnings.warn("continuation regression is rank-deficient even at "
                              "degree 0; using the minimum-norm fit")
            return coef, deg
        warnings.warn(f"continuation basis rank {rank} < {basis.shape[1]}; "
                      f"reducing degree to {rank - 1}")
        deg = rank - 1


def backward_induction_lsmc(trajectories: np.ndarray,
                            basis_degree: int = 3) -> StoppingSolution:
    """Regression-based envelope on simulated utility trajectories.

    The continuation value E[S_{L+1} | history] is approximated by a
    polynomial in the current utility (a Markov approximation of the
    filtration), fitted backward on a training half; the induced stopping
    rule "stop when gamma >= fitted continuation" is then evaluated on the
    held-out half, whose mean stopped utility is the reported value.
    ``trajectories`` is an (n, horizon) array.
    """
    gam = np.atleast_2d(np.asarray(trajectories, dtype=float))
    n, horizon = gam.shape
    if n < 1000:
        raise StoppingError(f"LSMC needs at least 1000 trajectories, got {n}")
    if basis_degree < 1:
        raise StoppingError("basis degree must be at least 1")
    if not np.all(np.isfinite(gam)):
        raise StoppingError("utilities must be finite (integrability)")

    split = n // 2
    train, test = gam[:split], gam[split:]

    coefs: list[np.ndarray] = [None] * horizon
    degrees: list[int] = [0] * horizon
    cash = train[:, -1].copy()
    for l in range(horizon - 2, -1, -1):
        coef, deg = _fit_continuation(train[:, l], cash, basis_degree)
        coefs[l], degrees[l] = coef, deg
        cont = _poly_basis(train[:, l], deg) @ coef
        stop = train[:, l] >= cont
        cash = np.where(stop, train[:, l], cash)

    # Held-out evaluation of the fitted rule.
    stopped = np.zeros(len(test), dtype=bool)
    payoff = test[:, -1].copy()
    tau = np.full(len(test), horizon, dtype=int)
    snell_mean = []
    for l in range(horizon):
        if l < horizon - 1:
            cont = _poly_basis(test[:, l], degrees[l]) @ coefs[l]
            snell_mean.append(float(np.mean(np.maximum(test[:, l], cont))))
            stop_now = (test[:, l] >= cont) & ~stopped
        else:
            snell_mean.append(float(np.mean(test[:, l])))
            stop_now = ~stopped
        payoff[stop_now] = test[stop_now, l]
        tau[stop_now] = l + 1
        stopped |= stop_now

    value = float(payoff.mean())
    value_se = float(payoff.std(ddof=1) / math.sqrt(len(payoff)))
    levels, counts = np.unique(tau, return_counts=True)
    return StoppingSolution(
        method="least-squares-MC",
        value=value,
        snell_mean=tuple(snell_mean),
        tau_mean=float(tau.mean()),
        tau_distribution=tuple((int(l), float(c) / len(test))
                               for l, c in zip(levels, counts)),
        value_se=value_se,
        extras={"basis_degrees": tuple(degrees)},
    )


# ---------------------------------------------------------------------------
# Network-driven utility trajectories
# ---------------------------------------------------------------------------

def simulate_gamma_trajectories(spec: NetworkSpec, gamma_spec: GammaSpec,
                                y_star: Sequence[float], n: int,
                                seed: int = 0):
    """Realized utility per depth from nested network runs.

    One parameter draw per trajectory is pushed through all ``horizon``
    layers, so deeper depths extend shallower ones with common random
    numbers rather than independent redraws.  Requires a rectangular
    network (constant width after the input) matching the target dimension
    and horizon.  Returns (gammas, losses), both (n, horizon).
    """
    horizon = gamma_spec.horizon
    if spec.depth != horizon:
        raise SpecError(f"network depth {spec.depth} != horizon {horizon}")
    widths = set(spec.widths[1:])
    if len(widths) != 1:
        raise SpecError("utility trajectories need a rectangular network "
                        "(constant width after the input)")
    y_star = np.asarray(y_star, dtype=float).reshape(-1)
    if y_star.shape[0] != spec.widths[-1]:
        raise SpecError("target dimension does not match the network width")

    [losses] = simulate_layer_outputs(spec, n, seed, tag="gamma",
                                      stat=partial(_block_losses, y_star=y_star))
    # A zero loss gives an infinite utility; the caller short-circuits it.
    return gamma_value(gamma_spec, np.arange(1, horizon + 1), losses), losses


def _block_losses(nus, y_star):
    """The (block, horizon) losses of one simulation block; top level, so
    that a pool can pickle it."""
    return [np.stack([loss_mse(nu, y_star) for nu in nus], axis=1)]


# ---------------------------------------------------------------------------
# End-to-end selection
# ---------------------------------------------------------------------------

def select_layers(method: str, *, gamma=None, process: FiniteSupportProcess = None,
                  network_spec: NetworkSpec = None, gamma_spec: GammaSpec = None,
                  y_star=None, n_trajectories: int = 10_000,
                  basis_degree: int = 3, seed: int = 0,
                  horizon: int | None = None) -> StoppingSolution:
    """Select the network depth by the chosen induction method.

    * "deterministic": ``gamma`` is the realized utility sequence, a
      vector or a table of one row or one column, cut to its first
      ``horizon`` depths when given, and solved by exact induction as a
      one-atom process.
    * "exact": backward induction on a finite-support ``process``.
    * "lsmc": least-squares Monte Carlo on ``gamma`` given as an
      (n, horizon) trajectory array, or on trajectories simulated from
      ``network_spec`` with common random numbers across depths.
    """
    if method == "deterministic":
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim > 2 or (gamma.ndim == 2 and 1 not in gamma.shape):
            raise StoppingError(f"a deterministic profile is a vector or a table of "
                                f"one row or one column, got shape {gamma.shape}")
        process = FiniteSupportProcess.from_deterministic(gamma.reshape(-1)[:horizon])
        return replace(backward_induction_exact(process), method="deterministic")
    if method == "exact":
        if process is None:
            raise StoppingError("exact induction needs a finite-support process")
        return backward_induction_exact(process)
    if method == "lsmc":
        extras = {}
        if gamma is not None:
            traj = gamma
        else:
            if network_spec is None or gamma_spec is None or y_star is None:
                raise StoppingError("lsmc needs trajectories or a network "
                                    "specification with a target")
            traj, losses = simulate_gamma_trajectories(
                network_spec, gamma_spec, y_star, n_trajectories, seed)
            if np.any(losses == 0.0):
                # Perfect fit: the reciprocal utility diverges there, so that
                # depth dominates every alternative outright.
                depth = int(np.argwhere(np.any(losses == 0.0, axis=0))[0, 0]) + 1
                warnings.warn(f"zero loss at depth {depth}: perfect fit "
                              f"short-circuits the selection")
                return StoppingSolution(
                    method="lsmc-short-circuit", value=math.inf,
                    snell_mean=tuple([math.inf] * gamma_spec.horizon),
                    tau_mean=float(depth), tau_distribution=((depth, 1.0),),
                    tau=depth, extras={"perfect_fit": True})
            monotone = np.all(np.diff(losses, axis=1) <= 0, axis=1)
            extras["loss_monotone_fraction"] = float(monotone.mean())
        sol = backward_induction_lsmc(traj, basis_degree)
        sol.extras.update(extras)
        return sol
    raise StoppingError(f"unknown method {method!r}")

