"""Depth selection by optimal stopping of a utility process.

Each candidate depth L carries a utility gamma(L) = g(LOSS(L)) * h(L):
an accuracy term that grows with depth times a cost penalty that shrinks
with it.  Choosing the depth is the optimal stopping problem
sup_tau E[gamma(tau)], solved by backward induction of the value envelope

    S_L = gamma(L)                       at the horizon,
    S_L = max(gamma(L), E[S_{L+1} | history])   below it,

with the selected depth the earliest L where the envelope touches the
payoff.  Three solvers are provided: exact atom conditioning for
finite-support processes, least-squares Monte Carlo for simulated ones,
and the trivial suffix scan for deterministic sequences.  A brute-force
enumerator over every history-measurable stopping rule serves as the
independent oracle on small instances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .networks import NetworkSpec, SpecError, simulate_layer_outputs


class StoppingError(ValueError):
    pass


class PerfectFitError(StoppingError):
    """Zero loss makes the reciprocal utility diverge."""


class StateExplosionError(StoppingError):
    """The exhaustive oracle would enumerate too many stopping rules."""


# ---------------------------------------------------------------------------
# Utility process construction
# ---------------------------------------------------------------------------

def loss_mse(nu: np.ndarray, y_star: np.ndarray) -> float:
    """Mean squared error (1/p) ||nu - y*||_2^2."""
    nu = np.asarray(nu, dtype=float).reshape(-1)
    y_star = np.asarray(y_star, dtype=float).reshape(-1)
    if nu.shape != y_star.shape:
        raise StoppingError(f"output dim {nu.shape[0]} != target dim {y_star.shape[0]}")
    return float(np.sum((nu - y_star) ** 2) / nu.shape[0])


@dataclass(frozen=True)
class GammaSpec:
    """Shape of the per-depth utility gamma(L) = g(LOSS(L)) * h(L).

    The default pairing is the reciprocal utility g(x) = 1/x with the
    penalty h(L) = 1/(c sqrt(L)); both maps may be replaced by callables.
    """

    horizon: int
    utility: str | Callable[[float], float] = "reciprocal"
    penalty_c: float = 1.0
    penalty: Callable[[int], float] | None = None
    loss_kind: str = "mse"

    def __post_init__(self):
        if self.horizon < 1:
            raise StoppingError("horizon must be at least 1")
        if isinstance(self.utility, str) and self.utility != "reciprocal":
            raise StoppingError(f"unknown utility {self.utility!r}")
        if self.penalty is None and self.penalty_c <= 0:
            raise StoppingError("penalty constant must be positive")

    def g(self, loss: float) -> float:
        if callable(self.utility):
            return float(self.utility(loss))
        if loss == 0.0:
            raise PerfectFitError("zero loss: reciprocal utility diverges")
        if loss < 0:
            raise StoppingError(f"loss must be positive, got {loss}")
        return 1.0 / loss

    def h(self, layer: int) -> float:
        if self.penalty is not None:
            return float(self.penalty(layer))
        return 1.0 / (self.penalty_c * math.sqrt(layer))


def gamma_value(spec: GammaSpec, layer: int, loss: float) -> float:
    """Utility of stopping at ``layer`` given the realized loss there."""
    if not 1 <= layer <= spec.horizon:
        raise StoppingError(f"layer {layer} outside 1..{spec.horizon}")
    return spec.g(loss) * spec.h(layer)


@dataclass(frozen=True)
class GammaTrajectory:
    """One realized utility path; the information at depth L is its prefix."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in vals):
            raise StoppingError("utilities must be finite (integrability)")
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return len(self.values)

    def prefix(self, depth: int) -> tuple:
        """Everything a depth-``depth`` network reveals about the path."""
        return self.values[:depth]


def _as_trajectory_matrix(trajectories) -> np.ndarray:
    if isinstance(trajectories, (list, tuple)) and len(trajectories) \
            and isinstance(trajectories[0], GammaTrajectory):
        return np.array([t.values for t in trajectories])
    return np.atleast_2d(np.asarray(trajectories, dtype=float))


@dataclass(frozen=True)
class ShapeReport:
    """Monotonicity classification of a realized utility sequence."""

    shape: str                 # "monotone-increasing" | "monotone-decreasing" |
                               # "constant" | "unimodal" | "irregular"
    peak: int | None = None    # 1-based change point for unimodal sequences


def check_local_monotonicity(values: Sequence[float]) -> ShapeReport:
    """Classify a sequence as monotone, unimodal (rise then fall), or irregular."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise StoppingError("need at least two values to classify")
    d = np.diff(v)
    if np.all(d == 0):
        return ShapeReport(shape="constant")
    if np.all(d >= 0):
        return ShapeReport(shape="monotone-increasing")
    if np.all(d <= 0):
        return ShapeReport(shape="monotone-decreasing")
    k = int(np.argmax(v))
    if np.all(d[:k] >= 0) and np.all(d[k:] <= 0):
        return ShapeReport(shape="unimodal", peak=k + 1)
    return ShapeReport(shape="irregular")


# ---------------------------------------------------------------------------
# Finite-support processes
# ---------------------------------------------------------------------------

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
    transitions: tuple

    def __post_init__(self):
        values = tuple(np.asarray(v, dtype=float) for v in self.values)
        initial = np.asarray(self.initial, dtype=float)
        transitions = tuple(np.asarray(t, dtype=float) for t in self.transitions)
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
        if not all(np.all(np.isfinite(v)) for v in values):
            raise StoppingError("utilities must be finite (integrability)")
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

    @classmethod
    def iid(cls, support: Sequence[float], probs: Sequence[float],
            horizon: int) -> "FiniteSupportProcess":
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        vals = tuple(support.copy() for _ in range(horizon))
        trans = tuple(np.tile(probs, (len(support), 1)) for _ in range(horizon - 1))
        return cls(values=vals, initial=probs, transitions=trans)

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

    def sample_trajectories(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n utility trajectories, shape (n, horizon)."""
        out = np.empty((n, self.horizon))
        state = rng.choice(len(self.initial), size=n, p=self.initial)
        out[:, 0] = self.values[0][state]
        for l, t in enumerate(self.transitions):
            nxt = np.empty(n, dtype=int)
            for j in range(t.shape[0]):
                mask = state == j
                if mask.any():
                    nxt[mask] = rng.choice(t.shape[1], size=int(mask.sum()), p=t[j])
            state = nxt
            out[:, l + 1] = self.values[l + 1][state]
        return out


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

    method: str   # "exact-finite-support" | "least-squares-MC" | "deterministic"
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


def stopping_time(gammas: Sequence[float], snell: Sequence[float],
                  eps_stop: float = 1e-9) -> int:
    """Earliest depth where the envelope touches the payoff (1-based).

    Uses the relative-tolerance equality S_L <= gamma_L * (1 + eps_stop);
    attainment at the horizon is guaranteed because S at the horizon IS
    the payoff.
    """
    gammas = np.asarray(gammas, dtype=float)
    snell = np.asarray(snell, dtype=float)
    if gammas.shape != snell.shape:
        raise StoppingError("payoff and envelope lengths differ")
    for l in range(len(gammas)):
        if snell[l] <= gammas[l] * (1.0 + eps_stop) + 0.0:
            return l + 1
    return len(gammas)


def stopping_time_batched(gammas: Sequence[float], snell: Sequence[float],
                          batch_length: int, eps_stop: float = 1e-9) -> int:
    """Forward scan in equal batches; equivalent to the full scan.

    Stages are examined batch by batch and the scan halts inside the first
    batch containing a touch point, which by earliest-hit equivalence
    returns the same depth as scanning every stage.
    """
    gammas = np.asarray(gammas, dtype=float)
    snell = np.asarray(snell, dtype=float)
    horizon = len(gammas)
    if batch_length < 1:
        raise StoppingError("batch length must be positive")
    for start in range(0, horizon, batch_length):
        sl = slice(start, min(start + batch_length, horizon))
        hit = snell[sl] <= gammas[sl] * (1.0 + eps_stop)
        if hit.any():
            return start + int(np.argmax(hit)) + 1
    return horizon


# ---------------------------------------------------------------------------
# Exact backward induction
# ---------------------------------------------------------------------------

def backward_induction_exact(process: FiniteSupportProcess,
                             eps_stop: float = 1e-9) -> StoppingSolution:
    """Exact envelope by atom conditioning on a finite-support process."""
    horizon = process.horizon
    snell = [None] * horizon
    snell[-1] = process.values[-1].copy()
    for l in range(horizon - 2, -1, -1):
        cont = process.transitions[l] @ snell[l + 1]
        snell[l] = np.maximum(process.values[l], cont)
    stop_rule = tuple(snell[l] <= process.values[l] * (1.0 + eps_stop)
                      for l in range(horizon))

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
    tau = None
    if process.is_deterministic:
        tau = stopping_time(np.concatenate(process.values),
                            np.array([s[0] for s in snell]), eps_stop)
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
    Accepts an (n, horizon) array or a list of GammaTrajectory paths.
    """
    gam = _as_trajectory_matrix(trajectories)
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
                                seed: int = 0, x=None):
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

    nus = simulate_layer_outputs(spec, n, seed, x=x, tag="gamma")
    p = y_star.shape[0]
    losses = np.stack([np.sum((nu - y_star) ** 2, axis=1) / p for nu in nus], axis=1)
    if callable(gamma_spec.utility):
        util = np.vectorize(gamma_spec.utility, otypes=[float])(losses)
    else:
        # Reciprocal utility; a zero loss shows up as an infinite utility
        # and is handled by the caller (perfect-fit short circuit).
        with np.errstate(divide="ignore"):
            util = 1.0 / losses
    penalties = np.array([gamma_spec.h(l + 1) for l in range(horizon)])
    return util * penalties[None, :], losses


# ---------------------------------------------------------------------------
# End-to-end selection
# ---------------------------------------------------------------------------

def select_layers(method: str, *, gamma=None, process: FiniteSupportProcess = None,
                  network_spec: NetworkSpec = None, gamma_spec: GammaSpec = None,
                  y_star=None, n_trajectories: int = 10_000,
                  basis_degree: int = 3, seed: int = 0,
                  eps_stop: float = 1e-9) -> StoppingSolution:
    """Select the network depth by the chosen induction method.

    * "deterministic": ``gamma`` is the realized utility sequence; the
      envelope is the running suffix maximum.
    * "exact": backward induction on a finite-support ``process``.
    * "lsmc": least-squares Monte Carlo on ``gamma`` given as an
      (n, horizon) trajectory array, or on trajectories simulated from
      ``network_spec`` with common random numbers across depths.

    ``eps_stop`` is the relative tolerance of the stop rule S_L = gamma_L
    of the deterministic and exact methods.
    """
    if method == "deterministic":
        g = np.asarray(gamma, dtype=float).reshape(-1)
        if not np.all(np.isfinite(g)):
            raise StoppingError("utilities must be finite (integrability)")
        snell = np.maximum.accumulate(g[::-1])[::-1]
        tau = stopping_time(g, snell, eps_stop)
        return StoppingSolution(
            method="deterministic",
            value=float(snell[0]),
            snell_mean=tuple(float(s) for s in snell),
            tau_mean=float(tau),
            tau_distribution=((tau, 1.0),),
            tau=tau,
        )
    if method == "exact":
        if process is None:
            raise StoppingError("exact induction needs a finite-support process")
        return backward_induction_exact(process, eps_stop)
    if method == "lsmc":
        extras = {}
        if gamma is not None:
            traj = np.atleast_2d(np.asarray(gamma, dtype=float))
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


# ---------------------------------------------------------------------------
# Envelope diagnostics
# ---------------------------------------------------------------------------

def stopped_envelope_means(process: FiniteSupportProcess,
                           solution: StoppingSolution) -> np.ndarray:
    """E[S_{k and tau}] for k = 1..horizon, computed exactly over paths.

    The stopped envelope sequence is a strong martingale, so these means
    are all equal for an exact solution.
    """
    atoms, probs, _ = process.enumerate_paths()
    stages = induction_stop_stages(process, solution)
    horizon = process.horizon
    means = np.zeros(horizon)
    for k in range(horizon):
        idx = np.minimum(k, stages)
        s_vals = np.array([solution.snell_atoms[i][atoms[p, i]]
                           for p, i in enumerate(idx)])
        means[k] = float(s_vals @ probs)
    return means
