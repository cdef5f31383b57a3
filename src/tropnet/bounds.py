"""Tail-bound evaluators and their Monte Carlo verification.

Three closed-form bounds are covered, each paired with an empirical tail
estimator and a consistency verdict:

* norm-sub-Gaussian: P(||v - E v|| >= t) <= 2 exp(-t^2 / (2 xi^2)) for a
  layer output bounded by ||v|| <= xi;
* bounded-range (Hoeffding): P(|s - E s| >= t) <= 2 exp(-2 t^2 / (b-a)^2);
* bounded-increment martingale: P(||v_l|| >= M a) < 2 exp(1 - (Ma-1)^2 / (2l)).

xi comes from ``propagate_intervals`` in :mod:`tropnet.networks`, interval
arithmetic on the direct recursion nu' = max(A nu + b, t), so the analytic
side never peeks at the samples it is checked against.  Every
verdict in the package follows one rule: a frequency and its standard error
come from ``binomial_estimate``, and a report is "violated" only when
``exceeds`` finds it more than three standard errors above its bound, which
turns the probabilistic statement into a deterministic seed-pinned test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .networks import NetworkSpec, propagate_intervals, simulate_layer_outputs
from .seeding import item_seed, stream

#: Slack multiplier converting a probabilistic bound into a pinned verdict.
SE_SLACK = 3.0


def exceeds(value: float, se: float, reference: float) -> bool:
    """Is ``value`` more than SE_SLACK standard errors above ``reference``?"""
    return value - SE_SLACK * se > reference


def binomial_estimate(count: int, n: int) -> tuple[float, float]:
    """Frequency ``count / n`` of an event in n draws, with its standard error."""
    p_hat = count / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

def nsg_bound(t: float, xi: float) -> float:
    """Norm-sub-Gaussian tail bound 2 exp(-t^2 / (2 xi^2)).

    xi = 0 certifies an output pinned at 0, and the bound is its limit:
    2 at t = 0 and 0 elsewhere.
    """
    if xi < 0:
        raise ValueError(f"need xi >= 0, got {xi}")
    if xi == 0:
        return 2.0 if t == 0 else 0.0
    return 2.0 * math.exp(-(t * t) / (2.0 * xi * xi))


def hoeffding_bound(t: float, a: float, b: float) -> float:
    """Bounded-range tail bound 2 exp(-2 t^2 / (b-a)^2)."""
    if a >= b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    return 2.0 * math.exp(-2.0 * t * t / ((b - a) ** 2))


def mgale_bound(a: float, m: float, l: int) -> float:
    """Bounded-increment martingale tail bound 2 exp(1 - (Ma-1)^2 / (2l)).

    Valid for P(||v_l|| >= M a) when increments have norm at most M; the
    value exceeds 1 (vacuous) for small Ma and loosens as l grows.
    """
    if a <= 0 or m <= 0 or l < 1:
        raise ValueError("need a > 0, M > 0, l >= 1")
    try:
        return 2.0 * math.exp(1.0 - (m * a - 1.0) ** 2 / (2.0 * l))
    except OverflowError:  # (Ma - 1)^2 past float range: the bound is 0
        return 0.0


def region_count_bound(t: float, b1: int) -> float:
    """Tail bound 2 exp(-2 t^2 / (b1-1)^2) for region counts in [1, b1]."""
    if b1 <= 1:
        raise ValueError(f"need b1 > 1, got {b1}")
    return hoeffding_bound(t, 1.0, float(b1))


# ---------------------------------------------------------------------------
# Empirical estimation
# ---------------------------------------------------------------------------

def tail_distances(samples: np.ndarray, center: np.ndarray) -> np.ndarray:
    """||sample - center||_2 of each row of ``samples``; a sample or center
    that is not finite is a ``ValueError``.  Finite rows whose distance
    overflows give inf, which lies past every threshold."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != samples.shape[1]:
        raise ValueError("sample and center dimensions disagree")
    dist = np.linalg.norm(samples - center, axis=1)
    # Non-finite inputs give non-finite distances; only then scan the inputs.
    if not np.isfinite(dist).all() and not (np.isfinite(samples).all()
                                            and np.isfinite(center).all()):
        raise ValueError("tail estimation needs finite samples and center")
    return dist


def estimate_tail(dist: np.ndarray,
                  t_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Fraction of the distances ``dist`` (from ``tail_distances``) that are
    >= t, with its SE, for each t in ``t_grid``."""
    dist = np.asarray(dist, dtype=float).reshape(-1)
    n = dist.shape[0]
    if n < 1000:
        raise ValueError(f"tail estimation needs n >= 1000 samples, got {n}")
    if not (dist >= 0).all():  # NaN compares false
        raise ValueError("tail estimation needs finite samples: a distance is "
                         "NaN or negative")
    return [binomial_estimate(int(np.count_nonzero(dist >= t)), n) for t in t_grid]


@dataclass(frozen=True)
class BoundReport:
    """One analytic-vs-empirical tail comparison.

    The stored analytic value is clamped at 2 (any probability bound above
    2 is equally vacuous), keeping reports on a common scale; the verdict
    uses the same clamped value.
    """

    kind: str          # "nSG" | "hoeffding" | "martingale" | "region-count"
    layer: int
    t: float
    analytic: float
    empirical: float
    se: float
    n: int

    @property
    def verdict(self) -> str:
        return "violated" if exceeds(self.empirical, self.se, self.analytic) \
            else "consistent"

    def __post_init__(self):
        object.__setattr__(self, "analytic", min(float(self.analytic), 2.0))
        if not 0.0 <= self.empirical <= 1.0:
            raise ValueError("empirical tail estimate must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Layer concentration verification
# ---------------------------------------------------------------------------

def verify_layer_concentration(spec: NetworkSpec,
                               t_grid: Sequence[float] | None = None,
                               n: int = 100_000, seed: int = 0,
                               layers: Sequence[int] | None = None,
                               pilot_n: int | None = None,
                               map=map) -> list[BoundReport]:
    """Monte Carlo check of the norm-sub-Gaussian layer bound.

    The layer mean is estimated on an independent pilot set to avoid reuse
    bias; tails on the evaluation set are then compared against
    2 exp(-t^2 / (2 xi_l^2)) with xi_l from ``propagate_intervals``.
    Without a ``t_grid``, each layer is checked at 10 points from 0 to
    2 xi_l, its own certificate scale.  Raises ``ValueError`` when a
    layer's largest sample norm exceeds its xi_l: such a certificate is
    unsound.  ``map`` runs the simulation blocks of both sets (the harness
    passes a process pool's ``map``; results are identical by the stream
    discipline).  The pilot set keeps the requested layers' outputs, the
    evaluation set only ||nu_l|| and ||nu_l - center_l|| of each draw.
    """
    layers = list(layers) if layers is not None else list(range(1, spec.depth + 1))
    pilot_n = pilot_n or n
    # Certify before sampling: a certificate that overflows fails before any
    # draw, and a default grid is read off the certificate.
    intervals = propagate_intervals(spec)
    pilot = simulate_layer_outputs(spec, pilot_n, seed, tag="pilot", map=map,
                                   stat=partial(_pick_layers, layers=layers))
    centers = [nu.mean(axis=0) for nu in pilot]
    del pilot
    stats = simulate_layer_outputs(spec, n, seed, tag="eval", map=map,
                                   stat=partial(_norms_and_distances, layers=layers,
                                                centers=centers))
    norms, dists = stats[:len(layers)], stats[len(layers):]
    reports = []
    for l, norm, dist in zip(layers, norms, dists):
        xi = intervals[l].xi
        observed = float(norm.max())
        if observed > xi + 1e-9:
            raise ValueError(f"certificate violated: empirical max {observed} "
                             f"exceeds xi={xi} at layer {l}")
        grid = np.linspace(0.0, 2.0 * xi, 10) if t_grid is None else t_grid
        grid = [float(t) for t in grid]
        for t, (p_hat, se) in zip(grid, estimate_tail(dist, grid)):
            reports.append(BoundReport(kind="nSG", layer=l, t=t,
                                       analytic=nsg_bound(t, xi),
                                       empirical=p_hat, se=se, n=n))
    return reports


# Per-block statistics of the two sets: top level, so that a pool can pickle
# them.  The pilot keeps the requested layers' nu, since a mean summed block
# by block would round differently from one over the whole set.

def _pick_layers(nus, layers):
    return [nus[l - 1] for l in layers]


def _norms_and_distances(nus, layers, centers):
    """||nu_l|| and ||nu_l - center_l|| of each requested layer."""
    return ([np.linalg.norm(nus[l - 1], axis=1) for l in layers]
            + [tail_distances(nus[l - 1], c) for l, c in zip(layers, centers)])


def region_count_concentration(counts: Sequence[int], b1: int,
                               t_grid: Sequence[float]) -> list[BoundReport]:
    """Check the bounded-range tail bound for sampled region counts."""
    counts = np.asarray(counts, dtype=float)
    if b1 <= 1:
        raise ValueError(f"need b1 > 1, got {b1}")
    if not len(counts) or np.any(counts < 1) or np.any(counts > b1):
        raise ValueError(f"region counts must be given and lie in [1, {b1}]")
    deviation = np.abs(counts - counts.mean())
    reports = []
    for t in t_grid:
        p_hat, se = binomial_estimate(int(np.count_nonzero(deviation >= float(t))),
                                      len(counts))
        reports.append(BoundReport(kind="region-count", layer=0, t=float(t),
                                   analytic=region_count_bound(float(t), b1),
                                   empirical=p_hat, se=se, n=len(counts)))
    return reports


# ---------------------------------------------------------------------------
# Convex order and martingale grades
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexOrderReport:
    """Falsification outcome for the hypothesis  X1 <=_cx X2."""

    falsified: bool
    worst_function: str
    worst_z: float
    threshold: float
    n_functions: int


def _test_family(dim: int, k: int, pooled: np.ndarray, rng: np.random.Generator):
    """Finite family of convex test functions phi: R^dim -> R."""
    family = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        family.append((f"linear[+e{i}]", lambda s, u=e: s @ u))
        family.append((f"linear[-e{i}]", lambda s, u=e: -(s @ u)))
    family.append(("coordinate-max", lambda s: s.max(axis=1)))
    lo, hi = pooled.min(axis=0), pooled.max(axis=0)
    scale = float(np.max(np.abs(pooled))) or 1.0
    for i in range(k):
        v = rng.uniform(lo, hi)
        family.append((f"norm-anchor#{i}", lambda s, v=v: np.linalg.norm(s - v, axis=1)))
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        theta = rng.uniform(-scale, scale)
        family.append((f"hinge#{i}", lambda s, u=u, th=theta: np.maximum(s @ u - th, 0.0)))
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        family.append((f"exp#{i}", lambda s, w=w, sc=scale: np.exp((s @ w) / sc)))
    return family


def convex_order_check(samples1: np.ndarray, samples2: np.ndarray,
                       k: int = 16, alpha: float = 0.01,
                       seed: int = 0) -> ConvexOrderReport:
    """Falsification test of  X1 <=_cx X2  over a finite convex family.

    For each phi, the one-sided hypothesis E[phi(X1)] <= E[phi(X2)] is
    tested at level alpha split across the family (Bonferroni), so the
    familywise false-alarm rate stays at alpha.  A "not-falsified" verdict
    is evidence, not proof: the convex order quantifies over all convex
    functions and cannot be certified from samples.
    """
    from scipy.special import ndtri  # slow to import; only this check needs it

    s1 = np.atleast_2d(np.asarray(samples1, dtype=float))
    s2 = np.atleast_2d(np.asarray(samples2, dtype=float))
    if s1.shape[1] != s2.shape[1]:
        raise ValueError("sample dimensions disagree")
    rng = stream(seed, "convex-order")
    family = _test_family(s1.shape[1], k, np.vstack([s1, s2]), rng)
    threshold = float(ndtri(1.0 - alpha / len(family)))
    worst_name, worst_z = "", -math.inf
    for name, phi in family:
        v1, v2 = phi(s1), phi(s2)
        diff = float(v1.mean() - v2.mean())
        se = math.sqrt(v1.var(ddof=1) / len(v1) + v2.var(ddof=1) / len(v2))
        if se == 0.0:
            z = math.inf if diff > 0 else (0.0 if diff == 0 else -math.inf)
        else:
            z = diff / se
        if z > worst_z:
            worst_name, worst_z = name, z
    return ConvexOrderReport(falsified=worst_z > threshold,
                             worst_function=worst_name, worst_z=worst_z,
                             threshold=threshold, n_functions=len(family))


@dataclass(frozen=True)
class MartingaleGradeReport:
    """Convex-order falsification of the martingale grades of a sequence."""

    very_weak_falsified: bool
    weak_falsified: bool
    worst_pair: tuple[int, int]
    worst_function: str
    increment_bound: float


def martingale_grade_check(trajectories: np.ndarray, seed: int = 0) -> MartingaleGradeReport:
    """Grade a constant-width vector sequence as a (very-)weak martingale.

    ``trajectories`` has shape (n_runs, steps+1, p) with the step-0 state
    included.  Consecutive pairs probe the very-weak grade; all ordered
    pairs j < l probe the weak grade; pair ``i`` in that order draws its
    test functions from ``item_seed(seed, "mgale-pair", i)``.  Also
    estimates the largest observed increment norm M, the constant entering
    the martingale tail bound.
    """
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 3:
        raise ValueError("expected trajectories of shape (runs, steps+1, width)")
    steps = traj.shape[1] - 1
    increments = np.linalg.norm(np.diff(traj, axis=1), axis=2)
    m_bound = float(increments.max())

    worst = ("", -math.inf, (0, 0))
    weak_falsified = False
    vw_falsified = False
    pairs = [(j, l) for l in range(1, steps + 1) for j in range(l)]
    for i, (j, l) in enumerate(pairs):
        rep = convex_order_check(traj[:, j], traj[:, l],
                                 seed=item_seed(seed, "mgale-pair", i))
        if rep.worst_z > worst[1]:
            worst = (rep.worst_function, rep.worst_z, (j, l))
        if rep.falsified:
            weak_falsified = True
            if j == l - 1:
                vw_falsified = True
    return MartingaleGradeReport(
        very_weak_falsified=vw_falsified,
        weak_falsified=weak_falsified,
        worst_pair=worst[2],
        worst_function=worst[0],
        increment_bound=m_bound,
    )


# ---------------------------------------------------------------------------
# Martingale testbeds
# ---------------------------------------------------------------------------

def simulate_random_walk(steps: int, n: int, seed: int = 0, dim: int = 1) -> np.ndarray:
    """n trajectories of the +-1 coordinate walk, shape (n, steps+1, dim).

    Each step adds +-1 (fair) to one uniformly chosen coordinate, so every
    increment has Euclidean norm exactly 1 and the sequence is a strong
    martingale started at the origin.
    """
    rng = stream(seed, "random-walk")
    traj = np.zeros((n, steps + 1, dim))
    for s in range(1, steps + 1):
        signs = rng.choice([-1.0, 1.0], size=n)
        coords = rng.integers(0, dim, size=n) if dim > 1 else np.zeros(n, dtype=int)
        traj[:, s] = traj[:, s - 1]
        traj[np.arange(n), s, coords] += signs
    return traj


def walk_tail_reports(traj: np.ndarray, a_grid: Sequence[float],
                      m: float = 1.0) -> list[BoundReport]:
    """Martingale bound reports for each step of a walk against its tails."""
    n, steps_plus, _ = traj.shape
    reports = []
    center = np.zeros(traj.shape[2])
    for l in range(1, steps_plus):
        tails = estimate_tail(tail_distances(traj[:, l], center),
                              [m * float(a) for a in a_grid])
        for a, (p_hat, se) in zip(a_grid, tails):
            reports.append(BoundReport(kind="martingale", layer=l, t=m * float(a),
                                       analytic=mgale_bound(float(a), m, l),
                                       empirical=p_hat, se=se, n=n))
    return reports
