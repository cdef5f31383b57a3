"""Score functions and the expected classifier with its error bounds.

The expected classifier thresholds the Monte Carlo estimate of
E[s(nu(x))] at a decision level c; the expectation here is over the
network's own randomness at a fixed input.  Whenever the estimate sits a
distance t from c, the probability that a fresh stochastic draw lands on
the other side of c is at most exp(-2 t^2 / (b-a)^2) for a score bounded
in [a, b], and the audit routine checks that bound empirically.  Both
follow the verdict rule of :mod:`tropnet.bounds`: an estimate is resolved
when ``exceeds(t, se, 0.0)``, and an audit row, labelled by
``expected_classify``, is violated when its binomial disagreement
frequency ``exceeds`` the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bounds import binomial_estimate, exceeds
from .networks import NetworkSpec, simulate_layer_outputs
from .seeding import item_seed
from .tropical import _finite


class ScoreSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreSpec:
    """Bounded scoring rule with a decision threshold strictly inside its range;
    its fields are the JSON format of a config's ``score`` object."""

    kind: str = "sigmoid"  # "sigmoid" | "clamped-identity" | "table"
    a: float = 0.0
    b: float = 1.0
    c: float = 0.5
    table: tuple = ()      # float pairs ((v, s), ...) strictly increasing in both

    def __post_init__(self):
        if self.kind not in ("sigmoid", "clamped-identity", "table"):
            raise ScoreSpecError(f"unknown score kind {self.kind!r:.80}")
        for name in ("a", "b", "c"):
            value = _finite(getattr(self, name), 0)
            if value is None:
                raise ScoreSpecError(f"{name} must be a real number, "
                                     f"got {getattr(self, name)!r:.80}")
            object.__setattr__(self, name, float(value))
        empty = isinstance(self.table, (tuple, list)) and not self.table
        table = np.empty((0, 2)) if empty else _finite(self.table, 2)
        if table is None or table.shape[1] != 2:
            raise ScoreSpecError(f"table must be a list of [v, s] number pairs, "
                                 f"got {self.table!r:.80}")
        object.__setattr__(self, "table", tuple(map(tuple, table.tolist())))
        if not self.a < self.c < self.b:
            raise ScoreSpecError(f"need a < c < b, got a={self.a}, c={self.c}, b={self.b}")
        if not math.isfinite(self.b - self.a):
            raise ScoreSpecError(f"score range [{self.a}, {self.b}] is wider than "
                                 f"double precision")
        if self.kind == "sigmoid" and (self.a, self.b) != (0.0, 1.0):
            raise ScoreSpecError("sigmoid scores have range closure [0, 1]")
        if self.kind == "table":
            if len(table) < 2:
                raise ScoreSpecError("table scores need at least two knots")
            vs, ss = table.T
            # Compared, not differenced: knots far apart would overflow.
            if np.any(vs[1:] <= vs[:-1]):
                raise ScoreSpecError("table knots must be strictly increasing in v")
            if np.any(ss[1:] <= ss[:-1]):
                raise ScoreSpecError("table scores must be strictly increasing")
            if ss.min() < self.a or ss.max() > self.b:
                raise ScoreSpecError("table values leave the declared range [a, b]")


def score(spec: ScoreSpec, v) -> np.ndarray | float:
    """Apply the scoring rule elementwise; output lies in [a, b]."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-v))
    elif spec.kind == "clamped-identity":
        out = np.clip(v, spec.a, spec.b)
    else:
        vs, ss = np.array(spec.table).T
        out = np.interp(v, vs, ss)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExpectedDecision:
    """Label of one input under the expected classifier.

    ``label`` is "C1" when the estimate clears c from above, "C2" from
    below, and "abstain" when the estimate is within the statistical
    resolution band (3 SE) of the boundary.  ``error_bound`` is the
    probability that a single stochastic draw disagrees with the label.
    """

    estimate: float
    se: float
    label: str
    t: float
    error_bound: float


def expected_score(spec: NetworkSpec, score_spec: ScoreSpec, x,
                   n: int = 10_000, seed: int = 0):
    """Monte Carlo estimate of E[s(nu(x))] over n network draws at fixed x.

    The mean and standard error are taken of the score rescaled to [0, 1]
    and mapped back, so that no sum over the draws overflows.
    """
    if spec.p != 1:
        raise ScoreSpecError(f"the expected classifier needs a scalar output, "
                             f"got width {spec.p}")
    if n < 1000:
        raise ValueError(f"need n >= 1000 draws, got {n}")
    [nu] = simulate_layer_outputs(spec, n, seed, x=x, tag="score", stat=_output)
    a, b = score_spec.a, score_spec.b
    u = (np.asarray(score(score_spec, nu)) - a) / (b - a)
    # Mapped back, a mean of 1 can round an ulp past b.
    estimate = min(max(a + (b - a) * float(u.mean()), a), b)
    return estimate, float((b - a) * u.std(ddof=1) / math.sqrt(n))


def _output(nus):
    """The scalar output nu_L of each draw of a block; top level, so that a
    pool can pickle it."""
    return [nus[-1][:, 0]]


def expected_classify(estimate: float, score_spec: ScoreSpec,
                      se: float = 0.0) -> ExpectedDecision:
    """Label an input from its estimated expected score.

    Estimates within 3 SE of the boundary abstain, since their side of c
    is not statistically resolved; so does an estimate exactly on c (the
    expected decision boundary itself), at t = 0 and any se.
    """
    a, b, c = score_spec.a, score_spec.b, score_spec.c
    if not a <= estimate <= b:
        raise ScoreSpecError(f"estimate {estimate} outside score range [{a}, {b}]")
    t = abs(estimate - c)
    if not exceeds(t, se, 0.0):
        return ExpectedDecision(estimate=estimate, se=se, label="abstain",
                                t=t, error_bound=1.0)
    u = t / (b - a)  # (b - a) ** 2 may overflow
    p = min(math.exp(-2.0 * u * u), 1.0)
    label = "C1" if estimate > c else "C2"
    return ExpectedDecision(estimate=estimate, se=se, label=label, t=t,
                            error_bound=p)


@dataclass(frozen=True)
class AuditRow:
    """Per-input comparison of observed disagreement with its bound."""

    input_id: int
    estimate: float
    se: float
    label: str
    t: float
    bound: float
    empirical: float
    empirical_se: float
    verdict: str  # "consistent" | "violated" | "unresolved"


def disagreement_audit(spec: NetworkSpec, score_spec: ScoreSpec,
                       inputs: np.ndarray, n: int = 10_000,
                       seed: int = 0, map=map) -> list[AuditRow]:
    """Audit how often stochastic decisions disagree with the expected one.

    For each input the expected score is estimated on a pilot set; inputs
    whose estimate is not resolved away from c (within 3 SE) are flagged
    and not judged.  For resolved inputs an independent evaluation set
    measures the frequency of draws falling on the wrong side of c, which
    must not exceed exp(-2 t^2 / (b-a)^2) beyond statistical slack.
    Input ``i`` draws from streams keyed by ``item_seed(seed, "classify",
    i)``; ``map`` runs the inputs (a process pool's ``map`` runs them in
    its workers, with identical results).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    return list(map(_audit_input, repeat(spec), repeat(score_spec), list(inputs),
                    repeat(n), repeat(seed), range(len(inputs))))


def _audit_input(spec: NetworkSpec, score_spec: ScoreSpec, x: np.ndarray,
                 n: int, seed: int, i: int) -> AuditRow:
    input_seed = item_seed(seed, "classify", i)
    est, se = expected_score(spec, score_spec, x, n=n, seed=input_seed)
    d = expected_classify(est, score_spec, se)
    if d.label == "abstain":
        return AuditRow(input_id=i, estimate=est, se=se, label="abstain",
                        t=d.t, bound=1.0, empirical=float("nan"),
                        empirical_se=float("nan"), verdict="unresolved")
    [nu] = simulate_layer_outputs(spec, n, input_seed, x=x, tag="audit", stat=_output)
    s = np.asarray(score(score_spec, nu))
    wrong_side = s <= score_spec.c if d.label == "C1" else s >= score_spec.c
    disagree, emp_se = binomial_estimate(int(np.count_nonzero(wrong_side)), n)
    verdict = "violated" if exceeds(disagree, emp_se, d.error_bound) else "consistent"
    return AuditRow(input_id=i, estimate=est, se=se, label=d.label, t=d.t,
                    bound=d.error_bound, empirical=disagree,
                    empirical_se=emp_se, verdict=verdict)
