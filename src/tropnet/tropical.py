"""Max-plus (tropical) arithmetic, polynomials, and linear-region counting.

The semiring is (R ∪ {bottom}, ⊕, ⊙) with a ⊕ b = max(a, b) and
a ⊙ b = a + b.  Scalars are plain floats: ``BOTTOM`` is -inf, the
additive identity, and ``ZERO`` is 0.0, the multiplicative one.  A scalar
enters the algebra as a constant polynomial (``constant_polynomial``) or a
shift of one (``TropicalPolynomial.shift``); both reject NaN and +inf,
which are not tropical scalars.

A tropical polynomial is a finite max of affine monomials
c + alpha · x with nonnegative integer slope vectors alpha; distinct
monomials always carry distinct slope vectors.  It is stored as two
arrays, an int64 exponent matrix (one row per monomial) and a float
coefficient vector with -inf for bottom, whose rows one lexsort keeps
sorted by exponent and free of repeats.  ``TropicalPolynomial(alpha,
coeff)`` checks and normalises such arrays.  A network's output is the
difference f - g of two such polynomials.

The linear regions of a polynomial, and the monomials that pruning keeps,
are the vertices of the upper convex hull of the lifted points
(alpha_i, c_i) (Zhang, Naitzat & Lim, ICML 2018), found with one Qhull
call.  The per-monomial dominance LP and the grid argmax are kept as
oracles for that count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class TropicalError(ValueError):
    """Base class for tropical-algebra contract violations."""


class BottomValueError(TropicalError):
    """Raised when an operation requires a finite value but got bottom."""


class MonomialCapError(TropicalError):
    """Symbolic composition exceeded the monomial cap even after pruning."""


class RegionCountError(TropicalError):
    """LP-based region counting failed numerically."""

    def __init__(self, monomial_index: int, message: str):
        super().__init__(f"monomial {monomial_index}: {message}")
        self.monomial_index = monomial_index


#: Additive identity of ⊕ (the "-inf" of max-plus).
BOTTOM = -math.inf
#: Multiplicative identity of ⊙.
ZERO = 0.0


def _scalar(a) -> float:
    """``a`` as a tropical scalar: a real or BOTTOM, never NaN or +inf."""
    a = float(a)
    if math.isnan(a) or a == math.inf:
        raise TropicalError(f"tropical scalars are reals or BOTTOM (-inf), got {a}")
    return a


def _normalise(alpha: np.ndarray, coeff: np.ndarray):
    """Canonical rows of a polynomial given as exponent rows and coefficients.

    Rows are sorted by exponent; a repeated exponent keeps its largest
    coefficient (the max of identical affine parts is governed by the larger
    constant); bottom rows are dropped unless every row is bottom, which
    leaves one bottom row at the zero exponent.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    coeff = np.asarray(coeff, dtype=float)
    live = coeff > -np.inf
    if not live.any():
        return np.zeros((1, alpha.shape[1]), dtype=np.int64), np.array([-np.inf])
    if not live.all():
        alpha, coeff = alpha[live], coeff[live]
    # lexsort's last key is the primary one: exponents first, larger c first.
    order = np.lexsort((-coeff, *alpha.T[::-1]))
    alpha, coeff = alpha[order], coeff[order]
    first = np.ones(len(coeff), dtype=bool)
    first[1:] = (alpha[1:] != alpha[:-1]).any(axis=1)
    return alpha[first], coeff[first]


class TropicalPolynomial:
    """Finite tropical sum (max) of monomials c + alpha · x over a common dimension.

    ``TropicalPolynomial(alpha, coeff)`` takes an (r, d) array of
    nonnegative integer exponents with r >= 1 and r coefficients, each a
    real or BOTTOM (-inf).  It is stored as an int64 exponent matrix
    ``_alpha`` and a float coefficient vector ``_coeff``, normalised by
    ``_normalise``: rows sorted by exponent, distinct exponents, and no
    bottom row unless the polynomial is bottom.
    """

    __slots__ = ("_alpha", "_coeff")

    def __init__(self, alpha, coeff):
        try:
            alpha = np.asarray(alpha)
            exps = alpha.astype(float)
            coeff = np.asarray(coeff, dtype=float)
        except (TypeError, ValueError) as exc:
            raise TropicalError(f"monomial rows must be numeric: {exc}") from exc
        if alpha.ndim != 2 or alpha.shape[0] == 0 or coeff.shape != alpha.shape[:1]:
            raise TropicalError(f"need an (r, d) exponent array with r >= 1 and r "
                                f"coefficients, got shapes {alpha.shape} and {coeff.shape}")
        if not ((exps >= 0) & (exps == np.floor(exps)) & (exps < 2.0 ** 63)).all():
            raise TropicalError("monomial exponents must be nonnegative integers")
        if not (coeff < np.inf).all():
            raise TropicalError("coefficients must be reals or BOTTOM (-inf), not NaN or +inf")
        self._alpha, self._coeff = _normalise(exps.astype(np.int64), coeff)

    @classmethod
    def _from_arrays(cls, alpha: np.ndarray, coeff: np.ndarray) -> "TropicalPolynomial":
        """Polynomial with rows (alpha_i, coeff_i), trusted nonnegative and
        finite or -inf, normalised as the public constructor does."""
        f = object.__new__(cls)
        f._alpha, f._coeff = _normalise(alpha, coeff)
        return f

    @property
    def dim(self) -> int:
        return self._alpha.shape[1]

    @property
    def num_monomials(self) -> int:
        return len(self._coeff)

    @property
    def is_bottom(self) -> bool:
        # Normalised rows hold a bottom row only when it is the only row.
        return bool(self._coeff[0] == -np.inf)

    def __call__(self, x) -> float:
        """max over monomials of c + alpha · x; errors on an all-bottom polynomial."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise TropicalError(f"point has dimension {x.shape[0]}, expected {self.dim}")
        return float(self.evaluate_batch(x[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at each row of ``points`` (shape (n, d))."""
        if self.is_bottom:
            raise BottomValueError("cannot evaluate an all-bottom polynomial")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise TropicalError(f"points have dimension {points.shape[1]}, expected {self.dim}")
        return np.max(points @ self._alpha.astype(float).T + self._coeff, axis=1)

    def scale(self, w: int) -> "TropicalPolynomial":
        """Tropical power f^{⊙w} for integer w >= 0; scales every monomial."""
        w = int(w)
        if w < 0:
            raise TropicalError("tropical powers of polynomials need nonnegative weights")
        if w == 0:
            return constant_polynomial(self.dim, ZERO)
        return self._from_arrays(self._alpha * w, self._coeff * w)

    def shift(self, c: float) -> "TropicalPolynomial":
        """Multiply by the scalar c (add c to every coefficient)."""
        return self._from_arrays(self._alpha, self._coeff + _scalar(c))

    def __eq__(self, other):
        return (isinstance(other, TropicalPolynomial)
                and self._alpha.shape == other._alpha.shape
                and np.array_equal(self._alpha, other._alpha)
                and np.array_equal(self._coeff, other._coeff))

    def __hash__(self):
        # Hash the floats, not their bytes, so that 0.0 and -0.0 agree.
        return hash((self._alpha.shape, self._alpha.tobytes(), tuple(self._coeff.tolist())))

    def __repr__(self):
        terms = ", ".join(
            f"{'bottom' if c == -np.inf else c}+{tuple(a)}·x"
            for a, c in zip(self._alpha[:4].tolist(), self._coeff[:4].tolist())
        )
        more = "" if self.num_monomials <= 4 else f", ... ({self.num_monomials} terms)"
        return f"TropicalPolynomial[{terms}{more}]"


def constant_polynomial(dim: int, c: float) -> TropicalPolynomial:
    return TropicalPolynomial._from_arrays(np.zeros((1, dim), dtype=np.int64),
                                           np.array([_scalar(c)]))


def poly_add(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    """Tropical sum f ⊕ g: union of monomials with coefficient merging."""
    if f.dim != g.dim:
        raise TropicalError("cannot add polynomials of different dimension")
    return TropicalPolynomial._from_arrays(np.concatenate([f._alpha, g._alpha]),
                                           np.concatenate([f._coeff, g._coeff]))


def poly_mul(f: TropicalPolynomial, g: TropicalPolynomial,
             cap: int | None = None) -> TropicalPolynomial:
    """Tropical product f ⊙ g: Minkowski sum of monomial sets.

    Coefficients add and exponents add across the full cross product;
    duplicate exponents keep the larger coefficient.
    """
    if f.dim != g.dim:
        raise TropicalError("cannot multiply polynomials of different dimension")
    out = TropicalPolynomial._from_arrays(
        (f._alpha[:, None, :] + g._alpha[None, :, :]).reshape(-1, f.dim),
        (f._coeff[:, None] + g._coeff[None, :]).reshape(-1))
    if cap is not None and out.num_monomials > cap:
        out = prune_redundant_monomials(out)
        if out.num_monomials > cap:
            raise MonomialCapError(
                f"symbolic composition produced {out.num_monomials} monomials "
                f"(cap {cap}); use the numeric forward recursion instead"
            )
    return out


def poly_weighted_combine(polys: Sequence[TropicalPolynomial],
                          weights: Sequence[int],
                          bias: float = ZERO,
                          cap: int | None = None) -> TropicalPolynomial:
    """Symbolic ⊙-product of tropical powers plus a scalar bias.

    Returns the polynomial whose evaluation equals
    sum_j weights[j] * polys[j](x) + bias at every x.  Weights must be
    nonnegative integers; a zero weight contributes the multiplicative
    identity.
    """
    polys = list(polys)
    if not polys:
        raise TropicalError("poly_weighted_combine needs at least one polynomial")
    weights = [int(w) for w in weights]
    if len(weights) != len(polys):
        raise TropicalError("weights and polynomials must align")
    if any(w < 0 for w in weights):
        raise TropicalError(f"weights must be nonnegative, got {weights}")
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise TropicalError("polynomials must share one ambient dimension")

    out = constant_polynomial(dim, bias)
    for p, w in zip(polys, weights):
        if w == 0:
            continue
        out = poly_mul(out, p.scale(w), cap=cap)
    return out


# ---------------------------------------------------------------------------
# Linear regions
# ---------------------------------------------------------------------------

#: A strict-dominance slack above this declares a full-dimensional cell.
DELTA_TOL = 1e-7
#: The dominance LP maximizes the slack delta capped at this value.
DELTA_CAP = 1.0
#: Roundoff floor of the hull tests, well below DELTA_TOL: the relative
#: rank of the exponents, the flatness of c (times max(1, |c|)), the c part
#: of an upper facet's unit normal, and the spread of a vertex's normals.
HULL_TOL = 1e-9
#: Grid-oracle box and step (sound for d <= 2 at this resolution).
GRID_BOX = (-10.0, 10.0)
GRID_STEP = 0.05


@dataclass(frozen=True)
class RegionCount:
    """Number of linear regions of a tropical polynomial."""

    count: int
    method: str  # "hull" | "exact-lp" | "grid-oracle"
    dim: int

    def __post_init__(self):
        if self.count < 1:
            raise TropicalError("a piecewise-linear function has at least one region")


def _finite_parts(f: TropicalPolynomial):
    """Float exponents and coefficients; a polynomial that is not bottom has
    no bottom rows."""
    if f.is_bottom:
        raise BottomValueError("polynomial has no finite monomials to count")
    return f._alpha.astype(float), f._coeff


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: only region
    counting needs it, and it is slow to import.  ``_dominance_slack``
    looks this name up at call time, so a tracer can wrap it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _dominance_slack(alpha: np.ndarray, coeff: np.ndarray, i: int) -> float:
    """Max slack delta with  affine_i(x) >= affine_j(x) + delta  for all j != i.

    Returns min(delta*, DELTA_CAP); the cell of monomial i is
    full-dimensional iff the returned slack exceeds DELTA_TOL.
    """
    r, d = alpha.shape
    if r == 1:
        return DELTA_CAP
    others = [j for j in range(r) if j != i]
    # Variables (x, delta); maximize delta.
    a_ub = np.column_stack([alpha[others] - alpha[i], np.ones(len(others))])
    b_ub = coeff[i] - coeff[others]
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * d + [(None, DELTA_CAP)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RegionCountError(i, f"dominance LP failed: {res.message}")
    return -res.fun


def _lp_maximal(alpha: np.ndarray, coeff: np.ndarray) -> list[int]:
    """Monomials with a full-dimensional dominance cell, one LP each."""
    return [i for i in range(len(coeff))
            if _dominance_slack(alpha, coeff, i) > DELTA_TOL]


def _hull_vertices(points: np.ndarray, upper: bool = False) -> list[int]:
    """Vertices of conv(points), only those on an upper facet if ``upper``.

    Qhull may leave a point that lies on a face up to roundoff as a vertex
    between two nearly coplanar facets.  A true vertex has a normal cone of
    full dimension, so a point is kept only if the unit normals of the
    facets around it span the space with singular values above HULL_TOL.
    """
    from scipy.spatial import ConvexHull  # slow to import; only regions need it

    hull = ConvexHull(points)
    normals = hull.equations[:, :-1]
    faces = hull.simplices[normals[:, -1] > HULL_TOL] if upper else hull.simplices
    dim = points.shape[1]
    keep = []
    for v in np.unique(faces):
        sv = np.linalg.svd(normals[(hull.simplices == v).any(axis=1)],
                           compute_uv=False)
        if len(sv) == dim and sv[-1] > HULL_TOL:
            keep.append(int(v))
    return keep


def _hull_maximal(alpha: np.ndarray, coeff: np.ndarray) -> list[int]:
    """Monomials strictly maximal somewhere: upper-hull vertices of (alpha, c).

    Monomial i wins on an open set iff (alpha_i, c_i) is exposed by a
    direction (x, 1), i.e. is a vertex of the upper hull.  The exponents
    are first reduced to their affine hull (rank k).  If c is affine in
    them the lifted hull is flat and every vertex of conv(alpha) wins;
    otherwise the upper facets of the (k+1)-dimensional hull give the
    vertices.  Falls back to the dominance LP only when Qhull fails.

    The result equals the LP's except for a point that is within a
    tolerance of not being a vertex: its height above the upper hull of
    the others lies between roundoff and DELTA_TOL, or its normal cone is
    thinner than HULL_TOL.
    """
    from scipy.spatial import QhullError  # slow to import; only regions need it

    if len(coeff) == 1:
        return [0]
    a = alpha - alpha.mean(axis=0)
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    t = a @ vt[:int(np.sum(sv > HULL_TOL * sv[0]))].T
    c = coeff - coeff.mean()
    # Shear c by its affine fit on t: upper-hull vertices are unchanged.
    c = c - t @ np.linalg.lstsq(t, c, rcond=None)[0]
    height = np.abs(c).max()
    try:
        if height > HULL_TOL * max(1.0, np.abs(coeff).max()):
            return _hull_vertices(np.column_stack([t, c / height]), upper=True)
        if t.shape[1] == 1:
            return sorted({int(np.argmin(t)), int(np.argmax(t))})
        return _hull_vertices(t)
    except QhullError:
        return _lp_maximal(alpha, coeff)


def prune_redundant_monomials(f: TropicalPolynomial) -> TropicalPolynomial:
    """Drop monomials that are nowhere strictly maximal.

    A monomial whose dominance cell is not full-dimensional is attained,
    where attained at all, only on ties with other monomials, so deleting
    it leaves the function unchanged.  The kept monomials are the
    upper-hull vertices of the lifted points.
    """
    alpha, coeff = _finite_parts(f)
    keep = _hull_maximal(alpha, coeff)
    if not keep:
        # All cells tie away; keep the largest-coefficient monomial.
        keep = [int(np.argmax(coeff))]
    return TropicalPolynomial._from_arrays(f._alpha[keep], coeff[keep])


def _grid_points(dim: int) -> np.ndarray:
    lo, hi = GRID_BOX
    axis = np.arange(lo, hi + GRID_STEP / 2, GRID_STEP)
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def count_linear_regions(f: TropicalPolynomial, method: str = "hull") -> RegionCount:
    """Count maximal connected subsets of R^d on which ``f`` is affine.

    "hull" counts the upper-hull vertices of the lifted points
    (alpha_i, c_i).  "exact-lp" counts monomials whose strict-dominance
    cell is full-dimensional (slack LP per monomial); it is the oracle for
    "hull".  "grid-oracle" counts distinct argmax indices over a dense
    grid on ``GRID_BOX``; it is a sound lower bound on the true count and
    serves as a cross-check.
    """
    alpha, coeff = _finite_parts(f)
    if method in ("hull", "exact-lp"):
        maximal = _hull_maximal if method == "hull" else _lp_maximal
        n = len(maximal(alpha, coeff))
        return RegionCount(count=max(n, 1), method=method, dim=f.dim)
    if method == "grid-oracle":
        points = _grid_points(f.dim)
        won = np.zeros(len(coeff), dtype=bool)
        for start in range(0, len(points), 65536):
            vals = points[start:start + 65536] @ alpha.T
            vals += coeff
            won[np.argmax(vals, axis=1)] = True
        return RegionCount(count=int(won.sum()), method="grid-oracle", dim=f.dim)
    raise TropicalError(f"unknown region-count method {method!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def polynomial_to_dict(f: TropicalPolynomial) -> dict:
    return {
        "d": f.dim,
        "monomials": [
            {"c": "bottom" if c == -np.inf else c, "alpha": a}
            for a, c in zip(f._alpha.tolist(), f._coeff.tolist())
        ],
    }


def polynomial_from_dict(data: dict) -> TropicalPolynomial:
    """Inverse of ``polynomial_to_dict``; bottom is written only as "bottom"."""
    d = int(data["d"])
    monos = data["monomials"]
    coeff = []
    for entry in monos:
        if len(entry["alpha"]) != d:
            raise TropicalError(f"monomial exponent length {len(entry['alpha'])} != d={d}")
        c = BOTTOM if entry["c"] == "bottom" else float(entry["c"])
        if c == BOTTOM and entry["c"] != "bottom":
            raise TropicalError('write a bottom coefficient as "bottom"')
        coeff.append(c)
    return TropicalPolynomial([entry["alpha"] for entry in monos], coeff)
