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
coefficient vector with -inf for bottom, whose rows one routine,
``_merge``, keeps sorted by exponent and free of repeats in every
producer.  ``TropicalPolynomial(alpha, coeff)`` checks such arrays.  A network's output is the
difference f - g of two such polynomials.

Products are one sorted-key Minkowski fold (``_minkowski_fold``) per row
under one key layout per set of rows (``_products``), such as the 2·n_out
combines of a symbolic layer.  The layout packs exponent rows into uint64
keys in a mixed radix sized by the largest degree bound of the set's rows,
and each polynomial of the set is packed once.  Each factor is then one
broadcast add of keys and coefficients and one ``_merge`` of the keys,
and each row is unpacked once at the end.  ``poly_weighted_combine`` and
``poly_mul`` are its one-row cases.  An exponent past the int64 range is a
``TropicalError``, raised before any row of the set is folded.

The linear regions of a polynomial, and the monomials that pruning keeps,
are the vertices of the upper convex hull of the lifted points
(alpha_i, c_i) (Zhang, Naitzat & Lim, ICML 2018), found with one Qhull
call.  The per-monomial dominance LP and the grid argmax are kept as
oracles for that count.
"""

from __future__ import annotations

import math
import numbers
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
#: Largest exponent an int64 exponent matrix holds.
_MAX_EXPONENT = 2 ** 63 - 1


def _scalar(a) -> float:
    """``a`` as a tropical scalar: a real or BOTTOM, never NaN, +inf or a
    boolean."""
    if isinstance(a, (bool, np.bool_)):
        raise TropicalError(f"tropical scalars are numbers, not booleans: {a!r}")
    a = float(a)
    if math.isnan(a) or a == math.inf:
        raise TropicalError(f"tropical scalars are reals or BOTTOM (-inf), got {a}")
    return a


def _merge(cols: np.ndarray, coeff: np.ndarray, presorted: bool = False):
    """Canonical form of rows given as integer columns (one column per row,
    compared lexicographically) and coefficients: bottom rows dropped unless
    every row is bottom, which leaves one bottom row at zero; columns sorted;
    a repeated column keeps its largest coefficient, of equal ones the first
    row's.  ``presorted`` columns are already ascending and distinct.  +inf
    or NaN is a ``TropicalError``."""
    live = np.isfinite(coeff)
    if not live.all():
        # +inf, or NaN where +inf met bottom, is not a tropical scalar.
        if not np.max(coeff) < np.inf:
            raise TropicalError("coefficients overflow past the double range")
        cols, coeff = cols[:, live], coeff[live]
        if not len(coeff):
            return np.zeros((len(cols), 1), dtype=cols.dtype), np.array([-np.inf])
    if presorted:
        return cols, coeff
    # lexsort is stable, and its last key is the primary one.
    order = np.lexsort(cols[::-1])
    cols, coeff = cols.take(order, axis=1), coeff.take(order)
    first = np.empty(len(coeff), dtype=bool)
    first[0] = True
    np.logical_or.reduce(cols[:, 1:] != cols[:, :-1], axis=0, out=first[1:])
    starts = np.flatnonzero(first)
    best = np.maximum.reduceat(coeff, starts)
    if not best.all():
        # Which of 0.0 and -0.0 np.maximum returns depends on its vector
        # loop: a zero maximum takes the sign of the first zero of its run.
        zero = np.nonzero(coeff == 0)[0]
        run = np.cumsum(first)[zero] - 1
        hit = np.r_[True, run[1:] != run[:-1]] & (best[run] == 0)
        best[run[hit]] = coeff[zero[hit]]
    return cols.take(starts, axis=1), best


def _normalise(alpha: np.ndarray, coeff: np.ndarray):
    """``_merge`` of int64 exponent rows and float coefficients."""
    cols, coeff = _merge(alpha.T, coeff)
    return np.ascontiguousarray(cols.T), coeff


def _numbers(value) -> np.ndarray:
    """``value`` as an array of real numbers; numpy reads the string "1" and
    True as 1, but neither is a number here."""
    arr = np.asarray(value)
    if not (isinstance(value, np.ndarray) and arr.dtype.kind in "iuf") and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"not an array of real numbers: {value!r:.80}")
    return arr


def _finite(value, ndim: int) -> np.ndarray | None:
    """``value`` as a float array of ``ndim`` dimensions whose entries are
    finite numbers by ``_numbers``' rule, or None when it is not one."""
    try:
        arr = _numbers(value).astype(float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.ndim == ndim and np.isfinite(arr).all() else None


class TropicalPolynomial:
    """Finite tropical sum (max) of monomials c + alpha · x over a common dimension.

    ``TropicalPolynomial(alpha, coeff)`` takes an (r, d) array of
    nonnegative integer exponents with r, d >= 1 and r coefficients, each a
    real or BOTTOM (-inf).  It is stored as an int64 exponent matrix
    ``_alpha`` and a float coefficient vector ``_coeff``, normalised by
    ``_merge``: rows sorted by exponent, distinct exponents, and no bottom
    row unless the polynomial is bottom.
    """

    __slots__ = ("_alpha", "_coeff")

    def __init__(self, alpha, coeff):
        try:
            alpha, coeff = _numbers(alpha), _numbers(coeff)
            exps = alpha.astype(float)
            coeff = coeff.astype(float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise TropicalError(f"monomial rows must be numeric: {exc}") from exc
        if alpha.ndim != 2 or 0 in alpha.shape or coeff.shape != alpha.shape[:1]:
            raise TropicalError(f"need an (r, d) exponent array with r, d >= 1 and r "
                                f"coefficients, got shapes {alpha.shape} and {coeff.shape}")
        if not ((exps >= 0) & (exps == np.floor(exps)) & (exps < 2.0 ** 63)).all():
            raise TropicalError("monomial exponents must be nonnegative integers")
        if not (coeff < np.inf).all():
            raise TropicalError("coefficients must be reals or BOTTOM (-inf), not NaN or +inf")
        # Integer input converts exactly; floats are exact only up to 2**53.
        exact = alpha if alpha.dtype.kind in "iu" else exps
        self._alpha, self._coeff = _normalise(exact.astype(np.int64), coeff)

    @classmethod
    def _trusted(cls, alpha: np.ndarray, coeff: np.ndarray) -> "TropicalPolynomial":
        """Polynomial on rows that are already normalised."""
        f = object.__new__(cls)
        f._alpha, f._coeff = alpha, coeff
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

    def shift(self, c: float) -> "TropicalPolynomial":
        """Multiply by the scalar c (add c to every coefficient)."""
        c = _scalar(c)
        if c == BOTTOM:
            return constant_polynomial(self.dim, BOTTOM)
        coeff = self._coeff + c
        if not np.isfinite(coeff).all():  # c + c_i overflowed
            return self._trusted(*_normalise(self._alpha, coeff))
        # Otherwise a finite shift keeps the rows' order.
        return self._trusted(self._alpha, coeff)

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
    return TropicalPolynomial._trusted(np.zeros((1, dim), dtype=np.int64),
                                       np.array([_scalar(c)]))


def poly_add(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    """Tropical sum f ⊕ g: union of monomials with coefficient merging."""
    if f.dim != g.dim:
        raise TropicalError("cannot add polynomials of different dimension")
    return TropicalPolynomial._trusted(*_normalise(np.concatenate([f._alpha, g._alpha]),
                                                   np.concatenate([f._coeff, g._coeff])))


def poly_mul(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    """Tropical product f ⊙ g: Minkowski sum of monomial sets.

    The one-row case of ``_products``: coefficients and exponents add
    across the full cross product, and a repeated exponent keeps the larger
    coefficient.
    """
    if f.dim != g.dim:
        raise TropicalError("cannot multiply polynomials of different dimension")
    return _products([(f, [(g, 1)])], cap=None)[0]


def poly_weighted_combine(polys: Sequence[TropicalPolynomial],
                          weights: Sequence[int],
                          bias: float = ZERO,
                          cap: int | None = None) -> TropicalPolynomial:
    """Symbolic ⊙-product of tropical powers plus a scalar bias.

    Returns the polynomial whose evaluation equals
    sum_j weights[j] * polys[j](x) + bias at every x.  Weights must be
    nonnegative integral values (2 or 2.0, not 2.5 or True); a zero weight
    contributes the multiplicative identity.  The one-row case of
    ``_products``: from the bias row it multiplies in
    polys[j]^{⊙weights[j]} for each nonzero weight, in order.  After each
    factor, a product of more than ``cap`` monomials is pruned, and
    ``MonomialCapError`` is raised if it is still over.
    """
    polys = list(polys)
    if not polys:
        raise TropicalError("poly_weighted_combine needs at least one polynomial")
    weights = list(weights)
    if len(weights) != len(polys):
        raise TropicalError("weights and polynomials must align")
    try:
        integral = [int(w) for w in weights]
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        integral = None
    # 2.0 passes; 2.5, "2" and True do not.
    if integral != weights or any(isinstance(w, (bool, np.bool_)) for w in weights):
        raise TropicalError(f"weights must be integers, got {weights}")
    weights = integral
    if any(w < 0 for w in weights):
        raise TropicalError(f"weights must be nonnegative, got {weights}")
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise TropicalError("polynomials must share one ambient dimension")
    factors = [(p, w) for p, w in zip(polys, weights) if w]
    return _products([(constant_polynomial(dim, bias), factors)], cap)[0]


def _key_layout(degree: tuple[int, ...]):
    """Mixed-radix packing of exponent rows bounded by ``degree``.

    Coordinate k has radix degree[k] + 1.  Consecutive coordinates share a
    uint64 word while the product of their radices fits in it, coordinate 0
    most significant, so comparing the words in order compares the rows
    lexicographically, and adding two keys adds their exponents as long as
    the sum stays within ``degree``.  Returns the (words, d) matrix of
    place values that packs a row, and each coordinate's word, place and
    radix, which unpack it.
    """
    word, place, radix = [], [], []
    w, span = 0, 1  # words counted from the least significant one
    for k in reversed(range(len(degree))):
        r = degree[k] + 1
        if span * r > 2 ** 64:
            w, span = w + 1, 1
        word.append(w)
        place.append(span)
        radix.append(r)
        span *= r
    word = w - np.array(word[::-1], dtype=np.intp)
    place = np.array(place[::-1], dtype=np.uint64)
    packing = np.zeros((w + 1, len(degree)), dtype=np.uint64)
    packing[word, np.arange(len(degree))] = place
    return packing, word, place[:, None], np.array(radix[::-1], dtype=np.uint64)[:, None]


def _pack(layout, alpha: np.ndarray) -> np.ndarray:
    """(words, r) keys of the exponent rows ``alpha`` under ``layout``."""
    return layout[0] @ alpha.T.astype(np.uint64)


def _unpack(layout, keys: np.ndarray, coeff: np.ndarray) -> TropicalPolynomial:
    """The polynomial of canonical packed rows."""
    _, word, place, radix = layout
    rows = (keys[word] // place % radix).T.astype(np.int64, order="C")
    return TropicalPolynomial._trusted(rows, coeff)


def _products(rows, cap: int | None) -> list[TropicalPolynomial]:
    """The product start ⊙ p_1^{⊙w_1} ⊙ ... of each row (start, [(p_j, w_j)]).

    The polynomials share one dimension and every w_j is an int >= 1.  All
    rows share one key layout (``_key_layout``), sized by their degree
    bound: per coordinate, the largest over the rows of start's largest
    exponent plus the sum of w_j times p_j's.  It is worked out in Python
    ints, and past int64 it is a ``TropicalError`` before any row is
    folded.  Each distinct polynomial is packed once, each (p_j, w_j) pair
    is dilated once, when it is first folded, and each row is one
    ``_minkowski_fold``, in order.
    """
    index, polys, plans = {}, [], []
    for start, factors in rows:
        plan = []
        for p, w in ((start, 1), *factors):
            j = index.get(id(p))
            if j is None:
                j = index[id(p)] = len(polys)
                polys.append(p)
            plan.append((j, w))
        plans.append(plan)
    peaks = [p._alpha.max(axis=0).tolist() for p in polys]
    degree = [max(sum(w * peaks[j][k] for j, w in plan) for plan in plans)
              for k in range(polys[0].dim)]
    if max(degree) > _MAX_EXPONENT:
        raise TropicalError(f"product exponents reach {max(degree)}, past the "
                            f"int64 range")
    layout = _key_layout(tuple(degree))
    keys = [_pack(layout, p._alpha) for p in polys]
    dilated = {}

    def dilate(j, w):
        # p^{⊙w} is, as a function, w times p: the rows of p dilated by w.
        # Made on first use, so an overflow of w times p's coefficients
        # comes up where that factor is folded.
        if (j, w) not in dilated:
            dilated[j, w] = keys[j] * w, polys[j]._coeff * w
        return dilated[j, w]

    return [_minkowski_fold(layout, keys[plan[0][0]], polys[plan[0][0]]._coeff,
                            (dilate(j, w) for j, w in plan[1:]), cap)
            for plan in plans]


def _minkowski_fold(layout, keys: np.ndarray, coeff: np.ndarray, factors,
                    cap: int | None) -> TropicalPolynomial:
    """The product (keys, coeff) ⊙ q_1 ⊙ q_2 ⊙ ... of the packed rows
    ``factors`` [(keys_j, coeff_j)], all canonical under ``layout``, whose
    degree bound holds the product.

    Each step is one broadcast key add and one coefficient add, and one
    ``_merge`` of the key columns; the exponents are unpacked once, at the
    end.  Past ``cap`` monomials after a step the product is pruned, and
    ``MonomialCapError`` is raised if it is still over.
    """
    for factor_keys, factor_coeff in factors:
        # One row times sorted rows is sorted and has no repeats.
        presorted = len(coeff) == 1 or len(factor_coeff) == 1
        keys = (keys[:, :, None] + factor_keys[:, None, :]).reshape(len(keys), -1)
        coeff = (coeff[:, None] + factor_coeff).ravel()
        # Bottom rows are a bottom factor, or a sum that overflowed to -inf.
        keys, coeff = _merge(keys, coeff, presorted)
        if cap is not None and len(coeff) > cap:
            out = prune_redundant_monomials(_unpack(layout, keys, coeff))
            if out.num_monomials > cap:
                raise MonomialCapError(
                    f"symbolic composition produced {out.num_monomials} monomials "
                    f"(cap {cap}); use the numeric forward recursion instead")
            keys, coeff = _pack(layout, out._alpha), out._coeff
    return _unpack(layout, keys, coeff)


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
    # Vertex-facet incidence in one pass: a stable argsort of the flat
    # simplices (dim vertices a facet) lists each vertex's facets in order.
    order = np.argsort(hull.simplices.ravel(), kind="stable")
    incident = hull.simplices.ravel()[order]
    candidates = np.unique(faces)
    lo = np.searchsorted(incident, candidates, side="left")
    facets = np.searchsorted(incident, candidates, side="right") - lo
    # One SVD call per facet count; numpy runs each matrix of the stack
    # through the same LAPACK routine as a lone one.  Fewer than dim
    # normals never span the space.
    keep = np.zeros(len(candidates), dtype=bool)
    for k in np.unique(facets[facets >= dim]).tolist():
        group = np.nonzero(facets == k)[0]
        sv = np.linalg.svd(normals[order[lo[group, None] + np.arange(k)] // dim],
                           compute_uv=False)
        keep[group] = sv[:, -1] > HULL_TOL
    return candidates[keep].tolist()


def _hull_maximal(alpha: np.ndarray, coeff: np.ndarray) -> list[int]:
    """Monomials strictly maximal somewhere: upper-hull vertices of (alpha, c).

    Monomial i wins on an open set iff (alpha_i, c_i) is exposed by a
    direction (x, 1), i.e. is a vertex of the upper hull.  The exponents
    are first reduced to their affine hull (rank k).  If c is affine in
    them the lifted hull is flat and every vertex of conv(alpha) wins;
    otherwise the upper facets of the (k+1)-dimensional hull give the
    vertices.  Falls back to the dominance LP only when Qhull fails.

    The indices are ascending, so the kept rows of canonical rows are
    canonical (``prune_redundant_monomials`` relies on this).  The result
    equals the LP's except for a point that is within a tolerance of not
    being a vertex: its height above the upper hull of the others lies
    between roundoff and DELTA_TOL, or its normal cone is thinner than
    HULL_TOL.
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
    # An ascending subset of canonical rows is canonical.
    return TropicalPolynomial._trusted(f._alpha[keep], coeff[keep])


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
    grid on ``GRID_BOX``; for d <= 2 it is a sound lower bound on the true
    count and serves as a cross-check, and past d = 2 it is an error.
    """
    alpha, coeff = _finite_parts(f)
    if method in ("hull", "exact-lp"):
        maximal = _hull_maximal if method == "hull" else _lp_maximal
        n = len(maximal(alpha, coeff))
        return RegionCount(count=max(n, 1), method=method, dim=f.dim)
    if method == "grid-oracle":
        if f.dim > 2:
            # The grid has 401**d points: about 3 GB at d = 3.
            raise TropicalError(f"the grid oracle is sound only for d <= 2, "
                                f"got d = {f.dim}")
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


def _json_number(v, name: str):
    """``v`` if it is a JSON number; a string or a bool is not one here."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TropicalError(f"{name} must be a number, got {v!r:.80}")
    return v


def polynomial_from_dict(data: dict) -> TropicalPolynomial:
    """Inverse of ``polynomial_to_dict``.  ``d`` is an int >= 1, exponents
    and coefficients are JSON numbers, and bottom is written only as
    "bottom"."""
    d = data["d"]
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise TropicalError(f"d must be an int >= 1, got {d!r:.80}")
    monos = data["monomials"]
    coeff = []
    for entry in monos:
        if len(entry["alpha"]) != d:
            raise TropicalError(f"monomial exponent length {len(entry['alpha'])} != d={d}")
        for a in entry["alpha"]:
            _json_number(a, "an exponent")
        c = BOTTOM if entry["c"] == "bottom" else _json_number(entry["c"], "a coefficient")
        if c == BOTTOM and entry["c"] != "bottom":
            raise TropicalError('write a bottom coefficient as "bottom"')
        coeff.append(c)
    return TropicalPolynomial([entry["alpha"] for entry in monos], coeff)
