"""Max-plus arithmetic, polynomials, and region counting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropnet.tropical
from tropnet.tropical import (
    BOTTOM,
    ZERO,
    BottomValueError,
    MonomialCapError,
    TropicalError,
    TropicalPolynomial,
    constant_polynomial,
    count_linear_regions,
    poly_add,
    poly_mul,
    poly_weighted_combine,
    polynomial_from_dict,
    polynomial_to_dict,
    prune_redundant_monomials,
)
from tropnet.tropical import (
    _finite_parts,
    _grid_points,
    _hull_maximal,
    _key_layout,
    _lp_maximal,
)


def poly(*terms):
    """Polynomial of (c, alpha) terms; c = None is bottom."""
    return TropicalPolynomial([a for _, a in terms],
                              [BOTTOM if c is None else c for c, _ in terms])


def rows_of(f):
    return list(zip(map(tuple, f._alpha.tolist()), f._coeff.tolist()))


def random_poly(rng, d, r, coeff_lo=-2.0, coeff_hi=2.0, exp_hi=2):
    r = min(r, (exp_hi + 1) ** d)  # distinct exponent vectors available
    terms = []
    seen = set()
    while len(terms) < r:
        alpha = tuple(int(a) for a in rng.integers(0, exp_hi + 1, size=d))
        if alpha in seen:
            continue
        seen.add(alpha)
        terms.append((rng.uniform(coeff_lo, coeff_hi), alpha))
    return poly(*terms)


def tropical_values():
    """Bottom or a finite value."""
    return st.one_of(st.just(BOTTOM), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def tropical_polys(draw):
    """A constant polynomial or one of up to four monomials, over d = 2."""
    if draw(st.booleans()):
        return constant_polynomial(2, draw(tropical_values()))
    rows = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=4, unique=True))
    return TropicalPolynomial(rows, draw(st.lists(tropical_values(), min_size=len(rows),
                                                  max_size=len(rows))))


def const(c, d=1):
    return constant_polynomial(d, c)


def near(f, g):
    """Same monomials, coefficients equal up to the roundoff of ⊙'s sums."""
    return np.array_equal(f._alpha, g._alpha) \
        and np.allclose(f._coeff, g._coeff, rtol=1e-12, atol=1e-9)


def same_function(f, g, points):
    """f and g agree at every point, or both are bottom."""
    if f.is_bottom or g.is_bottom:
        return f.is_bottom and g.is_bottom
    return np.allclose(f.evaluate_batch(points), g.evaluate_batch(points),
                       rtol=1e-12, atol=1e-9)


def power(f, n):
    """The tropical power f^{⊙n}: the one-factor weighted combination."""
    return poly_weighted_combine([f], [n])


def assert_semiring_laws(a, b, c, m, n, points):
    """⊕ = poly_add, ⊙ = poly_mul and powers obey the semiring laws."""
    assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
    assert near(poly_mul(poly_mul(a, b), c), poly_mul(a, poly_mul(b, c)))
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
    assert poly_add(a, a) == a
    bottom, zero = const(BOTTOM, a.dim), const(ZERO, a.dim)
    assert poly_add(a, bottom) == a
    assert poly_mul(a, zero) == a
    assert poly_mul(a, bottom).is_bottom
    # Powers: a^0 is the unit, a^1 = a, powers distribute over ⊙, and they
    # add: as polynomials on one monomial, as functions on several, where
    # a ⊙ a keeps cross terms that are nowhere maximal.
    assert power(a, 0) == zero
    assert power(a, 1) == a
    assert near(power(poly_mul(a, b), n), poly_mul(power(a, n), power(b, n)))
    added = (poly_mul(power(a, m), power(a, n)), power(a, m + n))
    if a.num_monomials == 1:
        assert near(*added)
    assert same_function(*added, points)


class TestScalarOps:
    """The scalars are the constant polynomials: ⊕ is poly_add, ⊙ is
    poly_mul and the tropical power is a one-factor poly_weighted_combine."""

    def test_add_is_max(self):
        assert poly_add(const(3), const(5)) == const(5.0)
        assert type(poly_add(const(3), const(5))([0.0])) is float
        assert poly_add(const(BOTTOM), const(4)) == const(4.0)
        assert poly_add(const(2), const(2)) == const(2.0)  # idempotence

    def test_mul_is_plus(self):
        assert poly_mul(const(3), const(5)) == const(8.0)
        assert poly_mul(const(ZERO), const(7)) == const(7.0)  # 0 is the unit
        assert poly_mul(const(BOTTOM), const(7)).is_bottom    # absorbing

    def test_weighted_combine_is_the_tropical_power(self):
        assert power(const(2), 3) == const(6.0)
        assert power(const(BOTTOM), 0) == const(ZERO)
        assert power(const(BOTTOM), 3).is_bottom
        assert poly_mul(power(const(2), 2), power(const(2), 3)) == power(const(2), 5)

    def test_div_then_mul_recovers(self):
        # Division by b is multiplication by its inverse -b, a shift.
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.normal(size=2) * 5
            back = poly_mul(const(a).shift(-b), const(b))
            assert math.isclose(back([0.0]), a, abs_tol=1e-12)

    def test_div_by_bottom_is_an_error(self):
        # Bottom has no inverse: there is no negative power, and its would-be
        # inverse +inf is not a scalar.
        with pytest.raises(TropicalError):
            power(const(BOTTOM), -1)
        with pytest.raises(TropicalError):
            const(3).shift(math.inf)

    def test_semiring_laws_on_sampled_triples(self):
        rng = np.random.default_rng(1)
        pool = [const(BOTTOM, 2)] + [const(float(v), 2) for v in rng.normal(size=15) * 10]
        pool += [random_poly(rng, 2, int(rng.integers(1, 5))) for _ in range(15)]
        points = rng.uniform(-3, 3, size=(20, 2))
        for i, j, k in rng.integers(0, len(pool), size=(200, 3)):
            m, n = (int(v) for v in rng.integers(0, 5, size=2))
            assert_semiring_laws(pool[i], pool[j], pool[k], m, n, points)

    def test_identities(self):
        rng = np.random.default_rng(2)
        for v in rng.normal(size=20):
            for a in (const(float(v)), random_poly(rng, 1, 3)):
                assert poly_add(const(BOTTOM), a) == a
                assert poly_mul(const(ZERO), a) == a

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(tropical_polys(), min_size=3, max_size=3),
           st.integers(0, 4), st.integers(0, 4))
    def test_semiring_laws(self, abc, m, n):
        points = np.random.default_rng(m + 5 * n).uniform(-3, 3, size=(8, 2))
        assert_semiring_laws(*abc, m, n, points)

    def test_nonfinite_floats_are_rejected(self):
        # -inf is BOTTOM; NaN and +inf are not tropical scalars.
        for bad in (math.nan, math.inf):
            for op in (lambda: const(bad), lambda: const(1.0).shift(bad),
                       lambda: poly((bad, (0,)))):
                with pytest.raises(ValueError):
                    op()
        # Bottom arithmetic raises no floating-point flag, and finite
        # coefficients that overflow do: run_symbolic turns that flag into
        # a SpecError.
        with np.errstate(over="raise", invalid="raise"):
            assert poly_mul(const(BOTTOM), const(1e308)).is_bottom
            assert poly_mul(const(BOTTOM), const(BOTTOM)).is_bottom
            assert power(const(BOTTOM), 3).is_bottom
            assert const(1e308).shift(BOTTOM).is_bottom
            for op in (lambda: poly_mul(const(1e308), const(1e308)),
                       lambda: power(const(1e308), 10), lambda: power(const(-1e308), 10)):
                with pytest.raises(FloatingPointError):
                    op()


class TestPolynomials:
    def test_relu_evaluation(self):
        f = poly((0.0, (1,)), (0.0, (0,)))  # max(x, 0)
        assert f([-2.0]) == 0.0
        assert f([3.0]) == 3.0

    def test_random_eval_matches_per_monomial_oracle(self):
        rng = np.random.default_rng(3)
        f = random_poly(rng, d=2, r=5)
        for x in rng.uniform(-5, 5, size=(100, 2)):
            # Oracle: evaluate each affine piece independently, then max.
            direct = max(c + np.dot(a, x) for a, c in rows_of(f))
            assert f(x) == pytest.approx(direct, abs=1e-12)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly((0.0, (-1,)))

    def test_all_bottom_polynomial_errors(self):
        f = poly((None, (0,)))
        with pytest.raises(BottomValueError):
            f([1.0])

    def test_duplicate_exponents_merge_keeping_max(self):
        f = poly((1.0, (1, 0)), (3.0, (1, 0)), (0.0, (0, 0)))
        assert f.num_monomials == 2
        kept = dict(rows_of(f))
        assert kept[(1, 0)] == 3.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        f = random_poly(rng, d=3, r=6)
        pts = rng.uniform(-3, 3, size=(40, 3))
        batch = f.evaluate_batch(pts)
        for v, x in zip(batch, pts):
            assert v == f(x)


def dict_merge(rows, d):
    """Reference normalisation: merge repeated exponents in a dict, keep the
    larger coefficient, drop bottom (-inf) unless nothing else is left, sort."""
    merged = {}
    for alpha, c in rows:
        prev = merged.get(alpha)
        merged[alpha] = c if prev is None else max(prev, c)
    finite = {a: c for a, c in merged.items() if c > -math.inf}
    return sorted(finite.items()) if finite else [((0,) * d, -math.inf)]


@st.composite
def raw_rows(draw):
    """(d, rows) with repeated exponents and bottom rows likely, d = 1..3."""
    d = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * d)
    coeff = st.one_of(st.just(-math.inf), st.integers(-4, 4).map(lambda k: k / 2))
    return d, draw(st.lists(st.tuples(exponent, coeff), min_size=1, max_size=12))


def from_rows(rows):
    return TropicalPolynomial([a for a, _ in rows], [c for _, c in rows])


class TestArrayRepresentation:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw_rows())
    def test_constructors_match_the_dict_merge(self, data):
        d, rows = data
        want = dict_merge(rows, d)
        assert rows_of(from_rows(rows)) == want
        alpha = np.array([a for a, _ in rows], dtype=np.int64).reshape(len(rows), d)
        f = TropicalPolynomial(alpha, [c for _, c in rows])
        assert rows_of(f) == want
        assert f.is_bottom == (want[0][1] == -math.inf)

    def test_all_bottom_input_keeps_one_bottom_row_at_zero(self):
        f = from_rows([((2, 1), -math.inf), ((0, 3), -math.inf)])
        assert rows_of(f) == [((0, 0), -math.inf)]
        assert f.is_bottom and f.num_monomials == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(raw_rows(), st.data())
    def test_poly_mul_is_the_max_over_the_cross_product(self, first, data):
        d, rows_f = first
        rows_g = data.draw(raw_rows().filter(lambda dr: dr[0] == d)
                           | st.just((d, [((0,) * d, 0.5)])))[1]
        # Exponents times 2**40 pack one coordinate per key word.
        scale = data.draw(st.sampled_from([1, 2 ** 40]))
        f, g = (from_rows([(tuple(scale * k for k in a), c) for a, c in rows])
                for rows in (rows_f, rows_g))
        cross = [(tuple(a + b for a, b in zip(af, ag)), cf + cg)
                 for af, cf in rows_of(f) for ag, cg in rows_of(g)]
        prod = poly_mul(f, g)
        assert rows_of(prod) == dict_merge(cross, d)
        if not prod.is_bottom:
            x = np.random.default_rng(len(cross)).uniform(-2, 2, size=(8, d))
            brute = np.max([c + x @ np.array(a) for a, c in cross], axis=0)
            np.testing.assert_allclose(prod.evaluate_batch(x), brute, atol=1e-12)

    def test_poly_add_merges_the_union(self):
        f = poly((1.0, (1, 0)), (0.0, (0, 0)))
        g = poly((2.0, (1, 0)), (None, (0, 1)))
        assert rows_of(poly_add(f, g)) == [((0, 0), 0.0), ((1, 0), 2.0)]

    def test_order_of_monomials_does_not_matter(self):
        rng = np.random.default_rng(16)
        terms = [(rng.uniform(-2, 2), tuple(rng.integers(0, 3, size=2))) for _ in range(8)]
        terms += [(None, (5, 5)), (-3.0, terms[0][1])]
        for _ in range(5):
            shuffled = [terms[i] for i in rng.permutation(len(terms))]
            assert poly(*shuffled) == poly(*terms)
            assert hash(poly(*shuffled)) == hash(poly(*terms))

    def test_signed_zero_tie_keeps_the_first_row(self):
        # np.maximum may return either zero; the merge keeps the sign of the
        # first row, so polynomial_to_dict writes the same "c" either way.
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            for n in (1, 20):
                f = from_rows([((1,), first)] * n + [((1,), second)] * n)
                assert math.copysign(1.0, f._coeff[0]) == math.copysign(1.0, first)
                assert to_json(f) == to_json(from_rows([((1,), first)]))
            pair = poly_add(from_rows([((1,), first)]), from_rows([((1,), second)]))
            assert math.copysign(1.0, pair._coeff[0]) == math.copysign(1.0, first)
        mixed = from_rows([((1,), -0.0), ((0,), 1.0), ((1,), -1.0), ((1,), 0.0)])
        assert [math.copysign(1.0, c) for c in mixed._coeff] == [1.0, -1.0]

    def test_signed_zero_coefficients_compare_and_hash_equal(self):
        f, g = poly((0.0, (1,))), poly((-0.0, (1,)))
        assert f == g and hash(f) == hash(g)
        assert f != poly((0.0, (2,))) and f != poly((0.0, (1, 0)))

    @pytest.mark.parametrize("alpha, coeff", [
        ([], []), ([[]], []), ([1, 0], [0.0, 0.0]), ([[1], [0]], [0.0]),
        ([[-1]], [0.0]), ([[0.5]], [0.0]), ([[np.nan]], [0.0]), ([["x"]], [0.0]),
        ([[1]], [np.nan]), ([[1]], [np.inf]), ([[]], [0.0]),
    ])
    def test_constructor_rejects_bad_arrays(self, alpha, coeff):
        with pytest.raises(TropicalError):
            TropicalPolynomial(alpha, coeff)

    @pytest.mark.parametrize("alpha, coeff", [
        ([["1", "2"]], ["0.5"]), ([[1, 2]], ["0.5"]), ([[True]], [1.0]),
        ([[1, True]], [0.0]), ([[1]], [False]), (np.array([[True]]), [0.0]),
        (np.array([["1"]]), [0.0]),
    ])
    def test_constructor_rejects_strings_and_booleans(self, alpha, coeff):
        # numpy would read "1" and True as the number 1.
        with pytest.raises(TropicalError, match="real numbers"):
            TropicalPolynomial(alpha, coeff)

    def test_constructor_accepts_integral_floats_and_bottom(self):
        f = TropicalPolynomial(np.array([[2.0, 0.0], [1.0, 1.0]]), [BOTTOM, 1.5])
        assert rows_of(f) == [((1, 1), 1.5)]
        assert f._alpha.dtype == np.int64

    def test_storage_is_the_two_arrays(self):
        f = poly((1.0, (1, 0)), (0.0, (0, 0)))
        assert TropicalPolynomial.__slots__ == ("_alpha", "_coeff")
        assert f._alpha.dtype == np.int64 and f._alpha.shape == (2, 2)
        assert f._coeff.dtype == np.float64 and f._coeff.shape == (2,)


def assert_canonical(f):
    """``f`` holds canonical rows: the constructor leaves them bit for bit."""
    again = TropicalPolynomial(f._alpha, f._coeff)
    assert f._alpha.dtype == np.int64 and f._alpha.flags.c_contiguous
    assert f._coeff.dtype == np.float64
    assert again._alpha.shape == f._alpha.shape
    assert again._alpha.tobytes() == f._alpha.tobytes()
    assert again._coeff.tobytes() == f._coeff.tobytes()


class TestCanonicalRows:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raw_rows(), st.data())
    def test_every_producer_returns_canonical_rows(self, first, data):
        d, rows_f = first
        rows_g = data.draw(raw_rows().filter(lambda dr: dr[0] == d))[1]
        f, g = from_rows(rows_f), from_rows(rows_g)
        w = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        bias = data.draw(HALVES)
        # Rows at -1e308 shifted by -1e308 overflow to bottom and drop out.
        low = from_rows([(a, -1e308 if c < 0 else c) for a, c in rows_f])
        produced = [f, g, poly_add(f, g), poly_mul(f, g),
                    poly_weighted_combine([f, g], w, bias=bias),
                    f.shift(1.5), f.shift(BOTTOM), constant_polynomial(d, bias),
                    constant_polynomial(d, -0.0)]
        with np.errstate(over="ignore"):
            produced.append(low.shift(-1e308))
        try:
            produced.append(poly_weighted_combine([f, g], w, bias=bias, cap=2))
        except MonomialCapError:
            pass
        if not f.is_bottom:
            produced.append(prune_redundant_monomials(f))
        for p in produced:
            assert_canonical(p)


class TestWeightedCombine:
    def test_all_zero_weights_gives_constant(self):
        rng = np.random.default_rng(6)
        polys = [random_poly(rng, 2, 3) for _ in range(3)]
        out = poly_weighted_combine(polys, [0, 0, 0], bias=ZERO)
        assert out.num_monomials == 1
        assert out([1.0, -1.0]) == 0.0

    def test_single_poly_weight_one_is_identity(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 2, 3)
        out = poly_weighted_combine([p], [1], bias=ZERO)
        assert out == p

    def test_numeric_equivalence_oracle(self):
        # Symbolic output must equal the direct weighted numeric evaluation.
        rng = np.random.default_rng(8)
        p1, p2 = random_poly(rng, 2, 3), random_poly(rng, 2, 3)
        out = poly_weighted_combine([p1, p2], [2, 1], bias=0.5)
        for x in rng.uniform(-5, 5, size=(50, 2)):
            want = 2 * p1(x) + p2(x) + 0.5
            assert out(x) == pytest.approx(want, abs=1e-9)

    def test_negative_weight_rejected(self):
        p = poly((0.0, (1,)))
        with pytest.raises(ValueError):
            poly_weighted_combine([p], [-1])

    def test_non_integral_weight_rejected(self):
        # int(w) would read 1.5 as 1, 0.7 as 0 and 2.9 as 2.
        p = poly((0.0, (0,)), (0.5, (1,)))
        for w in (1.5, 0.7, 2.9, np.float64(0.5), math.nan, math.inf, "2", None):
            with pytest.raises(TropicalError, match="weights must be integers"):
                poly_weighted_combine([p], [w])
        square = poly_weighted_combine([p], [2])
        assert poly_weighted_combine([p], [2.0]) == square
        assert poly_weighted_combine([p], np.array([2])) == square
        assert poly_weighted_combine([p, p], np.array([2, 0], dtype=np.int8)) == square

    def test_bottom_bias_bottoms_out(self):
        p = poly((0.0, (1,)))
        out = poly_weighted_combine([p], [1], bias=BOTTOM)
        assert out.is_bottom

    def test_cap_triggers_error_but_pruning_tried_first(self):
        rng = np.random.default_rng(9)
        p1, p2 = random_poly(rng, 2, 4), random_poly(rng, 2, 4)
        with pytest.raises(MonomialCapError):
            poly_weighted_combine([p1, p2], [3, 3], bias=ZERO, cap=2)


def product_oracle(factors, bias, d):
    """Rows of bias ⊙ p_1^{⊙w_1} ⊙ ... by brute force: the max over the whole
    cross product, merged by ``dict_merge``.  Exponents are Python ints."""
    rows = [((0,) * d, bias)]
    for p, w in factors:
        if w:
            rows = [(tuple(a + w * b for a, b in zip(ra, rb)), ca + w * cb)
                    for ra, ca in rows for rb, cb in rows_of(p)]
    return dict_merge(rows, d)


#: Half-integers sum exactly, so the oracle's coefficients are the fold's.
HALVES = st.integers(-4, 5).map(lambda k: -math.inf if k == 5 else k / 2)


@st.composite
def combine_cases(draw):
    """(d, polys, weights, bias) with d = 1..5, weights 0..3 and bottom rows,
    bottom polynomials and a bottom bias all possible.  Exponents are small,
    or near multiples of 2**40, which packs one coordinate per key word."""
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1, 2 ** 40]))
    coordinate = st.tuples(st.integers(0, 2), st.integers(0, 1)).map(
        lambda kj: kj[0] * scale + kj[1])
    rows = st.lists(st.tuples(st.tuples(*[coordinate] * d), HALVES), min_size=1, max_size=5)
    polys = [from_rows(r) for r in draw(st.lists(rows, min_size=1, max_size=4))]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(polys), max_size=len(polys)))
    return d, polys, weights, draw(HALVES)


class TestMinkowskiFold:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(combine_cases())
    def test_weighted_combine_is_the_max_over_the_cross_product(self, case):
        d, polys, weights, bias = case
        out = poly_weighted_combine(polys, weights, bias=bias)
        assert rows_of(out) == product_oracle(zip(polys, weights), bias, d)
        assert out._alpha.dtype == np.int64 and out._alpha.flags.c_contiguous

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.data())
    def test_cap_prunes_the_product_or_raises(self, d, data):
        # The bias row times f^{w_f} has f's rows, under the cap, so only the
        # last product can cross it: it is pruned if over, and an error if
        # still over after pruning.
        exponent = st.tuples(*[st.integers(0, 2)] * d)
        finite = st.integers(-4, 4).map(lambda k: k / 2)
        rows = st.lists(st.tuples(exponent, finite), min_size=1, max_size=6)
        f, g = from_rows(data.draw(rows)), from_rows(data.draw(rows))
        w_f, w_g = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        cap = data.draw(st.integers(f.num_monomials, f.num_monomials + 8))
        want = from_rows(product_oracle([(f, w_f), (g, w_g)], ZERO, d))
        if want.num_monomials > cap:
            want = prune_redundant_monomials(want)
        if want.num_monomials > cap:
            with pytest.raises(MonomialCapError):
                poly_weighted_combine([f, g], [w_f, w_g], cap=cap)
        else:
            assert poly_weighted_combine([f, g], [w_f, w_g], cap=cap) == want

    def test_cap_returns_the_pruned_product(self):
        # x^2 ⊕ 0 squared is x^4 ⊕ x^2 ⊕ 0, whose middle monomial ties.
        f = poly((0.0, (0,)), (0.0, (2,)))
        assert poly_weighted_combine([f], [2], cap=2) == power(f, 2)
        assert poly_weighted_combine([f, f], [1, 1], cap=2) == poly((0.0, (0,)), (0.0, (4,)))
        assert poly_weighted_combine([f, f], [1, 1]).num_monomials == 3

    def test_cap_error_after_pruning(self):
        # (0, 0), (1, 1), (2, 0) are all upper-hull vertices, and so are
        # (0, 0), (2, 2), (4, 0) of the square.
        f = poly((0.0, (0,)), (1.0, (1,)), (0.0, (2,)))
        with pytest.raises(MonomialCapError):
            poly_weighted_combine([f, f], [1, 1], cap=2)
        assert poly_weighted_combine([f, f], [1, 1], cap=3) == poly((0.0, (0,)), (2.0, (2,)), (0.0, (4,)))

    def test_key_order_is_the_row_order(self):
        rng = np.random.default_rng(12)
        for degree, words in [((2,), 1), ((3, 1, 4), 1), ((2 ** 40,) * 3, 3),
                              ((2 ** 62, 1, 2 ** 62), 2), ((2 ** 63 - 1,), 1)]:
            packing, word, place, radix = _key_layout(degree)
            assert len(packing) == words
            rows = np.column_stack([rng.integers(0, k, size=50, endpoint=True,
                                                 dtype=np.int64) for k in degree])
            keys = packing @ rows.T.astype(np.uint64)
            np.testing.assert_array_equal(np.lexsort(keys[::-1]), np.lexsort(rows.T[::-1]))
            np.testing.assert_array_equal((keys[word] // place % radix).T, rows)

    def test_coefficients_that_overflow_to_bottom_are_dropped(self):
        # -1e308 + -1e308 is -inf: such rows go, as the constructor drops
        # bottom rows, unless every row is bottom.
        f = poly((-1e308, (0,)), (0.0, (1,)))
        low = poly((-1e308, (0,)))
        with np.errstate(over="ignore"):
            assert rows_of(poly_mul(f, low)) == [((1,), -1e308)]
            assert rows_of(poly_weighted_combine([f, low, f], [1, 1, 1])) == [((2,), -1e308)]
            assert rows_of(f.shift(-1e308)) == [((1,), -1e308)]
            assert poly_mul(low, low).is_bottom and low.shift(-1e308).is_bottom
            assert poly_weighted_combine([low], [2]).is_bottom

    def test_exponent_overflow_is_an_error(self):
        with pytest.raises(TropicalError, match="int64"):
            power(TropicalPolynomial([[2 ** 40, 1]], [0.5]), 2 ** 30)
        top = poly((0.0, (2 ** 62, 0)))
        with pytest.raises(TropicalError, match="int64"):
            poly_mul(top, top)
        with pytest.raises(TropicalError, match="int64"):
            poly_weighted_combine([top], [2])
        edge = poly_mul(top, poly((0.0, (2 ** 62 - 1, 5))))
        assert rows_of(edge) == [((2 ** 63 - 1, 5), 0.0)]

    def test_coefficient_overflow_to_top_is_an_error(self):
        # +inf is not a tropical scalar.  Where it meets a bottom row the sum
        # is NaN, which the fold's live mask would drop without a word.
        f = TropicalPolynomial([[1]], [1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            for op in (lambda: f.shift(1e308), lambda: poly_mul(f, f),
                       lambda: poly_weighted_combine([f], [3]),
                       lambda: poly_weighted_combine([f], [3], bias=BOTTOM)):
                with pytest.raises(TropicalError, match="overflow"):
                    op()


class TestRegions:
    def test_relu_has_two_regions(self):
        f = poly((0.0, (1,)), (0.0, (0,)))
        assert count_linear_regions(f).count == 2

    def test_three_plane_max_grid_oracle(self):
        f = poly((0.0, (1, 0)), (0.0, (0, 1)), (0.0, (0, 0)))
        assert count_linear_regions(f, method="grid-oracle").count == 3
        assert count_linear_regions(f, method="exact-lp").count == 3

    def test_exact_lp_calls_the_module_linprog(self, monkeypatch):
        # Tracing wraps ``tropnet.tropical.linprog`` by name; every dominance
        # LP must go through that attribute.
        calls = []
        original = tropnet.tropical.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tropnet.tropical, "linprog", counting)
        f = poly((0.0, (1, 0)), (0.0, (0, 1)), (0.0, (0, 0)))
        assert count_linear_regions(f, method="exact-lp").count == 3
        assert len(calls) == 3

    def test_lp_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(100):
            d = int(rng.integers(1, 3))
            r = int(rng.integers(2, 7))
            f = random_poly(rng, d, r)
            lp = count_linear_regions(f, method="exact-lp")
            grid = count_linear_regions(f, method="grid-oracle")
            assert lp.count == grid.count, f"trial {trial}: {lp} vs {grid}"
            assert 1 <= lp.count <= f.num_monomials

    def test_count_invariant_under_constant_shift(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_poly(rng, 2, 5)
            shifted = TropicalPolynomial(f._alpha, f._coeff + 7.5)
            assert count_linear_regions(f).count == count_linear_regions(shifted).count

    def test_count_invariant_under_redundant_deletion(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = random_poly(rng, 2, 6)
            pruned = prune_redundant_monomials(f)
            assert count_linear_regions(f).count == count_linear_regions(pruned).count
            # The pruned polynomial computes the same function.
            pts = rng.uniform(-8, 8, size=(50, 2))
            np.testing.assert_allclose(f.evaluate_batch(pts),
                                       pruned.evaluate_batch(pts), atol=1e-12)

    def test_touching_monomial_not_counted(self):
        # The middle slope ties with its neighbours only at x = 0.
        f = poly((0.0, (0,)), (0.0, (1,)), (0.0, (2,)))
        assert count_linear_regions(f, method="exact-lp").count == 2


@st.composite
def lifted_points(draw):
    """Exponents and coefficients from one of seven families.

    Coefficients lie on a 1/64 grid, possibly plus a real affine
    function of the exponents, so each lifted point lies on the upper hull
    of the others up to roundoff or a clear distance from it; heights
    inside (roundoff, DELTA_TOL] are where the hull and the LP may differ.
    """
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["random", "one", "two", "collinear", "affine",
                                   "integer-ties", "rounded-ties"]))
    r = {"one": 1, "two": 2}.get(family, draw(st.integers(3, 10)))
    point = st.tuples(*[st.integers(0, 3)] * d)
    if family == "collinear":
        direction = np.array(draw(point.filter(any)))
        base = np.array(draw(point))
        steps = draw(st.lists(st.integers(0, 6), min_size=min(r, 7),
                              max_size=min(r, 7), unique=True))
        alpha = np.array([base + k * direction for k in steps], dtype=float)
    else:
        alpha = np.array(draw(st.lists(point, min_size=min(r, 4 ** d),
                                       max_size=min(r, 4 ** d), unique=True)),
                         dtype=float)
    r = len(alpha)
    if family in ("affine", "rounded-ties"):
        w = np.array(draw(st.lists(st.floats(-8, 8), min_size=d, max_size=d)))
        coeff = alpha @ w + draw(st.floats(-8, 8))
        if family == "rounded-ties":
            # Small bumps on some points; the rest tie on facets up to
            # roundoff, which the shear by the affine part magnifies.
            coeff += np.array(draw(st.lists(st.integers(-2, 2), min_size=r,
                                            max_size=r)), dtype=float) / 64
    elif family == "integer-ties":
        coeff = np.array(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)),
                         dtype=float)
    else:
        coeff = np.array(draw(st.lists(st.integers(-192, 192), min_size=r,
                                       max_size=r)), dtype=float) / 64
    return alpha, coeff


def lp_prune(f):
    alpha, coeff = _finite_parts(f)
    return poly(*[(coeff[i], alpha[i].astype(int)) for i in _lp_maximal(alpha, coeff)])


class TestUpperHull:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lifted_points())
    def test_hull_keeps_exactly_the_lp_set(self, points):
        alpha, coeff = points
        # Equal as lists: the hull's indices come out ascending, as the LP's do.
        assert _hull_maximal(alpha, coeff) == _lp_maximal(alpha, coeff)

    def test_point_on_a_segment_up_to_roundoff_is_not_a_vertex(self):
        # A symbolic-network output: points 0, 1, 2 are collinear in the
        # lift up to roundoff, so monomial 1 wins nowhere.
        alpha = np.array([[64.0, 28.0], [64.0, 30.0], [64.0, 32.0], [64.0, 34.0]])
        coeff = np.array([-3.655606900049047, -5.969615457253832,
                          -8.283624014458619, -10.625864689728616])
        assert _hull_maximal(alpha, coeff) == _lp_maximal(alpha, coeff) == [0, 2, 3]

    def test_prune_equals_lp_prune(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            f = random_poly(rng, d, int(rng.integers(1, 12)), exp_hi=3)
            assert prune_redundant_monomials(f) == lp_prune(f)

    def test_default_method_is_hull(self):
        f = poly((0.0, (0,)), (0.0, (1,)), (0.0, (2,)))
        assert count_linear_regions(f) == count_linear_regions(f, method="hull")
        assert count_linear_regions(f).method == "hull"
        assert count_linear_regions(f).count == 2

    def test_flat_lift_counts_vertices_of_the_exponent_hull(self):
        # c = alpha_1 - alpha_2 + 1: every corner of the 3x3 square wins.
        f = poly(*[(1.0 + a - b, (a, b)) for a in range(3) for b in range(3)])
        assert count_linear_regions(f).count == 4
        assert count_linear_regions(f, method="exact-lp").count == 4

    def test_grid_oracle_matches_unique_argmax_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            f = random_poly(rng, int(rng.integers(1, 3)), int(rng.integers(1, 8)))
            alpha, coeff = _finite_parts(f)
            points = _grid_points(f.dim)
            winners = set()
            for start in range(0, len(points), 65536):
                vals = points[start:start + 65536] @ alpha.T + coeff
                winners.update(np.unique(np.argmax(vals, axis=1)).tolist())
            assert count_linear_regions(f, method="grid-oracle").count == len(winners)


def to_json(f):
    return json.dumps(polynomial_to_dict(f), sort_keys=True)


def from_json(text):
    return polynomial_from_dict(json.loads(text))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        f = random_poly(rng, 2, 4)
        again = from_json(to_json(f))
        assert again == f

    def test_bottom_coefficient_round_trip(self):
        f = poly((None, (0, 0)))
        again = from_json(to_json(f))
        assert again.is_bottom
        assert again == f and hash(again) == hash(f)
        assert '"c": "bottom"' in to_json(f)
        # A bottom row next to finite ones is dropped on construction.
        g = poly((None, (2, 1)), (1.5, (0, 1)))
        assert from_json(to_json(g)) == g == poly((1.5, (0, 1)))

    def test_reading_drops_bottom_rows_and_merges_repeats(self):
        text = ('{"d": 1, "monomials": [{"c": "bottom", "alpha": [3]}, '
                '{"c": 1.0, "alpha": [1]}, {"c": 2.0, "alpha": [1]}]}')
        assert from_json(text) == poly((2.0, (1,)))

    def test_reading_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            from_json('{"d": 1, "monomials": [{"c": 0, "alpha": [-1]}]}')
        with pytest.raises(ValueError):
            from_json('{"d": 1, "monomials": [{"c": "inf", "alpha": [1]}]}')
        with pytest.raises(ValueError):  # bottom is written only as "bottom"
            from_json('{"d": 1, "monomials": [{"c": -Infinity, "alpha": [1]}]}')
        with pytest.raises(ValueError):
            from_json('{"d": 1, "monomials": []}')

    @pytest.mark.parametrize("alpha", [[1.5], [2.7], [1e300]])
    def test_reading_rejects_non_integral_exponents(self, alpha):
        # Truncating 1.5 to 1 would count the regions of another polynomial.
        data = {"d": 1, "monomials": [{"c": 0, "alpha": alpha}, {"c": 0, "alpha": [0]}]}
        with pytest.raises(ValueError, match="nonnegative integers"):
            polynomial_from_dict(data)

    def test_schema_shape(self):
        f = poly((1.5, (2, 0)))
        data = json.loads(to_json(f))
        assert data == {"d": 2, "monomials": [{"c": 1.5, "alpha": [2, 0]}]}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_json('{"d": 2, "monomials": [{"c": 0, "alpha": [1]}]}')
