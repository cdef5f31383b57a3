"""Max-plus arithmetic, tropical polynomials, and linear regions.

Walks through the semiring operations, builds piecewise-linear functions
as tropical polynomials, composes them symbolically, and counts their
linear regions two independent ways.
"""

import numpy as np

from tropnet import (
    BOTTOM,
    TropicalMonomial,
    TropicalPolynomial,
    TropicalRational,
    TropicalValue,
    count_linear_regions,
    eval_polynomial,
    poly_weighted_combine,
    polynomial_to_json,
    trop_add,
    trop_mul,
    trop_pow,
)

# --- scalar semiring -------------------------------------------------------
# Addition is max, multiplication is +, and "bottom" (the stand-in for
# -infinity) is the additive identity.
print("3 (+) 5      =", trop_add(3, 5).value)
print("3 (*) 5      =", trop_mul(3, 5).value)
print("bottom (+) 4 =", trop_add(BOTTOM, 4).value)
print("bottom (*) 4 =", trop_mul(BOTTOM, 4))
print("2^(*3)       =", trop_pow(2, 3).value)

# --- polynomials -----------------------------------------------------------
# A ReLU is the smallest interesting tropical polynomial: max(x, 0).
relu = TropicalPolynomial([
    TropicalMonomial(TropicalValue(0.0), (1,)),
    TropicalMonomial(TropicalValue(0.0), (0,)),
])
print("\nrelu(-2) =", eval_polynomial(relu, [-2.0]))
print("relu(3)  =", eval_polynomial(relu, [3.0]))
print("relu as JSON:", polynomial_to_json(relu))

# Symbolic combination: 2*p1(x) + p2(x) + 0.5 as one polynomial.
rng = np.random.default_rng(0)
p1 = TropicalPolynomial([
    TropicalMonomial(TropicalValue(rng.uniform(-1, 1)), (a1, a2))
    for a1, a2 in [(1, 0), (0, 1), (0, 0)]
])
p2 = TropicalPolynomial([
    TropicalMonomial(TropicalValue(rng.uniform(-1, 1)), (a1, a2))
    for a1, a2 in [(2, 0), (1, 1)]
])
combined = poly_weighted_combine([p1, p2], [2, 1], bias=TropicalValue(0.5))
x = np.array([0.3, -0.7])
direct = 2 * eval_polynomial(p1, x) + eval_polynomial(p2, x) + 0.5
print("\ncombined poly has", combined.num_monomials, "monomials")
print("symbolic eval:", eval_polynomial(combined, x), " direct:", direct)

# --- linear regions --------------------------------------------------------
# Count cells where a single monomial dominates: upper-hull vertices of
# the lifted points (alpha, c), one LP per monomial, and a dense-grid
# argmax scan.
three_planes = TropicalPolynomial([
    TropicalMonomial(TropicalValue(0.0), (1, 0)),
    TropicalMonomial(TropicalValue(0.0), (0, 1)),
    TropicalMonomial(TropicalValue(0.0), (0, 0)),
])
print("\nmax(x1, x2, 0):")
print("  hull        ->", count_linear_regions(three_planes).count, "regions")
print("  exact-lp    ->",
      count_linear_regions(three_planes, method="exact-lp").count, "regions")
print("  grid-oracle ->",
      count_linear_regions(three_planes, method="grid-oracle").count, "regions")

# Tropical rational functions are differences of polynomials; they are
# exactly the piecewise-linear functions with integer slopes.
ratio = TropicalRational(three_planes, relu_2d := TropicalPolynomial([
    TropicalMonomial(TropicalValue(0.0), (1, 0)),
    TropicalMonomial(TropicalValue(0.0), (0, 0)),
]))
print("\n(f - g)(0.5, 2.0) =", ratio([0.5, 2.0]))
