"""Max-plus arithmetic, tropical polynomials, and linear regions.

Walks through the semiring operations, builds piecewise-linear functions
as tropical polynomials, composes them symbolically, and counts their
linear regions two independent ways.
"""

import json

import numpy as np

from tropnet import (
    BOTTOM,
    TropicalPolynomial,
    TropicalRational,
    count_linear_regions,
    eval_polynomial,
    poly_weighted_combine,
    polynomial_to_dict,
    trop_add,
    trop_mul,
    trop_pow,
)

# --- scalar semiring -------------------------------------------------------
# Scalars are floats: addition is max, multiplication is +, and BOTTOM
# (-inf) is the additive identity.
print("3 (+) 5      =", trop_add(3, 5))
print("3 (*) 5      =", trop_mul(3, 5))
print("bottom (+) 4 =", trop_add(BOTTOM, 4))
print("bottom (*) 4 =", trop_mul(BOTTOM, 4))
print("2^(*3)       =", trop_pow(2, 3))

# --- polynomials -----------------------------------------------------------
# A polynomial is one exponent row and one coefficient per monomial
# c + alpha . x.  A ReLU is the smallest interesting one: max(x, 0).
relu = TropicalPolynomial([[1], [0]], [0.0, 0.0])
print("\nrelu(-2) =", eval_polynomial(relu, [-2.0]))
print("relu(3)  =", eval_polynomial(relu, [3.0]))
print("relu as JSON:", json.dumps(polynomial_to_dict(relu), sort_keys=True))

# Symbolic combination: 2*p1(x) + p2(x) + 0.5 as one polynomial.
rng = np.random.default_rng(0)
p1 = TropicalPolynomial([[1, 0], [0, 1], [0, 0]], rng.uniform(-1, 1, size=3))
p2 = TropicalPolynomial([[2, 0], [1, 1]], rng.uniform(-1, 1, size=2))
combined = poly_weighted_combine([p1, p2], [2, 1], bias=0.5)
x = np.array([0.3, -0.7])
direct = 2 * eval_polynomial(p1, x) + eval_polynomial(p2, x) + 0.5
print("\ncombined poly has", combined.num_monomials, "monomials")
print("symbolic eval:", eval_polynomial(combined, x), " direct:", direct)

# --- linear regions --------------------------------------------------------
# Count cells where a single monomial dominates: upper-hull vertices of
# the lifted points (alpha, c), one LP per monomial, and a dense-grid
# argmax scan.
three_planes = TropicalPolynomial([[1, 0], [0, 1], [0, 0]], [0.0, 0.0, 0.0])
print("\nmax(x1, x2, 0):")
print("  hull        ->", count_linear_regions(three_planes).count, "regions")
print("  exact-lp    ->",
      count_linear_regions(three_planes, method="exact-lp").count, "regions")
print("  grid-oracle ->",
      count_linear_regions(three_planes, method="grid-oracle").count, "regions")

# Tropical rational functions are differences of polynomials; they are
# exactly the piecewise-linear functions with integer slopes.
ratio = TropicalRational(three_planes, TropicalPolynomial([[1, 0], [0, 0]], [0.0, 0.0]))
print("\n(f - g)(0.5, 2.0) =", ratio([0.5, 2.0]))
