"""Max-plus arithmetic, tropical polynomials, and linear regions.

Walks through the semiring operations on constant polynomials, builds
piecewise-linear functions as tropical polynomials, composes them
symbolically, and counts their linear regions three ways.
"""

import json

import numpy as np

from tropnet import (
    BOTTOM,
    TropicalPolynomial,
    constant_polynomial,
    count_linear_regions,
    poly_add,
    poly_mul,
    poly_weighted_combine,
    polynomial_to_dict,
)

# --- scalar semiring -------------------------------------------------------
# A scalar is a constant polynomial: addition is max, multiplication is +,
# and BOTTOM (-inf) is the additive identity.
def const(c):
    return constant_polynomial(1, c)


def show(label, p):
    print(label, "bottom" if p.is_bottom else p([0.0]))


show("3 (+) 5      =", poly_add(const(3), const(5)))
show("3 (*) 5      =", poly_mul(const(3), const(5)))
show("bottom (+) 4 =", poly_add(const(BOTTOM), const(4)))
show("bottom (*) 4 =", poly_mul(const(BOTTOM), const(4)))
show("2^(*3)       =", const(2).scale(3))

# --- polynomials -----------------------------------------------------------
# A polynomial is one exponent row and one coefficient per monomial
# c + alpha . x.  A ReLU is the smallest interesting one: max(x, 0).
relu = TropicalPolynomial([[1], [0]], [0.0, 0.0])
print("\nrelu(-2) =", relu([-2.0]))
print("relu(3)  =", relu([3.0]))
print("relu as JSON:", json.dumps(polynomial_to_dict(relu), sort_keys=True))

# Symbolic combination: 2*p1(x) + p2(x) + 0.5 as one polynomial.
rng = np.random.default_rng(0)
p1 = TropicalPolynomial([[1, 0], [0, 1], [0, 0]], rng.uniform(-1, 1, size=3))
p2 = TropicalPolynomial([[2, 0], [1, 1]], rng.uniform(-1, 1, size=2))
combined = poly_weighted_combine([p1, p2], [2, 1], bias=0.5)
x = np.array([0.3, -0.7])
direct = 2 * p1(x) + p2(x) + 0.5
print("\ncombined poly has", combined.num_monomials, "monomials")
print("symbolic eval:", combined(x), " direct:", direct)

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

# A network's output is a difference f - g of two polynomials; such
# differences are exactly the piecewise-linear functions with integer slopes.
g = TropicalPolynomial([[1, 0], [0, 0]], [0.0, 0.0])
print("\n(f - g)(0.5, 2.0) =", three_planes([0.5, 2.0]) - g([0.5, 2.0]))
