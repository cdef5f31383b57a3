"""Stochastic feedforward ReLU networks in max-plus form.

A network is specified by bounded distributions for the integer weight
matrices, real bias vectors, initialization polynomials, and (optionally)
threshold vectors.  Layers evolve through the coupled pair recursion

    G' = A+ G + A- F
    H' = A+ F + A- G + b
    F' = max(H', G' + t)

with nu = F - G the layer output; ``forward_relu_direct`` implements the
plain recursion nu' = max(A nu + b, t) and serves as the independent
oracle for the pair form.  The pair recursion serves single draws
(``run_network``) and the fully symbolic (tropical polynomial) forward
pass; batched Monte Carlo (``simulate_layer_outputs``) carries only nu
through the direct recursion, on integer weights as drawn.  An
interval-arithmetic certificate bounds the layer output norms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
from scipy.special import ndtr
from scipy.stats import truncnorm

from .seeding import block_indices, stream
from .tropical import (
    BOTTOM,
    TropicalMonomial,
    TropicalPolynomial,
    TropicalRational,
    TropicalValue,
    constant_polynomial,
    poly_add,
    poly_weighted_combine,
)


class SpecError(ValueError):
    """Invalid distribution or network specification."""


_KINDS = ("bounded-uniform-integer", "bounded-uniform-real",
          "truncated-gaussian", "finite-support")
#: A truncated Gaussian whose window holds less normal mass than this is
#: drawn by inverse CDF; rejection would need over 20 normals per value.
MIN_REJECTION_MASS = 0.05


@dataclass(frozen=True)
class DistributionSpec:
    """A bounded scalar (or atom-vector) distribution.

    All kinds are bounded by construction; unbounded bases must be
    truncated into [lo, hi] before use (truncation is by rejection, or by
    inverse CDF when the window holds little mass, never by clipping, so no
    boundary atoms are introduced).
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0
    values: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "finite-support":
            if not self.values:
                raise SpecError("finite-support needs at least one atom")
            vals = tuple(tuple(float(x) for x in v) if isinstance(v, (tuple, list))
                         else float(v) for v in self.values)
            if self.probs:
                probs = tuple(float(p) for p in self.probs)
            else:
                probs = tuple([1.0 / len(vals)] * len(vals))
            if len(probs) != len(vals):
                raise SpecError("finite-support values/probs length mismatch")
            if any(p <= 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise SpecError("finite-support probs must be positive and sum to 1")
            flat = [x for v in vals for x in (v if isinstance(v, tuple) else (v,))]
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "probs", probs)
            object.__setattr__(self, "lo", min(flat))
            object.__setattr__(self, "hi", max(flat))
        else:
            lo, hi = float(self.lo), float(self.hi)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise SpecError("distribution bounds must be finite")
            if lo > hi:
                raise SpecError(f"need lo <= hi, got [{lo}, {hi}]")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            if self.kind == "truncated-gaussian" and self.sigma <= 0:
                raise SpecError("truncated-gaussian needs sigma > 0")
            if self.kind == "truncated-gaussian" and lo == hi:
                raise SpecError("truncated-gaussian needs lo < hi")
            if self.kind == "truncated-gaussian" and self.window_mass == 0.0:
                raise SpecError(f"truncated-gaussian window [{lo}, {hi}] has no "
                                f"normal mass in double precision")

    # -- properties -------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        if self.kind == "bounded-uniform-integer":
            return True
        if self.kind == "finite-support":
            return all(
                float(x).is_integer()
                for v in self.values
                for x in (v if isinstance(v, tuple) else (v,))
            )
        return False

    @property
    def has_vector_atoms(self) -> bool:
        return (self.kind == "finite-support"
                and any(isinstance(v, tuple) for v in self.values))

    @property
    def window_mass(self) -> float:
        """P(lo <= N(mu, sigma^2) <= hi), taken in the nearer tail."""
        a = (self.lo - self.mu) / self.sigma
        b = (self.hi - self.mu) / self.sigma
        return float(ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a))

    def bound_interval(self, dim: int | None = None):
        """Elementwise (lo, hi) arrays; per coordinate for vector atoms."""
        if self.has_vector_atoms:
            atoms = np.array([v for v in self.values], dtype=float)
            return atoms.min(axis=0), atoms.max(axis=0)
        if dim is None:
            return self.lo, self.hi
        return np.full(dim, self.lo), np.full(dim, self.hi)

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator, size,
               z_shared=None, rho: float = 0.0, dtype=None) -> np.ndarray:
        """Draw an array of the given shape.

        With a shared Gaussian driver ``z_shared`` and mixing weight
        ``rho``, draws go through a Gaussian copula so that repeated calls
        within one run are positively correlated.  Draws are float unless
        ``dtype`` names an integer type: a bounded-uniform-integer law
        drawn without the copula then returns integers of that type.
        """
        if self.has_vector_atoms:
            raise SpecError("vector-atom spec sampled where scalars are expected")
        if z_shared is not None and rho != 0.0:
            z = rho * np.asarray(z_shared) + np.sqrt(1.0 - rho ** 2) \
                * rng.standard_normal(size)
            return self._from_uniform(np.clip(ndtr(z), 1e-12, 1 - 1e-12), rng)
        if self.kind == "bounded-uniform-integer":
            if dtype is not None:
                return rng.integers(int(self.lo), int(self.hi), size=size,
                                    endpoint=True, dtype=dtype)
            return rng.integers(int(self.lo), int(self.hi) + 1, size=size).astype(float)
        if self.kind == "bounded-uniform-real":
            return rng.uniform(self.lo, self.hi, size=size)
        if self.kind == "truncated-gaussian":
            if self.window_mass < MIN_REJECTION_MASS:
                return self._from_uniform(rng.uniform(size=size), rng)
            return self._rejection_truncnorm(rng, size)
        idx = rng.choice(len(self.values), size=size, p=np.asarray(self.probs))
        return np.asarray(self.values, dtype=float)[idx]

    def _from_uniform(self, u: np.ndarray, rng) -> np.ndarray:
        if self.kind == "bounded-uniform-integer":
            n = int(self.hi) - int(self.lo) + 1
            return (np.floor(self.lo + u * n)).clip(self.lo, self.hi)
        if self.kind == "bounded-uniform-real":
            return self.lo + u * (self.hi - self.lo)
        if self.kind == "truncated-gaussian":
            a = (self.lo - self.mu) / self.sigma
            b = (self.hi - self.mu) / self.sigma
            return truncnorm.ppf(u, a, b, loc=self.mu, scale=self.sigma)
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, u, side="right").clip(0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def _rejection_truncnorm(self, rng, size) -> np.ndarray:
        out = rng.normal(self.mu, self.sigma, size=size)
        bad = (out < self.lo) | (out > self.hi)
        while bad.any():
            out[bad] = rng.normal(self.mu, self.sigma, size=int(bad.sum()))
            bad = (out < self.lo) | (out > self.hi)
        return out

    def sample_exponents(self, rng: np.random.Generator, size, dim: int) -> np.ndarray:
        """Draw exponent vectors in N^dim, shape size + (dim,)."""
        if self.has_vector_atoms:
            atoms = np.array([v for v in self.values], dtype=float)
            if atoms.shape[1] != dim:
                raise SpecError(f"exponent atoms have length {atoms.shape[1]}, "
                                f"expected {dim}")
            idx = rng.choice(len(atoms), size=size, p=np.asarray(self.probs))
            return atoms[idx]
        shape = tuple(np.atleast_1d(size)) + (dim,)
        return self.sample(rng, shape)


def _validate_exponent_spec(spec: DistributionSpec, what: str):
    if not spec.is_integer:
        raise SpecError(f"{what} must be supported on integers")
    if spec.lo < 0:
        raise SpecError(f"{what} must be supported on nonnegative integers")


def uniform_int(lo: int, hi: int) -> DistributionSpec:
    return DistributionSpec("bounded-uniform-integer", lo=lo, hi=hi)


def uniform_real(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec("bounded-uniform-real", lo=lo, hi=hi)


def degenerate(value) -> DistributionSpec:
    return DistributionSpec("finite-support", values=(value,))


_THRESHOLD_MODES = ("relu", "identity", "random")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture plus sampling law of a stochastic max-plus ReLU network.

    widths[0] is the input dimension, widths[-1] the output dimension.
    ``coeff_dists`` / ``exponent_dists`` may be a single spec shared by all
    input coordinates or one spec per coordinate; the optional ``*_g``
    variants override the second initialization polynomial family (the two
    families need not agree).  ``init_mode="identity"`` pins the
    initialization to F0(x) = x, G0(x) = 0 so that the layer-0 output is
    the raw input.
    """

    widths: tuple[int, ...]
    r: int = 1
    weight_dist: DistributionSpec = uniform_int(-1, 1)
    bias_dist: DistributionSpec = uniform_real(-1.0, 1.0)
    coeff_dists: DistributionSpec | tuple = degenerate(0.0)
    exponent_dists: DistributionSpec | tuple = uniform_int(0, 1)
    coeff_dists_g: DistributionSpec | tuple | None = None
    exponent_dists_g: DistributionSpec | tuple | None = None
    init_mode: str = "random"
    thresholds: str | tuple[str, ...] = "relu"
    threshold_dist: DistributionSpec | None = None
    weight_overrides: tuple = ()
    bias_overrides: tuple = ()
    input_box: tuple | None = None
    copula_rho: float = 0.0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise SpecError(f"widths must be positive with at least one layer, got {widths}")
        object.__setattr__(self, "widths", widths)
        if self.r < 1:
            raise SpecError("need at least one monomial per initial coordinate")
        if self.init_mode not in ("random", "identity"):
            raise SpecError(f"unknown init_mode {self.init_mode!r}")

        thresholds = self.thresholds
        if isinstance(thresholds, str):
            thresholds = tuple([thresholds] * self.depth)
        thresholds = tuple(thresholds)
        if len(thresholds) != self.depth:
            raise SpecError(f"need one threshold mode per layer ({self.depth})")
        if any(t not in _THRESHOLD_MODES for t in thresholds):
            raise SpecError(f"threshold modes must be in {_THRESHOLD_MODES}")
        if "random" in thresholds and self.threshold_dist is None:
            raise SpecError("random thresholds need a threshold_dist")
        object.__setattr__(self, "thresholds", thresholds)

        if not self.weight_dist.is_integer:
            raise SpecError("weight matrices must be integer-valued")
        for _, dist in self.weight_overrides:
            if not dist.is_integer:
                raise SpecError("weight overrides must be integer-valued")
        for spec in self._coord_specs(self.exponent_dists):
            _validate_exponent_spec(spec, "exponent distribution")
        if self.exponent_dists_g is not None:
            for spec in self._coord_specs(self.exponent_dists_g):
                _validate_exponent_spec(spec, "exponent distribution")

        box = self.input_box
        if box is None:
            box = tuple([(-1.0, 1.0)] * self.d)
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != self.d:
            raise SpecError(f"input_box needs {self.d} coordinate ranges")
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise SpecError("input_box ranges must be finite with lo <= hi")
        object.__setattr__(self, "input_box", box)
        object.__setattr__(self, "weight_overrides", tuple(self.weight_overrides))
        object.__setattr__(self, "bias_overrides", tuple(self.bias_overrides))

    # -- derived shape ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    @property
    def d(self) -> int:
        return self.widths[0]

    @property
    def p(self) -> int:
        return self.widths[-1]

    def _coord_specs(self, specs) -> tuple[DistributionSpec, ...]:
        if isinstance(specs, DistributionSpec):
            return tuple([specs] * self.d)
        specs = tuple(specs)
        if len(specs) != self.d:
            raise SpecError(f"need one spec per input coordinate ({self.d})")
        return specs

    def coeff_specs(self, side: str = "f") -> tuple[DistributionSpec, ...]:
        if side == "g" and self.coeff_dists_g is not None:
            return self._coord_specs(self.coeff_dists_g)
        return self._coord_specs(self.coeff_dists)

    def exponent_specs(self, side: str = "f") -> tuple[DistributionSpec, ...]:
        if side == "g" and self.exponent_dists_g is not None:
            return self._coord_specs(self.exponent_dists_g)
        return self._coord_specs(self.exponent_dists)

    def weight_dist_for(self, layer: int) -> DistributionSpec:
        return dict(self.weight_overrides).get(layer, self.weight_dist)

    def bias_dist_for(self, layer: int) -> DistributionSpec:
        return dict(self.bias_overrides).get(layer, self.bias_dist)

    def threshold_mode(self, layer: int) -> str:
        return self.thresholds[layer - 1]


def identity_init(spec: NetworkSpec) -> NetworkSpec:
    """Copy of ``spec`` with F0(x) = x and G0(x) = 0 initialization."""
    return replace(spec, init_mode="identity", r=1)


@dataclass
class LayerSample:
    """Drawn parameters of one layer: A = A+ - A-, bias b, threshold t."""

    a: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    b: np.ndarray
    t: np.ndarray

    @classmethod
    def from_weights(cls, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> "LayerSample":
        a = np.asarray(a, dtype=float)
        if not np.all(a == np.round(a)):
            raise SpecError("weight matrix must be integer-valued")
        return cls(a=a, a_plus=np.maximum(a, 0.0), a_minus=np.maximum(-a, 0.0),
                   b=np.asarray(b, dtype=float), t=np.asarray(t, dtype=float))


@dataclass
class NetworkSample:
    """One full parameter draw: initialization polynomials plus all layers."""

    f0: tuple[TropicalPolynomial, ...]
    g0: tuple[TropicalPolynomial, ...]
    layers: tuple[LayerSample, ...]


@dataclass
class NetworkRun:
    """Numeric trajectory of one network draw at one input."""

    x: np.ndarray
    seed: int
    f: tuple[np.ndarray, ...]   # layers 0..L
    g: tuple[np.ndarray, ...]   # layers 0..L
    h: tuple[np.ndarray, ...]   # layers 1..L
    nu: tuple[np.ndarray, ...]  # layers 0..L

    def to_dict(self) -> dict:
        return {
            "x": list(map(float, self.x)),
            "seed": self.seed,
            "f": [list(map(float, v)) for v in self.f],
            "g": [list(map(float, v)) for v in self.g],
            "h": [list(map(float, v)) for v in self.h],
            "nu": [list(map(float, v)) for v in self.nu],
        }



# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_init(spec: NetworkSpec, rng: np.random.Generator, z_shared=None):
    """Draw the initialization polynomial vectors (F0, G0)."""
    d = spec.d
    if spec.init_mode == "identity":
        f0, g0 = [], []
        for j in range(d):
            e_j = tuple(1 if k == j else 0 for k in range(d))
            f0.append(TropicalPolynomial([TropicalMonomial(TropicalValue(0.0), e_j)]))
            g0.append(constant_polynomial(d, 0.0))
        return tuple(f0), tuple(g0)

    rho = spec.copula_rho
    f0, g0 = [], []
    for j in range(d):
        s_f, s_g = spec.coeff_specs("f")[j], spec.coeff_specs("g")[j]
        t_f, t_g = spec.exponent_specs("f")[j], spec.exponent_specs("g")[j]
        c = s_f.sample(rng, spec.r, z_shared, rho)
        c_g = s_g.sample(rng, spec.r, z_shared, rho)
        alpha = np.round(t_f.sample_exponents(rng, spec.r, d)).astype(int)
        alpha_g = np.round(t_g.sample_exponents(rng, spec.r, d)).astype(int)
        f0.append(TropicalPolynomial._from_arrays(alpha, c))
        g0.append(TropicalPolynomial._from_arrays(alpha_g, c_g))
    return tuple(f0), tuple(g0)


def sample_layer(spec: NetworkSpec, layer: int, rng: np.random.Generator,
                 z_shared=None) -> LayerSample:
    """Draw weights, bias, and threshold for layer ``layer`` (1-based)."""
    if not 1 <= layer <= spec.depth:
        raise SpecError(f"layer index {layer} outside 1..{spec.depth}")
    n_out, n_in = spec.widths[layer], spec.widths[layer - 1]
    rho = spec.copula_rho
    a = spec.weight_dist_for(layer).sample(rng, (n_out, n_in), z_shared, rho)
    b = spec.bias_dist_for(layer).sample(rng, n_out, z_shared, rho)
    mode = spec.threshold_mode(layer)
    if mode == "relu":
        t = np.zeros(n_out)
    elif mode == "identity":
        t = np.full(n_out, -np.inf)
    else:
        t = spec.threshold_dist.sample(rng, n_out, z_shared, rho)
    return LayerSample.from_weights(a, b, t)


def sample_network(spec: NetworkSpec, seed: int) -> NetworkSample:
    """Draw a full network; identical (spec, seed) gives identical draws."""
    rng = stream(seed, "network")
    z_shared = rng.standard_normal() if spec.copula_rho != 0.0 else None
    f0, g0 = sample_init(spec, rng, z_shared)
    layers = tuple(sample_layer(spec, l, rng, z_shared)
                   for l in range(1, spec.depth + 1))
    return NetworkSample(f0=f0, g0=g0, layers=layers)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def forward_fg(f: np.ndarray, g: np.ndarray, layer: LayerSample):
    """One step of the pair recursion; returns (F', G', H').

    Inputs may be single vectors of width n_l or batches (..., n_l); the
    layer applies along the last axis.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or layer.a.shape[1] != f.shape[-1]:
        raise SpecError("forward_fg dimension mismatch")
    g_next = g @ layer.a_plus.T + f @ layer.a_minus.T
    h_next = f @ layer.a_plus.T + g @ layer.a_minus.T + layer.b
    f_next = np.maximum(h_next, g_next + layer.t)
    return f_next, g_next, h_next


def forward_relu_direct(nu: np.ndarray, layer: LayerSample) -> np.ndarray:
    """Plain recursion nu' = max(A nu + b, t); oracle for forward_fg."""
    nu = np.asarray(nu, dtype=float)
    if layer.a.shape[1] != nu.shape[-1]:
        raise SpecError("forward_relu_direct dimension mismatch")
    return np.maximum(nu @ layer.a.T + layer.b, layer.t)


def run_network(spec: NetworkSpec, x, seed: int) -> NetworkRun:
    """Sample a network and push input ``x`` through the pair recursion."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spec.d:
        raise SpecError(f"input has dimension {x.shape[0]}, expected {spec.d}")
    net = sample_network(spec, seed)
    f = np.array([p(x) for p in net.f0])
    g = np.array([p(x) for p in net.g0])
    fs, gs, hs, nus = [f], [g], [], [f - g]
    for layer in net.layers:
        f, g, h = forward_fg(f, g, layer)
        fs.append(f)
        gs.append(g)
        hs.append(h)
        nus.append(f - g)
    return NetworkRun(x=x, seed=seed, f=tuple(fs), g=tuple(gs),
                      h=tuple(hs), nu=tuple(nus))


@dataclass
class SymbolicRun:
    """Per-layer tropical polynomial vectors of one network draw."""

    spec: NetworkSpec
    seed: int
    f_polys: tuple[tuple[TropicalPolynomial, ...], ...]  # layers 0..L
    g_polys: tuple[tuple[TropicalPolynomial, ...], ...]
    layers: tuple[LayerSample, ...]

    def nu_rational(self, layer: int, unit: int = 0) -> TropicalRational:
        return TropicalRational(self.f_polys[layer][unit], self.g_polys[layer][unit])

    def evaluate_nu(self, layer: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([self.f_polys[layer][i](x) - self.g_polys[layer][i](x)
                         for i in range(len(self.f_polys[layer]))])


def run_symbolic(spec: NetworkSpec, seed: int, cap: int = 10_000) -> SymbolicRun:
    """Build the symbolic F/G polynomials layer by layer.

    Uses the same parameter draw as ``run_network(spec, x, seed)``, so the
    numeric evaluation of the result matches the numeric forward pass at
    any x.  Raises MonomialCapError when the composition outgrows ``cap``
    even after pruning.
    """
    net = sample_network(spec, seed)
    f_layers = [net.f0]
    g_layers = [net.g0]
    for layer in net.layers:
        f_prev, g_prev = f_layers[-1], g_layers[-1]
        polys = list(g_prev) + list(f_prev)
        polys_swapped = list(f_prev) + list(g_prev)
        f_new, g_new = [], []
        for i in range(layer.a.shape[0]):
            w_plus = layer.a_plus[i].astype(int)
            w_minus = layer.a_minus[i].astype(int)
            weights = np.concatenate([w_plus, w_minus])
            g_i = poly_weighted_combine(polys, weights, bias=TropicalValue(0.0), cap=cap)
            h_i = poly_weighted_combine(polys_swapped, weights,
                                        bias=TropicalValue(layer.b[i]), cap=cap)
            t_i = BOTTOM if np.isneginf(layer.t[i]) else TropicalValue(layer.t[i])
            f_i = poly_add(h_i, g_i.shift(t_i))
            f_new.append(f_i)
            g_new.append(g_i)
        f_layers.append(tuple(f_new))
        g_layers.append(tuple(g_new))
    return SymbolicRun(spec=spec, seed=seed, f_polys=tuple(f_layers),
                       g_polys=tuple(g_layers), layers=net.layers)


# ---------------------------------------------------------------------------
# Batched simulation
# ---------------------------------------------------------------------------

def _draw_inputs(spec: NetworkSpec, rng, n: int) -> np.ndarray:
    box = np.asarray(spec.input_box)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, spec.d))


def _batch_init(spec: NetworkSpec, rng, xb: np.ndarray, z_shared) -> np.ndarray:
    """Layer-0 output nu = F0(x) - G0(x) of each draw."""
    n = xb.shape[0]
    if spec.init_mode == "identity":
        return xb
    rho = spec.copula_rho
    z = z_shared[:, None] if z_shared is not None else None
    nu = np.empty((n, spec.d))
    for j in range(spec.d):
        s_f, s_g = spec.coeff_specs("f")[j], spec.coeff_specs("g")[j]
        t_f, t_g = spec.exponent_specs("f")[j], spec.exponent_specs("g")[j]
        c = s_f.sample(rng, (n, spec.r), z, rho)
        c_g = s_g.sample(rng, (n, spec.r), z, rho)
        alpha = t_f.sample_exponents(rng, (n, spec.r), spec.d)
        alpha_g = t_g.sample_exponents(rng, (n, spec.r), spec.d)
        nu[:, j] = np.max(c + np.einsum("nrd,nd->nr", alpha, xb), axis=1) \
            - np.max(c_g + np.einsum("nrd,nd->nr", alpha_g, xb), axis=1)
    return nu


def _batch_weight_dtype(dist: DistributionSpec):
    """Integer dtype of batched weight draws, or None for float draws.

    A bounded-uniform-integer law whose range fits int8 is drawn as int8,
    which is cheaper to draw and to multiply; a wider one as int64.
    """
    if dist.kind != "bounded-uniform-integer":
        return None
    small = np.iinfo(np.int8)
    return np.int8 if small.min <= dist.lo and dist.hi <= small.max else np.int64


def _relu_step(nu: np.ndarray, a: np.ndarray, b, t) -> np.ndarray:
    """Direct recursion nu' = max(A nu + b, t) with one A per draw.

    ``a`` has shape (n, n_out, n_in) and any numeric dtype; einsum casts
    it in buffers, so an integer ``a`` is never copied to float.
    """
    return np.maximum(np.einsum("nij,nj->ni", a, nu) + b, t)


def _batch_block(spec: NetworkSpec, rng, n: int, x: np.ndarray | None):
    """Simulate ``n`` independent draws; returns per-layer nu arrays 1..L."""
    rho = spec.copula_rho
    z_shared = rng.standard_normal(n) if rho != 0.0 else None
    zmat = z_shared[:, None, None] if z_shared is not None else None
    zvec = z_shared[:, None] if z_shared is not None else None
    xb = np.tile(x, (n, 1)) if x is not None else _draw_inputs(spec, rng, n)
    nu = _batch_init(spec, rng, xb, z_shared)
    nus = []
    for l in range(1, spec.depth + 1):
        n_out, n_in = spec.widths[l], spec.widths[l - 1]
        w = spec.weight_dist_for(l)
        a = w.sample(rng, (n, n_out, n_in), zmat, rho, dtype=_batch_weight_dtype(w))
        b = spec.bias_dist_for(l).sample(rng, (n, n_out), zvec, rho)
        mode = spec.threshold_mode(l)
        if mode == "relu":
            t = 0.0
        elif mode == "identity":
            t = -np.inf
        else:
            t = spec.threshold_dist.sample(rng, (n, n_out), zvec, rho)
        nu = _relu_step(nu, a, b, t)
        nus.append(nu)
    return nus


def _simulate_block(spec: NetworkSpec, n: int, seed: int, block_index: int,
                    x: np.ndarray | None, tag: str) -> list[np.ndarray]:
    # What simulate_layer_outputs maps: top level so that a pool can pickle
    # it, and not the public simulate_block, so that a caller wrapping the
    # public functions sees each draw once.
    return _batch_block(spec, stream(seed, tag, block_index), n, x)


def _as_input(spec: NetworkSpec, x) -> np.ndarray | None:
    if x is None:
        return None
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spec.d:
        raise SpecError(f"input has dimension {x.shape[0]}, expected {spec.d}")
    return x


def simulate_layer_outputs(spec: NetworkSpec, n: int, seed: int,
                           x=None, tag: str = "batch", map=map) -> list[np.ndarray]:
    """Monte Carlo sample of nu per layer over ``n`` network draws.

    With ``x=None`` each draw also samples an input uniformly from the
    spec's input box; otherwise the input is held fixed.  Runs are
    simulated in fixed-size blocks, block ``b`` from ``stream(seed, tag,
    b)``.  ``map`` runs the blocks: the builtin runs them here, a process
    pool's ``map`` runs them in its workers, with identical results.
    """
    x = _as_input(spec, x)
    blocks = list(block_indices(n))
    results = map(_simulate_block, repeat(spec), [size for _, _, size in blocks],
                  repeat(seed), [b for b, _, _ in blocks], repeat(x), repeat(tag))
    outs = [np.empty((n, spec.widths[l])) for l in range(1, spec.depth + 1)]
    for (_, start, size), block in zip(blocks, results):
        for l, arr in enumerate(block):
            outs[l][start:start + size] = arr
    return outs


def simulate_block(spec: NetworkSpec, n: int, seed: int, block_index: int,
                   x=None, tag: str = "batch") -> list[np.ndarray]:
    """Block ``block_index`` (of ``n`` draws) of ``simulate_layer_outputs``."""
    return _simulate_block(spec, n, seed, block_index, _as_input(spec, x), tag)


# ---------------------------------------------------------------------------
# Interval propagation
# ---------------------------------------------------------------------------

def _interval_product(alo, ahi, blo, bhi):
    cands = np.stack([alo * blo, alo * bhi, ahi * blo, ahi * bhi])
    return cands.min(axis=0), cands.max(axis=0)


def _init_intervals(spec: NetworkSpec):
    box = np.asarray(spec.input_box)
    x_lo, x_hi = box[:, 0], box[:, 1]
    if spec.init_mode == "identity":
        return (x_lo.copy(), x_hi.copy()), (np.zeros(spec.d), np.zeros(spec.d))

    def poly_interval(side):
        lo = np.empty(spec.d)
        hi = np.empty(spec.d)
        for j in range(spec.d):
            c = spec.coeff_specs(side)[j]
            t = spec.exponent_specs(side)[j]
            a_lo, a_hi = t.bound_interval(spec.d)
            term_lo, term_hi = _interval_product(np.asarray(a_lo, dtype=float),
                                                 np.asarray(a_hi, dtype=float),
                                                 x_lo, x_hi)
            lo[j] = c.lo + term_lo.sum()
            hi[j] = c.hi + term_hi.sum()
        return lo, hi

    return poly_interval("f"), poly_interval("g")


@dataclass
class LayerIntervals:
    """Elementwise interval state after one layer."""

    f_lo: np.ndarray
    f_hi: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray

    @property
    def nu_lo(self):
        return self.f_lo - self.g_hi

    @property
    def nu_hi(self):
        return self.f_hi - self.g_lo

    @property
    def nu_abs(self):
        return np.maximum(np.abs(self.nu_lo), np.abs(self.nu_hi))

    @property
    def xi(self) -> float:
        return float(np.linalg.norm(self.nu_abs))


def propagate_intervals(spec: NetworkSpec) -> list[LayerIntervals]:
    """Interval state per layer 0..L; layer l's .xi bounds ||nu^(l)||_2.

    The propagation mirrors the pair recursion with elementwise interval
    arithmetic, so every realizable trajectory of a bounded spec stays
    inside the certified intervals.
    """
    (f_lo, f_hi), (g_lo, g_hi) = _init_intervals(spec)
    out = [LayerIntervals(f_lo, f_hi, g_lo, g_hi)]
    for l in range(1, spec.depth + 1):
        n_out = spec.widths[l]
        w = spec.weight_dist_for(l)
        ap_lo, ap_hi = max(w.lo, 0.0), max(w.hi, 0.0)
        am_lo, am_hi = max(-w.hi, 0.0), max(-w.lo, 0.0)
        cur = out[-1]

        def matvec(alo, ahi, vlo, vhi):
            lo, hi = _interval_product(np.full_like(vlo, alo), np.full_like(vlo, ahi),
                                       vlo, vhi)
            return np.full(n_out, lo.sum()), np.full(n_out, hi.sum())

        gp_lo, gp_hi = matvec(ap_lo, ap_hi, cur.g_lo, cur.g_hi)
        gm_lo, gm_hi = matvec(am_lo, am_hi, cur.f_lo, cur.f_hi)
        g_lo, g_hi = gp_lo + gm_lo, gp_hi + gm_hi

        hp_lo, hp_hi = matvec(ap_lo, ap_hi, cur.f_lo, cur.f_hi)
        hm_lo, hm_hi = matvec(am_lo, am_hi, cur.g_lo, cur.g_hi)
        q = spec.bias_dist_for(l)
        h_lo, h_hi = hp_lo + hm_lo + q.lo, hp_hi + hm_hi + q.hi

        mode = spec.threshold_mode(l)
        if mode == "relu":
            t_lo = t_hi = np.zeros(n_out)
        elif mode == "identity":
            t_lo = t_hi = np.full(n_out, -np.inf)
        else:
            t_lo = np.full(n_out, spec.threshold_dist.lo)
            t_hi = np.full(n_out, spec.threshold_dist.hi)
        f_lo = np.maximum(h_lo, g_lo + t_lo)
        f_hi = np.maximum(h_hi, g_hi + t_hi)
        out.append(LayerIntervals(f_lo, f_hi, g_lo, g_hi))
    return out


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def dist_to_dict(spec: DistributionSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == "finite-support":
        out["values"] = [list(v) if isinstance(v, tuple) else v for v in spec.values]
        out["probs"] = list(spec.probs)
    else:
        out["lo"] = spec.lo
        out["hi"] = spec.hi
        if spec.kind == "truncated-gaussian":
            out["mu"] = spec.mu
            out["sigma"] = spec.sigma
    return out


def dist_from_dict(data: dict) -> DistributionSpec:
    kind = data["kind"]
    if kind == "finite-support":
        values = tuple(tuple(v) if isinstance(v, list) else v for v in data["values"])
        return DistributionSpec(kind, values=values, probs=tuple(data.get("probs", ())))
    return DistributionSpec(kind, lo=data["lo"], hi=data["hi"],
                            mu=data.get("mu", 0.0), sigma=data.get("sigma", 1.0))


def _dists_to_json(specs):
    if isinstance(specs, DistributionSpec):
        return dist_to_dict(specs)
    return [dist_to_dict(s) for s in specs]


def _dists_from_json(data):
    if isinstance(data, list):
        return tuple(dist_from_dict(d) for d in data)
    return dist_from_dict(data)


def network_spec_to_dict(spec: NetworkSpec) -> dict:
    out = {
        "widths": list(spec.widths),
        "r": spec.r,
        "weight_dist": dist_to_dict(spec.weight_dist),
        "bias_dist": dist_to_dict(spec.bias_dist),
        "coeff_dists": _dists_to_json(spec.coeff_dists),
        "exponent_dists": _dists_to_json(spec.exponent_dists),
        "init_mode": spec.init_mode,
        "thresholds": list(spec.thresholds),
        "input_box": [list(b) for b in spec.input_box],
        "copula_rho": spec.copula_rho,
    }
    if spec.coeff_dists_g is not None:
        out["coeff_dists_g"] = _dists_to_json(spec.coeff_dists_g)
    if spec.exponent_dists_g is not None:
        out["exponent_dists_g"] = _dists_to_json(spec.exponent_dists_g)
    if spec.threshold_dist is not None:
        out["threshold_dist"] = dist_to_dict(spec.threshold_dist)
    if spec.weight_overrides:
        out["weight_overrides"] = [[l, dist_to_dict(d)] for l, d in spec.weight_overrides]
    if spec.bias_overrides:
        out["bias_overrides"] = [[l, dist_to_dict(d)] for l, d in spec.bias_overrides]
    return out


def network_spec_from_dict(data: dict) -> NetworkSpec:
    kwargs = {
        "widths": tuple(data["widths"]),
        "r": data.get("r", 1),
        "weight_dist": dist_from_dict(data["weight_dist"]),
        "bias_dist": dist_from_dict(data["bias_dist"]),
        "init_mode": data.get("init_mode", "random"),
        "copula_rho": data.get("copula_rho", 0.0),
    }
    if "coeff_dists" in data:
        kwargs["coeff_dists"] = _dists_from_json(data["coeff_dists"])
    if "exponent_dists" in data:
        kwargs["exponent_dists"] = _dists_from_json(data["exponent_dists"])
    if "coeff_dists_g" in data:
        kwargs["coeff_dists_g"] = _dists_from_json(data["coeff_dists_g"])
    if "exponent_dists_g" in data:
        kwargs["exponent_dists_g"] = _dists_from_json(data["exponent_dists_g"])
    if "thresholds" in data:
        th = data["thresholds"]
        kwargs["thresholds"] = th if isinstance(th, str) else tuple(th)
    if "threshold_dist" in data:
        kwargs["threshold_dist"] = dist_from_dict(data["threshold_dist"])
    if "input_box" in data:
        kwargs["input_box"] = tuple(tuple(b) for b in data["input_box"])
    if "weight_overrides" in data:
        kwargs["weight_overrides"] = tuple(
            (int(l), dist_from_dict(d)) for l, d in data["weight_overrides"])
    if "bias_overrides" in data:
        kwargs["bias_overrides"] = tuple(
            (int(l), dist_from_dict(d)) for l, d in data["bias_overrides"])
    return NetworkSpec(**kwargs)


# ---------------------------------------------------------------------------
# Reference architectures used across the test and demo suites
# ---------------------------------------------------------------------------

def reference_spec() -> NetworkSpec:
    """Small bounded benchmark: d=2, three hidden layers of width 4."""
    return NetworkSpec(
        widths=(2, 4, 4, 4),
        r=3,
        weight_dist=uniform_int(-2, 2),
        bias_dist=uniform_real(-1.0, 1.0),
        coeff_dists=uniform_real(-1.0, 1.0),
        exponent_dists=uniform_int(0, 2),
        input_box=((-1.0, 1.0), (-1.0, 1.0)),
    )


def reference_classifier_spec() -> NetworkSpec:
    """Scalar-output variant with an identity last layer for scoring.

    The last-layer bias is shifted upward so that expected scores spread
    away from the sigmoid midpoint and audits resolve their labels.
    """
    return NetworkSpec(
        widths=(2, 4, 4, 1),
        r=3,
        weight_dist=uniform_int(-2, 2),
        bias_dist=uniform_real(-1.0, 1.0),
        coeff_dists=uniform_real(-1.0, 1.0),
        exponent_dists=uniform_int(0, 2),
        thresholds=("relu", "relu", "identity"),
        bias_overrides=((3, uniform_real(0.0, 2.0)),),
        input_box=((-1.0, 1.0), (-1.0, 1.0)),
    )
