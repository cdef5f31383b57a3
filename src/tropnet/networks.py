"""Stochastic feedforward ReLU networks in max-plus form.

A network is specified by bounded distributions for the integer weight
matrices, real bias vectors, initialization polynomials, and (optionally)
threshold vectors.  Layers evolve through the coupled pair recursion

    G' = A+ G + A- F
    H' = A+ F + A- G + b
    F' = max(H', G' + t)

with nu = F - G the layer output.  ``forward_relu_direct`` implements the
plain recursion nu' = max(A nu + b, t) along any leading draw axes: it is
both the Monte Carlo kernel and the independent oracle for the pair form.
One sampler draws the parameters of a batch of networks as one
``LayerSample`` per layer; a single draw (``sample_network``) is a batch
of one from it.  The pair recursion serves single draws (``run_network``)
and the fully symbolic (tropical polynomial) forward pass; batched Monte
Carlo (``simulate_layer_outputs``) carries only nu through the direct
recursion, on integer weights as drawn, and keeps per draw only the
statistic its caller reads.  ``propagate_intervals``
certifies a bound xi_l on every draw's layer output norm ||nu_l|| by
interval arithmetic on the direct recursion, where F and G cancel.

The fields of ``NetworkSpec`` and ``DistributionSpec`` are the JSON format
of a network: ``network_spec_to_dict`` and ``network_spec_from_dict`` walk
them, so each key, default and range is declared once, in its dataclass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat

import numpy as np

from .seeding import block_indices, stream
from .tropical import (
    MonomialCapError,
    TropicalError,
    TropicalPolynomial,
    poly_add,
    poly_weighted_combine,
)


class SpecError(ValueError):
    """Invalid distribution or network specification."""


def _real(value, name: str) -> float:
    """``value`` as a float; a string or a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{name} must be a real number, got {value!r:.80}")
    return float(value)


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
    boundary atoms are introduced).  The windowed kinds need ``lo`` and
    ``hi``; a finite-support law takes them from its atoms.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    mu: float = 0.0
    sigma: float = 1.0
    values: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown distribution kind {self.kind!r}")
        mu, sigma = _real(self.mu, "mu"), _real(self.sigma, "sigma")
        if not (np.isfinite(mu) and np.isfinite(sigma)):
            raise SpecError("mu and sigma must be finite")
        if self.kind != "truncated-gaussian" and (mu, sigma) != (0.0, 1.0):
            raise SpecError(f"{self.kind} reads no mu or sigma")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if self.kind == "finite-support":
            if not (isinstance(self.values, (tuple, list)) and self.values):
                raise SpecError("finite-support needs a list of at least one atom")
            if not isinstance(self.probs, (tuple, list)):
                raise SpecError(f"probs must be a list, got {self.probs!r:.80}")
            vals = tuple(tuple(_real(x, "atom") for x in v) if isinstance(v, (tuple, list))
                         else _real(v, "atom") for v in self.values)
            if self.probs:
                probs = tuple(_real(p, "probs") for p in self.probs)
            else:
                probs = tuple([1.0 / len(vals)] * len(vals))
            if len(probs) != len(vals):
                raise SpecError("finite-support values/probs length mismatch")
            if not all(p > 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
                raise SpecError("finite-support probs must be positive and sum to 1")
            flat = [x for v in vals for x in (v if isinstance(v, tuple) else (v,))]
            if not np.isfinite(flat).all():
                raise SpecError("finite-support atoms must be finite")
            lo, hi = min(flat), max(flat)
            # The atoms' own range is accepted so that a spec written out reads back.
            for name, bound in (("lo", lo), ("hi", hi)):
                given = getattr(self, name)
                if given is not None and _real(given, name) != bound:
                    raise SpecError(f"finite-support takes {name} from its atoms "
                                    f"({bound}), got {given}")
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "probs", probs)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        else:
            if self.values != () or self.probs != ():
                raise SpecError(f"{self.kind} reads no values or probs")
            if self.lo is None or self.hi is None:
                raise SpecError(f"{self.kind} needs lo and hi")
            lo, hi = _real(self.lo, "lo"), _real(self.hi, "hi")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise SpecError("distribution bounds must be finite")
            if lo > hi:
                raise SpecError(f"need lo <= hi, got [{lo}, {hi}]")
            if not np.isfinite(hi - lo):
                raise SpecError(f"window [{lo}, {hi}] is wider than double precision")
            if self.kind == "bounded-uniform-integer" and not (lo.is_integer()
                                                               and hi.is_integer()):
                raise SpecError(f"bounded-uniform-integer needs integral bounds, "
                                f"got [{lo}, {hi}]")
            # Integer laws draw int64; the float nearest 2**63 - 1 is 2**63.
            if self.kind == "bounded-uniform-integer" and not (-2.0 ** 63 <= lo
                                                               and hi < 2.0 ** 63):
                raise SpecError(f"bounded-uniform-integer bounds must lie in the int64 "
                                f"range, got [{lo}, {hi}]")
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
        from scipy.special import ndtr  # slow to import; Gaussian laws only

        a = (self.lo - self.mu) / self.sigma
        b = (self.hi - self.mu) / self.sigma
        return float(ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a))

    def bound_interval(self, dim: int):
        """Elementwise (lo, hi) arrays; per coordinate for vector atoms."""
        if self.has_vector_atoms:
            atoms = np.array([v for v in self.values], dtype=float)
            return atoms.min(axis=0), atoms.max(axis=0)
        return np.full(dim, self.lo), np.full(dim, self.hi)

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator, size, dtype=None) -> np.ndarray:
        """Draw an array of the given shape.

        Draws are float unless ``dtype`` names an integer type: a
        bounded-uniform-integer law then returns integers of that type.
        """
        if self.has_vector_atoms:
            raise SpecError("vector-atom spec sampled where scalars are expected")
        if self.kind == "bounded-uniform-integer":
            out = rng.integers(int(self.lo), int(self.hi), size=size, endpoint=True,
                               dtype=dtype or np.int64)
            return out if dtype is not None else out.astype(float)
        if self.kind == "bounded-uniform-real":
            return rng.uniform(self.lo, self.hi, size=size)
        if self.kind == "truncated-gaussian":
            if self.window_mass >= MIN_REJECTION_MASS:
                return self._rejection_truncnorm(rng, size)
            from scipy.stats import truncnorm  # slow to import; rarely needed

            a = (self.lo - self.mu) / self.sigma
            b = (self.hi - self.mu) / self.sigma
            return truncnorm.ppf(rng.uniform(size=size), a, b, loc=self.mu,
                                 scale=self.sigma)
        idx = rng.choice(len(self.values), size=size, p=np.asarray(self.probs))
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


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_law(value, name: str):
    if not isinstance(value, DistributionSpec):
        raise SpecError(f"{name} must be a law object, got {value!r:.80}")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture plus sampling law of a stochastic max-plus ReLU network.

    widths[0] is the input dimension, widths[-1] the output dimension.
    ``coeff_dists`` / ``exponent_dists`` may be a single spec shared by all
    input coordinates or one spec per coordinate; both initialization
    polynomial families F0 and G0 draw from them, independently.
    ``init_mode="identity"`` pins the initialization to F0(x) = x,
    G0(x) = 0 so that the layer-0 output is the raw input.  The constructor
    checks every field's type as well as its range, since specs are also
    read from JSON.
    """

    widths: tuple[int, ...]
    r: int = 1
    weight_dist: DistributionSpec = uniform_int(-1, 1)
    bias_dist: DistributionSpec = uniform_real(-1.0, 1.0)
    coeff_dists: DistributionSpec | tuple = degenerate(0.0)
    exponent_dists: DistributionSpec | tuple = uniform_int(0, 1)
    init_mode: str = "random"
    thresholds: str | tuple[str, ...] = "relu"
    threshold_dist: DistributionSpec | None = None
    weight_overrides: tuple = ()
    bias_overrides: tuple = ()
    input_box: tuple | None = None

    def __post_init__(self):
        if not (isinstance(self.widths, (tuple, list)) and all(map(_is_int, self.widths))):
            raise SpecError(f"widths must be a list of ints, got {self.widths!r:.80}")
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise SpecError(f"widths must be positive with at least one layer, got {widths}")
        object.__setattr__(self, "widths", widths)
        if not _is_int(self.r) or self.r < 1:
            raise SpecError(f"r must be an int >= 1 (monomials per initial "
                            f"coordinate), got {self.r!r:.80}")
        if self.init_mode not in ("random", "identity"):
            raise SpecError(f"unknown init_mode {self.init_mode!r}")

        thresholds = self.thresholds
        if isinstance(thresholds, str):
            thresholds = (thresholds,) * self.depth
        if not isinstance(thresholds, (tuple, list)) or len(thresholds) != self.depth:
            raise SpecError(f"need one threshold mode per layer ({self.depth})")
        if any(t not in _THRESHOLD_MODES for t in thresholds):
            raise SpecError(f"threshold modes must be in {_THRESHOLD_MODES}")
        if "random" in thresholds and self.threshold_dist is None:
            raise SpecError("random thresholds need a threshold_dist")
        object.__setattr__(self, "thresholds", tuple(thresholds))

        _check_law(self.weight_dist, "weight_dist")
        _check_law(self.bias_dist, "bias_dist")
        if self.threshold_dist is not None:
            _check_law(self.threshold_dist, "threshold_dist")
        if not self.weight_dist.is_integer:
            raise SpecError("weight matrices must be integer-valued")
        for name in ("weight_overrides", "bias_overrides"):
            pairs = getattr(self, name)
            if not (isinstance(pairs, (tuple, list)) and all(
                    isinstance(p, (tuple, list)) and len(p) == 2 and _is_int(p[0])
                    and isinstance(p[1], DistributionSpec) for p in pairs)):
                raise SpecError(f"{name} must hold [layer, law] pairs, got {pairs!r:.80}")
            layers = [l for l, _ in pairs]
            if any(l not in range(1, self.depth + 1) for l in layers):
                raise SpecError(f"{name} layers must lie in 1..{self.depth}, got {layers}")
            if len(set(layers)) != len(layers):
                raise SpecError(f"{name} repeat a layer: {layers}")
            object.__setattr__(self, name, tuple(map(tuple, pairs)))
        for _, dist in self.weight_overrides:
            if not dist.is_integer:
                raise SpecError("weight overrides must be integer-valued")
        self.coeff_specs()  # raises unless one law or one per input coordinate
        for spec in self.exponent_specs():
            _validate_exponent_spec(spec, "exponent distribution")

        box = self.input_box
        if box is None:
            box = ((-1.0, 1.0),) * self.d
        try:
            box = tuple((float(lo), float(hi)) for lo, hi in box)
        except (TypeError, ValueError):
            raise SpecError(f"input_box must hold [lo, hi] pairs, got {box!r:.80}") from None
        if len(box) != self.d:
            raise SpecError(f"input_box needs {self.d} coordinate ranges")
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise SpecError("input_box ranges must be finite with lo <= hi")
        object.__setattr__(self, "input_box", box)

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

    def _coord_specs(self, name: str) -> tuple[DistributionSpec, ...]:
        specs = getattr(self, name)
        if isinstance(specs, DistributionSpec):
            return (specs,) * self.d
        if not (isinstance(specs, (tuple, list)) and len(specs) == self.d):
            raise SpecError(f"{name} needs one law or one per input coordinate ({self.d})")
        for spec in specs:
            _check_law(spec, name)
        return tuple(specs)

    def coeff_specs(self) -> tuple[DistributionSpec, ...]:
        return self._coord_specs("coeff_dists")

    def exponent_specs(self) -> tuple[DistributionSpec, ...]:
        return self._coord_specs("exponent_dists")

    def weight_dist_for(self, layer: int) -> DistributionSpec:
        return dict(self.weight_overrides).get(layer, self.weight_dist)

    def bias_dist_for(self, layer: int) -> DistributionSpec:
        return dict(self.bias_overrides).get(layer, self.bias_dist)

    def threshold_mode(self, layer: int) -> str:
        return self.thresholds[layer - 1]


@dataclass
class LayerSample:
    """Drawn weights A, bias b and threshold t of one layer.

    One draw has ``a`` of shape (n_out, n_in); a batch of draws adds a
    leading axis to each field.  ``a`` keeps the dtype it was drawn in.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    # The halves A = A+ - A- stay float: cast first, so that int8 -128
    # negates exactly, and float products keep the pair recursion's bits.
    @property
    def a_plus(self) -> np.ndarray:
        return np.maximum(np.asarray(self.a, dtype=float), 0.0)

    @property
    def a_minus(self) -> np.ndarray:
        return np.maximum(-np.asarray(self.a, dtype=float), 0.0)


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

_INT8 = np.iinfo(np.int8)


def _batch_weight_dtype(dist: DistributionSpec):
    """Integer dtype of weight draws, or None for float draws.

    A bounded-uniform-integer law whose range fits int8 is drawn as int8,
    which is cheaper to draw and to multiply; a wider one as int64.
    """
    if dist.kind != "bounded-uniform-integer":
        return None
    return np.int8 if _INT8.min <= dist.lo and dist.hi <= _INT8.max else np.int64


def _draw_init(spec: NetworkSpec, rng, n: int):
    """Initialization arrays of ``n`` draws, yielded per input coordinate.

    Coordinate j gives ``(c, alpha, c_g, alpha_g)``: coefficients of shape
    (n, r) and exponents of shape (n, r, d) of F0_j and G0_j, drawn when
    asked for, so a batch holds one coordinate's arrays at a time.
    Identity initialization draws nothing and gives F0_j(x) = x_j, G0_j(x) = 0.
    """
    d, r = spec.d, spec.r
    coeffs, exponents = spec.coeff_specs(), spec.exponent_specs()
    for j in range(d):
        if spec.init_mode == "identity":
            zeros = np.zeros((n, 1))
            yield zeros, np.tile(np.eye(d)[j], (n, 1, 1)), zeros, np.zeros((n, 1, d))
        else:
            c = coeffs[j].sample(rng, (n, r))
            c_g = coeffs[j].sample(rng, (n, r))
            alpha = exponents[j].sample_exponents(rng, (n, r), d)
            alpha_g = exponents[j].sample_exponents(rng, (n, r), d)
            yield c, alpha, c_g, alpha_g


def _draw_layer(spec: NetworkSpec, layer: int, rng, n: int) -> LayerSample:
    """Weights, bias and threshold of layer ``layer`` (1-based) for ``n`` draws.

    ``a`` has shape (n, n_out, n_in) in the dtype ``_batch_weight_dtype``
    picks; ``b`` has shape (n, n_out), and ``t`` too unless the threshold
    mode fixes it, when one row (1, n_out) serves every draw.
    """
    n_out, n_in = spec.widths[layer], spec.widths[layer - 1]
    w = spec.weight_dist_for(layer)
    a = w.sample(rng, (n, n_out, n_in), dtype=_batch_weight_dtype(w))
    b = spec.bias_dist_for(layer).sample(rng, (n, n_out))
    mode = spec.threshold_mode(layer)
    if mode == "random":
        t = spec.threshold_dist.sample(rng, (n, n_out))
    else:
        t = np.full((1, n_out), 0.0 if mode == "relu" else -np.inf)
    return LayerSample(a, b, t)


def sample_network(spec: NetworkSpec, seed: int) -> NetworkSample:
    """Draw a full network; identical (spec, seed) gives identical draws.

    The draw is the batch of one that Monte Carlo draws from ``stream(seed,
    "network")``: ``simulate_layer_outputs(spec, 1, seed, x=x,
    tag="network")`` runs this network at ``x``.
    """
    rng = stream(seed, "network")
    init = list(_draw_init(spec, rng, 1))
    batches = [_draw_layer(spec, l, rng, 1) for l in range(1, spec.depth + 1)]
    return NetworkSample(f0=tuple(TropicalPolynomial(alpha[0], c[0])
                                  for c, alpha, _, _ in init),
                         g0=tuple(TropicalPolynomial(alpha_g[0], c_g[0])
                                  for _, _, c_g, alpha_g in init),
                         layers=tuple(LayerSample(s.a[0], s.b[0], s.t[0]) for s in batches))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def forward_fg(f: np.ndarray, g: np.ndarray, layer: LayerSample):
    """One step of the pair recursion; returns (F', G', H').

    ``layer`` is one draw.  Inputs may be single vectors of width n_l or
    batches (..., n_l); the layer applies along the last axis.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or layer.a.ndim != 2 or layer.a.shape[1] != f.shape[-1]:
        raise SpecError("forward_fg dimension mismatch")
    a_plus, a_minus = layer.a_plus.T, layer.a_minus.T
    g_next = g @ a_plus + f @ a_minus
    h_next = f @ a_plus + g @ a_minus + layer.b
    f_next = np.maximum(h_next, g_next + layer.t)
    return f_next, g_next, h_next


def forward_relu_direct(nu: np.ndarray, layer: LayerSample) -> np.ndarray:
    """Plain recursion nu' = max(A nu + b, t) along any leading draw axes.

    The Monte Carlo kernel, and the oracle for ``forward_fg``.  ``layer``
    is one draw or a batch of them; einsum casts an integer A in buffers,
    so weights are never copied to float.
    """
    nu = np.asarray(nu, dtype=float)
    if layer.a.shape[-1] != nu.shape[-1]:
        raise SpecError("forward_relu_direct dimension mismatch")
    return np.maximum(np.einsum("...ij,...j->...i", layer.a, nu) + layer.b, layer.t)


def _as_input(spec: NetworkSpec, x) -> np.ndarray | None:
    if x is None:
        return None
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spec.d:
        raise SpecError(f"input has dimension {x.shape[0]}, expected {spec.d}")
    return x


def _check_finite(layer: int, *outputs: np.ndarray):
    """Raise ``SpecError`` unless every array of layer ``layer`` is finite."""
    if not all(np.isfinite(out).all() for out in outputs):
        raise SpecError(f"layer {layer} outputs are not finite: the spec's "
                        f"parameters overflow double precision")


def run_network(spec: NetworkSpec, x, seed: int) -> NetworkRun:
    """Sample a network and push input ``x`` through the pair recursion; a
    layer that overflows to inf or NaN is a ``SpecError``."""
    x = _as_input(spec, x)
    net = sample_network(spec, seed)
    f = np.array([p(x) for p in net.f0])
    g = np.array([p(x) for p in net.g0])
    fs, gs, hs, nus = [f], [g], [], [f - g]
    _check_finite(0, nus[0])
    for l, layer in enumerate(net.layers, start=1):
        f, g, h = forward_fg(f, g, layer)
        fs.append(f)
        gs.append(g)
        hs.append(h)
        nus.append(f - g)
        # F or G past double range makes nu inf or NaN; only an H at -inf
        # hides under F = max(H, G + t).
        _check_finite(l, h, nus[-1])
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

    def evaluate_nu(self, layer: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([self.f_polys[layer][i](x) - self.g_polys[layer][i](x)
                         for i in range(len(self.f_polys[layer]))])


def run_symbolic(spec: NetworkSpec, seed: int, cap: int = 10_000) -> SymbolicRun:
    """Build the symbolic F/G polynomials layer by layer.

    Uses the same parameter draw as ``run_network(spec, x, seed)``, so the
    numeric evaluation of the result matches the numeric forward pass at
    any x.  Raises MonomialCapError when the composition outgrows ``cap``
    even after pruning, and ``SpecError`` when a finite coefficient
    overflows (bottom's -inf arithmetic raises no floating-point flag) or
    an exponent outgrows int64.
    """
    net = sample_network(spec, seed)
    try:
        with np.errstate(over="raise", invalid="raise"):
            f_layers, g_layers = _symbolic_layers(net, cap)
    except FloatingPointError as exc:
        raise SpecError(f"symbolic coefficients are not finite ({exc}): the "
                        f"spec's parameters overflow double precision") from None
    except MonomialCapError:
        raise
    except TropicalError as exc:
        raise SpecError(f"symbolic exponents overflow ({exc}): the spec's "
                        f"weights are too large for its depth") from None
    return SymbolicRun(spec=spec, seed=seed, f_polys=tuple(f_layers),
                       g_polys=tuple(g_layers), layers=net.layers)


def _symbolic_layers(net: NetworkSample, cap: int):
    """F and G polynomial vectors of layers 0..L of the draw ``net``."""
    f_layers = [net.f0]
    g_layers = [net.g0]
    for layer in net.layers:
        f_prev, g_prev = f_layers[-1], g_layers[-1]
        polys = list(g_prev) + list(f_prev)
        polys_swapped = list(f_prev) + list(g_prev)
        f_new, g_new = [], []
        halves = np.hstack([layer.a_plus, layer.a_minus]).astype(int)
        for i, weights in enumerate(halves):
            g_i = poly_weighted_combine(polys, weights, cap=cap)
            h_i = poly_weighted_combine(polys_swapped, weights, bias=layer.b[i], cap=cap)
            # An identity layer's threshold -inf is bottom: F = max(H, G + t) = H.
            f_i = poly_add(h_i, g_i.shift(layer.t[i]))
            f_new.append(f_i)
            g_new.append(g_i)
        f_layers.append(tuple(f_new))
        g_layers.append(tuple(g_new))
    return f_layers, g_layers


# ---------------------------------------------------------------------------
# Batched simulation
# ---------------------------------------------------------------------------

def _draw_inputs(spec: NetworkSpec, rng, n: int) -> np.ndarray:
    box = np.asarray(spec.input_box)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, spec.d))


def _batch_block(spec: NetworkSpec, rng, n: int, x: np.ndarray | None):
    """Simulate ``n`` independent draws; returns per-layer nu arrays 1..L."""
    xb = np.tile(x, (n, 1)) if x is not None else _draw_inputs(spec, rng, n)
    nu = np.empty((n, spec.d))
    for j, (c, alpha, c_g, alpha_g) in enumerate(_draw_init(spec, rng, n)):
        nu[:, j] = np.max(c + np.einsum("nrd,nd->nr", alpha, xb), axis=1) \
            - np.max(c_g + np.einsum("nrd,nd->nr", alpha_g, xb), axis=1)
    nus = []
    for l in range(1, spec.depth + 1):
        # One layer at a time: a wide block's weights are large.
        nu = forward_relu_direct(nu, _draw_layer(spec, l, rng, n))
        nus.append(nu)
    return nus


def _every_layer(nus: list[np.ndarray]) -> list[np.ndarray]:
    """The default statistic of ``simulate_layer_outputs``: nu of every layer."""
    return nus


def _simulate_block(spec: NetworkSpec, n: int, seed: int, block_index: int,
                    x: np.ndarray | None, tag: str, stat=_every_layer) -> list[np.ndarray]:
    # What simulate_layer_outputs maps: top level so that a pool can pickle
    # it, and not the public simulate_block, so that a caller wrapping the
    # public functions sees each draw once.
    nus = _batch_block(spec, stream(seed, tag, block_index), n, x)
    for l, nu in enumerate(nus, start=1):
        _check_finite(l, nu)
    return stat(nus)


def simulate_layer_outputs(spec: NetworkSpec, n: int, seed: int, x=None,
                           tag: str = "batch", map=map,
                           stat=_every_layer) -> list[np.ndarray]:
    """Monte Carlo statistics of nu per layer over ``n`` network draws.

    With ``x=None`` each draw also samples an input uniformly from the
    spec's input box; otherwise the input is held fixed.  Runs are
    simulated in fixed-size blocks, block ``b`` from ``stream(seed, tag,
    b)``.  ``stat`` maps a block's per-layer nu arrays 1..L to a list of
    arrays with one row per draw, and the result stacks each of them over
    the ``n`` draws; the default keeps every layer's nu.  A caller that
    reads only a scalar or two per draw passes a statistic that computes
    them, so the full sample is never held.  ``stat`` is a top-level
    function or a ``functools.partial`` of one, so that a pool can pickle
    it.  ``map`` runs the blocks: the builtin runs them here, a process
    pool's ``map`` runs them in its workers, with identical results.
    Raises ``SpecError`` when a layer output overflows to inf or NaN.
    """
    x = _as_input(spec, x)
    # n = 0 runs one empty block, so that the outputs still have their shapes.
    blocks = list(block_indices(n)) or [(0, 0, 0)]
    results = map(_simulate_block, repeat(spec), [size for _, _, size in blocks],
                  repeat(seed), [b for b, _, _ in blocks], repeat(x), repeat(tag),
                  repeat(stat))
    outs = None
    for (_, start, size), block in zip(blocks, results):
        if outs is None:
            outs = [np.empty((n,) + arr.shape[1:], dtype=arr.dtype) for arr in block]
        for out, arr in zip(outs, block):
            out[start:start + size] = arr
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
    """Elementwise interval of nu0 = F0 - G0 over the input box.

    F0_j and G0_j draw from the same laws at the same x, so |nu0_j| is at most
    (c_hi - c_lo) + sum_i (alpha_hi_i - alpha_lo_i) max(|x_lo_i|, |x_hi_i|).
    """
    box = np.asarray(spec.input_box)
    x_lo, x_hi = box[:, 0], box[:, 1]
    if spec.init_mode == "identity":
        return x_lo.copy(), x_hi.copy()
    x_abs = np.maximum(np.abs(x_lo), np.abs(x_hi))
    half = np.empty(spec.d)
    for j, (c, t) in enumerate(zip(spec.coeff_specs(), spec.exponent_specs())):
        a_lo, a_hi = t.bound_interval(spec.d)
        half[j] = c.hi - c.lo + (np.asarray(a_hi, dtype=float) - a_lo) @ x_abs
    return -half, half


@dataclass
class LayerIntervals:
    """Elementwise interval of one layer's output nu."""

    nu_lo: np.ndarray
    nu_hi: np.ndarray

    @property
    def xi(self) -> float:
        return float(np.linalg.norm(np.maximum(np.abs(self.nu_lo), np.abs(self.nu_hi))))


def propagate_intervals(spec: NetworkSpec) -> list[LayerIntervals]:
    """Interval of nu per layer 0..L; layer l's .xi bounds ||nu^(l)||_2.

    Interval arithmetic on the direct recursion nu' = max(A nu + b, t), with
    each parameter ranging over its law's window, so every realizable
    trajectory of a bounded spec stays inside the certified intervals.
    Raises ``SpecError`` at the first layer whose intervals overflow.
    """
    out = [_finite_intervals(0, LayerIntervals(*_init_intervals(spec)))]
    for l in range(1, spec.depth + 1):
        w, q, cur = spec.weight_dist_for(l), spec.bias_dist_for(l), out[-1]
        prod_lo, prod_hi = _interval_product(w.lo, w.hi, cur.nu_lo, cur.nu_hi)
        mode = spec.threshold_mode(l)
        if mode == "random":
            t_lo, t_hi = spec.threshold_dist.lo, spec.threshold_dist.hi
        else:
            t_lo = t_hi = 0.0 if mode == "relu" else -np.inf
        n_out = spec.widths[l]
        out.append(_finite_intervals(l, LayerIntervals(
            np.full(n_out, max(prod_lo.sum() + q.lo, t_lo)),
            np.full(n_out, max(prod_hi.sum() + q.hi, t_hi)))))
    return out


def _finite_intervals(l: int, iv: LayerIntervals) -> LayerIntervals:
    """``iv`` if its norm bound is finite; an inf bound makes the next
    layer's products (inf * 0) NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(iv.xi):
            return iv
    raise SpecError(f"layer {l} intervals are not finite: the spec's "
                    f"parameter windows overflow double precision")


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _from_json(value, path: str):
    """A JSON value as a spec field: an object is a law, a list a tuple."""
    if isinstance(value, list):
        return tuple(_from_json(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        return value
    law = {key: _from_json(v, f"{path}.{key}") for key, v in value.items()}
    try:
        return DistributionSpec(**law)
    except (TypeError, ValueError) as exc:  # an undeclared or missing key, a bad value
        raise SpecError(f"{path}: {exc}") from None


def _to_json(value):
    """The inverse of ``_from_json``: a spec is an object, a tuple a list."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def network_spec_to_dict(spec: NetworkSpec) -> dict:
    """The JSON object of ``spec``: one key per field, laws as objects."""
    return _to_json(spec)


def network_spec_from_dict(data: dict) -> NetworkSpec:
    """The spec of a JSON object; a key no dataclass declares is an error."""
    return NetworkSpec(**{key: _from_json(v, key) for key, v in data.items()})


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
