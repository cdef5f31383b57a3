"""The seeded workloads: configs, draw counts and correctness checks.

A workload is a fixed sequence of steps, and one round of it runs each step
once.  A step is one ``tropnet`` subcommand at fixed sizes.  The step of
round ``i`` gets its own config, keyed by (workload seed, step, i), so a run
covers many inputs and the same seed always gives the same configs.  The
program only ever sees the config file; the checks read the artifacts back
and recompute what they can with tropnet's own oracles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tropnet.bounds import nsg_bound
from tropnet.networks import (
    DistributionSpec,
    NetworkSpec,
    forward_relu_direct,
    network_spec_from_dict,
    network_spec_to_dict,
    propagate_intervals,
    reference_classifier_spec,
    run_symbolic,
    sample_network,
    uniform_int,
    uniform_real,
)
from tropnet.tropical import count_linear_regions

from metrics import classify_draws

#: Seeded points and draws the cross-checks look at, per operation.
CHECK_POINTS = 4
CHECK_NETWORKS = 3
CHECK_RUNS = 8
#: The pair recursion and the direct recursion round differently.
REL_TOL = 1e-9


def _spec(widths, weights, r=3, last_identity=False) -> NetworkSpec:
    thresholds = ("relu",) * (len(widths) - 2) + ("identity",) \
        if last_identity else "relu"
    return NetworkSpec(widths=tuple(widths), r=r, weight_dist=weights,
                       bias_dist=uniform_real(-1.0, 1.0),
                       coeff_dists=uniform_real(-1.0, 1.0),
                       exponent_dists=uniform_int(0, 2),
                       thresholds=thresholds,
                       input_box=tuple([(-1.0, 1.0)] * widths[0]))


def direct_nus(f0, g0, layers, x) -> list[np.ndarray]:
    """nu at layers 1..L by the plain ReLU recursion (the oracle)."""
    nu = np.array([p(x) - q(x) for p, q in zip(f0, g0)])
    out = []
    for layer in layers:
        nu = forward_relu_direct(nu, layer)
        out.append(nu)
    return out


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), key, int(index)])


class Step:
    """One subcommand at fixed sizes; subclasses fill in the specifics."""

    name = ""
    subcommand = ""
    spec: NetworkSpec = None
    pooled = False
    #: Numeric draws, which the tracer also counts (regions counts networks).
    numeric = True

    def config(self, seed: int, index: int, workers: int) -> dict:
        """The JSON config of this step in round ``index``."""
        rng = op_rng(seed, self.name, index)
        cfg = {"seed": int(rng.integers(1, 2 ** 31)), "workers": workers,
               "network": network_spec_to_dict(self.spec)}
        cfg.update(self.options(rng))
        return cfg

    def options(self, rng) -> dict:
        raise NotImplementedError

    def draws(self, cfg: dict, out: Path) -> int:
        """Network draws (symbolic networks for regions) of one operation."""
        raise NotImplementedError

    def check(self, cfg: dict, out: Path) -> list[str]:
        """Step-specific checks; returns the failures found."""
        return []


class BoundsWide(Step):
    name = "bounds-wide"
    subcommand = "bounds"
    spec = _spec((8, 64, 64), uniform_int(-2, 2))
    pooled = True
    n = 16384  # two full sampling blocks: one per worker

    def options(self, rng):
        return {"bounds": {"n": self.n, "pilot_n": self.n}}

    def draws(self, cfg, out):
        return cfg["bounds"]["n"] + cfg["bounds"]["pilot_n"]

    def check(self, cfg, out):
        errors = []
        spec = network_spec_from_dict(cfg["network"])
        xi = [iv.xi for iv in propagate_intervals(spec)]
        for r in load_json(out / "bound_reports.json"):
            want = min(nsg_bound(r["t"], xi[r["l"]]), 2.0)
            if not math.isclose(r["analytic"], want, rel_tol=1e-12, abs_tol=0.0):
                errors.append(f"layer {r['l']} t={r['t']}: analytic "
                              f"{r['analytic']} != nsg_bound {want}")
        return errors


class ClassifyAudit(Step):
    name = "classify-audit"
    subcommand = "classify"
    spec = reference_classifier_spec()
    n = 20_000
    inputs = 10

    def options(self, rng):
        box = np.asarray(self.spec.input_box)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(self.inputs, self.spec.d))
        return {"classify": {"inputs": pts.tolist(), "n": self.n},
                "score": {"kind": "sigmoid", "a": 0.0, "b": 1.0, "c": 0.5}}

    def draws(self, cfg, out):
        return classify_draws(cfg["classify"]["n"],
                              [row["verdict"] for row in load_csv(out / "audit.csv")])

    def check(self, cfg, out):
        errors = []
        c = cfg["score"]["c"]
        rows = load_csv(out / "audit.csv")
        if len(rows) != len(cfg["classify"]["inputs"]):
            errors.append(f"audit.csv has {len(rows)} rows for "
                          f"{len(cfg['classify']['inputs'])} inputs")
        for row in rows:
            est, se = float(row["estimate"]), float(row["se"])
            if row["verdict"] == "unresolved":
                ok = row["label"] == "abstain" and abs(est - c) <= 3.0 * se
            else:
                ok = row["label"] == ("C1" if est > c else "C2") \
                    and abs(est - c) > 3.0 * se
            if not ok:
                errors.append(f"input {row['input_id']}: label {row['label']} "
                              f"inconsistent with estimate {est} (se {se}, c {c})")
        return errors


class RegionsSymbolic(Step):
    name = "regions-symbolic"
    subcommand = "regions"
    spec = _spec((2, 4, 4, 1), DistributionSpec("finite-support", values=(-1.0, 1.0)),
                 r=1, last_identity=True)
    numeric = False
    count = 12

    def options(self, rng):
        return {"regions": {"sample": {"count": self.count,
                                       "t_grid": [1.0, 2.0, 4.0, 8.0]}}}

    def draws(self, cfg, out):
        return len(load_csv(out / "regions.csv"))

    def check(self, cfg, out):
        errors = []
        rows = load_csv(out / "regions.csv")
        if len(rows) != cfg["regions"]["sample"]["count"]:
            errors.append(f"regions.csv has {len(rows)} rows")
        rng = op_rng(cfg["seed"], "check", 0)
        picked = rng.choice(len(rows), size=min(CHECK_NETWORKS, len(rows)),
                            replace=False)
        spec = network_spec_from_dict(cfg["network"])
        box = np.asarray(spec.input_box)
        for i in sorted(picked):
            row = rows[i]
            sym = run_symbolic(spec, int(row["seed"]))
            f = sym.f_polys[-1][0]
            lp = int(row["regions"])
            grid = count_linear_regions(f, method="grid-oracle").count
            if f.num_monomials != int(row["monomials"]):
                errors.append(f"draw {row['seed']}: {f.num_monomials} monomials "
                              f"rebuilt, {row['monomials']} written")
            if grid > lp:
                errors.append(f"draw {row['seed']}: grid oracle {grid} > LP {lp}")
            points = rng.uniform(box[:, 0], box[:, 1], size=(CHECK_POINTS, spec.d))
            for x in points:
                nu = direct_nus(sym.f_polys[0], sym.g_polys[0], sym.layers, x)[-1]
                sym_nu = sym.evaluate_nu(spec.depth, x)
                if not np.allclose(sym_nu, nu, rtol=REL_TOL, atol=REL_TOL):
                    errors.append(f"draw {row['seed']} at {x.tolist()}: symbolic "
                                  f"{sym_nu.tolist()} != direct {nu.tolist()}")
        return errors


def _rectangular(width=4, depth=8) -> NetworkSpec:
    return _spec((2,) + (width,) * depth, uniform_int(-2, 2))


class SelectLsmc(Step):
    name = "select-lsmc"
    subcommand = "select-layers"
    spec = _rectangular()
    n = 200_000

    def options(self, rng):
        return {"select_layers": {"method": "lsmc", "horizon": self.spec.depth,
                                  "y_star": [1.0] * self.spec.p,
                                  "n_trajectories": self.n}}

    def draws(self, cfg, out):
        return cfg["select_layers"]["n_trajectories"]

    def check(self, cfg, out):
        sel = load_json(out / "selection.json")
        horizon = cfg["select_layers"]["horizon"]
        errors = []
        if not 1 <= sel["tau"] <= horizon:
            errors.append(f"tau {sel['tau']} outside 1..{horizon}")
        if len(sel["S"]) != horizon or not all(math.isfinite(s) for s in sel["S"]):
            errors.append(f"envelope S is not {horizon} finite values: {sel['S']}")
        return errors


class SimulateIo(Step):
    name = "simulate-io"
    subcommand = "simulate"
    spec = _rectangular()
    n = 500

    def options(self, rng):
        return {"simulate": {"n": self.n}}

    def draws(self, cfg, out):
        return len(load_json(out / "runs.json"))

    def check(self, cfg, out):
        errors = []
        runs = load_json(out / "runs.json")
        if len(runs) != cfg["simulate"]["n"]:
            errors.append(f"runs.json has {len(runs)} runs")
        for run in runs:
            if not all(np.array_equal(nu, np.subtract(f, g))
                       for f, g, nu in zip(run["f"], run["g"], run["nu"])):
                errors.append(f"run {run['run']}: nu != f - g")
        spec = network_spec_from_dict(cfg["network"])
        rng = op_rng(cfg["seed"], "check", 0)
        for i in rng.choice(len(runs), size=min(CHECK_RUNS, len(runs)), replace=False):
            run = runs[i]
            net = sample_network(spec, run["seed"])
            nus = direct_nus(net.f0, net.g0, net.layers, np.asarray(run["x"]))
            if not all(np.allclose(run["nu"][l], nu, rtol=REL_TOL, atol=REL_TOL)
                       for l, nu in enumerate(nus, start=1)):
                errors.append(f"run {run['run']}: pair recursion disagrees "
                              f"with the direct one")
        return errors


class Workload:
    """A named sequence of steps; one round runs each step once, in order."""

    def __init__(self, name: str, steps: tuple):
        self.name, self.steps = name, steps


WORKLOADS = {w.name: w for w in (
    Workload("numeric-round", (BoundsWide(), ClassifyAudit(), SelectLsmc(), SimulateIo())),
    Workload("regions-symbolic", (RegionsSymbolic(),)),
)}


# ---------------------------------------------------------------------------
# Checks every operation gets
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_json(path: Path):
    """Parse a JSON artifact, rejecting NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def load_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_artifacts(out: Path) -> list[str]:
    """Every JSON artifact parses strictly; the manifest lists exactly the
    files present, each with its sha256."""
    errors = []
    for path in sorted(out.glob("*.json")):
        try:
            load_json(path)
        except ValueError as exc:
            errors.append(f"{path.name}: {exc}")
    try:
        listed = load_json(out / "manifest.json")["files"]
    except (OSError, ValueError, KeyError) as exc:
        return errors + [f"manifest.json: {exc}"]
    present = {p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"}
    if set(listed) != present:
        errors.append(f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for name in sorted(set(listed) & present):
        if listed[name] != _sha256(out / name):
            errors.append(f"{name}: sha256 differs from the manifest")
    return errors
