"""Experiment harness: configuration, subcommands, artifacts, manifests.

A JSON config drives one of six subcommands (simulate, bounds, classify,
select-layers, regions, mgale-check).  Every run writes stable-ordered
CSV/JSON artifacts plus a manifest with checksums; identical config and
seed reproduce byte-identical data artifacts regardless of worker count,
because all randomness flows through per-index counter-based streams and
merges are canonicalized by index.

Exit codes: 0 success, 1 error, 2 at least one bound-violation verdict.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    martingale_grade_check,
    region_count_concentration,
    reports_to_csv,
    reports_to_json,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)
from .classifier import ScoreSpec, audit_to_csv, disagreement_audit
from .networks import (
    NetworkSpec,
    SpecError,
    network_spec_from_dict,
    propagate_intervals,
    run_network,
    run_symbolic,
    simulate_layer_outputs,
)
from .seeding import stream
from .stopping import (
    FiniteSupportProcess,
    GammaSpec,
    select_layers,
)
from .tropical import count_linear_regions, polynomial_from_dict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

#: Environment variable overriding the output directory.
OUT_DIR_ENV = "TROPNET_OUT"

SUBCOMMANDS = ("simulate", "bounds", "classify", "select-layers",
               "regions", "mgale-check")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _req(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _typed(value, types, path: str):
    if not isinstance(value, types):
        names = types.__name__ if isinstance(types, type) else \
            "/".join(t.__name__ for t in types)
        raise ConfigError(path, f"expected {names}, got {type(value).__name__}")
    return value


@dataclass
class ExperimentConfig:
    """Validated configuration of one harness run."""

    subcommand: str
    seed: int = 0
    workers: int = 1
    out_dir: str = "artifacts"
    network: NetworkSpec | None = None
    score: ScoreSpec | None = None
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        blob = json.dumps({"subcommand": self.subcommand, **self.raw},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(subcommand: str, data: dict) -> ExperimentConfig:
    """Validate a raw config dict for the given subcommand."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    _typed(data, dict, "config")
    cfg = ExperimentConfig(subcommand=subcommand, raw=data)
    cfg.seed = int(_typed(data.get("seed", 0), (int,), "config.seed"))
    cfg.workers = int(_typed(data.get("workers", 1), (int,), "config.workers"))
    if cfg.workers < 1:
        raise ConfigError("config.workers", "must be at least 1")
    cfg.out_dir = str(data.get("out", "artifacts"))

    if "network" in data:
        try:
            cfg.network = network_spec_from_dict(_typed(data["network"], dict,
                                                        "config.network"))
        except (SpecError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError("config.network", str(exc)) from exc
    if "score" in data:
        sd = _typed(data["score"], dict, "config.score")
        try:
            cfg.score = ScoreSpec(kind=sd.get("kind", "sigmoid"),
                                  a=sd.get("a", 0.0), b=sd.get("b", 1.0),
                                  c=sd.get("c", 0.5),
                                  table=tuple(tuple(p) for p in sd.get("table", ())))
        except ValueError as exc:
            raise ConfigError("config.score", str(exc)) from exc

    section = subcommand.replace("-", "_")
    cfg.options = _typed(data.get(section, {}), dict, f"config.{section}")

    needs_network = {"simulate": True, "bounds": True, "classify": True,
                     "select-layers": False, "regions": False, "mgale-check": False}
    if needs_network[subcommand] and cfg.network is None:
        raise ConfigError("config.network", f"{subcommand} needs a network spec")
    if subcommand == "classify" and cfg.score is None:
        cfg.score = ScoreSpec()
    _validate_options(subcommand, cfg)
    return cfg


def _validate_options(subcommand: str, cfg: ExperimentConfig):
    opts = cfg.options
    section = f"config.{subcommand.replace('-', '_')}"
    if subcommand == "simulate":
        n = opts.get("n", 10)
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"{section}.n", "must be a positive integer")
    elif subcommand == "bounds":
        n = opts.get("n", 10_000)
        if not isinstance(n, int) or n < 1000:
            raise ConfigError(f"{section}.n", "must be an integer >= 1000")
        grid = opts.get("t_grid")
        if grid is not None and (not isinstance(grid, list) or not grid):
            raise ConfigError(f"{section}.t_grid", "must be a nonempty list")
    elif subcommand == "classify":
        inputs = _req(opts, "inputs", section)
        if not isinstance(inputs, list) or not inputs:
            raise ConfigError(f"{section}.inputs", "must be a nonempty list of points")
    elif subcommand == "select-layers":
        method = opts.get("method", "deterministic")
        if method not in ("deterministic", "exact", "lsmc"):
            raise ConfigError(f"{section}.method", f"unknown method {method!r}")
        if method == "deterministic" and "gamma_table" not in opts \
                and "gamma" not in opts:
            raise ConfigError(f"{section}.gamma_table",
                              "deterministic selection needs a gamma table")
        if method == "exact" and "process" not in opts:
            raise ConfigError(f"{section}.process",
                              "exact induction needs a finite-support process")
    elif subcommand == "regions":
        if "polynomial" not in opts and "sample" not in opts:
            raise ConfigError(f"{section}.polynomial",
                              "regions needs a polynomial or a sample block")
        if "sample" in opts and cfg.network is None:
            raise ConfigError("config.network",
                              "sampled region counting needs a network spec")
    elif subcommand == "mgale-check":
        source = opts.get("source", "random-walk")
        if source not in ("random-walk", "network"):
            raise ConfigError(f"{section}.source", f"unknown source {source!r}")
        if source == "network" and cfg.network is None:
            raise ConfigError("config.network",
                              "network martingale checks need a network spec")


def load_config(subcommand: str, path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(subcommand, data)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _mapper(workers: int):
    """Yield ``map``, or the ``map`` of one process pool when ``workers > 1``."""
    if workers <= 1:
        yield map
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Checksummed record of one harness run."""

    config_hash: str
    seed: int
    version: str
    files: dict
    timings: dict

    def write(self, out_dir: Path):
        with open(out_dir / "manifest.json", "w") as fh:
            json.dump(dataclasses.asdict(self), fh, sort_keys=True, indent=1,
                      allow_nan=False)


class _OutDir:
    """Output directory of one run; ``out / name`` records ``name`` as written.

    The manifest lists only these names, never files that earlier runs left
    in the same directory.
    """

    def __init__(self, path: Path):
        self.path = path
        self.written: set[str] = set()

    def __truediv__(self, name: str) -> Path:
        self.written.add(name)
        return self.path / name


def _finish(cfg: ExperimentConfig, out: _OutDir, t0: float,
            exit_code: int) -> tuple[int, dict]:
    files = {name: _sha256(out.path / name) for name in sorted(out.written)}
    manifest = RunManifest(config_hash=cfg.config_hash, seed=cfg.seed,
                           version=__version__, files=files,
                           timings={"wall_seconds": time.time() - t0})
    manifest.write(out.path)
    return exit_code, files


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_subcommand(name: str, cfg: ExperimentConfig,
                   out_dir: str | None = None) -> tuple[int, dict]:
    """Execute a subcommand; returns (exit_code, artifact checksums)."""
    t0 = time.time()
    out = Path(os.environ.get(OUT_DIR_ENV) or out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "simulate": _run_simulate,
        "bounds": _run_bounds,
        "classify": _run_classify,
        "select-layers": _run_select_layers,
        "regions": _run_regions,
        "mgale-check": _run_mgale_check,
    }[name]
    written = _OutDir(out)
    code = runner(cfg, written)
    return _finish(cfg, written, t0, code)


def _run_simulate(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    n = opts.get("n", 10)
    x_fixed = opts.get("input")
    runs = []
    for i in range(n):
        seed_i = cfg.seed * 1_000_003 + i
        if x_fixed is not None:
            x = np.asarray(x_fixed, dtype=float)
        else:
            box = np.asarray(cfg.network.input_box)
            x = stream(cfg.seed, "simulate-x", i).uniform(box[:, 0], box[:, 1])
        runs.append((i, run_network(cfg.network, x, seed_i)))

    with open(out / "runs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "layer", "unit", "f", "g", "h", "nu"])
        for i, run in runs:
            for l in range(len(run.f)):
                h = run.h[l - 1] if l >= 1 else None
                for u in range(len(run.f[l])):
                    w.writerow([i, l, u, repr(float(run.f[l][u])),
                                repr(float(run.g[l][u])),
                                "" if h is None else repr(float(h[u])),
                                repr(float(run.nu[l][u]))])
    with open(out / "runs.json", "w") as fh:
        json.dump([dict(run=i, **run.to_dict()) for i, run in runs],
                  fh, sort_keys=True, allow_nan=False)
    return EXIT_OK


def _run_bounds(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    n = opts.get("n", 10_000)
    t_grid = opts.get("t_grid")
    if t_grid is None:
        # Default grid spans the certificate scale of the deepest layer.
        xi = propagate_intervals(cfg.network)[-1].xi
        t_grid = list(np.linspace(0.0, 2.0 * xi, 10))
    with _mapper(cfg.workers) as pool_map:
        reports = verify_layer_concentration(
            cfg.network, t_grid, n=n, seed=cfg.seed,
            layers=opts.get("layers"), pilot_n=opts.get("pilot_n"), map=pool_map)
    reports_to_csv(reports, out / "bound_reports.csv")
    with open(out / "bound_reports.json", "w") as fh:
        fh.write(reports_to_json(reports))
    return EXIT_VIOLATION if any(r.verdict == "violated" for r in reports) \
        else EXIT_OK


def _run_classify(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    inputs = [np.asarray(p, dtype=float).reshape(-1) for p in opts["inputs"]]
    with _mapper(cfg.workers) as pool_map:
        rows = disagreement_audit(cfg.network, cfg.score, inputs,
                                  n=opts.get("n", 10_000), seed=cfg.seed, map=pool_map)
    audit_to_csv(rows, out / "audit.csv")
    return EXIT_VIOLATION if any(r.verdict == "violated" for r in rows) else EXIT_OK


def _load_gamma_table(opts: dict):
    if "gamma" in opts:
        return np.asarray(opts["gamma"], dtype=float)
    path = opts["gamma_table"]
    table = np.genfromtxt(path, delimiter=",", dtype=float)
    return np.atleast_1d(table)


def _run_select_layers(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    method = opts.get("method", "deterministic")
    kwargs = dict(seed=cfg.seed, basis_degree=opts.get("basis_degree", 3))
    if method == "deterministic":
        gamma = _load_gamma_table(opts).reshape(-1)
        if "horizon" in opts:
            gamma = gamma[: int(opts["horizon"])]
        sol = select_layers("deterministic", gamma=gamma)
    elif method == "exact":
        proc = opts["process"]
        process = FiniteSupportProcess(
            values=tuple(np.asarray(v, dtype=float) for v in proc["values"]),
            initial=np.asarray(proc["initial"], dtype=float),
            transitions=tuple(np.asarray(t, dtype=float)
                              for t in proc.get("transitions", ())))
        sol = select_layers("exact", process=process)
    else:
        if "gamma_table" in opts or "gamma" in opts:
            traj = np.atleast_2d(_load_gamma_table(opts))
            sol = select_layers("lsmc", gamma=traj, **kwargs)
        else:
            horizon = int(_req(opts, "horizon", "config.select_layers"))
            gamma_spec = GammaSpec(horizon=horizon,
                                   penalty_c=opts.get("penalty_c", 1.0))
            sol = select_layers(
                "lsmc", network_spec=cfg.network, gamma_spec=gamma_spec,
                y_star=np.asarray(_req(opts, "y_star", "config.select_layers"),
                                  dtype=float),
                n_trajectories=opts.get("n_trajectories", 10_000), **kwargs)
    with open(out / "selection.json", "w") as fh:
        json.dump(sol.to_dict(), fh, sort_keys=True, allow_nan=False)
    with open(out / "envelope.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["L", "snell"])
        for l, s in enumerate(sol.snell_mean, start=1):
            w.writerow([l, repr(float(s))])
    return EXIT_OK


def _symbolic_region_count(network, seed, cap):
    sym = run_symbolic(network, seed, cap=cap)
    f = sym.f_polys[-1][0]
    return seed, f.num_monomials, count_linear_regions(f).count


def _run_regions(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    code = EXIT_OK
    if "polynomial" in opts:
        poly = polynomial_from_dict(opts["polynomial"])
        exact = count_linear_regions(poly, method="exact-lp")
        grid = count_linear_regions(poly, method="grid-oracle")
        with open(out / "regions.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "count", "dim"])
            w.writerow(["exact-lp", exact.count, exact.dim])
            w.writerow(["grid-oracle", grid.count, grid.dim])
        with open(out / "regions.json", "w") as fh:
            json.dump({"exact_lp": exact.count, "grid_oracle": grid.count,
                       "dim": exact.dim}, fh, sort_keys=True, allow_nan=False)
    else:
        sample = opts["sample"]
        count = int(sample.get("count", 100))
        cap = int(sample.get("cap", 10_000))
        if cfg.network.p != 1 or cfg.network.thresholds[-1] != "identity":
            raise ConfigError("config.network",
                              "region sampling needs a scalar output with an "
                              "identity last layer")
        with _mapper(cfg.workers) as pool_map:
            results = list(pool_map(_symbolic_region_count, repeat(cfg.network),
                                    [cfg.seed * 1_000_003 + i for i in range(count)],
                                    repeat(cap)))
        with open(out / "regions.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "monomials", "regions"])
            for seed_i, monos, cnt in results:
                w.writerow([seed_i, monos, cnt])
        counts = [cnt for _, _, cnt in results]
        b1 = int(sample.get("b1", max(m for _, m, _ in results)))
        t_grid = sample.get("t_grid")
        if t_grid:
            reports = region_count_concentration(counts, b1, t_grid)
            reports_to_csv(reports, out / "region_reports.csv")
            if any(r.verdict == "violated" for r in reports):
                code = EXIT_VIOLATION
    return code


def _run_mgale_check(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    source = opts.get("source", "random-walk")
    code = EXIT_OK
    if source == "random-walk":
        steps = int(opts.get("steps", 20))
        n = int(opts.get("n", 100_000))
        dim = int(opts.get("dim", 1))
        a_grid = opts.get("a_grid") or list(np.linspace(1.0, 6.0, 10))
        traj = simulate_random_walk(steps, n, seed=cfg.seed, dim=dim)
        reports = walk_tail_reports(traj, a_grid, m=1.0)
        reports_to_csv(reports, out / "walk_reports.csv")
        if any(r.verdict == "violated" for r in reports):
            code = EXIT_VIOLATION
        grade_n = int(opts.get("n_grade", 0))
        if grade_n:
            grade = martingale_grade_check(traj[:grade_n], seed=cfg.seed)
            _write_grade(grade, out)
    else:
        widths = set(cfg.network.widths[1:])
        if len(widths) != 1:
            raise ConfigError("config.network",
                              "martingale checks need a rectangular network")
        n = int(opts.get("n", 5000))
        outs = simulate_layer_outputs(cfg.network, n, cfg.seed, tag="mgale")
        nus = np.stack(outs, axis=1)  # (n, L, p)
        centered = nus - nus.mean(axis=0, keepdims=True)
        zeros = np.zeros((n, 1, nus.shape[2]))
        traj = np.concatenate([zeros, centered], axis=1)
        grade = martingale_grade_check(traj, seed=cfg.seed)
        _write_grade(grade, out)
        reports = walk_tail_reports(traj, opts.get("a_grid", [1.0, 2.0, 4.0]),
                                    m=grade.increment_bound)
        reports_to_csv(reports, out / "mgale_reports.csv")
        if any(r.verdict == "violated" for r in reports):
            code = EXIT_VIOLATION
    return code


def _write_grade(grade, out: _OutDir):
    with open(out / "grade_report.json", "w") as fh:
        json.dump({
            "very_weak_falsified": grade.very_weak_falsified,
            "weak_falsified": grade.weak_falsified,
            "worst_pair": list(grade.worst_pair),
            "worst_function": grade.worst_function,
            "increment_bound": grade.increment_bound,
        }, fh, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

_KNOWN_ARTIFACTS = ("bound_reports.csv", "walk_reports.csv", "mgale_reports.csv",
                    "region_reports.csv", "audit.csv", "regions.csv",
                    "selection.json", "envelope.csv", "runs.csv",
                    "grade_report.json")


def emit_report(artifact_dir) -> str:
    """Render a markdown summary of the artifacts in a directory.

    Pure function of the artifact contents: regenerating from the same
    files is byte-identical.  Missing-but-expected artifacts are flagged
    as gaps rather than errors.
    """
    out = Path(artifact_dir)
    lines = ["# Run report", ""]
    manifest_path = out / "manifest.json"
    expected = list(_KNOWN_ARTIFACTS)
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        lines += [f"- config hash: `{manifest['config_hash']}`",
                  f"- seed: {manifest['seed']}",
                  f"- version: {manifest['version']}", ""]
        expected = sorted(set(manifest["files"]) | set(expected))
        promised = set(manifest["files"])
    else:
        lines += ["- GAP: manifest.json missing", ""]
        promised = set(_KNOWN_ARTIFACTS)

    found_any = False
    for name in expected:
        path = out / name
        if not path.exists():
            if name in promised:
                lines.append(f"- GAP: {name} missing")
            continue
        found_any = True
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            lines += ["", f"## {name}", ""]
            if rows:
                header, body = rows[0], rows[1:]
                lines.append("| " + " | ".join(header) + " |")
                lines.append("|" + "---|" * len(header))
                for row in body[:200]:
                    lines.append("| " + " | ".join(row) + " |")
                if len(body) > 200:
                    lines.append(f"| ... {len(body) - 200} more rows ... " +
                                 "|" * len(header))
        elif name.endswith(".json"):
            lines += ["", f"## {name}", "", "```json",
                      json.dumps(json.loads(path.read_text()), sort_keys=True,
                                 indent=1), "```"]
    if not found_any:
        lines += ["", "No artifacts found."]
    return "\n".join(lines) + "\n"
