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
import io
import json
import os
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (
    martingale_grade_check,
    region_count_concentration,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)
from .classifier import ScoreSpec, disagreement_audit
from .networks import (
    NetworkSpec,
    network_spec_from_dict,
    run_network,
    run_symbolic,
    simulate_layer_outputs,
)
from .seeding import item_seed, stream
from .stopping import (
    FiniteSupportProcess,
    GammaSpec,
    select_layers,
)
from .tropical import _finite, count_linear_regions, polynomial_from_dict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

#: Environment variable overriding the output directory.
OUT_DIR_ENV = "TROPNET_OUT"


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

class _Opt(NamedTuple):
    """One option: ``ok(value, network)`` checks a given value (or ``ok`` holds
    a nested object's options); ``default`` is the value when absent, or a
    callable of the options parsed so far and the field path that derives
    it or raises; ``build`` makes the object the runner uses."""

    type: str
    ok: Callable | dict
    default: object = None
    build: Callable | None = None


def _parse(options: dict, data, path: str, network) -> dict:
    """Checked and defaulted options of one object; errors name the field."""
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {data!r:.80}")
    out = {}
    for key, opt in options.items():
        where = f"{path}.{key}"
        if key not in data:
            out[key] = opt.default(out, where) if callable(opt.default) else opt.default
            continue
        value = data[key]
        if isinstance(opt.ok, dict):
            value = _parse(opt.ok, value, where, network)
        elif not opt.ok(value, network):
            raise ConfigError(where, f"expected {opt.type}, got {value!r:.80}")
        if opt.build is not None:
            try:
                value = opt.build(value)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(where, str(exc)) from exc
        out[key] = value
    return out


def _needed(message="missing required field", when=lambda options: True):
    """Default of an option that must be given when ``when(options)`` holds."""
    def default(options, where):
        if when(options):
            raise ConfigError(where, message)
    return default


def _number(v, network=None) -> bool:
    return _finite(v, 0) is not None


def _array(v, ndim: int = 1) -> bool:
    """Is ``v`` a nonempty list that reads as a finite ``ndim``-d array?"""
    a = _finite(v, ndim)
    return isinstance(v, list) and a is not None and a.size > 0


def _point(v, network) -> bool:
    return _array(v) and len(v) == network.d


def _int(lo: int, default) -> _Opt:
    return _Opt(f"int >= {lo}", lambda v, net: type(v) is int and v >= lo, default)


def _list(of: str, ok, default) -> _Opt:
    return _Opt(f"nonempty list of {of}", lambda v, net: isinstance(v, list)
                and len(v) > 0 and all(ok(x, net) for x in v), default)


def _str(default) -> _Opt:
    return _Opt("str", lambda v, net: isinstance(v, str), default)


def _object(build, default=None) -> _Opt:
    """An object that ``build`` reads; its errors name the object."""
    return _Opt("object", lambda v, net: isinstance(v, dict), default, build)


def _one_of(*names: str) -> _Opt:
    """One of ``names``; the first is the default."""
    return _Opt(" | ".join(names), lambda v, net: v in names, names[0])


#: Options at the top level of every config.
_CONFIG = {
    "seed": _int(0, 0),
    "workers": _int(1, 1),
    "out": _str("artifacts"),
    "network": _object(network_spec_from_dict),
    "score": _object(lambda d: ScoreSpec(**d), ScoreSpec()),
}


@dataclass
class ExperimentConfig:
    """Validated configuration of one harness run."""

    subcommand: str
    seed: int
    workers: int
    out_dir: str
    network: NetworkSpec | None
    score: ScoreSpec
    options: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        blob = json.dumps({"subcommand": self.subcommand, **self.raw},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(subcommand: str, data: dict) -> ExperimentConfig:
    """Validate a raw config dict for the given subcommand.

    Every option of the result is type-checked and defaulted from the schema.
    """
    if subcommand not in _COMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    top = _parse(_CONFIG, data, "config", None)
    command, name = _COMMANDS[subcommand], subcommand.replace("-", "_")
    section = data.get(name, {})
    if isinstance(section, dict) and top["network"] is None \
            and command.needs_network(section):
        raise ConfigError("config.network", f"{subcommand} needs a network spec")
    return ExperimentConfig(
        subcommand=subcommand, seed=top["seed"], workers=top["workers"],
        out_dir=top["out"], network=top["network"], score=top["score"],
        options=_parse(command.options, section, f"config.{name}", top["network"]),
        raw=data)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _mapper(workers: int):
    """Yield ``map``, or the ``map`` of one process pool of ``workers``
    processes, at most one per CPU, when that is more than one."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield map
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


# ---------------------------------------------------------------------------
# Artifacts and manifest
# ---------------------------------------------------------------------------

class _OutDir:
    """Output directory of one run, and the one writer of its artifacts.

    ``written`` maps each artifact written here to its sha256; the manifest
    lists only these, never files that earlier runs left in the directory.
    """

    def __init__(self, path: Path):
        self.path = path
        self.written: dict[str, str] = {}

    def _write(self, name: str, text: str):
        data = text.encode()
        (self.path / name).write_bytes(data)
        self.written[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header, rows):
        """CSV with a header row; float cells are written as ``repr(float)``."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                     for v in row] for row in rows)
        self._write(name, buf.getvalue())

    def write_json(self, name: str, obj, indent=None):
        """Key-sorted JSON that refuses NaN and infinities."""
        self._write(name, json.dumps(obj, sort_keys=True, allow_nan=False, indent=indent))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _verdict_code(items) -> int:
    """Exit code of a run's bound reports or audit rows."""
    return EXIT_VIOLATION if any(r.verdict == "violated" for r in items) else EXIT_OK


def run_subcommand(name: str, cfg: ExperimentConfig,
                   out_dir: str | None = None) -> tuple[int, dict]:
    """Execute a subcommand; returns (exit_code, artifact checksums)."""
    t0 = time.time()
    out = _OutDir(Path(os.environ.get(OUT_DIR_ENV) or out_dir or cfg.out_dir))
    out.path.mkdir(parents=True, exist_ok=True)
    code = _COMMANDS[name].run(cfg, out)
    files = dict(sorted(out.written.items()))
    out.write_json("manifest.json", {
        "config_hash": cfg.config_hash, "seed": cfg.seed, "version": __version__,
        "files": files, "timings": {"wall_seconds": time.time() - t0}}, indent=1)
    return code, files


def _write_reports(out: _OutDir, reports, name: str, json_name: str | None = None):
    """Bound reports as CSV, and as JSON records when ``json_name`` is given."""
    columns = ("kind", "l", "t", "analytic", "empirical", "se", "n", "verdict")
    rows = [(r.kind, r.layer, r.t, r.analytic, r.empirical, r.se, r.n, r.verdict)
            for r in reports]
    out.write_csv(name, columns, rows)
    if json_name is not None:
        out.write_json(json_name, [dict(zip(columns, row)) for row in rows])


def _run_simulate(cfg: ExperimentConfig, out: _OutDir) -> int:
    x_fixed = cfg.options["input"]
    runs = []
    for i in range(cfg.options["n"]):
        seed_i = item_seed(cfg.seed, "simulate", i)
        if x_fixed is not None:
            x = np.asarray(x_fixed, dtype=float)
        else:
            box = np.asarray(cfg.network.input_box)
            x = stream(cfg.seed, "simulate-x", i).uniform(box[:, 0], box[:, 1])
        runs.append((i, run_network(cfg.network, x, seed_i)))

    out.write_csv("runs.csv", ["run", "layer", "unit", "f", "g", "h", "nu"], (
        [i, l, u, run.f[l][u], run.g[l][u], None if l == 0 else run.h[l - 1][u],
         run.nu[l][u]]
        for i, run in runs for l in range(len(run.f)) for u in range(len(run.f[l]))))
    out.write_json("runs.json", [dict(run=i, **run.to_dict()) for i, run in runs])
    return EXIT_OK


def _run_bounds(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    with _mapper(cfg.workers) as pool_map:
        reports = verify_layer_concentration(
            cfg.network, opts["t_grid"], n=opts["n"], seed=cfg.seed,
            layers=opts["layers"], pilot_n=opts["pilot_n"], map=pool_map)
    _write_reports(out, reports, "bound_reports.csv", "bound_reports.json")
    return _verdict_code(reports)


def _run_classify(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    inputs = [np.asarray(p, dtype=float) for p in opts["inputs"]]
    with _mapper(cfg.workers) as pool_map:
        rows = disagreement_audit(cfg.network, cfg.score, inputs,
                                  n=opts["n"], seed=cfg.seed, map=pool_map)
    out.write_csv("audit.csv", ["input_id", "estimate", "se", "label", "t", "bound",
                                "empirical", "verdict"],
                  [(r.input_id, r.estimate, r.se, r.label, r.t, r.bound, r.empirical,
                    r.verdict) for r in rows])
    return _verdict_code(rows)


def _lsmc_on_network(options) -> bool:
    """Does select-layers simulate from the network?  ``options`` is the raw
    section or the parsed one: absent keys read as the schema's defaults."""
    return options.get("method", "deterministic") == "lsmc" \
        and options.get("gamma") is None and options.get("gamma_table") is None


def _run_select_layers(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    if opts["method"] == "exact":
        sol = select_layers("exact", process=opts["process"])
    elif _lsmc_on_network(opts):
        gamma_spec = GammaSpec(horizon=opts["horizon"], penalty_c=opts["penalty_c"])
        sol = select_layers(
            "lsmc", network_spec=cfg.network, gamma_spec=gamma_spec,
            y_star=np.asarray(opts["y_star"], dtype=float),
            n_trajectories=opts["n_trajectories"], seed=cfg.seed,
            basis_degree=opts["basis_degree"])
    else:
        gamma = np.asarray(opts["gamma"] if opts["gamma"] is not None else
                           np.genfromtxt(opts["gamma_table"], delimiter=",", dtype=float),
                           dtype=float)
        if opts["method"] == "deterministic":
            sol = select_layers("deterministic", gamma=gamma, horizon=opts["horizon"])
        else:
            sol = select_layers("lsmc", gamma=np.atleast_2d(gamma), seed=cfg.seed,
                                basis_degree=opts["basis_degree"])
    out.write_json("selection.json", sol.to_dict())
    out.write_csv("envelope.csv", ["L", "snell"],
                  enumerate(sol.snell_mean, start=1))
    return EXIT_OK


def _symbolic_region_count(network, seed, cap):
    sym = run_symbolic(network, seed, cap=cap)
    f = sym.f_polys[-1][0]
    return seed, f.num_monomials, count_linear_regions(f).count


def _run_regions(cfg: ExperimentConfig, out: _OutDir) -> int:
    poly, sample = cfg.options["polynomial"], cfg.options["sample"]
    if poly is not None:
        # The grid oracle is sound only for d <= 2; the exact count needs no grid.
        exact = count_linear_regions(poly, method="exact-lp")
        rows, counts = [["exact-lp", exact.count, exact.dim]], {"exact_lp": exact.count}
        if exact.dim <= 2:
            grid = count_linear_regions(poly, method="grid-oracle")
            rows.append(["grid-oracle", grid.count, grid.dim])
            counts["grid_oracle"] = grid.count
        out.write_csv("regions.csv", ["method", "count", "dim"], rows)
        out.write_json("regions.json", dict(counts, dim=exact.dim))
        return EXIT_OK
    if cfg.network.p != 1 or cfg.network.thresholds[-1] != "identity":
        raise ConfigError("config.network",
                          "region sampling needs a scalar output with an "
                          "identity last layer")
    seeds = [item_seed(cfg.seed, "regions", i) for i in range(sample["count"])]
    with _mapper(cfg.workers) as pool_map:
        results = list(pool_map(_symbolic_region_count, repeat(cfg.network),
                                seeds, repeat(sample["cap"])))
    out.write_csv("regions.csv", ["seed", "monomials", "regions"], results)
    if sample["t_grid"] is None:
        return EXIT_OK
    b1 = sample["b1"] or max(m for _, m, _ in results)
    reports = region_count_concentration([cnt for _, _, cnt in results], b1,
                                         sample["t_grid"])
    _write_reports(out, reports, "region_reports.csv")
    return _verdict_code(reports)


def _run_mgale_check(cfg: ExperimentConfig, out: _OutDir) -> int:
    opts = cfg.options
    n, a_grid = opts["n"], opts["a_grid"]
    if opts["source"] == "random-walk":
        traj = simulate_random_walk(opts["steps"], n, seed=cfg.seed, dim=opts["dim"])
        reports = walk_tail_reports(traj, a_grid, m=1.0)
        _write_reports(out, reports, "walk_reports.csv")
        if opts["n_grade"]:
            grade = martingale_grade_check(traj[:opts["n_grade"]], seed=cfg.seed)
            _write_grade(grade, out)
    else:
        widths = set(cfg.network.widths[1:])
        if len(widths) != 1:
            raise ConfigError("config.network",
                              "martingale checks need a rectangular network")
        outs = simulate_layer_outputs(cfg.network, n, cfg.seed, tag="mgale")
        nus = np.stack(outs, axis=1)  # (n, L, p)
        centered = nus - nus.mean(axis=0, keepdims=True)
        zeros = np.zeros((n, 1, nus.shape[2]))
        traj = np.concatenate([zeros, centered], axis=1)
        grade = martingale_grade_check(traj, seed=cfg.seed)
        _write_grade(grade, out)
        reports = walk_tail_reports(traj, a_grid, m=grade.increment_bound)
        _write_reports(out, reports, "mgale_reports.csv")
    return _verdict_code(reports)


def _write_grade(grade, out: _OutDir):
    out.write_json("grade_report.json", dataclasses.asdict(grade))


class _Command(NamedTuple):
    """A subcommand: its options, when it needs a network, and its runner."""

    options: dict
    needs_network: Callable  # of the raw section
    run: Callable


_COMMANDS = {
    "simulate": _Command({
        "n": _int(1, 10),
        "input": _Opt("list of d numbers", _point),
    }, lambda section: True, _run_simulate),
    "bounds": _Command({
        "n": _int(1000, 10_000),
        "t_grid": _list("numbers", _number, None),
        "layers": _list("layers in 1..depth",
                        lambda v, net: type(v) is int and 1 <= v <= net.depth, None),
        "pilot_n": _int(1, lambda options, where: options["n"]),
    }, lambda section: True, _run_bounds),
    "classify": _Command({
        "inputs": _list("points of d numbers", _point, _needed()),
        "n": _int(1000, 10_000),
    }, lambda section: True, _run_classify),
    "select-layers": _Command({
        "method": _one_of("deterministic", "exact", "lsmc"),
        "gamma": _Opt("list or matrix of numbers", lambda v, net: _array(v) or _array(v, 2)),
        "gamma_table": _str(_needed(
            "deterministic selection needs a gamma table",
            lambda o: o["method"] == "deterministic" and o["gamma"] is None)),
        "horizon": _int(1, _needed(when=_lsmc_on_network)),
        "y_star": _Opt("nonempty list of numbers", lambda v, net: _array(v),
                       _needed(when=_lsmc_on_network)),
        "process": _object(lambda d: FiniteSupportProcess(**d), _needed(
            "exact induction needs a finite-support process",
            lambda o: o["method"] == "exact")),
        "basis_degree": _int(1, 3),
        "penalty_c": _Opt("number > 0", lambda v, net: _number(v) and v > 0,
                          GammaSpec.penalty_c),
        "n_trajectories": _int(1000, 10_000),
    }, _lsmc_on_network, _run_select_layers),
    "regions": _Command({
        "sample": _Opt("object", {
            "count": _int(1, 100),
            "cap": _int(1, 10_000),
            "b1": _int(2, None),
            "t_grid": _list("numbers", _number, None),
        }),
        "polynomial": _object(polynomial_from_dict, _needed(
            "regions needs a polynomial or a sample block",
            lambda o: o["sample"] is None)),
    }, lambda section: "sample" in section, _run_regions),
    "mgale-check": _Command({
        "source": _one_of("random-walk", "network"),
        "n": _int(1000, lambda o, where: 100_000 if o["source"] == "random-walk"
                  else 5000),
        "a_grid": _list("numbers > 0", lambda v, net: _number(v) and v > 0,
                        lambda o, where: list(np.linspace(1.0, 6.0, 10))
                        if o["source"] == "random-walk" else [1.0, 2.0, 4.0]),
        "steps": _int(1, 20),
        "dim": _int(1, 1),
        "n_grade": _int(0, 0),
    }, lambda section: section.get("source") == "network", _run_mgale_check),
}

SUBCOMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def emit_report(artifact_dir) -> str:
    """Render a markdown summary of the artifacts in a directory.

    Pure function of the artifact contents: regenerating from the same
    files is byte-identical.  The manifest's files are rendered, or every
    CSV and JSON file of the directory when there is no manifest; a listed
    file that is missing is flagged as a gap rather than an error.  Files
    the manifest does not list, such as those of an earlier run into the
    same directory, are left out.
    """
    out = Path(artifact_dir)
    lines = ["# Run report", ""]
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        lines += [f"- config hash: `{manifest['config_hash']}`",
                  f"- seed: {manifest['seed']}",
                  f"- version: {manifest['version']}", ""]
        expected = sorted(manifest["files"])
    else:
        lines += ["- GAP: manifest.json missing", ""]
        expected = sorted(path.name for path in out.iterdir()
                          if path.suffix in (".csv", ".json") and path.is_file())

    found_any = False
    for name in expected:
        path = out / name
        if not path.exists():
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
