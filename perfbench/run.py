"""Benchmark of the tropnet CLI, end to end and layer by layer.

Run from the root of a tropnet checkout:

    python3 perfbench/run.py --workload numeric-round --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each operation is one ``tropnet.cli.main([...])`` call on a config generated
from the seed, into its own fresh output directory.  A round runs each step
of the workload once.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced rounds on one
set of configs and reports the per-layer metrics.  The artifacts are
checked after the timed loop.  The last line of standard
output is one JSON object; the lines before it are for people.  See
``perfbench/README.md`` for the workloads, metrics and predictions.
"""

import os

#: BLAS threads per process.  Pinned before numpy loads so that
#: workers x BLAS threads never exceeds the CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from metrics import (fail_ratio, layer_metrics, merge_layers, summarize,  # noqa: E402
                     throughput)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters timed per workload for setup_s; the median is reported.
SETUP_REPEATS = 5
MAX_WORKERS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("draws_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tropnet.cli
from tropnet.harness import parse_config
for subcommand, path in zip(sys.argv[2::2], sys.argv[3::2]):
    with open(path) as fh:
        parse_config(subcommand, json.load(fh))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to alternate every workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Op:
    """One CLI call: its step, config, output directory, exit code and timing."""

    def __init__(self, step, cfg, out: Path):
        self.step, self.cfg, self.out = step, cfg, out
        self.code = None
        self.wall = 0.0
        self.errors: list[str] = []
        self.draws = 0
        # filled in for traced calls only
        self.layer: dict | None = None
        self.top: dict = {}
        self.root_s = 0.0
        self.traced_draws = None

    def run(self, cli, tracer=None) -> float:
        """Time one ``cli.main`` call, traced when a tracer is given."""
        config_path = self.out.with_suffix(".json")
        config_path.write_text(json.dumps(self.cfg, sort_keys=True))
        argv = [self.step.subcommand, "--config", str(config_path),
                "--out", str(self.out)]
        swaps = None
        if tracer is not None:
            tracer.reset()
            swaps = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            self.code = tracer.record("cli.main", cli.main, (argv,), {}) \
                if tracer is not None else cli.main(argv)
        except Exception:  # the loop must go on; the op counts as failed
            self.code = 1
            self.errors.append(traceback.format_exc(limit=3))
        finally:
            self.wall = time.perf_counter() - t0
            if swaps is not None:
                tracing.uninstall(swaps)
        return self.wall


def new_round(workload, seed, index, workers, where: Path, tag="") -> list[Op]:
    """The ops of round ``index``: one call of each step, each with its own
    config and fresh output directory."""
    return [Op(step, step.config(seed, index, workers if step.pooled else 1),
               where / f"{step.name}{tag}-{index}") for step in workload.steps]


def check_op(op: Op, tracer_draws=None):
    """Correctness checks, outside the timed region."""
    from workloads import check_artifacts
    if op.code not in (0, 2):
        op.errors.append(f"exit code {op.code}")
        return
    try:
        op.errors += check_artifacts(op.out)
        op.errors += op.step.check(op.cfg, op.out)
        op.draws = op.step.draws(op.cfg, op.out)
    except (OSError, ValueError, KeyError) as exc:
        op.errors.append(f"{type(exc).__name__}: {exc}")
    if tracer_draws is not None and op.step.numeric and tracer_draws != op.draws:
        op.errors.append(f"traced draws {tracer_draws} != draws from the "
                         f"artifacts {op.draws}")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def peak_rss_mib() -> float:
    """Larger of this process's peak RSS and its largest child's (MiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def time_setup(ops: list[Op], where: Path) -> float:
    """One fresh interpreter: import ``tropnet.cli`` and parse the configs
    of one round."""
    args = []
    for op in ops:
        path = where / f"setup-{op.out.name}.json"
        path.write_text(json.dumps(op.cfg, sort_keys=True))
        args += [op.step.subcommand, str(path)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)] + args,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def environment(workers: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "workers": workers, "pool_start_method": multiprocessing.get_start_method()}


def alternate(workloads, seconds, run_one, done=lambda name: True):
    """Run one round at a time, always of the workload with the least
    measured time, until each has had ``seconds`` and is ``done``."""
    busy = {w.name: 0.0 for w in workloads}
    while True:
        pending = [n for n in busy if busy[n] < seconds or not done(n)]
        if not pending:
            return
        name = min(pending, key=busy.get)
        busy[name] += run_one(name)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(cli, workloads, seed, seconds, workers, where: Path) -> dict:
    """Alternate rounds over ``workloads`` until each had ``seconds``.

    The ``SETUP_REPEATS`` fresh interpreters of ``setup_s`` are spread over
    the run, one each time another share of ``seconds`` has been measured.
    """
    rounds = {w.name: [] for w in workloads}
    setups = {w.name: [] for w in workloads}
    by_name = {w.name: w for w in workloads}

    def run_one(name):
        ops = new_round(by_name[name], seed, len(rounds[name]), workers, where)
        measured = sum(op.wall for past in rounds[name] for op in past)
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * measured / seconds))
        while len(setups[name]) < due:
            setups[name].append(time_setup(ops, where))
        rounds[name].append(ops)
        return sum(op.run(cli) for op in ops)

    alternate(workloads, seconds, run_one)
    peak = peak_rss_mib()

    results = {}
    for w in workloads:
        while len(setups[w.name]) < SETUP_REPEATS:
            setups[w.name].append(time_setup(rounds[w.name][-1], where))
        ops = [op for r in rounds[w.name] for op in r]
        for op in ops:
            check_op(op)
        for i, step in enumerate(w.steps):
            if step.pooled and rounds[w.name][0][i].code in (0, 2):
                serial_identity_check(cli, rounds[w.name][0][i], where)
        good = [op for op in ops if not op.errors]
        failed, attempted, share = fail_ratio((op.code, op.errors) for op in ops)
        results[w.name] = {
            "workload": w, "ops": ops, "failed": failed, "attempted": attempted,
            "fail_ratio": share,
            "wall": summarize(sum(op.wall for op in r) for r in rounds[w.name]),
            "draws": sum(op.draws for op in good),
            "rate": throughput([op.draws for op in good], [op.wall for op in good]),
            "setup": summarize(setups[w.name]),
            "peak_rss_mb": peak,
        }
    return results


def serial_identity_check(cli, op: Op, where: Path):
    """bound_reports.csv must be byte-identical at 1 and at 2 workers."""
    serial = Op(op.step, dict(op.cfg, workers=1), where / f"{op.out.name}-serial")
    serial.run(cli)
    a, b = op.out / "bound_reports.csv", serial.out / "bound_reports.csv"
    if serial.code not in (0, 2) or a.read_bytes() != b.read_bytes():
        op.errors.append("bound_reports.csv differs between workers "
                         f"{op.cfg['workers']} and 1")


def report_measure(results) -> dict:
    metrics = {}
    for name, r in results.items():
        print(f"== {name}: {r['wall']['n']} rounds, {r['attempted']} ops, "
              f"{r['failed']} failed, fail_ratio {r['failed']}/{r['attempted']} "
              f"= {r['fail_ratio']:.3f}")
        values = {"wall_s": r["wall"]["mean"],
                  "draws_per_s": r["rate"],
                  "setup_s": r["setup"]["median"],
                  "peak_rss_mb": r["peak_rss_mb"]}
        notes = {"wall_s": f"mean of {r['wall']['n']} rounds, "
                           + _sample_note(r["wall"]),
                 "draws_per_s": f"{r['draws']} draws over the error-free ops",
                 "setup_s": f"median of {r['setup']['n']} fresh interpreters",
                 "peak_rss_mb": "process or largest child"}
        for metric, unit in END_TO_END:
            print(f"   {metric:<12} {values[metric]:>14.6g} {unit:<4} {notes[metric]}")
            metrics[metric if len(results) == 1 else f"{name}.{metric}"] = \
                {"value": values[metric], "unit": unit}
        for step in r["workload"].steps:
            walls = summarize(op.wall for op in r["ops"] if op.step is step)
            print(f"   step {step.name:<18} {walls['mean']:>8.4f} s mean, "
                  + _sample_note(walls))
        for op in r["ops"]:
            for err in op.errors:
                print(f"   FAILED {op.out.name}: {err}")
    return metrics


def _sample_note(summary) -> str:
    note = f"median {summary['median']:.6g} of {summary['n']}"
    if summary["tail"] is not None:
        q, v = summary["tail"]
        note += f", p{q:g} {v:.6g}"
    return note


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def measure_traced(cli, workloads, seed, seconds, workers, where: Path) -> dict:
    """Alternate traced and untraced rounds on each workload's round 0."""
    tracer = tracing.Tracer()
    runs = {w.name: {"traced": [], "plain": []} for w in workloads}
    by_name = {w.name: w for w in workloads}
    for w in workloads:  # untimed: lazy set-up would load the first round
        for op in new_round(w, seed, 0, workers, where, "-warmup"):
            op.run(cli)

    def run_one(name):
        w, r = by_name[name], runs[name]
        kind = "traced" if len(r["traced"]) <= len(r["plain"]) else "plain"
        ops = new_round(w, seed, 0, workers, where, f"-{kind}-{len(r[kind])}")
        r[kind].append(ops)
        for op in ops:
            op.run(cli, tracer if kind == "traced" else None)
            if kind == "traced":
                spans, counts = tracer.collect()
                counts["harness.artifact.bytes"] = \
                    dir_bytes(op.out) if op.out.is_dir() else 0
                root = next(s for s in spans if s.name == "cli.main")
                op.layer = layer_metrics(spans, counts, root, op.step.spec.depth)
                op.top = _top_level(spans, root)
                op.root_s = root.duration
                op.traced_draws = counts.get("networks.draws", 0)
        return sum(op.wall for op in ops)

    alternate(workloads, seconds, run_one,
              done=lambda name: runs[name]["traced"] and runs[name]["plain"])

    results = {}
    for w in workloads:
        r = runs[w.name]
        for op in (op for ops in r["traced"] for op in ops):
            check_op(op, op.traced_draws)
        for op in (op for ops in r["plain"] for op in ops):
            check_op(op)
        ops = [op for ops in r["traced"] + r["plain"] for op in ops]
        failed, attempted, share = fail_ratio((op.code, op.errors) for op in ops)
        traced = [_traced_round(ops) for ops in r["traced"]]
        traced_wall = statistics.fmean(t["wall"] for t in traced)
        plain_wall = statistics.fmean(sum(op.wall for op in ops) for ops in r["plain"])
        layer = {k: statistics.median(t["layer"][k] for t in traced)
                 for k in traced[0]["layer"]}
        layer["trace.overhead"] = traced_wall / plain_wall - 1.0
        mid = sorted(traced, key=lambda t: t["wall"])[len(traced) // 2]
        results[w.name] = {"ops": ops, "failed": failed, "attempted": attempted,
                           "fail_ratio": share, "layer": layer, "mid": mid,
                           "traced_wall": traced_wall, "plain_wall": plain_wall,
                           "n_traced": len(r["traced"]), "n_plain": len(r["plain"])}
    return results


def _traced_round(ops: list[Op]) -> dict:
    """A traced round's layer metrics, top-level spans and times."""
    top: dict = {}
    for op in ops:
        for k, v in op.top.items():
            top[k] = top.get(k, 0.0) + v
    return {"layer": merge_layers(op.layer for op in ops), "top": top,
            "root_s": sum(op.root_s for op in ops),
            "wall": sum(op.wall for op in ops)}


def _top_level(spans, root) -> dict:
    """Summed duration of the root's direct children, by span name."""
    top: dict = {}
    for s in spans:
        if s.parent == root.id:
            top[s.name] = top.get(s.name, 0.0) + s.duration
    return top


def report_traced(results, per_layer) -> dict:
    metrics = {}
    for name, r in results.items():
        print(f"== {name} (traced): {r['n_traced']} traced and {r['n_plain']} "
              f"untraced rounds, {r['failed']} failed, fail_ratio "
              f"{r['failed']}/{r['attempted']} = {r['fail_ratio']:.3f}")
        for metric, unit in per_layer:
            value = r["layer"][metric]
            print(f"   {metric:<34} {value:>14.6g} {unit}")
            metrics[metric if len(results) == 1 else f"{name}.{metric}"] = \
                {"value": value, "unit": unit}
        mid = r["mid"]
        parts = " + ".join(f"{k} {v:.4f}" for k, v in sorted(mid["top"].items()))
        print(f"   accounting, median traced round: {parts} + harness.other_s "
              f"{mid['layer']['harness.other_s']:.4f} = cli.main {mid['root_s']:.4f} s "
              f"of wall_s {mid['wall']:.4f} s")
        print(f"   traced wall_s mean {r['traced_wall']:.4f} s / untraced "
              f"{r['plain_wall']:.4f} s - 1 = trace.overhead "
              f"{r['layer']['trace.overhead']:+.4f}")
        for op in r["ops"]:
            for err in op.errors:
                print(f"   FAILED {op.out.name}: {err}")
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropnet" / "cli.py").is_file():
        print(f"error: {SRC / 'tropnet'} not found; run from the root of a "
              f"tropnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tropnet import cli
    from workloads import WORKLOADS

    if args.workload == "all":
        workloads = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        workloads = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))

    WORK.mkdir(exist_ok=True)
    where = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            with open(ROOT / "BENCHMARK.json") as fh:
                per_layer = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
            results = measure_traced(cli, workloads, args.seed, args.seconds,
                                     workers, where)
            metrics = report_traced(results, per_layer)
        else:
            results = measure(cli, workloads, args.seed, args.seconds, workers, where)
            metrics = report_measure(results)
    finally:
        shutil.rmtree(where, ignore_errors=True)

    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print("env: " + json.dumps(environment(workers), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
