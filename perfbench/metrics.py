"""Arithmetic of the benchmark: summaries, self times and layer metrics.

Everything here is a pure function of numbers, spans and counters, so the
tests in ``test_metrics.py`` can check it on synthetic data without
running tropnet.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Tails considered for a timing, as 1/share of the samples beyond them
#: (p99.9, p99, p90).  One is reported only when at least
#: ``TAIL_MIN_BEYOND`` samples lie beyond it.
TAIL_SHARES = (1000, 100, 10)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    id: tuple
    parent: tuple | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Mean, median, sample count and the highest tail percentile that has
    at least ``TAIL_MIN_BEYOND`` samples beyond it (None when none has)."""
    xs = list(values)
    if not xs:
        raise ValueError("summary of no values")
    tail = None
    for share in TAIL_SHARES:
        if len(xs) >= TAIL_MIN_BEYOND * share:
            q = 100.0 - 100.0 / share
            tail = (q, percentile(xs, q))
            break
    return {"mean": statistics.fmean(xs), "median": statistics.median(xs),
            "n": len(xs), "tail": tail}


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Operation outcomes
# ---------------------------------------------------------------------------

def throughput(work, walls) -> float:
    """Work done per second over a run: total work over total time."""
    return ratio(sum(work), sum(walls))


def fail_ratio(outcomes) -> tuple[int, int, float]:
    """(failed, attempted, failed / attempted) over (exit_code, errors) pairs.

    An operation fails on exit code 1 (or any code but 0 and 2), or when one
    of its correctness checks fails.  Exit 2 is a bound-violation verdict,
    which is a result, not a failure.
    """
    outcomes = list(outcomes)
    failed = sum(code not in (0, 2) or bool(errs) for code, errs in outcomes)
    return failed, len(outcomes), ratio(failed, len(outcomes))


def classify_draws(n: int, verdicts) -> int:
    """Network draws of one classify call.

    Every input pays a pilot run of ``n`` draws; only an input the audit
    resolves pays the evaluation run of another ``n``.
    """
    verdicts = list(verdicts)
    return n * len(verdicts) + n * sum(v != "unresolved" for v in verdicts)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def children_index(spans) -> dict:
    index: dict = {}
    for s in spans:
        index.setdefault(s.parent, []).append(s)
    return index


def covered(span: Span, children) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers.

    Children running in parallel (pool workers) overlap; the union counts
    each instant once.
    """
    pieces = sorted((max(c.start, span.start), min(c.end, span.end))
                    for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, index: dict) -> float:
    """Duration minus the part of it that child spans cover."""
    return span.duration - covered(span, index.get(span.id, ()))


def total_time(spans, name: str) -> float:
    """Summed duration of every span called ``name`` (busy time; spans in
    parallel workers add up)."""
    return sum((s.duration for s in spans if s.name == name), 0.0)


def total_self_time(spans, name: str, index: dict | None = None) -> float:
    index = children_index(spans) if index is None else index
    return sum((self_time(s, index) for s in spans if s.name == name), 0.0)


def count_calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def other_time(root: Span, index: dict) -> float:
    """Root time not inside any top-level layer span (harness.other_s).

    The top-level spans are the root's direct children.  They run one after
    another in the calling thread, so their durations add.
    """
    return root.duration - sum(c.duration for c in index.get(root.id, ()))


#: Ratio metrics as (numerator, denominator) of additive layer values.
#: Recomputed after summing, never summed themselves.
RATIOS = {
    "networks.kernel.mac_per_s": ("networks.kernel.mac", "networks.kernel.s"),
    "tropical.lp.useful_ratio": ("tropical.regions", "tropical.lp.counting_calls"),
    "classifier.audit.resolved_ratio": ("classifier.resolved", "classifier.inputs"),
}


def with_ratios(values: dict) -> dict:
    out = dict(values)
    for name, (num, den) in RATIOS.items():
        out[name] = ratio(out[num], out[den])
    return out


def merge_layers(per_call) -> dict:
    """Layer metrics of several calls (one round): additive values summed,
    ratios recomputed from the sums."""
    per_call = list(per_call)
    return with_ratios({k: sum(m[k] for m in per_call)
                        for k in per_call[0] if k not in RATIOS})


def layer_metrics(spans, counts: dict, root: Span, depth: int) -> dict:
    """Per-layer metrics of one traced call.

    ``spans`` are every span of the call, including those recorded in
    pool workers; ``counts`` the counters the tracer hooks add up; ``depth``
    the number of layers of the simulated network.  Besides the reported
    metrics the result holds the numerators and denominators of ``RATIOS``,
    so that calls can be merged.
    """
    index = children_index(spans)
    c = counts.get
    kernel_s = total_self_time(spans, "networks.simulate", index)
    by_id = {s.id: s for s in spans}
    counting_lps = sum(1 for s in spans if s.name == "tropical.lp"
                       and s.parent in by_id
                       and by_id[s.parent].name == "tropical.count_regions")
    return with_ratios({
        "networks.sample.s": total_time(spans, "networks.sample"),
        "networks.sample.calls": count_calls(spans, "networks.sample"),
        "networks.sample.values": c("networks.sample.values", 0),
        "networks.kernel.s": kernel_s,
        "networks.kernel.s_per_layer": ratio(kernel_s, depth),
        "networks.kernel.mac": c("networks.kernel.mac", 0),
        "networks.weights.bytes_computed": c("networks.weights.bytes_computed", 0),
        "networks.draws": c("networks.draws", 0),
        "networks.run_network.s": total_time(spans, "networks.run_network"),
        "networks.run_network.calls": count_calls(spans, "networks.run_network"),
        "networks.run_symbolic.s": total_time(spans, "networks.run_symbolic"),
        "networks.run_symbolic.calls": count_calls(spans, "networks.run_symbolic"),
        "networks.propagate_intervals.s": total_time(spans, "networks.propagate_intervals"),
        "seeding.stream.calls": count_calls(spans, "seeding.stream"),
        "seeding.stream.s": total_time(spans, "seeding.stream"),
        "tropical.lp.calls": count_calls(spans, "tropical.lp"),
        "tropical.lp.s": total_time(spans, "tropical.lp"),
        "tropical.lp.counting_calls": counting_lps,
        "tropical.regions": c("tropical.regions", 0),
        "tropical.count_regions.calls": count_calls(spans, "tropical.count_regions"),
        "tropical.count_regions.self_s": total_self_time(spans, "tropical.count_regions", index),
        "tropical.poly_mul.calls": count_calls(spans, "tropical.poly_mul"),
        "tropical.poly_mul.s": total_time(spans, "tropical.poly_mul"),
        "tropical.prune.calls": count_calls(spans, "tropical.prune"),
        "tropical.prune.monomials_in": c("tropical.prune.monomials_in", 0),
        "tropical.prune.monomials_out": c("tropical.prune.monomials_out", 0),
        "tropical.monomials": c("tropical.monomials", 0),
        "bounds.verify.self_s": total_self_time(spans, "bounds.verify", index),
        "bounds.estimate_tail.calls": count_calls(spans, "bounds.estimate_tail"),
        "bounds.estimate_tail.s": total_time(spans, "bounds.estimate_tail"),
        "bounds.reports": c("bounds.reports", 0),
        "bounds.violated": c("bounds.violated", 0),
        "classifier.audit.self_s": total_self_time(spans, "classifier.audit", index),
        "classifier.expected_score.calls": count_calls(spans, "classifier.expected_score"),
        "classifier.inputs": c("classifier.inputs", 0),
        "classifier.resolved": c("classifier.resolved", 0),
        "classifier.violated": c("classifier.violated", 0),
        "stopping.gamma.self_s": total_self_time(spans, "stopping.gamma", index),
        "stopping.lsmc.s": total_time(spans, "stopping.lsmc"),
        "stopping.lsmc.degree_drops": c("stopping.lsmc.degree_drops", 0),
        "harness.pool.starts": c("harness.pool.starts", 0),
        "harness.pool.tasks": c("harness.pool.tasks", 0),
        "harness.other_s": other_time(root, index),
        "harness.artifact.bytes": c("harness.artifact.bytes", 0),
    })
