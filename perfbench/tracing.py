"""Outside-in tracing of tropnet: spans and counters around its public calls.

``install`` swaps each traced function, in every loaded ``tropnet`` module
that refers to it, for a wrapper that records a span and feeds a counter
hook; ``uninstall`` puts the originals back.  Nothing under ``src/`` knows
about the tracer.  Spans stay in memory and are collected per operation.

Pool safety.  The harness hands ``simulate_block`` to a
``concurrent.futures.ProcessPoolExecutor``.  While tracing, that class is
replaced by ``TracingPool``, which counts pool starts and submitted tasks
and sends each task through ``_run_task``: the worker resolves the traced
function by name (a wrapper does not pickle), records the task's spans and
counters as children of the span that submitted it, and returns them with
the result.  Worker tracing relies on the ``fork`` start method, under which
workers inherit the installed wrappers; under another start method pooled
work runs untraced and only the pool counters are kept.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import os
import sys
import time
from collections import Counter

import numpy as np

from metrics import Span

#: The tracer that wrappers record into, in this process.  Module level
#: because pool workers reach it through the ``_run_task`` trampoline.
ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # Span fields; tuples are cheaper
        self.counts: Counter = Counter()
        self.stack: list[tuple] = []
        self.base_parent: tuple | None = None
        self.worker_payloads: list = []
        self._ids = itertools.count()

    def new_id(self) -> tuple:
        return (self.pid, next(self._ids))

    def current(self) -> tuple | None:
        return self.stack[-1] if self.stack else self.base_parent

    def record(self, name: str, fn, args, kwargs):
        sid = self.new_id()
        parent = self.current()
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def reset(self, base_parent=None):
        """Start a fresh operation (or pool task) under ``base_parent``."""
        self.pid = os.getpid()
        self.spans, self.counts, self.stack = [], Counter(), []
        self.worker_payloads = []
        self.base_parent = base_parent

    def collect(self):
        """Spans and counters of the operation, worker payloads merged in."""
        spans, counts = list(self.spans), Counter(self.counts)
        for w_spans, w_counts in self.worker_payloads:
            spans.extend(w_spans)
            counts.update(w_counts)
        return [Span(*s) for s in spans], counts


# ---------------------------------------------------------------------------
# Counter hooks: (counts, args, kwargs, result)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _macs(spec) -> int:
    return sum(spec.widths[l] * spec.widths[l - 1] for l in range(1, spec.depth + 1))


def _on_sample(counts, args, kwargs, result):
    counts["networks.sample.values"] += int(np.size(result))


def _on_simulate(counts, args, kwargs, result):
    spec, n = _arg(args, kwargs, 0, "spec"), int(_arg(args, kwargs, 1, "n"))
    macs = n * _macs(spec)
    counts["networks.draws"] += n
    counts["networks.kernel.mac"] += macs
    counts["networks.weights.bytes_computed"] += macs * np.dtype(float).itemsize


def _on_run_network(counts, args, kwargs, result):
    counts["networks.draws"] += 1


def _on_count_regions(counts, args, kwargs, result):
    if result.method == "exact-lp":
        counts["tropical.regions"] += result.count
        counts["tropical.monomials"] += _arg(args, kwargs, 0, "f").num_monomials


def _on_prune(counts, args, kwargs, result):
    counts["tropical.prune.monomials_in"] += _arg(args, kwargs, 0, "f").num_monomials
    counts["tropical.prune.monomials_out"] += result.num_monomials


def _on_reports(counts, args, kwargs, result):
    counts["bounds.reports"] += len(result)
    counts["bounds.violated"] += sum(r.verdict == "violated" for r in result)


def _on_audit(counts, args, kwargs, result):
    counts["classifier.inputs"] += len(result)
    counts["classifier.resolved"] += sum(r.verdict != "unresolved" for r in result)
    counts["classifier.violated"] += sum(r.verdict == "violated" for r in result)


def _on_lsmc(counts, args, kwargs, result):
    asked = int(args[1]) if len(args) > 1 else int(kwargs.get("basis_degree", 3))
    fitted = result.extras.get("basis_degrees", ())[:-1]  # last depth is not fitted
    counts["stopping.lsmc.degree_drops"] += sum(asked - d for d in fitted)


#: (module, attribute, span name, counter hook).  ``DistributionSpec.sample``
#: is a method, patched on its class.
TRACED = (
    ("tropnet.seeding", "stream", "seeding.stream", None),
    ("tropnet.networks", "DistributionSpec.sample", "networks.sample", _on_sample),
    ("tropnet.networks", "simulate_layer_outputs", "networks.simulate", _on_simulate),
    ("tropnet.networks", "simulate_block", "networks.simulate", _on_simulate),
    ("tropnet.networks", "run_network", "networks.run_network", _on_run_network),
    ("tropnet.networks", "run_symbolic", "networks.run_symbolic", None),
    ("tropnet.networks", "propagate_intervals", "networks.propagate_intervals", None),
    ("tropnet.tropical", "linprog", "tropical.lp", None),
    ("tropnet.tropical", "count_linear_regions", "tropical.count_regions", _on_count_regions),
    ("tropnet.tropical", "poly_mul", "tropical.poly_mul", None),
    ("tropnet.tropical", "prune_redundant_monomials", "tropical.prune", _on_prune),
    ("tropnet.bounds", "verify_layer_concentration", "bounds.verify", _on_reports),
    ("tropnet.bounds", "estimate_tail", "bounds.estimate_tail", None),
    ("tropnet.bounds", "region_count_concentration", "bounds.region_concentration",
     _on_reports),
    ("tropnet.classifier", "disagreement_audit", "classifier.audit", _on_audit),
    ("tropnet.classifier", "expected_score", "classifier.expected_score", None),
    ("tropnet.stopping", "select_layers", "stopping.select", None),
    ("tropnet.stopping", "simulate_gamma_trajectories", "stopping.gamma", None),
    ("tropnet.stopping", "backward_induction_lsmc", "stopping.lsmc", _on_lsmc),
)


def _wrap(tracer: Tracer, key: str, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.record(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result
    traced.traced_key = key
    return traced


class TracingPool(concurrent.futures.ProcessPoolExecutor):
    """ProcessPoolExecutor that counts starts and tasks and traces tasks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        ACTIVE.counts["harness.pool.starts"] += 1

    def submit(self, fn, /, *args, **kwargs):
        tracer = ACTIVE
        tracer.counts["harness.pool.tasks"] += 1
        target = getattr(fn, "traced_key", fn)
        inner = super().submit(_run_task, tracer.current(), target, args, kwargs)
        outer = concurrent.futures.Future()

        def relay(done):
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            result, payload = done.result()
            if payload is not None:
                tracer.worker_payloads.append(payload)
            outer.set_result(result)

        inner.add_done_callback(relay)
        return outer


def _run_task(parent, target, args, kwargs):
    """Pool-worker trampoline: run one task, return (result, payload)."""
    if isinstance(target, str):
        module, attr = target.split(":")
        target = getattr(importlib.import_module(module), attr)
    tracer = ACTIVE
    if tracer is None:
        return target(*args, **kwargs), None
    tracer.reset(base_parent=parent)
    result = target(*args, **kwargs)
    return result, (list(tracer.spans), dict(tracer.counts))


# ---------------------------------------------------------------------------
# Install / uninstall
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> list:
    """Wrap every traced function wherever a tropnet module refers to it.

    Returns the swaps made, as (namespace, attribute, original) triples.
    """
    global ACTIVE
    ACTIVE = tracer
    swaps = []

    def swap(namespace, attr, new):
        swaps.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "tropnet" or n.startswith("tropnet.")) and m is not None]
    for module_name, attr, name, hook in TRACED:
        key = f"{module_name}:{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            swap(cls, meth, _wrap(tracer, key, name, getattr(cls, meth), hook))
            continue
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, key, name, original, hook)
        for m in modules:
            for ref, value in list(vars(m).items()):
                if value is original:
                    swap(m, ref, wrapper)
    swap(concurrent.futures, "ProcessPoolExecutor", TracingPool)
    return swaps


def uninstall(swaps: list):
    global ACTIVE
    for namespace, attr, original in reversed(swaps):
        setattr(namespace, attr, original)
    ACTIVE = None
