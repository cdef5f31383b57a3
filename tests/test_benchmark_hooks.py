"""The benchmark's tracer still finds every tropnet function it wraps.

``perfbench/tracing.py`` looks tropnet functions up by module and name
(``TRACED``).  A renamed or deleted one makes ``perfbench/run.py --trace 1``
crash, so each name is resolved here, and ``install``/``uninstall`` must
leave every tropnet module as it found it.
"""

import concurrent.futures
import importlib
import sys
from pathlib import Path

import pytest

import tropnet.cli  # noqa: F401  (loads every module the tracer patches)
from tropnet.networks import reference_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def resolve(module_name: str, attr: str):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_name_resolves(tracing):
    missing = []
    for module_name, attr, _, _ in tracing.TRACED:
        try:
            assert callable(resolve(module_name, attr))
        except AttributeError:
            missing.append(f"{module_name}:{attr}")
    assert not missing, f"traced names tropnet no longer defines: {missing}"


def tropnet_namespaces() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if (name == "tropnet" or name.startswith("tropnet.")) and module is not None}


def test_install_uninstall_round_trips(tracing):
    before = tropnet_namespaces()
    originals = {(m, a): resolve(m, a) for m, a, _, _ in tracing.TRACED}
    pool = concurrent.futures.ProcessPoolExecutor
    tracer = tracing.Tracer()
    swaps = tracing.install(tracer)
    try:
        assert concurrent.futures.ProcessPoolExecutor is tracing.TracingPool
        for (module_name, attr), original in originals.items():
            assert resolve(module_name, attr) is not original, f"{module_name}:{attr}"
        tropnet.networks.run_network(reference_spec(), [0.1, 0.2], seed=0)
        names = {span[2] for span in tracer.spans}
        assert {"networks.run_network", "networks.sample", "seeding.stream"} <= names
    finally:
        tracing.uninstall(swaps)
    assert tracing.ACTIVE is None
    assert concurrent.futures.ProcessPoolExecutor is pool
    for (module_name, attr), original in originals.items():
        assert resolve(module_name, attr) is original, f"{module_name}:{attr}"
    after = tropnet_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [key for key, value in namespace.items() if after[name].get(key) is not value]
        assert not changed, f"{name} keeps traced {changed}"
