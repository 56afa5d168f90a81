"""Smoke test of the benchmark workloads: each one's first item passes its
oracle, a second fresh round gives it the same digest, and so does a third
round under the benchmark tracer."""

import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("transim_bench_workloads", "workloads.py")


@pytest.fixture(scope="module")
def tracing():
    return _load("transim_bench_workload_tracer", "tracer.py")


@pytest.mark.parametrize("name", ["cocycle_plane", "torus_duality", "retraction_naturality"])
def test_first_item_of_two_fresh_rounds(workloads, tracing, name):
    workload = workloads.WORKLOADS[name](3)
    digests = []
    for _ in range(2):
        workload.start_round()
        digests.append(workload.item(0))  # raises OracleFailure on a wrong result
    assert digests[0] == digests[1]
    # the tracer's hooks read names and fields of the library on every call
    tracer = tracing.Tracer()
    try:
        tracer.install()
        workload.start_round()
        tracer.start_round()
        tracer.item = 0
        traced = workload.item(0)
        tracer.check_bindings()
    finally:
        tracer.uninstall()
    assert traced == digests[0]
    assert tracer.calls[tracer.names.index("poly.PolyMap.compose_affine")] > 0
