"""Smoke test of the benchmark workloads: each one's first item passes its
oracle, and a second fresh round gives it the same digest."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("transim_bench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cocycle_plane", "torus_duality", "retraction_naturality"])
def test_first_item_of_two_fresh_rounds(workloads, name):
    workload = workloads.WORKLOADS[name](3)
    digests = []
    for _ in range(2):
        workload.start_round()
        digests.append(workload.item(0))  # raises OracleFailure on a wrong result
    assert digests[0] == digests[1]
