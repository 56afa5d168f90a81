"""Smoke test of the benchmark workloads: each one's first item passes its
oracle, a second fresh round gives it the same digest, and so does a third
round under the benchmark tracer.  Skipping Newton on faces certified
root-free changes no digest, and neither do the reuse paths of the record
index, the kernel results and the lattices."""

import collections
import importlib.util
import sys
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


@pytest.mark.parametrize("name", ["cocycle_plane", "retraction_naturality"])
def test_skipping_newton_on_certified_faces_changes_no_output(workloads, monkeypatch, name):
    """Item 0 gives the same digest when no face is certified root-free and
    Newton runs on every face."""
    from transim import transversal

    verdicts = []
    root_free = transversal._root_free

    def recording(*args):
        verdicts.append(root_free(*args))
        return verdicts[-1]

    workload = workloads.WORKLOADS[name](3)
    monkeypatch.setattr(transversal, "_root_free", recording)
    workload.start_round()
    certified = workload.item(0)
    assert any(verdicts)
    monkeypatch.setattr(transversal, "_root_free", lambda *args: False)
    workload.start_round()
    assert workload.item(0) == certified


@pytest.mark.parametrize("name", ["cocycle_plane", "retraction_naturality"])
def test_reference_lookup_construction_and_lattices_change_no_output(workloads, monkeypatch,
                                                                      name):
    """Item 0 gives the same digest with records looked up by a linear scan,
    kernel results built by ``PolyMap.__init__``, and every lattice built
    afresh on each call."""
    from transim import poly, retraction, simplex_geom
    from transim.smooth_maps import maps_close

    workload = workloads.WORKLOADS[name](3)
    workload.start_round()
    reused = workload.item(0)

    calls = collections.Counter()

    def counted(fn):
        def reference(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return reference

    def linear_scan(fam, m, flat):
        return next((rec for rec in fam.records.values()
                     if maps_close(rec.map, m, retraction._DEDUP_TOL)), None)

    monkeypatch.setattr(retraction.FiniteSingularFamily, "_find", counted(linear_scan))
    monkeypatch.setattr(poly, "_from_kernel", counted(poly.PolyMap))
    cached = simplex_geom.principal_lattice  # simplex_grid reads it from simplex_geom
    for module in [m for n, m in sys.modules.items() if n.startswith("transim")]:
        if getattr(module, "principal_lattice", None) is cached:
            monkeypatch.setattr(module, "principal_lattice", counted(cached.__wrapped__))
    workload.start_round()
    assert workload.item(0) == reused
    # cocycle_plane's item 0 smooths nothing and no face of it reaches
    # Newton, so it builds no lattice
    used = ["linear_scan", "PolyMap"] + ["principal_lattice"] * (name != "cocycle_plane")
    assert all(calls[k] for k in used)
