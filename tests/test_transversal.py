import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from transim import transversal
from transim.errors import FacesNotTransverse, TrialsExhausted
from transim.poly import PolyMap
from transim.scenarios import (
    line_member,
    longitude_arcs,
    meridian_member,
    origin_member,
    plane,
    random_transverse_cubic,
    shifted_longitude_arcs,
    tangent_longitude_arcs,
)
from transim.simplex_geom import (
    DeltaMorphism,
    collapse_to_simplex,
    face_for_vertices,
    realize_morphism,
)
from transim.smooth_maps import SmoothSimplexMap, maps_close
from transim.transversal import (
    CornerManifold,
    LocusOptions,
    TCollection,
    intersection_locus,
    is_T_transverse,
    is_transverse_pair,
    perturb_to_transverse,
)

_OPTS = LocusOptions(cells_per_dim=12)


def test_longitude_crosses_meridian_once():
    right, left = longitude_arcs()
    member = meridian_member()
    report = intersection_locus(right, 0, member, 0, _OPTS)
    assert len(report.points) == 1
    p = report.points[0]
    assert abs(p.x[0] - 0.5) < 1e-8
    assert p.member_active == ()
    # the left return arc crosses {y = 0} only at x < 0, outside the member
    assert not intersection_locus(left, 0, member, 0, _OPTS).points


def test_left_arc_verdict_is_vacuous():
    _, left = longitude_arcs()
    v = is_transverse_pair(left, meridian_member(), opts=_OPTS)
    assert v.ok
    assert v.min_sv == math.inf
    assert not v.report.points


def test_triangle_through_origin_is_transverse(crossing_triangle, origin_collection):
    res = is_T_transverse(crossing_triangle, origin_collection, opts=_OPTS)
    assert res.ok
    assert res.min_sv > 0.1
    pts = res.verdicts["origin"].report.points
    assert len(pts) == 1
    assert pts[0].simplex_vanishing == ()


def test_origin_on_open_edge_fails(edge_triangle, origin_collection):
    res = is_T_transverse(edge_triangle, origin_collection, opts=_OPTS)
    assert not res.ok
    w = res.witness()
    assert w is not None
    assert w.simplex_depth == 1
    # an edge plus a point cannot span the plane
    assert w.spanning_sv < 1e-7


def test_tangent_crossing_fails_rank_test():
    tangent, _ = tangent_longitude_arcs()
    v = is_transverse_pair(tangent, meridian_member(), opts=_OPTS)
    assert not v.ok
    assert v.min_sv < 1e-6


def _strip_crossing():
    chart = SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), plane()
    )
    sigma = SmoothSimplexMap.affine_from_vertices(
        np.array([[0.2, -1.0], [0.2, 1.0]]), plane()
    )
    return sigma, CornerManifold.parametric("strip", chart)


def test_parametric_member_crossing():
    sigma, member = _strip_crossing()
    assert member.codim_in_m == 1
    report = intersection_locus(sigma, 0, member, 0, _OPTS)
    assert len(report.points) == 1
    p = report.points[0]
    assert abs(p.x[0] - 0.5) < 1e-8
    assert abs(p.y[0] - 0.6) < 1e-8
    assert np.allclose(p.z, [0.2, 0.0], atol=1e-9)
    assert is_transverse_pair(sigma, member, opts=_OPTS).ok


def test_project_corner_properties():
    rng = np.random.default_rng(51)
    pts = rng.uniform(-2.0, 2.0, (200, 3))
    proj = collapse_to_simplex(pts)
    assert np.all(proj >= 0.0)
    assert np.all(proj.sum(axis=1) <= 1.0 + 1e-12)
    assert np.allclose(collapse_to_simplex(proj), proj, atol=1e-12)
    inside = np.array([[0.2, 0.3, 0.1], [0.0, 0.0, 0.0]])
    assert np.array_equal(collapse_to_simplex(inside), inside)
    # projection is the nearest feasible point; spot-check optimality
    z = np.array([[0.9, 0.8, -0.3]])
    p = collapse_to_simplex(z)[0]
    for d in np.eye(3):
        for s in (1e-4, -1e-4):
            q = collapse_to_simplex((p + s * d)[None, :])[0]
            assert np.linalg.norm(z[0] - q) >= np.linalg.norm(z[0] - p) - 1e-9


def test_perturbation_is_reproducible():
    pt = SmoothSimplexMap.constant(np.zeros(2), plane())
    members = TCollection.of(origin_member())
    a = perturb_to_transverse(pt, members, seed=5, max_trials=10, opts=_OPTS)
    b = perturb_to_transverse(pt, members, seed=5, max_trials=10, opts=_OPTS)
    assert a.trials_used == b.trials_used
    assert np.array_equal(a.s, b.s)
    assert maps_close(a.sigma_prime, b.sigma_prime, tol=0.0)


def test_perturbation_fixes_boundary_exactly():
    seg = SmoothSimplexMap.affine_from_vertices(
        np.array([[-0.8, 0.0], [0.5, 0.0]]), plane()
    )
    members = TCollection.of(line_member())
    assert not is_T_transverse(seg, members, opts=_OPTS).ok
    out = perturb_to_transverse(seg, members, seed=42, max_trials=10, opts=_OPTS)
    assert is_T_transverse(out.sigma_prime, members, simplex_depths=(0,), opts=_OPTS).ok
    for i in range(2):
        beta = DeltaMorphism.face(i, 1)
        assert maps_close(out.sigma_prime.restrict(beta), seg.restrict(beta), tol=0.0)
    assert maps_close(out.sigma_prime.with_last_bump_scale(0.0), seg, tol=0.0)


def test_trials_exhausted_carries_diagnostics():
    pt = SmoothSimplexMap.constant(np.zeros(2), plane())
    members = TCollection.of(origin_member())
    with pytest.raises(TrialsExhausted) as exc:
        perturb_to_transverse(pt, members, seed=5, max_trials=0, opts=_OPTS)
    diag = exc.value.diagnostics
    assert diag["seed"] == 5
    assert diag["per_trial_min_sv"] == []


def test_nontransverse_face_is_reported():
    seg = SmoothSimplexMap.affine_from_vertices(
        np.array([[0.0, 0.0], [1.0, 1.0]]), plane()
    )
    members = TCollection.of(line_member())
    with pytest.raises(FacesNotTransverse):
        perturb_to_transverse(
            seg, members, seed=1, max_trials=5, opts=_OPTS,
            require_transverse_faces=True,
        )


def test_collection_rejects_duplicate_names():
    with pytest.raises(ValueError):
        TCollection.of(origin_member(), origin_member())


def test_member_validation():
    level = PolyMap.affine(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        CornerManifold("bad", plane(), 1, "level_set", level=level)
    with pytest.raises(ValueError):
        CornerManifold("worse", plane(), 1, "mystery")


def _reference_margin(sigma, member, p):
    """Spanning margin of a located point, recomputed from the parent map:
    its Jacobian at x times the face realization, and the member stratum's
    tangent from the level-set constraints at z or from a fresh chart
    restriction at chart coordinates recovered from y."""
    frame = sigma.ambient.tangent_basis(p.z).basis
    n = sigma.dim
    face = realize_morphism(face_for_vertices(
        n, [i for i in range(n + 1) if i not in p.simplex_vanishing]))
    simplex_cols = frame.T @ (sigma.jacobian(p.x) @ face.matrix)
    if member.kind == "level_set":
        rows = [member.level.jac(p.z)] + [member.inequalities[a].jac(p.z)
                                          for a in p.member_active]
        constraints = np.concatenate(rows, axis=0) @ frame
        _, sv, vh = np.linalg.svd(constraints)
        assert sv[-1] > 1e-7
        member_cols = vh[constraints.shape[0]:].T
    else:
        d = member.chart.dim
        gamma = face_for_vertices(d, [i for i in range(d + 1) if i not in p.member_active])
        chart_aff = realize_morphism(gamma)
        v = np.linalg.lstsq(chart_aff.matrix, p.y - chart_aff.offset, rcond=None)[0]
        member_cols = frame.T @ member.chart.restrict(gamma).jacobian(v)
    cols = np.concatenate([simplex_cols, member_cols], axis=1)
    cols = cols / np.maximum(np.linalg.norm(cols, axis=0), 1e-3)
    m = frame.shape[1]
    if cols.shape[1] < m:
        return 0.0
    return float(np.linalg.svd(cols, compute_uv=False)[m - 1])


def _curved_patch_crossing():
    """A segment across a curved triangular patch of the plane; the patch's
    edge opposite vertex 0 is bent by the quadratic terms."""
    base = SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]), plane())
    bend = PolyMap(2, 2, {(1, 1): np.array([0.3, 0.4]), (2, 0): np.array([0.0, -0.2])})
    chart = SmoothSimplexMap.from_poly(base.poly + bend, plane())
    sigma = SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.5, 0.1], [1.5, 0.3]]), plane())
    return sigma, CornerManifold.parametric("patch", chart)


def _margin_cases():
    rng = np.random.default_rng(71)
    origin = origin_member()
    for _ in range(2):
        cubic = random_transverse_cubic(rng, origin, opts=_OPTS)
        for i in range(4):
            yield cubic.restrict(DeltaMorphism.face(i, 3)), origin, None
    meridian = meridian_member()
    for arcs in (longitude_arcs(), shifted_longitude_arcs(), tangent_longitude_arcs()):
        yield arcs[0], meridian, None
    yield (*_strip_crossing(), None)
    yield (*_curved_patch_crossing(), (1,))


def test_located_margins_match_parent_map_reference():
    located = {"level_set": 0, "parametric": 0}
    member_depth_one = 0
    smallest = math.inf
    for sigma, member, member_depths in _margin_cases():
        for k in range(sigma.dim + 1):
            for ell in member_depths or member.depths():
                for p in intersection_locus(sigma, k, member, ell, _OPTS).points:
                    ref = _reference_margin(sigma, member, p)
                    assert p.spanning_sv == pytest.approx(ref, rel=1e-12, abs=0.0)
                    located[member.kind] += 1
                    member_depth_one += member.kind == "parametric" and ell == 1
                    smallest = min(smallest, ref)
    assert located["level_set"] >= 10
    assert member_depth_one >= 1
    assert smallest < 1e-6  # the tangent longitude's crossing is covered


def test_benchmark_tracer_binds_the_locus_entry_points(crossing_triangle,
                                                      origin_collection):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("transim_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        tracer.check_bindings()
        assert transversal.is_T_transverse(crossing_triangle, origin_collection,
                                           opts=_OPTS).ok
        calls = dict(zip(tracer.names, tracer.calls))
        assert calls["transversal.intersection_locus"] > 0
        assert calls["transversal.is_transverse_pair"] == 1
        assert tracer.counters["transversal.intersection_locus.points"] == 1
    finally:
        tracer.uninstall()
    assert not getattr(transversal.intersection_locus, "_bench_traced", False)
