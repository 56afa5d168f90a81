import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from transim import transversal
from transim.errors import TrialsExhausted
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
    simplex_grid,
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
    frame = sigma.ambient.tangent_basis(p.z)
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


def _fixed_budget_newton(linearize, seeds, opts, clip=collapse_to_simplex):
    """Gauss-Newton without the fixed-point exit: it runs out the iteration
    budget unless the block converges or its linearization vanishes."""
    u = seeds.copy()
    for _ in range(transversal._MAX_ITERS):
        r, j = linearize(u)
        norms = np.max(np.abs(r), axis=1)
        if np.all(norms <= opts.tau_root) or not j.any():
            return u, norms
        step = np.einsum("pij,pj->pi", np.linalg.pinv(j), r)
        u = clip(u - step)
    r, _ = linearize(u)
    return u, np.max(np.abs(r), axis=1)


def test_newton_fixed_point_exit_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(72)
    origin = origin_member()
    cubics = [random_transverse_cubic(rng, origin, opts=_OPTS) for _ in range(2)]
    meridian = meridian_member()
    cases = [(c, origin, LocusOptions(cells_per_dim=cells))
             for c in cubics for cells in (8, 16)]
    cases += [(arcs[0], meridian, _OPTS)
              for arcs in (longitude_arcs(), tangent_longitude_arcs())]
    sigma, strip = _strip_crossing()
    cases.append((sigma, strip, _OPTS))

    exit_newton = transversal._batched_newton
    calls = {}  # (member, seed columns) -> [with exit, fixed budget]

    def compare(linearize, seeds, opts, clip, key):
        counts = [0, 0]

        def counting(slot):
            def lin(u):
                counts[slot] += 1
                return linearize(u)
            return lin

        got = exit_newton(counting(0), seeds, opts, clip)
        ref = _fixed_budget_newton(counting(1), seeds, opts, clip)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        assert counts[0] <= counts[1]
        tally = calls.setdefault(key, [0, 0])
        tally[0] += counts[0]
        tally[1] += counts[1]
        return got

    def both(linearize, seeds, opts, clip=collapse_to_simplex):
        return compare(linearize, seeds, opts, clip, (member.name, seeds.shape[1]))

    monkeypatch.setattr(transversal, "_batched_newton", both)
    for sigma, member, opts in cases:
        for k in range(sigma.dim + 1):
            for ell in member.depths():
                intersection_locus(sigma, k, member, ell, opts)
    assert {"origin", "meridian", "strip"} <= {name for name, _ in calls}

    # The edges of a cubic miss the origin, so the exclusion test skips
    # their Newton solves; drive those solves directly with the edge
    # residual and Jacobian of the level-set path.
    level = origin.level
    for c in cubics:
        for kept in itertools.combinations(range(4), 2):
            edge = c.restrict(face_for_vertices(3, kept))

            def linearize(w, edge=edge):
                z = edge.eval_many(w)
                return level.eval_many(z), np.einsum(
                    "pij,pjk->pik", level.jac_many(z), edge.jacobian_many(w))

            for cells in (8, 16):
                compare(linearize, simplex_grid(1, cells + 1),
                        LocusOptions(cells_per_dim=cells), collapse_to_simplex,
                        ("origin edge", 1))
    # and their solves stall early
    edge_exit, edge_budget = calls[("origin edge", 1)]
    assert edge_exit < edge_budget


@pytest.mark.parametrize("kwargs", [
    {"cells_per_dim": 0}, {"cells_per_dim": -3}, {"cells_per_dim": 8.0},
    {"cells_per_dim": True}, {"tau_root": float("nan")}, {"tau_root": float("inf")},
    {"tau_root": 0.0}, {"tau_root": -1e-10},
])
def test_locus_options_are_validated(kwargs):
    with pytest.raises(ValueError):
        LocusOptions(**kwargs)
    assert LocusOptions(cells_per_dim=1, tau_root=1e-3) == LocusOptions(1, 1e-3)


# -- the root-free exclusion test ----------------------------------------------------


@pytest.fixture(scope="module")
def cubics():
    rng = np.random.default_rng(91)
    return [random_transverse_cubic(rng, origin_member()) for _ in range(20)]


def _exclusion_verdicts(monkeypatch, force_newton=False):
    """Record the verdict of every root-free test, keyed by (member,
    vanishing, active, cells) of its face solve.  With ``force_newton`` the
    Newton path runs on every certified face anyway and the residual norms
    it returns are recorded under the same key; the other faces are not
    under test and skip Newton."""
    verdicts, norms, key = {}, {}, []
    solve = transversal._solve_descriptor_pair
    root_free = transversal._root_free
    newton = transversal._batched_newton

    def keyed_solve(sigma, member, vanishing, active, cells, opts):
        key[:] = [(member.name, vanishing, active, cells)]
        return solve(sigma, member, vanishing, active, cells, opts)

    def recording_root_free(*args):
        verdicts[key[0]] = root_free(*args)
        return verdicts[key[0]] and not force_newton

    def recording_newton(linearize, seeds, opts, clip=collapse_to_simplex):
        if not verdicts[key[0]]:
            return seeds, np.full(len(seeds), np.inf)
        sols, res = newton(linearize, seeds, opts, clip)
        norms[key[0]] = res
        return sols, res

    monkeypatch.setattr(transversal, "_solve_descriptor_pair", keyed_solve)
    monkeypatch.setattr(transversal, "_root_free", recording_root_free)
    if force_newton:
        monkeypatch.setattr(transversal, "_batched_newton", recording_newton)
    return verdicts, norms


def test_certified_faces_give_newton_no_candidate(monkeypatch, cubics):
    origin, axis = origin_member(), line_member()
    # bumped maps: perturbed cubics (degree 4 inside) and perturbed faces
    # of cubics (degree 3 inside), as perturb_to_transverse builds them
    bumped = []
    for i, c in enumerate(cubics[:3]):
        for sigma in (c, c.restrict(DeltaMorphism.face(0, 3))):
            out = perturb_to_transverse(sigma, TCollection.of(origin), seed=i)
            assert out.sigma_prime.bumps
            bumped.append(out.sigma_prime)
    verdicts, norms = _exclusion_verdicts(monkeypatch, force_newton=True)
    tau = LocusOptions().tau_root
    certified = {}  # (member, depth, bumped) -> [certified, tested]
    for sigma in cubics + bumped:
        for member in (origin, axis):
            for cells in (8, 16):
                verdicts.clear()
                norms.clear()
                opts = LocusOptions(cells_per_dim=cells)
                for k in range(sigma.dim + 1):
                    intersection_locus(sigma, k, member, 0, opts)
                for face, ok in verdicts.items():
                    depth = sigma.dim - len(face[1])
                    tally = certified.setdefault(
                        (member.name, depth, bool(sigma.bumps) and depth == sigma.dim), [0, 0])
                    tally[0] += ok
                    tally[1] += 1
                    if ok:
                        # every candidate needs a residual within tau_root
                        assert np.all(norms[face] > tau), (member.name, face)
    for name in ("origin", "axis"):
        for depth in range(4):
            done, tested = certified[(name, depth, False)]
            assert 0 < done <= tested
    assert certified[("origin", 0, False)][0] == certified[("origin", 0, False)][1]
    assert sum(certified[("origin", d, True)][0] for d in (2, 3)) > 0


def _power_coefficients(edge):
    """Per component, the coefficients of an unbumped 1-simplex map in t,
    highest power first (np.polyval order)."""
    deg = edge.poly.total_degree()
    coeffs = np.zeros((edge.poly.ncomp, deg + 1))
    for (power,), c in edge.poly.terms.items():
        coeffs[:, deg - power] += c
    return coeffs


def _real_roots_in_unit_interval(coeffs):
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) <= 1e-6].real
    return real[(real >= -1e-9) & (real <= 1.0 + 1e-9)]


def test_certified_edges_agree_with_np_roots(monkeypatch, cubics):
    verdicts, _ = _exclusion_verdicts(monkeypatch)
    tau = LocusOptions().tau_root
    counts = {"origin": [0, 0], "axis": [0, 0]}  # [certified, edges]
    for sigma in cubics:
        for member in (origin_member(), line_member()):
            verdicts.clear()
            intersection_locus(sigma, 2, member, 0)
            for (name, vanishing, _, _), ok in verdicts.items():
                counts[name][1] += 1
                if not ok:
                    continue
                counts[name][0] += 1
                kept = tuple(i for i in range(4) if i not in vanishing)
                x, y = _power_coefficients(sigma.restrict(face_for_vertices(3, kept)))
                if name == "axis":
                    assert not len(_real_roots_in_unit_interval(y)), kept
                else:
                    sq = np.polyadd(np.polymul(x, x), np.polymul(y, y))
                    ts = np.concatenate([[0.0, 1.0], _real_roots_in_unit_interval(
                        np.polyder(sq))])
                    assert np.min(np.hypot(np.polyval(x, ts), np.polyval(y, ts))) > tau
    assert counts["origin"][1] == counts["axis"][1] == 120
    assert counts["origin"][0] > 90 and counts["axis"][0] > 30


def _edges_near_origin(gap):
    """A straight edge along y = gap and a parabola y = gap + 0.8 x^2, each
    passing the origin, and touching the axis, at distance gap."""
    straight = PolyMap(1, 2, {(0,): np.array([-0.7, gap]), (1,): np.array([1.6, 0.0])})
    parabola = PolyMap(1, 2, {
        (0,): np.array([-0.7, gap + 0.392]),
        (1,): np.array([1.6, -1.792]),
        (2,): np.array([0.0, 2.048]),
    })
    return [SmoothSimplexMap.from_poly(p, plane()) for p in (straight, parabola)]


@pytest.mark.parametrize("gap", [0.0, 1e-11, 1e-10])
def test_edges_within_tau_root_are_never_certified(monkeypatch, gap):
    verdicts, _ = _exclusion_verdicts(monkeypatch)
    for edge in _edges_near_origin(gap):
        assert abs(edge.eval(np.array([0.4375]))[0]) < 1e-15
        for member in (origin_member(), line_member()):
            verdicts.clear()
            intersection_locus(edge, 0, member, 0)
            assert verdicts == {(member.name, (), (), 8): False}


def test_non_finite_residual_is_never_certified():
    tau = LocusOptions().tau_root
    level = origin_member().level
    for bad in (0.0, np.nan):
        poly = PolyMap(1, 2, {(0,): np.array([5.0, 5.0]), (1,): np.array([1.0, bad])})
        edge = SmoothSimplexMap.from_poly(poly, plane())

        def residual(w, edge=edge):
            return level.eval_many(edge.eval_many(w))

        # far from the origin: certified, unless a coefficient is NaN
        assert transversal._root_free(residual, 1, 1, tau) == (bad == 0.0)
        vertex = edge.restrict(DeltaMorphism.face(0, 1))
        assert transversal._root_free(
            lambda w: level.eval_many(vertex.eval_many(w)), 0, 0, tau) == (bad == 0.0)


def _pairwise_greedy(points):
    """The clustering rule written out pairwise: lowest residual first, a
    point within _CLUSTER_RADIUS of any kept one in both x and y is dropped."""
    order = sorted(range(len(points)),
                   key=lambda i: (points[i].residual, tuple(np.round(points[i].x, 12))))
    rows = np.array([np.concatenate([p.x, p.y]) for p in points])
    kept = []
    for i in order:
        if kept and (np.min(np.max(np.abs(rows[kept] - rows[i]), axis=1))
                     <= transversal._CLUSTER_RADIUS):
            continue
        kept.append(i)
    return kept


def test_cluster_matches_the_pairwise_greedy():
    """Points scattered around a few centres at spreads on both sides of
    the radius, with ties in residual and some non-finite coordinates."""
    rng = np.random.default_rng(73)
    for _ in range(400):
        n, k, m = int(rng.integers(0, 40)), int(rng.integers(0, 4)), int(rng.integers(1, 4))
        centres = rng.random((max(1, n // 5), k + m))
        points = []
        for _ in range(n):
            row = centres[rng.integers(len(centres))] + rng.normal(
                scale=10 ** rng.uniform(-9, -5), size=k + m)
            if rng.random() < 0.03:
                row[rng.integers(k + m)] = rng.choice([np.nan, np.inf, -np.inf])
            residual = float(rng.choice([0.0, 1e-12, rng.random() * 1e-10]))
            points.append(transversal.IntersectionPoint(
                member="m", x=row[:k], simplex_vanishing=(), y=row[k:],
                member_active=(), z=row[k:], residual=residual))
        with np.errstate(invalid="ignore"):
            assert transversal._cluster(points) == _pairwise_greedy(points)
