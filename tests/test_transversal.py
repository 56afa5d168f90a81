import collections
import dataclasses
import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from transim import simplex_geom, transversal
from transim.errors import NonFiniteMap, RankDrop, TrialsExhausted
from transim.poly import PolyMap, monomial_exponents
from transim.scenarios import (
    line_member,
    longitude_arcs,
    meridian_arcs,
    meridian_member,
    origin_member,
    perturbation_cases,
    plane,
    random_transverse_cubic,
    shifted_longitude_arcs,
    tangent_longitude_arcs,
)
from transim.simplex_geom import (
    DeltaMorphism,
    SimplexDomain,
    barycentrics_many,
    collapse_to_simplex,
    face_for_vertices,
    principal_lattice,
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
    # the located point with the smallest margin is on the open edge
    w = min(res.verdicts["origin"].report.points, key=lambda p: p.spanning_sv, default=None)
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
    simplex_cols = frame.T @ (sigma.jacobian_many(p.x)[0] @ face.matrix)
    if member.kind == "level_set":
        rows = [member.level.jac_many(p.z)[0]] + [member.inequalities[a].jac_many(p.z)[0]
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
        member_cols = frame.T @ member.chart.restrict(gamma).jacobian_many(v)[0]
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
        sigma = dataclasses.replace(sigma)  # an empty locus memo: every solve runs
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


def _cycling(succ):
    """A linearization whose Newton step sends the iterate k / 64 to
    succ[k] / 64 exactly: unit Jacobian, dyadic residual."""
    def linearize(u):
        k = np.rint(u[:, 0] * 64).astype(int)
        return (u[:, 0] - succ[k] / 64)[:, None], np.ones((len(u), 1, 1))
    return linearize


@pytest.mark.parametrize("lengths", [
    [(0, 2)], [(3, 3)], [(5, 4), (0, 3)], [(1, 7)], [(2, 27)], [(0, 31)], [(28, 2)],
])
def test_newton_cycle_exit_returns_the_budget_end(lengths):
    """Rows that run through a lead-in of a given length into a cycle of a
    given period: a block that returns to an earlier iterate ends with the
    iterate and norms that running out the budget reaches."""
    succ = np.arange(64)
    seeds = []
    start = 1
    for lead, period in lengths:
        states = np.arange(start, start + lead + period)
        succ[states[:-1]] = states[1:]
        succ[states[-1]] = states[lead]
        seeds.append(start / 64)
        start += lead + period
    counts = [0, 0]

    def counting(slot):
        def lin(u):
            counts[slot] += 1
            return _cycling(succ)(u)
        return lin

    seeds = np.array(seeds)[:, None]
    got = transversal._batched_newton(counting(0), seeds, _OPTS)
    ref = _fixed_budget_newton(counting(1), seeds, _OPTS)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    closes = max(lead for lead, _ in lengths) + math.lcm(*(p for _, p in lengths))
    assert counts == [min(closes, transversal._MAX_ITERS + 1), transversal._MAX_ITERS + 1]


@pytest.mark.parametrize("kwargs", [
    {"cells_per_dim": 0}, {"cells_per_dim": -3}, {"cells_per_dim": 8.0},
    {"cells_per_dim": True}, {"tau_root": float("nan")}, {"tau_root": float("inf")},
    {"tau_root": 0.0}, {"tau_root": -1e-10}, {"tau_root": True},
])
def test_locus_options_are_validated(kwargs):
    with pytest.raises(ValueError):
        LocusOptions(**kwargs)
    assert LocusOptions(cells_per_dim=1, tau_root=1e-3) == LocusOptions(1, 1e-3)


# -- the root-free exclusion test ----------------------------------------------------


@pytest.fixture(scope="module")
def cubic_maps():
    rng = np.random.default_rng(91)
    return [random_transverse_cubic(rng, origin_member()) for _ in range(20)]


@pytest.fixture
def cubics(cubic_maps):
    """Fresh copies of the shared cubics: their locus memos are empty, so an
    instrumented solve runs instead of being looked up."""
    return [dataclasses.replace(c) for c in cubic_maps]


def _faces(n):
    """Every face of Delta^n by its sorted vertices, smallest first."""
    return [kept for size in range(1, n + 2) for kept in itertools.combinations(range(n + 1), size)]


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

    def keyed_solve(cx, member, vanishing, active, cells, opts):
        key[:] = [(member.name, vanishing, active, cells)]
        return solve(cx, member, vanishing, active, cells, opts)

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
            bumped.append(dataclasses.replace(out.sigma_prime))
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
        assert abs(edge.eval_many(np.array([0.4375]))[0, 0]) < 1e-15
        for member in (origin_member(), line_member()):
            verdicts.clear()
            intersection_locus(edge, 0, member, 0)
            assert verdicts == {(member.name, (), (), 8): False}


def _bernstein_indices(k, degree):
    """The exponents of monomial_exponents(k, degree), each with alpha_0 =
    degree - |alpha| in front: the rows of the root-free test's tables."""
    return [(degree - sum(a),) + a for a in monomial_exponents(k, degree)]


def _coefficient_column(p, degree):
    """A scalar polynomial's coefficients in monomial_exponents order."""
    return np.array([p.terms[e][0] if e in p.terms else 0.0
                     for e in monomial_exponents(p.nvars, degree)])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_bernstein_matrix_reproduces_the_coefficients(k):
    """The closed-form basis table is degree!/beta! lambda^beta at random
    points of Delta^k, and the root-free test's control-point matrix takes
    each basis polynomial's coefficients to its unit control-point vector."""
    rng = np.random.default_rng(40 + k)
    pts = SimplexDomain(k).random_points(rng, 25)
    lam = barycentrics_many(k, pts)
    for degree in range(7):
        basis = simplex_geom._bernstein_polys(k, degree)
        multis = principal_lattice(k, degree)[1]
        direct = np.stack([math.factorial(degree) / math.prod(map(math.factorial, beta))
                           * np.prod(lam ** beta, axis=1) for beta in multis], axis=1)
        assert np.allclose(basis.eval_many(pts), direct, rtol=0, atol=1e-12)
        row, to_bernstein, _ = simplex_geom._bernstein(k, degree)
        exps = monomial_exponents(k, degree)
        columns = np.array([basis.terms.get(e, np.zeros(len(multis))) for e in exps])
        units = np.zeros((len(exps), len(multis)))
        for b, beta in enumerate(multis.tolist()):
            units[row[tuple(beta[1:])], b] = 1.0
        assert np.allclose(to_bernstein @ columns, units, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_halving_matrices_give_the_control_points_of_each_half(k):
    """Halving edge (i, j) of a piece by its matrices gives the control points
    of the polynomial restricted, by compose_affine, to that half."""
    rng = np.random.default_rng(50 + k)
    for degree in range(7):
        _, to_bernstein, halves = simplex_geom._bernstein(k, degree)
        p = PolyMap(k, 1, {e: rng.uniform(-1, 1, 1) for e in monomial_exponents(k, degree)})
        piece = rng.uniform(-1, 1, (k + 1, k))

        def control_points(vertices):
            on = p.compose_affine((vertices[1:] - vertices[0]).T, vertices[0])
            return to_bernstein @ _coefficient_column(on, degree)

        ctrl = control_points(piece)
        for i, j in itertools.combinations(range(k + 1), 2):
            for side, replaced in ((0, j), (1, i)):
                half = piece.copy()
                half[replaced] = (piece[i] + piece[j]) / 2
                assert np.allclose(halves[i, j, side] @ ctrl, control_points(half),
                                   rtol=0, atol=1e-12)


def _fraction_product(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _exact_restriction(raw, n, kept):
    """Each {exponent: Fraction} of raw, a map on Delta^n, at the realization
    of the face ``kept`` (entries 0 and +-1), in exact arithmetic."""
    aff = realize_morphism(face_for_vertices(n, kept))
    k = len(kept) - 1
    zero = (0,) * k
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    xs = [{zero: Fraction(o), **{u: Fraction(m) for u, m in zip(units, row)}}
          for row, o in zip(aff.matrix.tolist(), aff.offset.tolist())]
    out = []
    for comp in raw:
        face = {}
        for exp, coef in comp.items():
            mono = {zero: coef}
            for x, power in zip(xs, exp):
                for _ in range(power):
                    mono = _fraction_product(mono, x)
            for key, v in mono.items():
                face[key] = face.get(key, 0) + v
        out.append(face)
    return out


def _exact_residual(sigma, eqs, kept=None):
    """Coefficients of r = e o raw in exact arithmetic on the map's stored
    data (each bump's w = scale * amplitude as evaluated), one
    {exponent: Fraction} per equation component; with ``kept``, on that face,
    raw restricted exactly."""
    n = sigma.dim
    zero = (0,) * n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    raw = [{e: Fraction(c[j]) for e, c in sigma.poly.terms.items()}
           for j in range(sigma.ambient.ambient_dim)]
    for b in sigma.bumps:
        rho = {zero: Fraction(1)}
        for a, f in b.rho.factors:
            rho = _fraction_product(rho, {zero: Fraction(f), **dict(zip(units, map(Fraction, a)))})
        w = Fraction(b.scale * b.amplitude)
        for comp, s in zip(raw, b.s):
            for e, v in rho.items():
                comp[e] = comp.get(e, 0) + w * Fraction(s) * v
    if kept is not None:
        raw = _exact_restriction(raw, n, kept)
        zero = (0,) * (len(kept) - 1)
    out = []
    for e in eqs:
        comps = [{} for _ in range(e.ncomp)]
        for exp, coef in e.terms.items():
            mono = {zero: Fraction(1)}
            for x, power in zip(raw, exp):
                for _ in range(power):
                    mono = _fraction_product(mono, x)
            for comp, c in zip(comps, coef):
                for key, v in mono.items():
                    comp[key] = comp.get(key, 0) + Fraction(c) * v
        out += comps
    return out


def _exact_control_points(r, k, degree):
    """Control points on Delta^k of each {exponent: Fraction} in r, keyed by
    barycentric index, from the expansion of sum_beta a_beta lambda^beta
    (lambda_0 + ... + lambda_k)^(degree - |beta|) = sum_alpha b_alpha
    degree! / alpha! lambda^alpha."""
    total = {tuple(int(i == j) for i in range(k + 1)): Fraction(1) for j in range(k + 1)}
    powers = [{(0,) * (k + 1): Fraction(1)}]
    for _ in range(degree):
        powers.append(_fraction_product(powers[-1], total))
    out = []
    for comp in r:
        h = {}
        for beta, a in comp.items():
            for key, v in _fraction_product({(0,) + beta: a}, powers[degree - sum(beta)]).items():
                h[key] = h.get(key, 0) + v
        out.append({alpha: Fraction(h.get(alpha, 0)) * math.prod(map(math.factorial, alpha))
                    / math.factorial(degree) for alpha in _bernstein_indices(k, degree)})
    return out


def _exact_halves(b, i, j):
    """Control points of the halves at vertex i and at vertex j of the edge
    (i, j), by the de Casteljau recurrence on each fibre of indices."""
    halves = ({}, {})
    for alpha in b:
        if alpha[j]:
            continue  # a fibre is named by its index with alpha_j = 0
        s = alpha[i]
        at = [alpha[:i] + (s - t,) + alpha[i + 1:j] + (t,) + alpha[j + 1:] for t in range(s + 1)]
        triangle = [[b[a] for a in at]]
        for _ in range(s):
            triangle.append([(x + y) / 2 for x, y in zip(triangle[-1], triangle[-1][1:])])
        for t, a in enumerate(at):
            halves[0][a] = triangle[t][0]
            halves[1][a] = triangle[s - t][t]
    return halves


def _lower_bounds(ctrl):
    """The root-free test's lower bounds of d.b on each piece, shape (p, 2c +
    1), and their unit directions d: +e_i, -e_i and the mean control point."""
    p, _, c = ctrl.shape
    mean = ctrl.mean(axis=1)
    norm = np.linalg.norm(mean, axis=1, keepdims=True)
    d = mean / np.where(norm > 0, norm, 1.0)
    lower = np.concatenate([ctrl.min(axis=1), -ctrl.max(axis=1),
                            np.min(ctrl @ d[:, :, None], axis=1)], axis=1)
    axes = np.broadcast_to(np.concatenate([np.eye(c), -np.eye(c)]), (p, 2 * c, c))
    return lower, np.concatenate([axes, d[:, None]], axis=1)


def _fixture_bumps(cubic_maps):
    """A bumped cubic (degree 4 inside, 3 on its facets) and a bumped
    triangle of a cubic (degree 3)."""
    return [cubic_maps[3].with_bump(np.array([0.6, -0.8]), amplitude=0.15),
            cubic_maps[4].restrict(face_for_vertices(3, (0, 1, 3)))
            .with_bump(np.array([-0.28, 0.96]), amplitude=0.15)]


def test_root_free_bounds_hold_in_exact_arithmetic(monkeypatch, cubic_maps):
    """On every piece the root-free test tests, each lower bound of d.b less
    its rounding allowance |d|_1 * error is at most the exact lower bound, and
    each control point is within the allowance of the exact one.  Exact: r's
    coefficients on the face, by exact restriction of the parent's stored
    data, the control points and every halving, with Fractions.  The exact
    control points of the map ``restrict`` makes, which Newton works on,
    are within the allowance too.  Faces: every face of three fixture
    cubics, of a bumped cubic and triangle (facets one degree lower, tested
    on the parent's net), and of the edges near the origin, against the
    origin and the axis."""
    calls = []

    def recording(name):
        f = getattr(transversal, name)

        def wrapper(*args):
            out = f(*args)
            calls[-1][name].append((args, out))
            return out
        return wrapper

    for name in ("_excluded", "_bisect"):
        monkeypatch.setattr(transversal, name, recording(name))
    maps = cubic_maps[:3] + _fixture_bumps(cubic_maps)
    maps += [edge for gap in (0.0, 1e-11, 1e-10) for edge in _edges_near_origin(gap)]
    tau = LocusOptions().tau_root
    tested = halvings = certified = dropped = 0
    members = (origin_member(), line_member())
    for sigma in maps:
        n, degree, cx = sigma.dim, sigma.degree(), transversal._Certificate(sigma)
        for kept in _faces(n):
            k = len(kept) - 1
            face = sigma.restrict(face_for_vertices(n, kept))
            dropped += face.degree() < degree
            for member in members:
                calls.append({"_excluded": [], "_bisect": []})
                certified += transversal._root_free(cx, kept, cx.stratum(member, ()), tau)
                record = calls[-1]
                index = _bernstein_indices(k, degree)
                exact = _exact_control_points(_exact_residual(sigma, [member.level], kept),
                                              k, degree)
                restricted = _exact_control_points(_exact_residual(face, [member.level]),
                                                   k, degree)
                [((ctrl, _, _, _, error, _), _)] = record["_excluded"]
                allowance = Fraction(error)
                for comp, stored in zip(exact, restricted):
                    assert all(abs(comp[alpha] - stored[alpha]) <= allowance for alpha in index)
                levels = [(np.concatenate([np.zeros((1, k)), np.eye(k)])[None], ctrl[None])]
                known = {levels[0][0][0].tobytes(): exact}
                for (parents, _, _), (children, child_ctrl) in record["_bisect"]:
                    for p, parent in enumerate(parents):
                        # the half at vertex i replaced vertex j, and the other half vertex i
                        (j,), (i,) = (np.flatnonzero(np.any(children[q] != parent, axis=1))
                                      for q in (p, p + len(parents)))
                        halves = [_exact_halves(comp, i, j) for comp in known[parent.tobytes()]]
                        known[children[p].tobytes()] = [h[0] for h in halves]
                        known[children[p + len(parents)].tobytes()] = [h[1] for h in halves]
                    halvings += len(parents)
                    levels.append((children, child_ctrl))
                for pieces, piece_ctrl in levels:
                    lower, dirs = _lower_bounds(piece_ctrl)
                    for piece, points, bounds, piece_dirs in zip(pieces, piece_ctrl, lower, dirs):
                        b = known[piece.tobytes()]
                        for comp, column in zip(b, points.T):
                            for alpha, x in zip(index, column):
                                assert abs(Fraction(x) - comp[alpha]) <= allowance
                        for bound, d in zip(bounds, piece_dirs):
                            d = [Fraction(x) for x in d]
                            least = min(sum(x * c[alpha] for x, c in zip(d, b)) for alpha in index)
                            assert Fraction(bound) - sum(map(abs, d)) * allowance <= least
                            tested += 1
    assert certified > 60 and halvings > 300 and tested > 3000 and dropped >= 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_locus_of_a_non_finite_map_raises(bad):
    edge = SmoothSimplexMap.affine_from_vertices(np.array([[-1.0, 0.2], [1.0, bad]]), plane())
    member = origin_member()
    for _ in range(2):
        with pytest.raises(NonFiniteMap):
            intersection_locus(edge, 0, member, 0)
    assert not edge.loci


# -- the locus memo ------------------------------------------------------------------


def _bits(report):
    """Every field of a locus report, with arrays and floats as exact bytes."""
    def exact(v):
        return np.asarray(v).tobytes() if isinstance(v, (np.ndarray, float)) else v
    return (report.newton_failures, report.cells_used,
            [tuple(exact(v) for v in dataclasses.astuple(p)) for p in report.points])


@pytest.fixture
def face_solves(monkeypatch):
    """Counts the face-stratum solves of the locus finder."""
    count = [0]
    solve = transversal._solve_descriptor_pair

    def counting(*args):
        count[0] += 1
        return solve(*args)

    monkeypatch.setattr(transversal, "_solve_descriptor_pair", counting)
    return count


def test_a_remembered_locus_equals_a_fresh_solve(face_solves):
    rng = np.random.default_rng(76)
    origin, meridian = origin_member(), meridian_member()
    cases = [(random_transverse_cubic(rng, origin, opts=_OPTS), origin) for _ in range(3)]
    cases += [(arc, meridian) for arcs in (longitude_arcs(), tangent_longitude_arcs(),
                                            shifted_longitude_arcs(), meridian_arcs())
              for arc in arcs]
    located = 0
    for sigma, member in cases:
        for k in range(sigma.dim + 1):
            for ell in member.depths():
                first = intersection_locus(sigma, k, member, ell, _OPTS)
                solves = face_solves[0]
                hit = intersection_locus(sigma, k, member, ell, _OPTS)
                assert face_solves[0] == solves
                fresh = intersection_locus(dataclasses.replace(sigma), k, member, ell, _OPTS)
                assert face_solves[0] > solves
                assert _bits(hit) == _bits(first) == _bits(fresh)
                located += len(hit.points)
    assert located >= 10


def test_a_changed_report_leaves_the_memo_unchanged(crossing_triangle):
    member = origin_member()
    first = intersection_locus(crossing_triangle, 0, member, 0, _OPTS)
    expected = _bits(first)
    assert len(first.points) == 1
    first.points.clear()
    first.newton_failures += 5
    first.extend(intersection_locus(crossing_triangle, 1, member, 0, _OPTS))
    hit = intersection_locus(crossing_triangle, 0, member, 0, _OPTS)
    assert _bits(hit) == expected
    hit.points.append(hit.points[0])
    assert _bits(intersection_locus(crossing_triangle, 0, member, 0, _OPTS)) == expected


def test_a_solve_that_raises_is_not_remembered(monkeypatch, crossing_triangle):
    member = origin_member()
    solve = transversal._solve_descriptor_pair
    raised = []

    def failing_once(*args):
        if not raised:
            raised.append(args)
            raise RankDrop("injected")
        return solve(*args)

    monkeypatch.setattr(transversal, "_solve_descriptor_pair", failing_once)
    with pytest.raises(RankDrop):
        intersection_locus(crossing_triangle, 0, member, 0, _OPTS)
    assert raised and not crossing_triangle.loci
    report = intersection_locus(crossing_triangle, 0, member, 0, _OPTS)
    fresh = intersection_locus(dataclasses.replace(crossing_triangle), 0, member, 0, _OPTS)
    assert len(report.points) == 1 and _bits(report) == _bits(fresh)


def test_non_finite_residual_is_never_certified(monkeypatch):
    """The root-free test itself declines a NaN net, with the certificate's
    own ``finite_flatten`` check taken out."""
    monkeypatch.setattr(transversal, "finite_flatten", SmoothSimplexMap.flatten)
    tau = LocusOptions().tau_root
    origin = origin_member()
    for bad in (0.0, np.nan):
        poly = PolyMap(1, 2, {(0,): np.array([5.0, 5.0]), (1,): np.array([1.0, bad])})
        cx = transversal._Certificate(SmoothSimplexMap.from_poly(poly, plane()))
        # far from the origin: certified, unless a coefficient is NaN
        for kept in ((0, 1), (1,)):
            assert transversal._root_free(cx, kept, cx.stratum(origin, ()), tau) == (bad == 0.0)


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


# -- the transversality certificate --------------------------------------------------

_TOL = 1e-6
_TAU = LocusOptions().tau_root


def _pair_verdicts(sigma, member):
    """The certificate's verdict on every pair of a face of dimension k >= c
    and a stratum of the member, keyed by (vanishing, active)."""
    n, cx = sigma.dim, transversal._Certificate(sigma)
    out = {}
    for ell in member.depths():
        for active in member.descriptors(ell):
            stratum = cx.stratum(member, active)
            for k in range(len(stratum.rows), n + 1):
                for kept in itertools.combinations(range(n + 1), k + 1):
                    vanishing = tuple(i for i in range(n + 1) if i not in kept)
                    out[vanishing, active] = transversal._transverse(cx, kept, stratum, _TOL, _TAU)
    return out


def _map(n, comps):
    """A plane n-simplex map from {exponent: (x, y)}."""
    return SmoothSimplexMap.from_poly(
        PolyMap(n, 2, {e: np.array(v, dtype=float) for e, v in comps.items()}), plane())


def _scaled_crossings():
    """Triangles (u - 0.3, eps (v - 0.35)) through the origin, whose one
    spanning value is 1000 eps, and edges (t, eps (t - 0.4)) across the
    axis, whose one spanning value is about eps / sqrt(2): both on either
    side of 10 tol_rank."""
    triangles = [_map(2, {(0, 0): (-0.3, -0.35 * eps), (1, 0): (1, 0), (0, 1): (0, eps)})
                 for eps in (5e-9, 9e-9, 3e-8, 1e-7)]
    edges = [_map(1, {(0,): (0, -0.4 * eps), (1,): (1, eps)}) for eps in (5e-6, 1.2e-5, 3e-5, 1e-4)]
    return triangles, edges


def _bumped(cubic_maps):
    """Perturbed cubics (degree 4 inside) and perturbed faces of cubics
    (degree 3 inside), as perturb_to_transverse builds them."""
    out = []
    for i, c in enumerate(cubic_maps[:2]):
        for sigma in (c, c.restrict(DeltaMorphism.face(0, 3))):
            bumped = perturb_to_transverse(sigma, TCollection.of(origin_member()), seed=i)
            assert bumped.sigma_prime.bumps
            out.append(dataclasses.replace(bumped.sigma_prime))
    return out


def test_certified_pairs_give_newton_no_point_below_ten_tol_rank(monkeypatch, cubic_maps):
    """Newton, forced on every pair the certificate settles, keeps no point
    with a spanning value below 10 tol_rank, at 8 and at 32 cells."""
    origin, axis = origin_member(), line_member()
    bumped = _bumped(cubic_maps)
    triangles, edges = _scaled_crossings()
    cases = [(s, m) for s in cubic_maps[:4] + bumped for m in (origin, axis)]
    cases += [(s, origin) for s in triangles] + [(s, axis) for s in edges]
    settled = [(sigma, member, pair) for sigma, member in cases
               for pair, ok in _pair_verdicts(sigma, member).items() if ok]
    monkeypatch.setattr(transversal, "_root_free", lambda *args: False)
    tally, located = collections.Counter(), 0
    for sigma, member, (vanishing, active) in settled:
        k = sigma.dim - len(vanishing)
        tally[member.name, k, bool(sigma.bumps)] += 1
        for cells in (8, 32):
            report = transversal._solve_descriptor_pair(
                transversal._Certificate(sigma), member, vanishing, active, cells,
                LocusOptions(cells_per_dim=cells))
            located += len(report.points)
            assert all(p.spanning_sv >= 10 * _TOL for p in report.points), (member.name, k)
    for name, least in (("origin", 2), ("axis", 1)):
        for k in range(least, 4):
            assert tally[name, k, False] > 0 and tally[name, k, True] > 0, (name, k)
    # the scaled crossings settle only where their spanning value is above
    # 10 tol_rank, and some of them are settled
    scaled = [s for s, _, _ in settled if s in triangles or s in edges]
    assert triangles[2] in scaled and edges[2] in scaled
    assert triangles[1] not in scaled and edges[1] not in scaled
    assert located > 2000


def _folds():
    """Maps through the origin, or onto the axis, whose differential drops
    rank at a point of the member: the tangent triangle (u - 1/3, (v -
    1/3)^2), rotated folds and cusps, and saddles and touching paraboloids
    over the axis.  Each is paired with its member."""
    origin, axis = origin_member(), line_member()
    out = [(_map(2, {(0, 0): (-1 / 3, 1 / 9), (1, 0): (1, 0), (0, 1): (0, -2 / 3),
                     (0, 2): (0, 1)}), origin)]
    centres = ((0.2, 0.3, 0.25), (0.3, 0.2, 0.1), (0.1, 0.4, 0.3))
    for phi, (a, b, c) in zip((0.0, 0.7, 2.1), centres):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        for sign in (1.0, -1.0):
            # (u - a, (v - b)^2 + sign (w - c)^2), rotated
            comps = {(0, 0, 0): (-a, b * b + sign * c * c), (1, 0, 0): (1, 0),
                     (0, 1, 0): (0, -2 * b), (0, 0, 1): (0, -2 * sign * c),
                     (0, 2, 0): (0, 1), (0, 0, 2): (0, sign)}
            out.append((_map(3, {e: rot @ np.array(v, dtype=float) for e, v in comps.items()}),
                        origin))
        comps = {(0, 0): (-a, b * b), (1, 0): (1, 0), (0, 1): (0, -2 * b), (0, 2): (0, 1)}
        out.append((_map(2, {e: rot @ np.array(v, dtype=float) for e, v in comps.items()}),
                    origin))
        out.append((_map(1, {(0,): (0, a * a), (1,): (1, -2 * a), (2,): (0, 1)}), axis))
        out.append((_map(2, {(0, 0): (0, a * b), (1, 0): (1, -b), (0, 1): (0, -a),
                             (1, 1): (0, 1)}), axis))
        out.append((_map(3, {(0, 0, 0): (c, a * a + b * b), (1, 0, 0): (0, -2 * a),
                             (0, 1, 0): (0, -2 * b), (0, 0, 1): (1, 0), (2, 0, 0): (0, 1),
                             (0, 2, 0): (0, 1)}), axis))
    return out


def test_tangencies_and_folds_are_never_certified():
    """The fold pairs and the segments inside the axis are never settled,
    and the transverse twin of the tangent triangle, (u - 1/3, (v - 1/3) +
    (v - 1/3)^2), is.  (Not every fold fails ``is_T_transverse``: Newton
    stops within about 1e-5 of the tangent triangle's double root, where
    its spanning value is 6e-4.)"""
    cases = _folds() + [(c.sigma, c.members.members[0]) for c in perturbation_cases()
                        if c.name.startswith("segment-in-axis")]
    assert len(cases) == 26
    for sigma, member in cases:
        assert not _pair_verdicts(sigma, member)[(), ()], member.name
    twin = _map(2, {(0, 0): (-1 / 3, -2 / 9), (1, 0): (1, 0), (0, 1): (0, 1 / 3), (0, 2): (0, 1)})
    assert all(_pair_verdicts(twin, origin_member()).values())
    assert is_T_transverse(twin, TCollection.of(origin_member())).ok


def test_every_minor_can_settle_a_pair():
    """For each minor m_S of a tetrahedron against the origin, and each
    partial against the axis, a map on which it is the only nonzero one is
    certified: no minor of the stacked system can be left out."""
    cases = []
    for p, q in itertools.combinations(range(3), 2):
        units = np.eye(3, dtype=int)
        cases.append((_map(3, {(0, 0, 0): (-0.2, -0.3), tuple(units[p]): (1, 0),
                               tuple(units[q]): (0, 1)}), origin_member()))
    for p in range(3):
        units = np.eye(3, dtype=int)
        cases.append((_map(3, {(0, 0, 0): (0.1, -0.25), tuple(units[p]): (0, 1),
                               tuple(units[(p + 1) % 3]): (1, 0)}), line_member()))
    for sigma, member in cases:
        assert _pair_verdicts(sigma, member)[(), ()]
        assert is_T_transverse(sigma, TCollection.of(member)).min_sv >= 10 * _TOL


def _exact_minors(r, k, c):
    """The c x c minors of Dr in exact arithmetic, one per c-subset of the k
    face coordinates in ``itertools.combinations`` order, from r's
    components as {exponent: Fraction}."""
    def partial(p, j):
        return {e[:j] + (e[j] - 1,) + e[j + 1:]: e[j] * v for e, v in p.items() if e[j]}

    grads = [[partial(p, j) for j in range(k)] for p in r]
    out = []
    for cols in itertools.combinations(range(k), c):
        total = {}
        for perm in itertools.permutations(range(c)):
            sign = (-1) ** sum(p > q for p, q in itertools.combinations(perm, 2))
            term = {(0,) * k: Fraction(sign)}
            for i, p in enumerate(perm):
                term = _fraction_product(term, grads[i][cols[p]])
            for e, v in term.items():
                total[e] = total.get(e, 0) + v
        out.append(total)
    return out


def test_critical_system_bounds_hold_in_exact_arithmetic(cubic_maps):
    """Every control point of the critical system (r and the minors of Dr)
    is within its column's allowance of the exact one, computed with
    Fractions from the exact restriction of the map's stored data; and
    rounding does move some minor control points, so the minors' allowance
    is tested.  Faces: every face with k >= c of two fixture cubics, of a
    bumped cubic and triangle (facets one degree lower, tested on the
    parent's net) and of the scaled crossings, against the origin and the
    axis."""
    parents = cubic_maps[:2] + _fixture_bumps(cubic_maps)
    parents += [s for group in _scaled_crossings() for s in group]
    checked = moved = dropped = 0
    members = (origin_member(), line_member())
    for sigma in parents:
        n, cx = sigma.dim, transversal._Certificate(sigma)
        for member in members:
            stratum = cx.stratum(member, ())
            eqs, c = stratum.eqs, len(stratum.rows)
            for kept in _faces(n):
                k = len(kept) - 1
                if k < c:
                    continue
                dropped += sigma.restrict(face_for_vertices(n, kept)).degree() < sigma.degree()
                ctrl, degree, bounds, errors = transversal._critical_system(cx, kept, stratum,
                                                                            _TOL, _TAU)
                r = _exact_residual(sigma, eqs, kept)
                exact = _exact_control_points(r + _exact_minors(r, k, c), k, degree)
                assert np.all(bounds > 0) and len(exact) == ctrl.shape[1]
                index = _bernstein_indices(k, degree)
                for column, comp, allowance in zip(ctrl.T, exact, errors):
                    diffs = [abs(Fraction(x) - comp[alpha]) for alpha, x in zip(index, column)]
                    assert max(diffs) <= Fraction(allowance)
                    checked += len(diffs)
                moved += any(Fraction(x) != comp[alpha]
                             for column, comp in zip(ctrl.T[c:], exact[c:])
                             for alpha, x in zip(index, column))
    assert checked > 1500 and moved > 20 and dropped >= 4


def test_certification_restricts_only_the_faces_it_declines(monkeypatch, cubic_maps):
    """On fresh copies of a fixture cubic, against the origin and the axis,
    the verdict-only check restricts no face, and the locus finder restricts
    exactly the faces the root-free test declines."""
    restricted, declined = [], []
    restrict, root_free = SmoothSimplexMap.restrict, transversal._root_free

    def recording_restrict(self, beta):
        restricted.append(beta.values)
        return restrict(self, beta)

    def recording_root_free(cx, kept, *args):
        ok = root_free(cx, kept, *args)
        declined.extend([kept] * (not ok))
        return ok

    monkeypatch.setattr(SmoothSimplexMap, "restrict", recording_restrict)
    monkeypatch.setattr(transversal, "_root_free", recording_root_free)
    solved = 0
    for member in (origin_member(), line_member()):
        assert transversal.is_T_transverse_ok(dataclasses.replace(cubic_maps[0]),
                                              TCollection.of(member))
        assert restricted == []
        declined.clear()
        sigma = dataclasses.replace(cubic_maps[0])
        for k in range(4):
            intersection_locus(sigma, k, member, 0)
        assert sorted(restricted) == sorted(declined)
        solved += len(restricted)
        restricted.clear()
    assert solved > 0


def test_per_map_data_is_made_once_per_call(monkeypatch, cubic_maps):
    """On fresh copies of a fixture cubic against the origin, Z and h are
    made once per verdict-only check and once per locus solve at each
    simplex depth, not once per face."""
    calls = collections.Counter()

    def counting(name):
        real = getattr(transversal, name)

        def wrapper(m):
            calls[name] += 1
            return real(m)
        return wrapper

    for name in ("_abs_bound", "_restriction_rounding"):
        monkeypatch.setattr(transversal, name, counting(name))
    members = TCollection.of(origin_member())
    once = {"_abs_bound": 1, "_restriction_rounding": 1}
    assert transversal.is_T_transverse_ok(dataclasses.replace(cubic_maps[0]), members)
    assert calls == once
    for k in range(4):
        calls.clear()
        intersection_locus(dataclasses.replace(cubic_maps[0]), k, members.members[0], 0)
        assert calls == once, k


def _circle():
    """The circle x^2 + y^2 = 1/4 in the plane, a curved level-set member."""
    level = PolyMap(2, 1, {(0, 0): [-0.25], (2, 0): [1.0], (0, 2): [1.0]})
    return CornerManifold.level_set_in("circle", plane(), level)


def test_a_curved_stratum_goes_to_newton(monkeypatch):
    """An unprojected affine edge and a cubic triangle against the circle:
    no exclusion runs, the locus finder finds the analytic crossings, and
    the verdict-only check agrees with ``is_T_transverse``."""
    excluded, real = [], transversal._excluded

    def recording(*args):
        excluded.append(args)
        return real(*args)

    monkeypatch.setattr(transversal, "_excluded", recording)
    circle = _circle()
    edge = SmoothSimplexMap.affine_from_vertices(np.array([[-1.0, 0.1], [1.0, 0.1]]), plane())
    crossings = sorted(p.x[0] for p in intersection_locus(edge, 0, circle, 0).points)
    assert np.allclose(crossings, (1 + np.array([-1, 1]) * math.sqrt(0.24)) / 2,
                       rtol=0, atol=1e-9)
    triangle = _map(2, {(0, 0): (-0.5, -0.45), (1, 0): (1.2, 0), (0, 1): (0, 1.1),
                        (1, 1): (-0.1, 0), (0, 3): (0.3, 0), (2, 1): (0, 0.25)})
    located = 0
    for kept in itertools.combinations(range(3), 2):
        x, y = _power_coefficients(triangle.restrict(face_for_vertices(2, kept)))
        roots = _real_roots_in_unit_interval(
            np.polyadd(np.polyadd(np.polymul(x, x), np.polymul(y, y)), [-0.25]))
        vanishing = tuple(i for i in range(3) if i not in kept)
        report = transversal._solve_descriptor_pair(
            transversal._Certificate(triangle), circle, vanishing, (), 8, LocusOptions())
        points = np.array([p.z for p in report.points]).reshape(-1, 2)
        expected = np.stack([np.polyval(x, roots), np.polyval(y, roots)], axis=1)
        assert len(points) == len(expected) and len(expected)
        for z in expected:
            assert np.min(np.max(np.abs(points - z), axis=1)) < 1e-8
        located += len(points)
    inside = intersection_locus(triangle, 0, circle, 0).points
    assert located >= 4 and inside
    assert all(abs(p.z @ p.z - 0.25) < 1e-9 for p in inside)
    for sigma in (edge, triangle):
        got, ref = _both_verdicts(sigma, TCollection.of(circle))
        assert got == ref
    assert not excluded


# -- the verdict-only entry point -----------------------------------------------------


def _both_verdicts(sigma, members, tol_rank=_TOL, opts=LocusOptions()):
    """is_T_transverse_ok and is_T_transverse(...).ok on fresh copies."""
    return (transversal.is_T_transverse_ok(dataclasses.replace(sigma), members, tol_rank, opts),
            is_T_transverse(dataclasses.replace(sigma), members, tol_rank, opts=opts).ok)


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_verdict_only_check_matches_every_generation_attempt(monkeypatch, seed):
    """Every cubic the cocycle stream draws at this seed, accepted or not."""
    from transim import scenarios

    verdicts = []

    def both(sigma, members, tol_rank, opts):
        verdicts.append(_both_verdicts(sigma, members, tol_rank, opts))
        return verdicts[-1][1]

    monkeypatch.setattr(scenarios, "is_T_transverse_ok", both)
    rng = np.random.default_rng([seed, 29])
    for _ in range(50):
        random_transverse_cubic(rng, origin_member())
    assert len(verdicts) >= 50
    assert all(got == ref for got, ref in verdicts)


def test_verdict_only_check_matches_on_constructed_inputs(edge_triangle, crossing_triangle):
    """The perturbation cases, the edge through the origin, the tangent
    crossing, the folds of dimension at most 2 (the others escalate to 64
    cells, for seconds each) and the scaled crossings, against their
    members and against both plane members at once."""
    origin, axis = origin_member(), line_member()
    triangles, edges = _scaled_crossings()
    cases = [(c.sigma, c.members) for c in perturbation_cases()]
    cases += [(arc, TCollection.of(meridian_member())) for arc in tangent_longitude_arcs()]
    cases += [(s, TCollection.of(m)) for s, m in _folds()
              if s.dim == 1 or s.dim == 2 and m.name == "origin"]
    cases += [(s, TCollection.of(origin, axis))
              for s in (edge_triangle, crossing_triangle, *triangles, *edges)]
    outcomes = collections.Counter()
    for sigma, members in cases:
        got, ref = _both_verdicts(sigma, members)
        assert got == ref, [m.name for m in members]
        outcomes[ref] += 1
    assert outcomes[True] >= 8 and outcomes[False] >= 25


def test_an_uncertified_depth_is_swept_alone_and_escalates(monkeypatch):
    """A triangle through the origin with spanning value 5e-6 certifies its
    edges and vertices but not its interior, so only depth 0 is swept, and
    that sweep escalates the cells; the twin with 5e-7 fails there too."""
    swept = []
    pair = transversal.is_transverse_pair

    def recording(*args):
        swept.append(pair(*args))
        swept[-1].depths = args[3]
        return swept[-1]

    monkeypatch.setattr(transversal, "is_transverse_pair", recording)
    for eps, verdict in ((5e-9, True), (5e-10, False)):
        swept.clear()
        sigma = _map(2, {(0, 0): (-0.3, -0.35 * eps), (1, 0): (1, 0), (0, 1): (0, eps)})
        assert transversal.is_T_transverse_ok(sigma, TCollection.of(origin_member())) is verdict
        [(v)] = swept
        assert v.depths == [0] and v.report.cells_used > LocusOptions().cells_per_dim
        assert is_T_transverse(dataclasses.replace(sigma), TCollection.of(origin_member())
                               ).ok is verdict


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verdict_only_check_of_a_non_finite_map_raises(bad):
    edge = SmoothSimplexMap.affine_from_vertices(np.array([[-1.0, 0.2], [1.0, bad]]), plane())
    for check in (transversal.is_T_transverse_ok, is_T_transverse):
        with pytest.raises(NonFiniteMap):
            check(edge, TCollection.of(origin_member()))
