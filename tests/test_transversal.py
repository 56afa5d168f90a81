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
    {"tau_root": 0.0}, {"tau_root": -1e-10},
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


def _exact_residual(sigma, eqs):
    """Coefficients of r = e o raw in exact arithmetic on the map's stored
    data (each bump's w = scale * amplitude as evaluated), one
    {exponent: Fraction} per equation component."""
    k = sigma.dim
    zero = (0,) * k
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
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


def test_root_free_bounds_hold_in_exact_arithmetic(monkeypatch, cubic_maps):
    """On every piece the root-free test tests, each lower bound of d.b less
    its rounding allowance |d|_1 * error is at most the exact lower bound, and
    each control point is within the allowance of the exact one.  Exact: r's
    coefficients, the control points and every halving, with Fractions.
    Faces: all faces of three fixture cubics, bumped cubics and triangles, and
    the edges near the origin, against the origin and the axis."""
    calls = []

    def recording(name):
        f = getattr(transversal, name)

        def wrapper(*args):
            out = f(*args)
            calls[-1][name].append((args, out))
            return out
        return wrapper

    for name in ("_control_points", "_bisect"):
        monkeypatch.setattr(transversal, name, recording(name))
    faces = [sigma.restrict(face_for_vertices(3, kept)) for sigma in cubic_maps[:3]
             for r in range(1, 5) for kept in itertools.combinations(range(4), r)]
    faces += [cubic_maps[3].with_bump(np.array([0.6, -0.8]), amplitude=0.15),
              cubic_maps[4].restrict(face_for_vertices(3, (0, 1, 3)))
              .with_bump(np.array([-0.28, 0.96]), amplitude=0.15)]
    faces += [edge for gap in (0.0, 1e-11, 1e-10) for edge in _edges_near_origin(gap)]
    tau = LocusOptions().tau_root
    tested = halvings = certified = 0
    for face in faces:
        k = face.dim
        for member in (origin_member(), line_member()):
            calls.append({"_control_points": [], "_bisect": []})
            certified += transversal._root_free(face, [member.level], tau)
            record = calls[-1]
            degree = face.degree() * member.level.total_degree()
            index = _bernstein_indices(k, degree)
            exact = _exact_control_points(_exact_residual(face, [member.level]), k, degree)
            [(_, (ctrl, error))] = record["_control_points"]
            allowance = Fraction(error)
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
    assert certified > 60 and halvings > 300 and tested > 3000


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


def test_non_finite_residual_is_never_certified():
    tau = LocusOptions().tau_root
    level = origin_member().level
    for bad in (0.0, np.nan):
        poly = PolyMap(1, 2, {(0,): np.array([5.0, 5.0]), (1,): np.array([1.0, bad])})
        edge = SmoothSimplexMap.from_poly(poly, plane())
        # far from the origin: certified, unless a coefficient is NaN
        assert transversal._root_free(edge, [level], tau) == (bad == 0.0)
        vertex = edge.restrict(DeltaMorphism.face(0, 1))
        assert transversal._root_free(vertex, [level], tau) == (bad == 0.0)


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
