import csv

import numpy as np
import pytest

from transim import retraction, verify
from transim.ambient import AmbientManifold
from transim.errors import NonFiniteMap
from transim.poly import PolyMap, monomial_exponents
from transim.retraction import (
    ConstantStage,
    FiniteSingularFamily,
    export_track_csv,
    homotopy_H,
    nondeg_factorize,
    verify_naturality,
)
from transim.scenarios import (
    longitude_arcs,
    meridian_arcs,
    meridian_member,
    origin_member,
    plane,
    tangent_longitude_arcs,
)
from transim.simplex_geom import DeltaMorphism, SimplexDomain, simplex_grid
from transim.smooth_maps import SmoothSimplexMap, maps_close
from transim.transversal import LocusOptions, TCollection

_OPTS = LocusOptions(cells_per_dim=12)


def _plane_family(seed=0):
    return FiniteSingularFamily(
        TCollection.of(origin_member()), seed=seed, opts=_OPTS
    )


def _torus_family(seed=0):
    return FiniteSingularFamily(
        TCollection.of(meridian_member()), seed=seed, opts=_OPTS
    )


def _random_map(rng, n, ambient, degree=2):
    terms = {
        e: rng.uniform(-1, 1, ambient.ambient_dim)
        for e in monomial_exponents(n, degree)
    }
    return SmoothSimplexMap.from_poly(PolyMap(n, ambient.ambient_dim, terms), ambient)


def test_factorization_recovers_collapse():
    rng = np.random.default_rng(61)
    base = _random_map(rng, 1, plane())
    for s in (DeltaMorphism.degeneracy(0, 2), DeltaMorphism.degeneracy(1, 2)):
        collapse, recovered = nondeg_factorize(base.restrict(s))
        assert collapse == s
        assert maps_close(recovered, base)


def test_factorization_is_identity_on_nondegenerate():
    rng = np.random.default_rng(62)
    m = _random_map(rng, 2, plane())
    collapse, base = nondeg_factorize(m)
    assert collapse.is_identity()
    assert maps_close(base, m)


def test_factorization_handles_iterated_collapse():
    rng = np.random.default_rng(63)
    base = _random_map(rng, 1, plane())
    s = DeltaMorphism.degeneracy(0, 2).compose(DeltaMorphism.degeneracy(0, 3))
    collapse, recovered = nondeg_factorize(base.restrict(s))
    assert collapse.source == 3 and collapse.target == 1
    assert collapse == s
    assert maps_close(recovered, base)


def test_one_restriction_tests_degeneracy_like_the_two_step_round_trip(monkeypatch):
    """Restricting once by delta_j o s_j gives the verdict of restricting by
    delta_j and then s_j on every record of the identity checks, and on a
    degenerate map the two round trips have the same coefficients."""
    built = []

    class Recorded(FiniteSingularFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(verify, "FiniteSingularFamily", Recorded)
    degenerate = 0
    for seed in range(3):
        built.clear()
        verify.check_retraction_identities(seed)
        (fam,) = built
        for rec in fam.records.values():
            m, n = rec.map, rec.map.dim
            for j in range(n):
                two_step = m.restrict(DeltaMorphism.face(j, n)).restrict(
                    DeltaMorphism.degeneracy(j, n))
                expected = maps_close(m, two_step, retraction._DEGENERATE_TOL)
                assert retraction._degenerate_at(m, j) == expected
                if expected:
                    one_step = m.restrict(
                        DeltaMorphism.face(j, n).compose(DeltaMorphism.degeneracy(j, n)))
                    assert one_step.flatten().max_coeff_diff(two_step.flatten()) == 0.0
                    degenerate += 1
    assert degenerate


def test_add_registers_faces_and_dedups():
    fam = _plane_family()
    tri = SmoothSimplexMap.affine_from_vertices(
        np.array([[0.3, 0.2], [1.0, 0.4], [0.5, 1.2]]), plane()
    )
    rec = fam.add(tri)
    # 1 triangle + 3 edges + 3 vertices
    assert len(list(fam)) == 7
    again = fam.add(tri)
    assert again.id == rec.id
    assert len(list(fam)) == 7
    # shared vertex appears once
    edge = SmoothSimplexMap.affine_from_vertices(
        np.array([[0.3, 0.2], [2.0, 2.0]]), plane()
    )
    fam.add(edge)
    ids = {r.id for r in fam}
    assert len(ids) == 7 + 2  # new edge and one new vertex


def test_transverse_record_has_constant_track(crossing_triangle):
    fam = _plane_family()
    rec = fam.add(crossing_triangle)
    track = fam.track(rec)
    assert track.constant
    out = fam.retract(rec)
    assert out.id == rec.id
    x = np.array([0.2, 0.3])
    for t in (0.0, 0.4, 1.0):
        assert np.array_equal(track.eval(t, x), crossing_triangle.eval_many(x))


def test_retraction_is_idempotent_with_stable_ids(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    out = fam.retract(rec)
    assert out.id != rec.id
    assert out.status == "transverse"
    again = fam.retract(out)
    assert again.id == out.id
    # faces of the retract are the retracted faces
    for fid, gid in zip(rec.faces, out.faces):
        assert fam.retract(fam.records[fid]).id == gid


def test_track_breakpoints_follow_dimension(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    track = fam.track(rec)
    assert track.t_a == pytest.approx(2.0 / 3.0)
    assert track.t_b == pytest.approx(3.0 / 4.0)
    kinds = [s.kind for s in track.stages]
    assert kinds == ["boundary_retraction", "smoothing", "transversality", "constant"]
    ends = [s.b for s in track.stages]
    assert ends[-1] == 1.0
    starts = [s.a for s in track.stages]
    assert starts[0] == 0.0
    assert starts[1:] == ends[:-1]


def test_track_endpoints(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    track = fam.track(rec)
    end = fam.retract(rec)
    pts = simplex_grid(2, 5)
    assert np.array_equal(track.eval(0.0, pts), edge_triangle.eval_many(pts))
    assert np.allclose(track.eval(1.0, pts), end.map.eval_many(pts), atol=1e-12)
    # constant tail
    assert np.array_equal(track.eval(track.t_b, pts), track.eval(1.0, pts))
    assert np.array_equal(track.eval(0.9, pts), track.eval(1.0, pts))


def test_smoothing_noop_on_polynomial_input():
    # the tangent longitude is not transverse but its end points are, so no
    # face track moves: the track skips the cone and smooths nothing
    fam = _torus_family()
    rec = fam.add(tangent_longitude_arcs()[0])
    smoothing = fam.track(rec).stages[1]
    assert isinstance(smoothing, ConstantStage) and smoothing.kind == "smoothing"
    assert maps_close(smoothing.map, rec.map)


def test_degenerate_track_reuses_base(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    s = DeltaMorphism.degeneracy(1, 3)
    degen = fam.add(edge_triangle.restrict(s))
    track = fam.track(degen)
    base_track = fam.track(rec)
    assert track.stages is base_track.stages
    from transim.simplex_geom import realize_morphism

    aff = realize_morphism(s)
    rng = np.random.default_rng(64)
    for t in (0.0, 0.5, 0.85, 1.0):
        pts = SimplexDomain(3).random_points(rng, 4)
        assert np.allclose(track.eval(t, pts), base_track.eval(t, aff.apply(pts)), atol=1e-14)


def test_block_track_eval_matches_a_row_by_row_loop(monkeypatch):
    """Every track of the retraction identity check gives, on a block with
    one time per row, the bits of evaluating each row alone."""
    families = []

    class Recorded(FiniteSingularFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            families.append(self)

    monkeypatch.setattr(verify, "FiniteSingularFamily", Recorded)
    assert verify.check_retraction_identities(5).ok
    (fam,) = families
    rng = np.random.default_rng(65)
    assert any(not track.constant for track in fam.memo.values())
    for track in fam.memo.values():
        n = track.dim
        pts = np.concatenate([simplex_grid(n, 5), SimplexDomain(n).random_points(rng, 20)])
        # stage ends, and times inside every stage, so each stage gets a block
        ends = np.array([0.0] + [stage.b for stage in track.stages])
        k = rng.integers(len(track.stages), size=len(pts))
        inside = ends[k] + rng.random(len(pts)) * (ends[k + 1] - ends[k])
        t = np.where(rng.random(len(pts)) < 0.3, rng.choice(ends, len(pts)), inside)
        rows = np.concatenate([track.eval(ti, pts[i:i + 1]) for i, ti in enumerate(t)])
        assert np.array_equal(track.eval(t, pts), rows)


def test_naturality_across_faces(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    for i in range(3):
        err = verify_naturality(fam, rec, DeltaMorphism.face(i, 2))
        assert err <= 1e-9
    err = verify_naturality(fam, rec, DeltaMorphism.degeneracy(0, 3))
    assert err <= 1e-9


def test_homotopy_endpoints_carry_records(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    n = rec.dim
    h0 = homotopy_H(fam, DeltaMorphism(n, 1, (0,) * (n + 1)), rec)
    h1 = homotopy_H(fam, DeltaMorphism(n, 1, (1,) * (n + 1)), rec)
    assert h0.record is rec
    assert h1.record is fam.retract(rec)
    x = np.array([0.25, 0.25])
    assert np.array_equal(h0.eval(x), edge_triangle.eval_many(x))
    assert np.allclose(h1.eval(x), fam.retract(rec).map.eval_many(x), atol=1e-12)
    ramp = homotopy_H(fam, DeltaMorphism(n, 1, (0, 0, 1)), rec)
    assert ramp.record is None


def test_torus_cycle_is_retracted():
    fam = _torus_family(seed=3)
    up, down = meridian_arcs()
    rec_up, rec_down = fam.add(up), fam.add(down)
    out_up, out_down = fam.retract(rec_up), fam.retract(rec_down)
    member = meridian_member()
    from transim.transversal import is_T_transverse

    for rec in (out_up, out_down):
        assert is_T_transverse(
            rec.map, fam.members, fam.tol_rank, opts=_OPTS
        ).ok
    # arcs run opposite ways, so the face tuples swap; the endpoint set is shared
    assert set(rec_up.faces) == set(rec_down.faces)
    assert set(out_up.faces) == set(out_down.faces)


def test_longitude_already_transverse_is_fixed():
    fam = _torus_family()
    right, left = longitude_arcs()
    rec = fam.add(right)
    assert fam.retract(rec).id == rec.id
    rec_l = fam.add(left)
    assert fam.retract(rec_l).id == rec_l.id


def test_export_track_csv(tmp_path, edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    track = fam.track(rec)
    path = tmp_path / "track.csv"
    export_track_csv(track, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x0", "x1", "v0", "v1"]
    npts = len(simplex_grid(2, 6))  # 11 times on the order-5 lattice
    assert len(rows) == 1 + 11 * npts
    first = rows[1]
    x = np.array([float(first[1]), float(first[2])])
    v = np.array([float(first[3]), float(first[4])])
    assert np.allclose(v, track.eval(0.0, x)[0], atol=1e-12)


def test_family_report_shape(edge_triangle):
    fam = _plane_family()
    rec = fam.add(edge_triangle)
    fam.retract(rec)
    rep = fam.report()
    assert rep["seed"] == 0
    ids = {r["id"] for r in rep["records"]}
    assert rec.id in ids
    assert rep["retracted"][rec.id] != rec.id
    assert any(t["record"] == rec.id for t in rep["tracks"])


def _point(value, ambient=None, project=False):
    ambient = ambient or plane()
    return SmoothSimplexMap.constant(value, ambient, project=project)


def test_add_rejects_non_finite_maps():
    fam = _plane_family()
    rec = fam.add(_point([0.3, 0.2]))
    for bad in ([np.nan, 0.2], [0.3, np.inf]):
        with pytest.raises(NonFiniteMap):
            fam.add(_point(bad))
    tri = SmoothSimplexMap.affine_from_vertices(
        np.array([[0.3, 0.2], [1.0, np.nan], [0.5, 1.2]]), plane())
    with pytest.raises(NonFiniteMap):
        fam.add(tri)
    assert [r.id for r in fam] == [rec.id]


def test_dedup_window_edge_agrees_with_maps_close():
    tol = 1e-12
    for c in (0.0, 0.5, -0.37, 3.0e-13, 1e3):
        # record at c, probes at exactly tol from it where representable,
        # and one ulp further out on both sides
        for sign in (1.0, -1.0):
            edge = c + sign * tol
            for probe in (edge, np.nextafter(edge, c), np.nextafter(edge, sign * np.inf)):
                fam = _plane_family()
                rec = fam.add(_point([c, 0.1]))
                target = _point([probe, 0.1])
                close = maps_close(rec.map, target, tol)
                got = fam.add(target)
                assert (got is rec) == close, (c, probe)
    fam = _plane_family()
    rec = fam.add(_point([0.0, 0.1]))
    assert fam.add(_point([tol, 0.1])) is rec
    assert fam.add(_point([np.nextafter(tol, 1.0), 0.1])) is not rec
    assert fam.add(_point([-tol, 0.1])) is rec
    assert fam.add(_point([np.nextafter(-tol, -1.0), 0.1])) is not rec


def test_dedup_returns_the_earliest_inserted_match():
    for first, second in ((1.5e-12, 0.0), (0.0, 1.5e-12)):
        fam = _plane_family()
        a = fam.add(_point([first, 0.1]))
        b = fam.add(_point([second, 0.1]))
        assert a is not b
        assert fam.add(_point([0.75e-12, 0.1])) is a
    # the window holds the constant term only: a match there must still
    # agree in every other coefficient
    fam = _plane_family()
    seg = SmoothSimplexMap.affine_from_vertices(np.array([[0.0, 0.0], [1.0, 0.0]]), plane())
    other = SmoothSimplexMap.affine_from_vertices(np.array([[0.0, 0.0], [1.0, 1e-9]]), plane())
    assert fam.add(seg) is not fam.add(other)


def test_dedup_keys_on_dim_projection_and_ambient():
    fam = _plane_family()
    point = fam.add(_point([0.2, 0.4]))
    projected = fam.add(_point([0.2, 0.4], project=True))
    assert projected is not point
    seg = fam.add(SmoothSimplexMap.constant([0.2, 0.4], plane(), dim=1))
    assert seg is not point
    assert seg.faces == (point.id, point.id)
    on_sphere = fam.add(_point([0.0, 0.0, 1.0], AmbientManifold.sphere(3)))
    in_space = fam.add(_point([0.0, 0.0, 1.0], AmbientManifold.euclidean(3)))
    assert on_sphere is not in_space
    assert fam.add(_point([0.0, 0.0, 1.0], AmbientManifold.euclidean(3))) is in_space
    assert fam.add(_point([0.2, 0.4], project=True)) is projected


def _linear_scan(fam, m):
    """Record lookup as a scan in insertion order, the definition the keyed
    index must reproduce."""
    for rec in fam.records.values():
        if rec.dim == m.dim and maps_close(rec.map, m, 1e-12):
            return rec
    return None


def _segment(start, direction, quadratic=None):
    """Plane 1-simplex t -> start + t direction (+ t^2 quadratic)."""
    terms = {(0,): start, (1,): direction}
    if quadratic is not None:
        terms[(2,)] = quadratic
    return SmoothSimplexMap.from_poly(PolyMap(1, 2, terms), plane())


def _found(records, probe):
    """_find's answer for probe in a family holding records, after checking
    it against the linear scan."""
    fam = _plane_family()
    for m in records:
        fam.add(m)
    found = fam._find(probe, probe.flatten())
    assert found is _linear_scan(fam, probe)
    return found and found.map


def test_dedup_separates_records_that_share_the_constant_term():
    start = [0.3, 0.2]
    # faces and degeneracies through vertex 0 all take its value there
    maps = [SmoothSimplexMap.constant(start, plane(), dim=1), _segment(start, [1.0, 0.0]),
            _segment(start, [0.0, 1.0]), _segment(start, [1.0, 0.0], [0.0, 0.5])]
    for m in maps:
        assert _found(maps, m) is m
    assert _found(maps, _segment(start, [1.0, 1.0])) is None


def test_dedup_affine_part_edge_agrees_with_maps_close():
    tol = retraction._DEDUP_TOL
    start, base = [0.3, 0.2], _segment([0.3, 0.2], [1.0, 0.0])
    # |0 - tol| is tol exactly: close; one ulp more is not
    assert _found([base], _segment(start, [1.0, tol])) is base
    assert _found([base], _segment(start, [1.0, np.nextafter(tol, 1.0)])) is None
    # equal affine parts do not make a match: the full comparison still runs
    curved = _segment(start, [1.0, 0.0], [0.25, 0.5])
    assert _found([curved], _segment(start, [1.0, 0.0], [0.25, 0.5 + 1e-9])) is None
    assert _found([curved], _segment(start, [1.0, 0.0], [0.25, 0.5])) is curved


def test_keyed_index_matches_a_linear_scan(monkeypatch):
    built = []

    class Indexed(FiniteSingularFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def _find(self, m, flat):
            found = super()._find(m, flat)
            assert found is _linear_scan(self, m)
            return found

    class Scanned(FiniteSingularFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def _find(self, m, flat):
            return _linear_scan(self, m)

    for seed in range(3):
        results = []
        for cls in (Indexed, Scanned):
            built.clear()
            monkeypatch.setattr(verify, "FiniteSingularFamily", cls)
            res = verify.check_retraction_identities(seed)
            (fam,) = built
            results.append((res.ok, list(fam.records), fam.report()))
        assert results[0][0]
        assert results[0] == results[1]
