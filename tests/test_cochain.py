import dataclasses
import json

import numpy as np
import pytest

from transim.cochain import (
    Chain,
    CoorientedMember,
    boundary,
    cocycle_check,
    iota_W,
    iota_W_chain,
    pullback_evaluate,
    winding_number,
)
from transim.errors import NearSingularSign, NotTransverse
from transim.poly import PolyMap
from transim.retraction import FiniteSingularFamily
from transim.scenarios import (
    line_member,
    longitude_arcs,
    meridian_member,
    origin_member,
    plane,
    random_transverse_cubic,
    tangent_longitude_arcs,
)
from transim.smooth_maps import SmoothSimplexMap
from transim.transversal import CornerManifold, LocusOptions, TCollection
from transim import transversal, verify
from transim.verify import check_cocycle_zero

_OPTS = LocusOptions(cells_per_dim=12)


def _family(member):
    return FiniteSingularFamily(TCollection.of(member), opts=_OPTS)


def _affine(vertices):
    return SmoothSimplexMap.affine_from_vertices(np.asarray(vertices, float), plane())


def test_chain_build_merges_and_drops():
    fam = _family(origin_member())
    a = fam.add(_affine([[0.0, 1.0], [1.0, 1.0]]))
    b = fam.add(_affine([[0.0, 2.0], [1.0, 2.0]]))
    c = Chain.build(1, [(1, a), (2, b), (1, a), (-2, a)])
    assert c.terms == ((2, b),)
    assert (c + c.scale(-1)).is_zero
    with pytest.raises(ValueError):
        Chain(1, ((0, a),))


def test_boundary_squares_to_zero():
    fam = _family(origin_member())
    rng = np.random.default_rng(71)
    tet = fam.add(_affine(rng.uniform(-1, 1, (4, 2))))
    tri = fam.add(_affine(rng.uniform(-1, 1, (3, 2))))
    for rec in (tet, tri):
        c = Chain.build(rec.dim, [(3, rec)])
        assert boundary(boundary(c, fam), fam).is_zero


def test_sign_convention_follows_jacobian(crossing_triangle, origin_collection):
    w = CoorientedMember(origin_member())
    assert iota_W(w, crossing_triangle, opts=_OPTS) == 1
    flipped = _affine([[1.5, -0.8], [-1.0, -1.0], [0.0, 1.2]])
    assert iota_W(w, flipped, opts=_OPTS) == -1


def test_iota_matches_winding_oracle(crossing_triangle):
    w = CoorientedMember(origin_member())
    assert winding_number(crossing_triangle) == 1
    flipped = _affine([[1.5, -0.8], [-1.0, -1.0], [0.0, 1.2]])
    assert winding_number(flipped) == -1
    missing = _affine([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    assert winding_number(missing) == 0
    assert iota_W(w, missing, opts=_OPTS) == 0


def _reversed_origin():
    level = PolyMap.affine(np.eye(2), np.zeros(2))
    co = (
        PolyMap.constant(np.array([-1.0, 0.0]), 2),
        PolyMap.constant(np.array([0.0, 1.0]), 2),
    )
    return CornerManifold.level_set_in("origin-rev", plane(), level, coorientation=co)


def test_coorientation_reversal_flips_sign(crossing_triangle):
    assert iota_W(CoorientedMember(_reversed_origin()), crossing_triangle, opts=_OPTS) == -1


@pytest.fixture
def solved(monkeypatch):
    """(map, member) of every face-stratum solve of the locus finder, in
    call order."""
    calls = []
    solve = transversal._solve_descriptor_pair

    def counting(cx, member, *args):
        calls.append((cx.sigma, member))
        return solve(cx, member, *args)

    monkeypatch.setattr(transversal, "_solve_descriptor_pair", counting)
    return calls


_TRIANGLE_FACES = 7  # open faces of a 2-simplex: one solve each per member stratum


def _count_and_solves(solved, *args, **kwargs):
    """iota_W's count and the number of face-stratum solves it made."""
    before = len(solved)
    return iota_W(*args, **kwargs), len(solved) - before


def test_a_record_is_solved_once_per_member_and_options(solved, crossing_triangle):
    rec = _family(origin_member()).add(crossing_triangle)
    w = CoorientedMember(origin_member())
    counted = [_count_and_solves(solved, w, rec, opts=_OPTS) for _ in range(3)]
    assert counted == [(1, _TRIANGLE_FACES), (1, 0), (1, 0)]
    assert all(sigma is rec.map and member is w.member for sigma, member in solved)
    # another member (even an equal one) or other options is solved anew
    assert _count_and_solves(solved, CoorientedMember(_reversed_origin()), rec,
                             opts=_OPTS) == (-1, _TRIANGLE_FACES)
    assert _count_and_solves(solved, CoorientedMember(origin_member()), rec,
                             opts=_OPTS) == (1, _TRIANGLE_FACES)
    assert _count_and_solves(solved, w, rec,
                             opts=LocusOptions(cells_per_dim=8)) == (1, _TRIANGLE_FACES)
    # a locus does not depend on tol_rank, so another tolerance solves nothing
    assert _count_and_solves(solved, w, rec, tol_rank=1e-7, opts=_OPTS) == (1, 0)
    # a bare map is remembered too
    bare = dataclasses.replace(crossing_triangle)
    assert [_count_and_solves(solved, w, bare, opts=_OPTS) for _ in range(2)] == [
        (1, _TRIANGLE_FACES), (1, 0)]


def test_a_failed_count_is_not_remembered(solved, edge_triangle):
    rec = _family(origin_member()).add(edge_triangle)
    w = CoorientedMember(origin_member())
    before = len(solved)
    for _ in range(2):
        with pytest.raises(NotTransverse):
            iota_W(w, rec, opts=_OPTS)
    # the second call raises again, from the loci the first one kept
    assert len(solved) - before == _TRIANGLE_FACES
    assert rec.map.loci


def test_boundary_then_faces_solves_each_face_once(solved):
    member = origin_member()
    fam = _family(member)
    w = CoorientedMember(member)
    rec = fam.add(random_transverse_cubic(np.random.default_rng(74), member, opts=_OPTS))
    solved.clear()
    assert cocycle_check(w, rec, fam, opts=_OPTS) == 0
    faces = [fam.records[fid] for fid in rec.faces]
    assert [sigma for sigma, _ in solved] == [
        face.map for face in faces for _ in range(_TRIANGLE_FACES)]
    counts = [iota_W(w, face, opts=_OPTS) for face in faces]
    assert counts == [winding_number(face.map) for face in faces]
    assert len(solved) == len(faces) * _TRIANGLE_FACES


def test_counting_leaves_the_kept_points_unchanged(crossing_triangle):
    """The map's loci are shared with every later caller, so iota_W reads
    their points and writes none of their fields."""
    rec = _family(origin_member()).add(crossing_triangle)
    w = CoorientedMember(origin_member())
    assert transversal.is_transverse_pair(rec.map, w.member, 1e-6, None, _OPTS).ok
    points = [p for _, report in rec.map.loci.values() for p in report.points]
    assert points
    before = [dataclasses.astuple(p) for p in points]
    assert [iota_W(w, rec, opts=_OPTS) for _ in range(2)] == [1, 1]
    for p, fields in zip(points, before):
        for name, old, new in zip([f.name for f in dataclasses.fields(p)], fields,
                                  dataclasses.astuple(p)):
            if isinstance(old, np.ndarray):
                assert old.tobytes() == new.tobytes(), name
            else:
                assert old == new, name


def test_winding_rejects_center_on_boundary(edge_triangle):
    with pytest.raises(NotTransverse):
        winding_number(edge_triangle)


def test_iota_rejects_nontransverse_input(edge_triangle):
    w = CoorientedMember(origin_member())
    with pytest.raises(NotTransverse):
        iota_W(w, edge_triangle, opts=_OPTS)
    tangent, _ = tangent_longitude_arcs()
    with pytest.raises(NotTransverse):
        iota_W(CoorientedMember(meridian_member()), tangent, opts=_OPTS)


def test_iota_dimension_mismatch():
    w = CoorientedMember(origin_member())
    seg = _affine([[0.0, -1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        iota_W(w, seg, opts=_OPTS)


def test_near_singular_sign_is_refused():
    # slope so shallow that the crossing determinant falls below sign trust,
    # while the located point still clears a loose rank tolerance
    eps = 4e-10
    seg = _affine([[0.0, -eps], [1.0, eps]])
    w = CoorientedMember(line_member())
    with pytest.raises(NearSingularSign):
        iota_W(w, seg, tol_rank=1e-12, opts=_OPTS)


def test_longitude_count_is_one():
    w = CoorientedMember(meridian_member())
    right, left = longitude_arcs()
    fam = _family(meridian_member())
    chain = Chain.build(1, [(1, fam.add(right)), (1, fam.add(left))])
    assert boundary(chain, fam).is_zero
    assert iota_W_chain(w, chain, opts=_OPTS) == 1
    assert pullback_evaluate(w, chain, fam, opts=_OPTS) == 1


def test_cocycle_vanishes_on_transverse_boundary():
    rng = np.random.default_rng(72)
    member = origin_member()
    fam = _family(member)
    tau = fam.add(random_transverse_cubic(rng, member, opts=_OPTS))
    assert cocycle_check(CoorientedMember(member), tau, fam, opts=_OPTS) == 0


def test_cocycle_stream_report_is_deterministic():
    """Two runs in one process agree once the timing field is dropped, and
    each boundary count is the alternating sum of its face counts."""

    def stripped():
        d = check_cocycle_zero(seed=3, count=3).describe()
        del d["details"]["elapsed_s"]
        return d

    first = stripped()
    assert json.dumps(first, sort_keys=True) == json.dumps(stripped(), sort_keys=True)
    assert first["ok"] and len(first["details"]["cases"]) == 3
    for row in first["details"]["cases"]:
        alternating = sum((-1) ** f["face"] * f["iota"] for f in row["faces"])
        assert row["boundary_count"] == alternating == 0


def test_cocycle_requires_one_extra_dimension(crossing_triangle):
    fam = _family(origin_member())
    rec = fam.add(crossing_triangle)
    with pytest.raises(ValueError):
        cocycle_check(CoorientedMember(origin_member()), rec, fam, opts=_OPTS)


def test_torus_duality_reports_an_open_chain(monkeypatch):
    # a boundary that never vanishes must fail the check, not raise
    monkeypatch.setattr(verify, "boundary", lambda chain, fam: chain)
    res = verify.check_torus_duality(seed=7)
    assert res.ok is False
    assert res.details["longitude"] == 1
