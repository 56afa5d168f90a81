import csv
import json

import numpy as np
import pytest

from transim.cochain import (
    Chain,
    CoorientedMember,
    boundary,
    cocycle_check,
    export_signs_csv,
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


def test_coorientation_reversal_flips_sign(crossing_triangle):
    level = PolyMap.affine(np.eye(2), np.zeros(2))
    co = (
        PolyMap.constant(np.array([-1.0, 0.0]), 2),
        PolyMap.constant(np.array([0.0, 1.0]), 2),
    )
    reversed_member = CornerManifold.level_set_in(
        "origin-rev", plane(), level, coorientation=co
    )
    assert iota_W(CoorientedMember(reversed_member), crossing_triangle, opts=_OPTS) == -1


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


def test_export_signs_csv(tmp_path, crossing_triangle):
    from transim.transversal import is_transverse_pair

    w = CoorientedMember(origin_member())
    iota_W(w, crossing_triangle, opts=_OPTS)
    verdict = is_transverse_pair(crossing_triangle, origin_member(), opts=_OPTS)
    for p in verdict.report.points:
        p.sign = 1
    path = tmp_path / "signs.csv"
    export_signs_csv(verdict.report.points, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "member"
    assert len(rows) == 1 + len(verdict.report.points)
    assert rows[1][0] == "origin"
