"""Concrete desk-scale geometry used by the CLI bundles and the test suite.

Plane scenarios: the flat plane with the origin (codimension 2) and the
horizontal axis (codimension 1) as members.  Torus scenarios: the Clifford
torus in R^4 with the meridian circle {y = 0, x > 0} as a cooriented member,
longitude and meridian cycles built from two quadratic arcs each, and a
deliberately tangent longitude whose raw velocity at the crossing is purely
radial (so the projected velocity vanishes and the crossing fails the rank
test).

Everything here is polynomial with hand-checked tube margins; the comments
record the margin where it is not obvious.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientManifold
from .errors import TrialsExhausted
from .poly import PolyMap, monomial_exponents
from .smooth_maps import SmoothSimplexMap
from .transversal import (
    CornerManifold,
    LocusOptions,
    TCollection,
    is_T_transverse,
)

__all__ = [
    "plane",
    "torus",
    "origin_member",
    "line_member",
    "meridian_member",
    "longitude_arcs",
    "tangent_longitude_arcs",
    "shifted_longitude_arcs",
    "meridian_arcs",
    "random_transverse_cubic",
    "PerturbCase",
    "perturbation_cases",
    "TORUS_RADIUS",
]

TORUS_RADIUS = 1.0 / math.sqrt(2.0)
_SHIFT_ANGLE = 0.35  # rotation of the shifted longitude in the first factor
_CUBIC_ATTEMPTS = 60  # draws before random_transverse_cubic gives up


def plane() -> AmbientManifold:
    return AmbientManifold.euclidean(2)


def torus() -> AmbientManifold:
    return AmbientManifold.clifford_torus()


# -- plane members ------------------------------------------------------------------


def origin_member() -> CornerManifold:
    """W = {0} in the plane, cooriented by (e1, e2)."""
    level = PolyMap.affine(np.eye(2), np.zeros(2))
    co = (
        PolyMap.constant(np.array([1.0, 0.0]), 2),
        PolyMap.constant(np.array([0.0, 1.0]), 2),
    )
    return CornerManifold.level_set_in("origin", plane(), level, coorientation=co)


def line_member() -> CornerManifold:
    """The horizontal axis {y = 0}, cooriented by e2."""
    level = PolyMap.affine(np.array([[0.0, 1.0]]), np.zeros(1))
    co = (PolyMap.constant(np.array([0.0, 1.0]), 2),)
    return CornerManifold.level_set_in("axis", plane(), level, coorientation=co)


# -- torus members and cycles -------------------------------------------------------


def meridian_member() -> CornerManifold:
    """The meridian circle {y = 0, x > 0} on the Clifford torus.

    Cooriented by the normalized theta_1 direction sqrt(2) * (-y, x, 0, 0),
    which is a unit normal field along the meridian.
    """
    ambient = torus()
    level = PolyMap.affine(np.array([[0.0, 1.0, 0.0, 0.0]]), np.zeros(1))
    half = PolyMap.affine(np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros(1))
    s = math.sqrt(2.0)
    co_matrix = np.array([
        [0.0, -s, 0.0, 0.0],
        [s, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    co = (PolyMap.affine(co_matrix, np.zeros(4)),)
    return CornerManifold.level_set_in(
        "meridian", ambient, level, inequalities=(half,), coorientation=co
    )


def _t_poly(coeffs: dict[int, float]) -> PolyMap:
    """Scalar polynomial in one variable from {power: coefficient}."""
    return PolyMap(1, 1, {(p,): np.array([c]) for p, c in coeffs.items()})


def _torus_curve(x: PolyMap, y: PolyMap, z: PolyMap, w: PolyMap) -> SmoothSimplexMap:
    comps = [x, y, z, w]
    terms: dict = {}
    for i, comp in enumerate(comps):
        for e, c in comp.terms.items():
            vec = terms.setdefault(e, np.zeros(4))
            vec[i] += c[0]
    poly = PolyMap(1, 4, terms)
    return SmoothSimplexMap.from_poly(poly, torus(), project=True)


def longitude_arcs() -> tuple[SmoothSimplexMap, SmoothSimplexMap]:
    """Two arcs whose sum winds once around the first circle factor.

    The right arc runs (0,-r) -> (0,r) through (r,0), crossing the meridian
    exactly once at t = 1/2; the left arc returns through x < 0 and never
    meets it.  Raw curves stay within 0.08 of the factor circle, well inside
    the 0.3 tube.
    """
    r = TORUS_RADIUS
    right = _torus_curve(
        _t_poly({1: 4.0 * r, 2: -4.0 * r}),
        _t_poly({0: -r, 1: 2.0 * r}),
        _t_poly({0: r}),
        _t_poly({}),
    )
    left = _torus_curve(
        _t_poly({1: -4.0 * r, 2: 4.0 * r}),
        _t_poly({0: r, 1: -2.0 * r}),
        _t_poly({0: r}),
        _t_poly({}),
    )
    return right, left


def tangent_longitude_arcs() -> tuple[SmoothSimplexMap, SmoothSimplexMap]:
    """Longitude with the crossing arc flattened to a cubic graze.

    In u = 2t - 1 the right arc is y = r u^3 and x = r (1 - u^6/2 - u^12/2),
    which matches sqrt(r^2 - y^2) to within 0.05 r, so the raw curve stays
    deep inside the tube.  At u = 0 the raw velocity is zero, hence so is
    the projected one: the crossing with the meridian fails the spanning
    test instead of being a clean transversal point.
    """
    r = TORUS_RADIUS
    u = np.array([[2.0]]), np.array([-1.0])
    x_u = _t_poly({0: r, 6: -0.5 * r, 12: -0.5 * r})
    y_u = _t_poly({3: r})
    right = _torus_curve(
        x_u.compose_affine(*u),
        y_u.compose_affine(*u),
        _t_poly({0: r}),
        _t_poly({}),
    )
    _, left = longitude_arcs()
    return right, left


def _rotate_plane_factor(m: SmoothSimplexMap, phi: float) -> SmoothSimplexMap:
    """Rotate the (x, y) circle factor; commutes with the tube projection."""
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([
        [c, -s, 0.0, 0.0],
        [s, c, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    terms = {e: rot @ v for e, v in m.poly.terms.items()}
    poly = PolyMap(m.poly.nvars, 4, terms)
    return SmoothSimplexMap.from_poly(poly, m.ambient, project=True)


def shifted_longitude_arcs() -> tuple[SmoothSimplexMap, SmoothSimplexMap]:
    """A homologous longitude representative: the same cycle rotated in the
    first factor, still crossing the meridian exactly once."""
    right, left = longitude_arcs()
    return _rotate_plane_factor(right, _SHIFT_ANGLE), _rotate_plane_factor(left, _SHIFT_ANGLE)


def meridian_arcs() -> tuple[SmoothSimplexMap, SmoothSimplexMap]:
    """A cycle that lies entirely inside the meridian member: the second
    factor traversed by two arcs at (x, y) = (r, 0).  Nothing about it is
    transverse; it exists to be retracted."""
    r = TORUS_RADIUS
    up = _torus_curve(
        _t_poly({0: r}),
        _t_poly({}),
        _t_poly({1: 4.0 * r, 2: -4.0 * r}),
        _t_poly({0: -r, 1: 2.0 * r}),
    )
    down = _torus_curve(
        _t_poly({0: r}),
        _t_poly({}),
        _t_poly({1: -4.0 * r, 2: 4.0 * r}),
        _t_poly({0: r, 1: -2.0 * r}),
    )
    return up, down


def _subarc(m: SmoothSimplexMap, alpha: float, beta: float) -> SmoothSimplexMap:
    poly = m.poly.compose_affine(np.array([[beta - alpha]]), np.array([alpha]))
    return SmoothSimplexMap.from_poly(poly, m.ambient, project=m.project_flag)


# -- random transverse simplices ----------------------------------------------------


def random_transverse_cubic(
    rng: np.random.Generator,
    member: CornerManifold,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> SmoothSimplexMap:
    """Random cubic 3-simplex in the plane, rejected until stratumwise
    transverse to the member.  Rejection is rare: the bad set has measure
    zero and the filter mostly guards against near misses."""
    members = TCollection.of(member)
    for _ in range(_CUBIC_ATTEMPTS):
        verts = rng.uniform(-1.4, 1.4, size=(4, 2))
        sigma = SmoothSimplexMap.affine_from_vertices(verts, plane())
        terms = dict(sigma.poly.terms)
        for e in monomial_exponents(3, 3):
            if sum(e) >= 2:
                terms[e] = rng.uniform(-0.12, 0.12, size=2)
        sigma = SmoothSimplexMap.from_poly(PolyMap(3, 2, terms), plane())
        if is_T_transverse(sigma, members, tol_rank, opts=opts).ok:
            return sigma
    raise TrialsExhausted("no transverse cubic simplex found", diagnostics={})


# -- constructed inputs for the perturbation lemma ----------------------------------


@dataclass(frozen=True)
class PerturbCase:
    name: str
    sigma: SmoothSimplexMap
    members: TCollection


def perturbation_cases() -> list[PerturbCase]:
    """Twenty non-transverse inputs whose proper faces are all transverse.

    Point simplices sitting on a member, plane segments inside the axis,
    and torus segments inside the meridian.  Rel-boundary perturbation must
    fix each one at the interior stratum without moving the boundary.
    """
    cases: list[PerturbCase] = []
    pl = plane()
    origin = TCollection.of(origin_member())
    axis = TCollection.of(line_member())
    meridian = TCollection.of(meridian_member())

    # points on a codimension-2 member
    for i in range(4):
        pt = SmoothSimplexMap.constant(np.zeros(2), pl)
        cases.append(PerturbCase(f"point-on-origin-{i}", pt, origin))
    # points on a codimension-1 member
    for i, a in enumerate((-0.7, 0.2, 0.9)):
        pt = SmoothSimplexMap.constant(np.array([a, 0.0]), pl)
        cases.append(PerturbCase(f"point-on-axis-{i}", pt, axis))
    # segments inside the axis
    spans = [(-1.0, 1.0), (-0.8, 0.5), (0.1, 0.9), (-0.5, -0.1),
             (-1.2, 0.3), (0.2, 1.1), (-0.9, 0.8)]
    for i, (a, b) in enumerate(spans):
        seg = SmoothSimplexMap.affine_from_vertices(
            np.array([[a, 0.0], [b, 0.0]]), pl
        )
        cases.append(PerturbCase(f"segment-in-axis-{i}", seg, axis))
    # torus segments inside the meridian circle
    up, down = meridian_arcs()
    pieces = [(up, 0.1, 0.9), (up, 0.2, 0.7), (up, 0.35, 0.65),
              (down, 0.1, 0.9), (down, 0.25, 0.75), (down, 0.4, 0.6)]
    for i, (arc, a, b) in enumerate(pieces):
        cases.append(PerturbCase(f"segment-in-meridian-{i}", _subarc(arc, a, b), meridian))
    assert len(cases) == 20
    return cases
