"""Integer chains, the intersection cocycle, and its evaluation through the
retraction.

The intersection number of a d-simplex against a cooriented codimension-d
member is the signed count of interior intersection points.  The sign at a
point z is det of the coorientation frame paired against the pushforward of
the oriented standard basis of the simplex, both expressed in an orthonormal
tangent frame of the ambient manifold at z; with this convention an affine
simplex through a point in the plane, cooriented by (e1, e2), counts with
the sign of its Jacobian determinant.

For the plane-with-origin scenarios the module also carries an independent
oracle: the winding number of the boundary loop computed by angle
accumulation, which equals the signed count by degree theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularSign, NotTransverse
from .retraction import FiniteSingularFamily, SingularRecord
from .simplex_geom import DeltaMorphism, barycentrics_many
from .smooth_maps import SmoothSimplexMap
from .transversal import (
    CornerManifold,
    IntersectionPoint,
    LocusOptions,
    is_transverse_pair,
)

__all__ = [
    "Chain",
    "CoorientedMember",
    "boundary",
    "iota_W",
    "iota_W_chain",
    "cocycle_check",
    "winding_number",
    "pullback_evaluate",
]


@dataclass(frozen=True)
class Chain:
    """Integer chain: finite formal sum of same-dimension records."""

    dim: int
    terms: tuple[tuple[int, SingularRecord], ...]

    def __post_init__(self):
        for coeff, rec in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficients are dropped at build time")
            if rec.dim != self.dim:
                raise ValueError("chain terms must share the chain dimension")

    @classmethod
    def build(cls, dim: int, pairs) -> "Chain":
        acc: dict[str, list] = {}
        order: list[str] = []
        for coeff, rec in pairs:
            if rec.id not in acc:
                acc[rec.id] = [0, rec]
                order.append(rec.id)
            acc[rec.id][0] += int(coeff)
        terms = tuple(
            (acc[rid][0], acc[rid][1]) for rid in order if acc[rid][0] != 0
        )
        return cls(dim, terms)

    def __add__(self, other: "Chain") -> "Chain":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Chain.build(self.dim, list(self.terms) + list(other.terms))

    def scale(self, c: int) -> "Chain":
        if c == 0:
            return Chain(self.dim, ())
        return Chain(self.dim, tuple((c * k, r) for k, r in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def describe(self) -> dict:
        return {"dim": self.dim,
                "terms": [[k, r.id] for k, r in self.terms]}


def boundary(c: Chain, fam: FiniteSingularFamily) -> Chain:
    """Alternating-sum boundary; exact on record ids, so dd = 0 exactly."""
    if c.dim < 1:
        raise ValueError("boundary needs chain dimension >= 1")
    pairs = []
    for coeff, rec in c.terms:
        for i, fid in enumerate(rec.faces):
            pairs.append((coeff * (-1) ** i, fam.records[fid]))
    return Chain.build(c.dim - 1, pairs)


@dataclass(frozen=True)
class CoorientedMember:
    member: CornerManifold

    def __post_init__(self):
        if len(self.member.coorientation) != self.member.codim_in_m:
            raise ValueError("coorientation frame size must equal the codimension")

    @property
    def codim(self) -> int:
        return self.member.codim_in_m


_SIGN_TRUST = 1e-9  # smallest |det| that still decides an intersection sign
_MIN_BARYCENTRIC = 1e-6  # a counted point must sit this far inside the simplex


def _oriented_orthonormal(cols: np.ndarray) -> np.ndarray:
    """QR orthonormalization keeping the orientation of the input columns."""
    q, r = np.linalg.qr(cols)
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    return q * flip


def _point_sign(sigma: SmoothSimplexMap, p: IntersectionPoint, normals: np.ndarray,
                jac: np.ndarray) -> int:
    """Sign of the crossing at p, from the member's coorientation frame and
    the simplex's Jacobian there."""
    frame = sigma.ambient.tangent_basis(p.z)
    co = frame.T @ normals
    push = frame.T @ jac
    a = _oriented_orthonormal(co).T @ push
    det = float(np.linalg.det(a))
    if abs(det) < _SIGN_TRUST:
        raise NearSingularSign(
            f"intersection sign determinant {det:.3e} below trust threshold"
        )
    return 1 if det > 0 else -1


def iota_W(
    w: CoorientedMember,
    rec_or_map,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> int:
    """Signed count of interior intersection points of a d-simplex with the
    codimension-d member.

    Transversality of the simplex and all its faces is checked first; in
    complementary dimension it forces every facet locus to be empty, which
    is asserted rather than assumed.

    The map keeps the loci it was checked with (see ``intersection_locus``),
    so a face counted again, as the boundary of a second simplex or in a
    second pass over the same boundary, solves nothing, whether it comes as
    a record or as a bare map.
    """
    sigma = rec_or_map.map if isinstance(rec_or_map, SingularRecord) else rec_or_map
    if sigma.dim != w.codim:
        raise ValueError("iota_W needs dim sigma = codim W")
    verdict = is_transverse_pair(sigma, w.member, tol_rank, None, opts)
    if not verdict.ok:
        raise NotTransverse(
            f"simplex is not transverse to {w.member.name} "
            f"(min spanning sv {verdict.min_sv:.3e})"
        )
    deep = [p for p in verdict.report.points if p.simplex_depth > 0]
    if deep:
        raise NotTransverse(
            "facet intersections present in complementary dimension; "
            "the transversality check should have excluded this"
        )
    points = verdict.report.points
    if not points:
        return 0
    xs = np.array([p.x for p in points])
    lam_mins = np.min(barycentrics_many(sigma.dim, xs), axis=1)
    frames = w.member.coorientation_frame(np.array([p.z for p in points]))
    jacs = sigma.jacobian_many(xs)
    total = 0
    for p, lam_min, normals, jac in zip(points, lam_mins, frames, jacs):
        if lam_min < _MIN_BARYCENTRIC:
            raise NotTransverse(
                f"counted point sits {lam_min:.3e} from the boundary; "
                "complementary-dimension interiority is violated"
            )
        total += _point_sign(sigma, p, normals, jac)
    return total


def iota_W_chain(
    w: CoorientedMember,
    c: Chain,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> int:
    return sum(coeff * iota_W(w, rec, tol_rank, opts) for coeff, rec in c.terms)


def cocycle_check(
    w: CoorientedMember,
    tau: SingularRecord,
    fam: FiniteSingularFamily,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> int:
    """iota_W evaluated on the boundary of a (d+1)-simplex; zero whenever
    the simplex is transverse to the member on all strata."""
    if tau.dim != w.codim + 1:
        raise ValueError("cocycle_check needs dim tau = codim W + 1")
    c = Chain.build(tau.dim, [(1, tau)])
    return iota_W_chain(w, boundary(c, fam), tol_rank, opts)


def pullback_evaluate(
    w: CoorientedMember,
    c: Chain,
    fam: FiniteSingularFamily,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> int:
    """Evaluate the transverse cocycle on p_*(c): retract termwise, then
    count.  Chains that are already transverse are fixed by p, so this
    extends iota_W rather than replacing it."""
    retracted = Chain.build(
        c.dim, [(coeff, fam.retract(rec)) for coeff, rec in c.terms]
    )
    return iota_W_chain(w, retracted, tol_rank, opts)


# -- planar winding oracle ----------------------------------------------------------


_EDGE_PATH = (2, 0, 1)  # delta_2, delta_0, then delta_1 reversed: v0->v1->v2->v0
_SAMPLES_PER_EDGE = 200  # initial polyline density of each boundary edge
_MAX_REFINEMENTS = 6  # density doublings before the oracle gives up


def winding_number(sigma: SmoothSimplexMap) -> int:
    """Winding of the boundary loop of a planar 2-simplex around the origin.

    Angle accumulation along sampled edge polylines; the sampling density
    doubles until no step turns by more than pi/2, so the accumulated total
    is the true winding of the smooth loop.
    """
    if sigma.dim != 2 or sigma.ambient.ambient_dim != 2:
        raise ValueError("winding oracle works on planar 2-simplices")
    edges = [sigma.restrict(DeltaMorphism.face(i, 2)) for i in _EDGE_PATH]
    for attempt in range(_MAX_REFINEMENTS):
        ts = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE * (2 ** attempt) + 1)
        pts = np.concatenate([edge.eval_many((ts[::-1] if leg == 2 else ts)[:, None])
                              for leg, edge in enumerate(edges)])
        if np.min(np.linalg.norm(pts, axis=1)) < 1e-12:
            raise NotTransverse("boundary loop passes through the origin")
        # consecutive angles differ by at most 2 pi: one wrap into [-pi, pi]
        steps = np.diff(np.arctan2(pts[:, 1], pts[:, 0]))
        steps = np.where(steps > math.pi, steps - 2.0 * math.pi,
                         np.where(steps < -math.pi, steps + 2.0 * math.pi, steps))
        if np.any(np.abs(steps) > math.pi / 2):
            continue
        rounds = float(np.sum(steps)) / (2.0 * math.pi)
        nearest = round(rounds)
        if abs(rounds - nearest) > 1e-6:
            raise NotTransverse(
                f"winding total {rounds:.6f} is not close to an integer"
            )
        return int(nearest)
    raise NotTransverse("winding sampling did not stabilize")
