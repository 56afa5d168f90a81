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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularSign, NotTransverse
from .retraction import FiniteSingularFamily, SingularRecord
from .simplex_geom import DeltaMorphism, barycentrics
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
    "export_signs_csv",
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


def _point_sign(w: CoorientedMember, sigma: SmoothSimplexMap,
                p: IntersectionPoint) -> int:
    ambient = sigma.ambient
    frame = ambient.tangent_basis(p.z)
    co = frame.T @ w.member.coorientation_frame(p.z)
    push = frame.T @ sigma.jacobian(p.x)
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

    A record keeps its count for each (w, tol_rank, opts), so a face counted
    again, as the boundary of a second simplex or in a second pass over the
    same boundary, is looked up rather than solved again.  The count is a
    deterministic function of the record's map, so the lookup returns what
    the solve would.
    """
    if not isinstance(rec_or_map, SingularRecord):
        return _signed_count(w, rec_or_map, tol_rank, opts)
    # keyed on w's identity (its member is not hashable); the stored w keeps
    # that identity from being reused
    key = (id(w), tol_rank, opts)
    known = rec_or_map.counts.get(key)
    if known is None or known[0] is not w:
        known = (w, _signed_count(w, rec_or_map.map, tol_rank, opts))
        rec_or_map.counts[key] = known
    return known[1]


def _signed_count(w: CoorientedMember, sigma: SmoothSimplexMap, tol_rank: float,
                  opts: LocusOptions) -> int:
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
    total = 0
    for p in verdict.report.points:
        lam_min = float(np.min(barycentrics(sigma.dim, p.x)))
        if lam_min < _MIN_BARYCENTRIC:
            raise NotTransverse(
                f"counted point sits {lam_min:.3e} from the boundary; "
                "complementary-dimension interiority is violated"
            )
        sign = _point_sign(w, sigma, p)
        p.sign = sign
        total += sign
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
    for attempt in range(_MAX_REFINEMENTS):
        density = _SAMPLES_PER_EDGE * (2 ** attempt)
        total = 0.0
        ok = True
        prev_angle = None
        ts = np.linspace(0.0, 1.0, density + 1)
        for leg, edge_index in enumerate(_EDGE_PATH):
            edge = sigma.restrict(DeltaMorphism.face(edge_index, 2))
            params = ts if leg != 2 else ts[::-1]
            pts = edge.eval_many(params[:, None])
            radii = np.linalg.norm(pts, axis=1)
            if np.min(radii) < 1e-12:
                raise NotTransverse("boundary loop passes through the origin")
            angles = np.arctan2(pts[:, 1], pts[:, 0])
            start = 0 if prev_angle is None else 1
            if prev_angle is not None:
                step = _wrap(angles[0] - prev_angle)
                if abs(step) > math.pi / 2:
                    ok = False
                    break
                total += step
            for i in range(1, len(angles)):
                step = _wrap(angles[i] - angles[i - 1])
                if abs(step) > math.pi / 2:
                    ok = False
                    break
                total += step
            if not ok:
                break
            prev_angle = angles[-1]
        if ok:
            rounds = total / (2.0 * math.pi)
            nearest = round(rounds)
            if abs(rounds - nearest) > 1e-6:
                raise NotTransverse(
                    f"winding total {rounds:.6f} is not close to an integer"
                )
            return int(nearest)
    raise NotTransverse("winding sampling did not stabilize")


def _wrap(angle: float) -> float:
    while angle > math.pi:
        angle -= 2.0 * math.pi
    while angle < -math.pi:
        angle += 2.0 * math.pi
    return angle


def export_signs_csv(points: list[IntersectionPoint], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["member", "sign", "residual", "spanning_sv", "x", "z"])
        for p in points:
            writer.writerow([
                p.member,
                p.sign if p.sign is not None else "",
                f"{p.residual:.3e}",
                f"{p.spanning_sv:.6e}" if p.spanning_sv is not None else "",
                " ".join(f"{v:.12g}" for v in p.x),
                " ".join(f"{v:.12g}" for v in p.z),
            ])
