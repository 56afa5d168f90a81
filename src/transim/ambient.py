"""Ambient target manifolds embedded in R^N.

Every target is an embedded submanifold M of some R^N carrying a tubular
neighborhood of uniform radius, a nearest-point style projection pi defined
on that tube, and orthonormal tangent frames.  Four kinds are supported:

* ``euclidean``      -- M = R^m itself, pi = identity, tube radius 1.
* ``sphere``         -- unit sphere in R^N, pi(z) = z/|z|, tube radius 0.5.
* ``clifford_torus`` -- product of two circles of radius 1/sqrt(2) in R^4,
                        per-factor normalization, tube radius 0.3.
* ``level_set``      -- zero set of a polynomial submersion G: R^N -> R^c,
                        projection by constrained Newton iteration, tube
                        radius supplied by the caller (eps_lower).

The tube radii of the presets sit strictly inside the reach of each
manifold, so pi is smooth on the whole tube and the projection Jacobian
stays submersive there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfTube, RankDrop
from .poly import PolyMap

__all__ = ["AmbientManifold", "TangentFrame"]

_RANK_TOL = 1e-7
_TORUS_RADIUS = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of T_z M, stored as columns of ``basis``."""

    point: np.ndarray
    basis: np.ndarray  # shape (N, m)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class AmbientManifold:
    kind: str
    ambient_dim: int
    intrinsic_dim: int
    tube_radius: float
    level_poly: PolyMap | None = field(default=None, compare=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def euclidean(cls, m: int) -> "AmbientManifold":
        return cls("euclidean", m, m, 1.0)

    @classmethod
    def sphere(cls, ambient_dim: int = 3) -> "AmbientManifold":
        return cls("sphere", ambient_dim, ambient_dim - 1, 0.5)

    @classmethod
    def clifford_torus(cls) -> "AmbientManifold":
        return cls("clifford_torus", 4, 2, 0.3)

    @classmethod
    def level_set(cls, poly: PolyMap, eps_lower: float) -> "AmbientManifold":
        if eps_lower <= 0.0:
            raise ValueError("eps_lower must be positive")
        return cls(
            "level_set",
            poly.nvars,
            poly.nvars - poly.ncomp,
            float(eps_lower),
            level_poly=poly,
        )

    def epsilon(self, z=None) -> float:
        """Tube radius; constant per manifold."""
        return self.tube_radius

    # -- membership ------------------------------------------------------------

    def contains(self, z, tol: float = 1e-9) -> bool:
        z = np.asarray(z, dtype=float).reshape(self.ambient_dim)
        if self.kind == "euclidean":
            return True
        if self.kind == "sphere":
            return abs(np.linalg.norm(z) - 1.0) <= tol
        if self.kind == "clifford_torus":
            r1 = np.linalg.norm(z[:2])
            r2 = np.linalg.norm(z[2:])
            return abs(r1 - _TORUS_RADIUS) <= tol and abs(r2 - _TORUS_RADIUS) <= tol
        try:
            w = self.project(z)
        except OutOfTube:
            return False
        return bool(np.linalg.norm(w - z) <= tol)

    def distance(self, z) -> float:
        """Distance to M (exact for presets, via projection for level sets)."""
        z = np.asarray(z, dtype=float).reshape(self.ambient_dim)
        if self.kind == "euclidean":
            return 0.0
        if self.kind == "sphere":
            return abs(np.linalg.norm(z) - 1.0)
        if self.kind == "clifford_torus":
            d1 = np.linalg.norm(z[:2]) - _TORUS_RADIUS
            d2 = np.linalg.norm(z[2:]) - _TORUS_RADIUS
            return float(np.hypot(d1, d2))
        return float(np.linalg.norm(self.project(z) - z))

    # -- projection --------------------------------------------------------------

    def project(self, z) -> np.ndarray:
        return self.project_many(np.asarray(z, dtype=float).reshape(1, -1))[0]

    def project_many(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, self.ambient_dim)
        if self.kind == "euclidean":
            return pts.copy()
        if self.kind == "sphere":
            norms = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(norms - 1.0) >= self.tube_radius):
                raise OutOfTube("point outside the sphere tube")
            return pts / norms[:, None]
        if self.kind == "clifford_torus":
            r1 = np.linalg.norm(pts[:, :2], axis=1)
            r2 = np.linalg.norm(pts[:, 2:], axis=1)
            dist = np.hypot(r1 - _TORUS_RADIUS, r2 - _TORUS_RADIUS)
            if np.any(dist >= self.tube_radius) or np.any(r1 < 1e-12) or np.any(r2 < 1e-12):
                raise OutOfTube("point outside the torus tube")
            out = np.empty_like(pts)
            out[:, :2] = pts[:, :2] * (_TORUS_RADIUS / r1)[:, None]
            out[:, 2:] = pts[:, 2:] * (_TORUS_RADIUS / r2)[:, None]
            return out
        return np.array([self._project_level_set(p) for p in pts])

    def _project_level_set(self, z: np.ndarray, max_iter: int = 50) -> np.ndarray:
        """Nearest-point projection onto {G = 0} by alternating Newton steps.

        Each sweep first pulls the iterate onto the zero set along the normal
        directions (a Gauss-Newton step for G), then removes the tangential
        offset from z.  Fixed points of M are returned unchanged.
        """
        poly = self.level_poly
        w = z.copy()
        scale = 1.0 + float(np.linalg.norm(z))
        for _ in range(max_iter):
            g = poly.eval(w)
            dg = poly.jac(w)
            sv = np.linalg.svd(dg, compute_uv=False)
            if sv[-1] < _RANK_TOL:
                raise RankDrop("constraint Jacobian lost rank during projection")
            # Newton step toward the zero set, along the row space of DG
            step = dg.T @ np.linalg.solve(dg @ dg.T, g)
            w = w - step
            # tangential pull toward the query point
            g = poly.eval(w)
            dg = poly.jac(w)
            _, _, vt = np.linalg.svd(dg)
            tangent = vt[poly.ncomp:].T  # columns span ker DG
            tang_res = tangent.T @ (z - w)
            w = w + tangent @ tang_res
            if (
                float(np.max(np.abs(g))) <= 1e-12
                and float(np.linalg.norm(tang_res)) <= 1e-11 * scale
            ):
                break
        else:
            raise OutOfTube("level-set projection did not converge")
        if np.linalg.norm(w - z) >= self.tube_radius:
            raise OutOfTube("point outside the declared level-set tube")
        return w

    # -- projection differential -----------------------------------------------

    def project_jacobian_many(self, pts) -> np.ndarray:
        """D(pi) at tube points; analytic for presets, central FD for level sets."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.ambient_dim)
        n = self.ambient_dim
        if self.kind == "euclidean":
            return np.broadcast_to(np.eye(n), (pts.shape[0], n, n)).copy()
        if self.kind == "sphere":
            norms = np.linalg.norm(pts, axis=1)
            hats = pts / norms[:, None]
            eye = np.eye(n)
            return (eye[None] - hats[:, :, None] * hats[:, None, :]) / norms[:, None, None]
        if self.kind == "clifford_torus":
            out = np.zeros((pts.shape[0], 4, 4))
            for block in (slice(0, 2), slice(2, 4)):
                sub = pts[:, block]
                norms = np.linalg.norm(sub, axis=1)
                hats = sub / norms[:, None]
                proj = np.eye(2)[None] - hats[:, :, None] * hats[:, None, :]
                out[:, block, block] = proj * (_TORUS_RADIUS / norms)[:, None, None]
            return out
        step = 1e-6
        out = np.zeros((pts.shape[0], n, n))
        for k, p in enumerate(pts):
            for j in range(n):
                e = np.zeros(n)
                e[j] = step
                out[k, :, j] = (self.project(p + e) - self.project(p - e)) / (2 * step)
        return out

    # -- tangent frames -----------------------------------------------------------

    def tangent_basis(self, z) -> TangentFrame:
        z = np.asarray(z, dtype=float).reshape(self.ambient_dim)
        n, m = self.ambient_dim, self.intrinsic_dim
        if self.kind == "euclidean":
            return TangentFrame(z.copy(), np.eye(n))
        if self.kind == "sphere":
            basis = _complete_orthonormal(z.reshape(1, -1))
            return TangentFrame(z.copy(), basis)
        if self.kind == "clifford_torus":
            t1 = np.array([-z[1], z[0], 0.0, 0.0])
            t2 = np.array([0.0, 0.0, -z[3], z[2]])
            basis = np.stack([t1 / np.linalg.norm(t1), t2 / np.linalg.norm(t2)], axis=1)
            return TangentFrame(z.copy(), basis)
        dg = self.level_poly.jac(z)
        u, s, vt = np.linalg.svd(dg)
        if s[-1] < _RANK_TOL:
            raise RankDrop("constraint Jacobian lost rank in tangent computation")
        basis = vt[self.level_poly.ncomp:].T
        assert basis.shape == (n, m)
        return TangentFrame(z.copy(), basis)

    def __repr__(self):  # pragma: no cover
        return f"AmbientManifold({self.kind}, R^{self.ambient_dim}, dim={self.intrinsic_dim})"


def _complete_orthonormal(normals: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given rows.

    Deterministic: candidate coordinate directions are taken in order of
    increasing overlap with the normal rows (ties broken by index), then
    Gram-Schmidt is applied.  At z = e_k on the sphere this returns the
    remaining coordinate directions unchanged.
    """
    normals = np.asarray(normals, dtype=float)
    c, n = normals.shape
    q = []
    for row in normals:
        v = row.copy()
        for u in q:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        q.append(v)
    overlap = np.abs(normals).sum(axis=0)
    order = sorted(range(n), key=lambda j: (round(float(overlap[j]), 12), j))
    basis = []
    for j in order:
        v = np.zeros(n)
        v[j] = 1.0
        for u in q:
            v -= (u @ v) * u
        for u in basis:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == n - c:
            break
    return np.stack(basis, axis=1)
