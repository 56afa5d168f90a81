"""Ambient target manifolds embedded in R^N.

Every target is an embedded submanifold M of some R^N carrying a tubular
neighborhood of uniform radius, a nearest-point projection pi defined on
that tube, and orthonormal tangent frames, all in closed form.  Three kinds
are supported, the three the scenario schema accepts:

* ``euclidean``      -- M = R^m itself, pi = identity, tube radius 1.
* ``sphere``         -- unit sphere in R^N, pi(z) = z/|z|, tube radius 0.5.
* ``clifford_torus`` -- product of two circles of radius 1/sqrt(2) in R^4,
                        per-factor normalization, tube radius 0.3.

The tube radii sit strictly inside the reach of each manifold, so pi is
smooth on the whole tube and the projection Jacobian stays submersive there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfTube

__all__ = ["AmbientManifold"]

_KINDS = ("euclidean", "sphere", "clifford_torus")
_TORUS_RADIUS = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class AmbientManifold:
    kind: str
    ambient_dim: int
    intrinsic_dim: int
    tube_radius: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ambient kind {self.kind!r}")

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

    # -- distance ----------------------------------------------------------------

    def distance(self, z) -> float:
        """Exact distance to M."""
        z = np.asarray(z, dtype=float).reshape(self.ambient_dim)
        if self.kind == "euclidean":
            return 0.0
        if self.kind == "sphere":
            return abs(np.linalg.norm(z) - 1.0)
        d1 = np.linalg.norm(z[:2]) - _TORUS_RADIUS
        d2 = np.linalg.norm(z[2:]) - _TORUS_RADIUS
        return float(np.hypot(d1, d2))

    # -- projection --------------------------------------------------------------

    def project_many(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, self.ambient_dim)
        if self.kind == "euclidean":
            return pts.copy()
        if self.kind == "sphere":
            norms = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(norms - 1.0) >= self.tube_radius):
                raise OutOfTube("point outside the sphere tube")
            return pts / norms[:, None]
        r1 = np.linalg.norm(pts[:, :2], axis=1)
        r2 = np.linalg.norm(pts[:, 2:], axis=1)
        dist = np.hypot(r1 - _TORUS_RADIUS, r2 - _TORUS_RADIUS)
        if np.any(dist >= self.tube_radius) or np.any(r1 < 1e-12) or np.any(r2 < 1e-12):
            raise OutOfTube("point outside the torus tube")
        out = np.empty_like(pts)
        out[:, :2] = pts[:, :2] * (_TORUS_RADIUS / r1)[:, None]
        out[:, 2:] = pts[:, 2:] * (_TORUS_RADIUS / r2)[:, None]
        return out

    # -- projection differential -----------------------------------------------

    def project_jacobian_many(self, pts) -> np.ndarray:
        """D(pi) at tube points, in closed form."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.ambient_dim)
        n = self.ambient_dim
        if self.kind == "euclidean":
            return np.broadcast_to(np.eye(n), (pts.shape[0], n, n)).copy()
        if self.kind == "sphere":
            norms = np.linalg.norm(pts, axis=1)
            hats = pts / norms[:, None]
            eye = np.eye(n)
            return (eye[None] - hats[:, :, None] * hats[:, None, :]) / norms[:, None, None]
        out = np.zeros((pts.shape[0], 4, 4))
        for block in (slice(0, 2), slice(2, 4)):
            sub = pts[:, block]
            norms = np.linalg.norm(sub, axis=1)
            hats = sub / norms[:, None]
            proj = np.eye(2)[None] - hats[:, :, None] * hats[:, None, :]
            out[:, block, block] = proj * (_TORUS_RADIUS / norms)[:, None, None]
        return out

    # -- tangent frames -----------------------------------------------------------

    def tangent_basis(self, z) -> np.ndarray:
        """Orthonormal basis of T_z M as the columns of an (N, m) array."""
        z = np.asarray(z, dtype=float).reshape(self.ambient_dim)
        if self.kind == "euclidean":
            return np.eye(self.ambient_dim)
        if self.kind == "sphere":
            return _complete_orthonormal(z.reshape(1, -1))
        t1 = np.array([-z[1], z[0], 0.0, 0.0])
        t2 = np.array([0.0, 0.0, -z[3], z[2]])
        return np.stack([t1 / np.linalg.norm(t1), t2 / np.linalg.norm(t2)], axis=1)

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
