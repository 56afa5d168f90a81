"""Geometry and combinatorics of the standard simplex.

The model for the n-simplex is the corner simplex

    Delta^n = { x in R^n : x_i >= 0, sum x_i <= 1 }

with vertex 0 at the origin and vertex i at e_i.  Barycentric coordinates
are (1 - sum x, x_1, ..., x_n), indexed so that lambda_i vanishes exactly on
the facet opposite vertex i.  Monotone maps between the index sets [n] are
realized as affine maps between these models; realization is exact because
the matrices involved have 0/1 entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimplexDomain",
    "DeltaMorphism",
    "AffineMap",
    "realize_morphism",
    "barycentrics",
    "barycentrics_many",
    "collapse_to_simplex",
    "face_for_vertices",
    "facet_coordinates",
    "principal_lattice",
    "simplex_grid",
]


def barycentrics(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(n)
    lam = np.empty(n + 1)
    lam[0] = 1.0 - float(np.sum(x))
    lam[1:] = x
    return lam


def barycentrics_many(n: int, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    # reshape(-1, 0) cannot infer a row count for the 0-simplex
    rows = pts.shape[0] if (n == 0 and pts.ndim == 2) else (1 if n == 0 else -1)
    pts = pts.reshape(rows, n)
    lam = np.empty((pts.shape[0], n + 1))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    return lam


@dataclass(frozen=True)
class SimplexDomain:
    """The standard n-simplex in its corner model."""

    dim: int

    def vertices(self) -> np.ndarray:
        """Rows are vertex coordinates; vertex 0 is the origin."""
        out = np.zeros((self.dim + 1, self.dim))
        for i in range(self.dim):
            out[i + 1, i] = 1.0
        return out

    def random_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform sample via sorted-uniform gaps."""
        if self.dim == 0:
            return np.zeros((count, 0))
        u = rng.random((count, self.dim))
        e = -np.log(1.0 - u)
        extra = -np.log(1.0 - rng.random(count))
        total = e.sum(axis=1) + extra
        return e / total[:, None]


@dataclass(frozen=True)
class DeltaMorphism:
    """Weakly monotone map [source] -> [target] between vertex index sets."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source + 1:
            raise ValueError("morphism needs source+1 values")
        if any(v < 0 or v > self.target for v in self.values):
            raise ValueError("morphism value out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("morphism must be weakly increasing")

    @classmethod
    def identity(cls, n: int) -> "DeltaMorphism":
        return cls(n, n, tuple(range(n + 1)))

    @classmethod
    def face(cls, i: int, n: int) -> "DeltaMorphism":
        """delta_i : [n-1] -> [n], skipping vertex i."""
        vals = tuple(v for v in range(n + 1) if v != i)
        return cls(n - 1, n, vals)

    @classmethod
    def degeneracy(cls, j: int, n: int) -> "DeltaMorphism":
        """s_j : [n] -> [n-1], hitting j twice."""
        vals = tuple(v if v <= j else v - 1 for v in range(n + 1))
        return cls(n, n - 1, vals)

    def compose(self, inner: "DeltaMorphism") -> "DeltaMorphism":
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise ValueError("composition arity mismatch")
        return DeltaMorphism(
            inner.source, self.target, tuple(self.values[v] for v in inner.values)
        )

    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(
            range(self.source + 1)
        )


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset with explicit shapes."""

    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self o inner."""
        return AffineMap(
            self.matrix @ inner.matrix, self.matrix @ inner.offset + self.offset
        )


def realize_morphism(beta: DeltaMorphism) -> AffineMap:
    """Affine realization Delta^source -> Delta^target.

    Vertex k of the source is sent to vertex beta(k) of the target.  The
    resulting matrix has 0/±1 entries, so composites realize exactly.
    """
    src, tgt = beta.source, beta.target
    verts = SimplexDomain(tgt).vertices()
    offset = verts[beta.values[0]].copy()
    matrix = np.zeros((tgt, src))
    for k in range(1, src + 1):
        matrix[:, k - 1] = verts[beta.values[k]] - offset
    return AffineMap(matrix, offset)


def collapse_to_simplex(pts: np.ndarray) -> np.ndarray:
    """Euclidean nearest point of Delta^n for each row of a (p, n) block;
    1-Lipschitz, identity on the simplex.

    Clipping the negatives is already the projection when the clipped sum
    fits; otherwise the cap is active and the row projects onto the face
    {x >= 0, sum x = 1} by the usual sort-and-threshold rule.
    """
    if pts.shape[1] == 0:
        return pts
    y = np.maximum(pts, 0.0)
    over = y.sum(axis=1) > 1.0
    if np.any(over):
        sub = pts[over]
        srt = np.sort(sub, axis=1)[:, ::-1]
        csum = np.cumsum(srt, axis=1) - 1.0
        ar = np.arange(1, sub.shape[1] + 1)
        rho = np.sum(srt - csum / ar > 0, axis=1)
        theta = csum[np.arange(len(sub)), rho - 1] / rho
        y[over] = np.maximum(sub - theta[:, None], 0.0)
    return y


def face_for_vertices(n: int, verts) -> DeltaMorphism:
    """Injective morphism [k] -> [n] with the given sorted vertex image."""
    verts = tuple(sorted(int(v) for v in verts))
    if len(set(verts)) != len(verts):
        raise ValueError("vertex set has duplicates")
    return DeltaMorphism(len(verts) - 1, n, verts)


def facet_coordinates(n: int, i: int, x) -> np.ndarray:
    """Chart inverse of the facet inclusion delta_i at a point on that facet.

    Assumes lambda_i(x) ~ 0; tiny negatives in the remaining barycentrics are
    clipped before renormalizing.
    """
    lam = barycentrics(n, x)
    kept = np.delete(lam, i)
    kept = np.maximum(kept, 0.0)
    s = kept.sum()
    if s <= 0.0:
        raise ValueError("degenerate facet coordinates")
    kept /= s
    return kept[1:].copy()


def principal_lattice(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points m/order of Delta^n together with their multi-indices.

    Returns (points, multis) where multis rows are the n+1 barycentric
    numerators (lambda_0 first) summing to ``order``.  The lattice of a given
    order is unisolvent for total-degree-``order`` polynomials.
    """
    pts = []
    multis = []
    for combo in itertools.product(range(order + 1), repeat=n):
        if sum(combo) <= order:
            multis.append((order - sum(combo),) + combo)
            pts.append(np.array(combo, dtype=float) / order if order else np.zeros(n))
    return (
        np.asarray(pts, dtype=float).reshape(len(pts), n),
        np.array(multis, dtype=int),
    )


def simplex_grid(n: int, per_dim: int) -> np.ndarray:
    """Deterministic evaluation grid: the principal lattice of that order."""
    return principal_lattice(n, per_dim - 1)[0] if per_dim > 1 else np.zeros((1, n))
