"""Geometry and combinatorics of the standard simplex.

The model for the n-simplex is the corner simplex

    Delta^n = { x in R^n : x_i >= 0, sum x_i <= 1 }

with vertex 0 at the origin and vertex i at e_i.  Barycentric coordinates
are (1 - sum x, x_1, ..., x_n), indexed so that lambda_i vanishes exactly on
the facet opposite vertex i.  Monotone maps between the index sets [n] are
realized as affine maps between these models; realization is exact because
the matrices involved have 0/1 entries.

Both Bernstein tables of transim live here, each cached per (k, degree).
``_bernstein_polys`` is the basis B_beta = degree!/beta! lambda^beta of
Delta^k itself, one component per multi-index in ``principal_lattice``
order (beta_0 first); the smoothing stage interpolates in it.
``_bernstein`` takes monomial coefficients, in ``monomial_exponents`` order,
to control points on the same index set, its rows and columns in that
monomial order with beta_0 = degree - |beta'| implied, and gives the de
Casteljau halves; the root-free test bounds residuals with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .poly import PolyMap, monomial_exponents, point_block

__all__ = [
    "SimplexDomain",
    "DeltaMorphism",
    "AffineMap",
    "realize_morphism",
    "barycentrics_many",
    "collapse_to_simplex",
    "face_for_vertices",
    "facet_coordinates_many",
    "principal_lattice",
    "simplex_grid",
]


def barycentrics_many(n: int, pts) -> np.ndarray:
    pts = point_block(pts, n)
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

    def apply(self, pts) -> np.ndarray:
        """Images of a block of points, shape (p, target dim).

        One matrix-vector product per row (a stacked matmul), so a row's
        bits do not depend on the block it is in; a single matrix product
        over the block would let BLAS sum the rows in another order.
        """
        pts = point_block(pts, self.matrix.shape[1])
        return np.matmul(self.matrix, pts[:, :, None])[:, :, 0] + self.offset

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


def facet_coordinates_many(n: int, i: int, pts) -> np.ndarray:
    """Chart inverse of the facet inclusion delta_i at a block of points on
    that facet.

    Assumes lambda_i(x) ~ 0; tiny negatives in the remaining barycentrics are
    clipped before renormalizing.
    """
    kept = np.maximum(np.delete(barycentrics_many(n, pts), i, axis=1), 0.0)
    total = kept.sum(axis=1)
    if np.any(total <= 0.0):
        raise ValueError("degenerate facet coordinates")
    return kept[:, 1:] / total[:, None]


@functools.cache
def principal_lattice(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points m/order of Delta^n together with their multi-indices.

    Returns (points, multis) where multis rows are the n+1 barycentric
    numerators (lambda_0 first) summing to ``order``.  The lattice of a given
    order is unisolvent for total-degree-``order`` polynomials.  Built once
    per (n, order) and shared by every caller, so both arrays are read-only.
    """
    pts = []
    multis = []
    for combo in itertools.product(range(order + 1), repeat=n):
        if sum(combo) <= order:
            multis.append((order - sum(combo),) + combo)
            pts.append(np.array(combo, dtype=float) / order if order else np.zeros(n))
    pts = np.asarray(pts, dtype=float).reshape(len(pts), n)
    multis = np.array(multis, dtype=int)
    pts.flags.writeable = multis.flags.writeable = False
    return pts, multis


def simplex_grid(n: int, per_dim: int) -> np.ndarray:
    """Deterministic evaluation grid: the points of the principal lattice of
    order per_dim - 1 (the origin alone below 2), shared and read-only."""
    return principal_lattice(n, max(per_dim - 1, 0))[0]


@functools.cache
def _bernstein_polys(k: int, degree: int) -> PolyMap:
    """The Bernstein basis of that degree on Delta^k as one map, component b
    the basis polynomial of row b of ``principal_lattice(k, degree)``.

    With beta = (beta_0, beta'), expanding lambda_0^beta_0 = (1 - sum x)^beta_0
    gives B_beta the coefficient degree!/beta! (-1)^|m| beta_0!/(m! (beta_0 -
    |m|)!) at x^(beta' + m), for m >= 0 with |m| <= beta_0: exact integers."""
    _, multis = principal_lattice(k, degree)
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for b, (beta_0, *rest) in enumerate(multis.tolist()):
        scale = math.factorial(degree) // math.prod(map(math.factorial, (beta_0, *rest)))
        for m in monomial_exponents(k, beta_0):
            e = tuple(map(sum, zip(rest, m)))
            multinomial = math.factorial(beta_0) // (
                math.prod(map(math.factorial, m)) * math.factorial(beta_0 - sum(m)))
            terms.setdefault(e, np.zeros(len(multis)))[b] = scale * (-1) ** sum(m) * multinomial
    return PolyMap(k, len(multis), terms)


@functools.cache
def _bernstein(k: int, degree: int):
    """Row of each exponent a of ``monomial_exponents(k, degree)``, M[a, b] =
    prod_i perm(a_i, b_i) / perm(degree, |b|) taking coefficients to control
    points on Delta^k (Farouki 2012), and the de Casteljau matrices of the
    halves at vertex i (side 0) and j of edge (i, j), a_0 = degree - |a|."""
    exps = monomial_exponents(k, degree)
    row = {a: r for r, a in enumerate(exps)}
    to_bernstein = np.array([[math.prod(map(math.perm, a, b)) / math.perm(degree, sum(b))
                              for b in exps] for a in exps])
    halves = np.zeros((k + 1, k + 1, 2, len(exps), len(exps)))
    for (i, j), (r, a) in itertools.product(itertools.combinations(range(k + 1), 2),
                                            enumerate(exps)):
        full = [degree - sum(a), *a]
        s, t = full[i] + full[j], full[j]  # the fibre's degree, a's place on it
        for q in range(s + 1):
            full[i], full[j] = s - q, q
            halves[i, j, :, r, row[tuple(full[1:])]] = (
                math.comb(t, q) / 2**t, math.comb(s - t, q - t) / 2**(s - t) if q >= t else 0)
    to_bernstein.flags.writeable = halves.flags.writeable = False  # shared by every caller
    return row, to_bernstein, halves
