"""Sparse multivariate polynomial maps.

A ``PolyMap`` is a polynomial map R^nvars -> R^ncomp.  Its one stored form
is ``terms``, a dictionary from exponent tuples to coefficient vectors, and
all algebra (sums, products, affine substitution, coefficient comparison)
works on it.  Composition with affine maps is carried out symbolically
(coefficient substitution), so restricting a polynomial simplex map to a
face is exact up to floating point arithmetic on the coefficients; no
sampling or refitting is involved.

Evaluation arrays (an exponent matrix, the coefficient matrix and the
derivative weights) are derived from ``terms`` on a map's first evaluation
and kept read-only.  Every evaluation, one point or a batch, values or
Jacobians, goes through them: a power table x_j^k, a gather over the
exponents and one matrix product with the coefficients.

``AffineProduct`` keeps a product of affine factors in factored form.  It is
used for the interior bump rho = product of barycentric coordinates: the
factored form composes exactly with affine maps and evaluates to an exact
zero on every facet where one of its factors vanishes identically.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["PolyMap", "AffineProduct", "monomial_exponents", "point_block"]


def point_block(pts, dim: int) -> np.ndarray:
    """View ``pts`` as a (p, dim) float block.

    reshape(-1, 0) cannot infer the point count, so the zero-dimensional
    domain (points of Delta^0 carry no coordinates) is handled explicitly:
    a 2-d input keeps its row count, anything else is a single point.
    """
    arr = np.asarray(pts, dtype=float)
    if dim == 0:
        rows = arr.shape[0] if arr.ndim == 2 else 1
        return arr.reshape(rows, 0)
    return arr.reshape(-1, dim)


def monomial_exponents(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_degree, in a fixed order."""
    if nvars == 0:
        return [()]
    out = []
    for total in range(max_degree + 1):
        for exp in itertools.product(range(total + 1), repeat=nvars):
            if sum(exp) == total:
                out.append(exp)
    return out


class PolyMap:
    """Polynomial map R^nvars -> R^ncomp with sparse monomial storage."""

    __slots__ = ("nvars", "ncomp", "terms", "_arrays")

    def __init__(self, nvars: int, ncomp: int, terms=None):
        self.nvars = int(nvars)
        self.ncomp = int(ncomp)
        clean = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.nvars:
                    raise ValueError("exponent arity mismatch")
                vec = np.asarray(coef, dtype=float).reshape(self.ncomp)
                if np.any(vec != 0.0):
                    clean[exp] = vec.copy()
        # canonical (sorted) order keeps serialization and iteration stable
        self.terms = {e: clean[e] for e in sorted(clean)}
        self._arrays = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, ncomp: int) -> "PolyMap":
        return cls(nvars, ncomp, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "PolyMap":
        vec = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(nvars, vec.size, {(0,) * nvars: vec})

    @classmethod
    def affine(cls, matrix, offset) -> "PolyMap":
        """The map x -> matrix @ x + offset."""
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float)
        ncomp, nvars = matrix.shape
        terms = {(0,) * nvars: offset}
        for j in range(nvars):
            exp = [0] * nvars
            exp[j] = 1
            terms[tuple(exp)] = matrix[:, j]
        return cls(nvars, ncomp, terms)

    @classmethod
    def coordinate(cls, index: int, nvars: int) -> "PolyMap":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, 1, {tuple(exp): np.array([1.0])})

    # -- evaluation --------------------------------------------------------

    def _eval_arrays(self):
        """Evaluation arrays derived from ``terms`` on first use, read-only.

        The power table holds x_j^k for k <= deg, deg being the largest
        single exponent, as rows j * (deg + 1) + k.  ``idx[j, t]`` is the
        row of x_j^e_tj.  For d/dx_i, ``jac_idx[j, i, t]`` is the row of
        the same factor with e_ti lowered by one (clipped at zero), and
        ``jac_coef[i, :, t]`` is the weight e_ti * c_t.
        """
        if self._arrays is None:
            nterms, n = len(self.terms), self.nvars
            exps = np.array(list(self.terms), dtype=np.intp).reshape(nterms, n).T
            coef = np.array(list(self.terms.values()), dtype=float)
            coef = coef.reshape(nterms, self.ncomp)
            deg = int(exps.max(initial=0))
            base = (np.arange(n) * (deg + 1))[:, None]
            lowered = np.maximum(exps[:, None, :] - np.eye(n, dtype=np.intp)[:, :, None], 0)
            arrays = (deg, base + exps, coef, base[:, None] + lowered,
                      exps[:, None, :] * coef.T)
            for a in arrays[1:]:
                a.setflags(write=False)
            self._arrays = arrays
        return self._arrays

    def _monomials(self, pts, deg: int, idx) -> np.ndarray:
        """Monomials for the exponent rows behind ``idx``, points last: a
        power table by cumulative product, a gather, a product over the
        variables (the first axis of ``idx``)."""
        pts = point_block(pts, self.nvars).T
        table = np.empty((self.nvars, deg + 1, pts.shape[1]))
        table[:, 0] = 1.0
        table[:, 1:] = pts[:, None]
        table.cumprod(axis=1, out=table)
        flat = table.reshape(self.nvars * (deg + 1), pts.shape[1])
        return np.take(flat, idx, axis=0).prod(axis=0)

    def eval_many(self, pts) -> np.ndarray:
        """Evaluate at a batch of points of shape (p, nvars)."""
        deg, idx, coef, _, _ = self._eval_arrays()
        return self._monomials(pts, deg, idx).T @ coef

    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, self.nvars))[0]

    def jac_many(self, pts) -> np.ndarray:
        """Jacobians at a batch of points; shape (p, ncomp, nvars)."""
        deg, _, _, jac_idx, jac_coef = self._eval_arrays()
        mono = self._monomials(pts, deg, jac_idx)  # (nvars, nterms, p)
        return np.matmul(jac_coef, mono).transpose(2, 1, 0)

    def jac(self, x) -> np.ndarray:
        return self.jac_many(np.asarray(x, dtype=float).reshape(1, self.nvars))[0]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if (other.nvars, other.ncomp) != (self.nvars, self.ncomp):
            raise ValueError("shape mismatch in polynomial addition")
        terms = {e: c.copy() for e, c in self.terms.items()}
        for e, c in other.terms.items():
            if e in terms:
                terms[e] = terms[e] + c
            else:
                terms[e] = c
        return PolyMap(self.nvars, self.ncomp, terms)

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "PolyMap":
        return PolyMap(
            self.nvars, self.ncomp, {e: factor * c for e, c in self.terms.items()}
        )

    def scale_vector(self, vec) -> "PolyMap":
        """Turn a scalar polynomial into a vector one: p(x) * vec."""
        if self.ncomp != 1:
            raise ValueError("scale_vector needs a scalar polynomial")
        vec = np.asarray(vec, dtype=float)
        return PolyMap(
            self.nvars, vec.size, {e: c[0] * vec for e, c in self.terms.items()}
        )

    def __mul__(self, other: "PolyMap") -> "PolyMap":
        """Product; at least one factor must be scalar (ncomp == 1)."""
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch in product")
        if self.ncomp != 1 and other.ncomp != 1:
            raise ValueError("one factor must be scalar")
        ncomp = max(self.ncomp, other.ncomp)
        terms: dict[tuple[int, ...], np.ndarray] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                contrib = (c1[0] * c2) if self.ncomp == 1 else (c2[0] * c1)
                if e in terms:
                    terms[e] = terms[e] + contrib
                else:
                    terms[e] = contrib.copy()
        return PolyMap(self.nvars, ncomp, terms)

    def component(self, i: int) -> "PolyMap":
        terms = {}
        for e, c in self.terms.items():
            if c[i] != 0.0:
                terms[e] = np.array([c[i]])
        return PolyMap(self.nvars, 1, terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- composition -------------------------------------------------------

    def compose_affine(self, matrix, offset) -> "PolyMap":
        """Exact substitution x = matrix @ y + offset.

        ``matrix`` has shape (nvars, new_nvars).  The result is a PolyMap in
        the new variables; coefficients are expanded symbolically.
        """
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float).reshape(-1)
        if matrix.ndim != 2 or matrix.shape[0] != self.nvars:
            raise ValueError("affine matrix shape mismatch")
        if offset.shape[0] != self.nvars:
            raise ValueError("affine offset shape mismatch")
        new_n = matrix.shape[1]

        lin = []
        for i in range(self.nvars):
            t = {}
            if offset[i] != 0.0:
                t[(0,) * new_n] = np.array([offset[i]])
            for j in range(new_n):
                if matrix[i, j] != 0.0:
                    exp = [0] * new_n
                    exp[j] = 1
                    t[tuple(exp)] = np.array([matrix[i, j]])
            lin.append(PolyMap(new_n, 1, t))

        one = PolyMap.constant(np.array([1.0]), new_n)
        pow_cache: dict[tuple[int, int], PolyMap] = {}

        def lpow(i: int, e: int) -> PolyMap:
            if e == 0:
                return one
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = lin[i] if e == 1 else lpow(i, e - 1) * lin[i]
            return pow_cache[key]

        out: dict[tuple[int, ...], np.ndarray] = {}
        for exp, coef in self.terms.items():
            mono = one
            for i, e in enumerate(exp):
                if e:
                    mono = mono * lpow(i, e)
            for me, mc in mono.terms.items():
                acc = out.get(me)
                if acc is None:
                    out[me] = mc[0] * coef
                else:
                    out[me] = acc + mc[0] * coef
        return PolyMap(new_n, self.ncomp, out)

    # -- comparison and serialization ---------------------------------------

    def max_coeff_diff(self, other: "PolyMap") -> float:
        """Largest coefficient difference; inf if any difference is not
        finite, so a NaN or infinite coefficient never makes maps close."""
        if (self.nvars, self.ncomp) != (other.nvars, other.ncomp):
            return float("inf")
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        zero = np.zeros(self.ncomp)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, then inf
            for k in keys:
                a = self.terms.get(k, zero)
                b = other.terms.get(k, zero)
                diff = float(np.max(np.abs(a - b)))
                if not math.isfinite(diff):
                    return float("inf")
                worst = max(worst, diff)
        return worst

    def __repr__(self):  # pragma: no cover
        return f"PolyMap(nvars={self.nvars}, ncomp={self.ncomp}, nterms={len(self.terms)})"


class AffineProduct:
    """Scalar polynomial kept as a product of affine factors a.x + b.

    The empty product is the constant 1.  Restriction along an affine map
    stays factored, so a factor that becomes identically zero is detected
    structurally and the whole product collapses to zero.
    """

    __slots__ = ("nvars", "factors")

    def __init__(self, nvars: int, factors):
        self.nvars = int(nvars)
        self.factors = tuple(
            (np.asarray(a, dtype=float).reshape(self.nvars), float(b))
            for a, b in factors
        )

    @classmethod
    def barycentric(cls, n: int) -> "AffineProduct":
        """Product of all n+1 barycentric coordinates of the n-simplex."""
        factors = []
        for i in range(n):
            a = np.zeros(n)
            a[i] = 1.0
            factors.append((a, 0.0))
        factors.append((-np.ones(n), 1.0))
        if n == 0:
            factors = [(np.zeros(0), 1.0)]
        return cls(n, factors)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def is_identically_zero(self) -> bool:
        return any(
            not np.any(a != 0.0) and b == 0.0 for a, b in self.factors
        )

    def eval_many(self, pts) -> np.ndarray:
        pts = point_block(pts, self.nvars)
        out = np.ones(pts.shape[0])
        for a, b in self.factors:
            out = out * (pts @ a + b)
        return out

    def eval(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float).reshape(1, self.nvars))[0])

    def grad_many(self, pts) -> np.ndarray:
        """Gradients at a batch of points; shape (p, nvars).

        Product rule: factor i's direction a_i weighted by the product of
        every other factor's value.
        """
        pts = point_block(pts, self.nvars)
        slopes = np.array([a for a, _ in self.factors]).reshape(self.degree, self.nvars)
        vals = np.stack([pts @ a + b for a, b in self.factors], axis=1)
        others = ~np.eye(len(self.factors), dtype=bool)
        rest = np.where(others, vals[:, None, :], 1.0).prod(axis=2)
        return rest @ slopes

    def compose_affine(self, matrix, offset) -> "AffineProduct":
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float).reshape(-1)
        new_n = matrix.shape[1]
        factors = []
        for a, b in self.factors:
            factors.append((matrix.T @ a, float(a @ offset) + b))
        return AffineProduct(new_n, factors)

    def expand(self) -> PolyMap:
        out = PolyMap.constant(np.array([1.0]), self.nvars)
        for a, b in self.factors:
            lin = PolyMap.affine(a.reshape(1, -1), np.array([b]))
            out = out * lin
        return out

    def __repr__(self):  # pragma: no cover
        return f"AffineProduct(nvars={self.nvars}, degree={self.degree})"
