"""Sparse multivariate polynomial maps.

A ``PolyMap`` is a polynomial map R^nvars -> R^ncomp.  Its one stored form
is ``terms``, a dictionary from exponent tuples to coefficient vectors, and
all algebra (sums, products, affine substitution, coefficient comparison)
works on it.  Composition with affine maps is carried out symbolically
(coefficient substitution), so restricting a polynomial simplex map to a
face is exact up to floating point arithmetic on the coefficients; no
sampling or refitting is involved.

Every product goes through one kernel, ``_product``, on plain term dicts.
``__mul__`` is one kernel call and one ``PolyMap``, made by ``_from_kernel``
without the casts and copies of ``PolyMap.__init__``, as is the result of
``compose_affine``.  ``_substitute`` keeps
each x_i (an affine row for ``compose_affine``, or any polynomial), each
power x_i^k = x_i^(k-1) * x_i and each monomial as a term dict of floats.
The coefficient bits depend on the order of the sums, so the order is fixed:
(1) a partial product has its keys sorted and its exact zeros (-0.0 too)
dropped, since that sets the iteration order of the next product; (2) the
substituted monomials are summed in source-term order, and the first
contribution to a key is assigned, not added to 0.0, so a -0.0 survives;
(3) a monomial scales a source coefficient vector by a plain float; (4) a
product iterates the left factor's terms first, whichever factor is the
scalar.  So a face's coefficients do not depend on who restricts it.

Evaluation arrays (an exponent matrix, the coefficient matrix and the
derivative weights) are derived from ``terms`` on a map's first evaluation
and kept read-only.  Evaluation takes a block of points, values or
Jacobians: a power table x_j^k, a gather over the exponents, and a sum of
the per-term products.

Evaluation is row-invariant: a point's value has the same bits whichever
block it is evaluated in, alone or among others.  The sum over terms runs in
term order with elementwise array operations.  A matrix product would not
do: BLAS and ``np.einsum`` pick their kernel, and with it the summation
order, from the block's shape and layout, so one row alone and the same row
in a batch can differ in the last bits.  Row invariance is what lets every
caller, tracks and slices included, evaluate whole blocks and still get the
bits of a one-point evaluation (reproducible summation: Demmel and Nguyen,
"Fast reproducible floating-point summation", ARITH 2013).

``AffineProduct`` keeps a product of affine factors in factored form.  It is
used for the interior bump rho = product of barycentric coordinates: the
factored form composes exactly with affine maps and evaluates to an exact
zero on every facet where one of its factors vanishes identically.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

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


def _sum_terms(prods: np.ndarray) -> np.ndarray:
    """Sum of a fresh array of per-term products over its first axis, in
    term order, ((t0 + t1) + t2) + ..., elementwise, so no element's bits
    depend on the others.  No terms sum to zero."""
    if not len(prods):
        return np.zeros(prods.shape[1:])
    total = prods[0].copy()  # frees the products on return
    for term in prods[1:]:
        total += term
    return total


def _product(left: dict, right: dict, out: dict | None = None) -> dict:
    """Raw product of two term dicts, summed into ``out`` (a new dict by
    default) in ``left``'s term order, then ``right``'s, with the first
    contribution to an exponent assigned.  Values are floats or coefficient
    vectors (a scalar factor's broadcast).  Unsorted, zeros kept."""
    out = {} if out is None else out
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(operator.add, e1, e2))
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return out


def _canonical(terms: dict) -> dict:
    """A scalar term dict of floats in a PolyMap's form: keys sorted, exact
    zeros (-0.0 too) dropped."""
    return {e: terms[e] for e in sorted(terms) if terms[e] != 0.0}


def _from_kernel(nvars: int, ncomp: int, terms: dict) -> "PolyMap":
    """A ``PolyMap`` of a kernel's raw result, the map ``PolyMap(nvars,
    ncomp, terms)`` would build: keys sorted, all-zero vectors (-0.0 too)
    dropped.  The kernels give int-tuple keys and fresh float vectors of
    length ``ncomp``, so nothing is cast, reshaped or copied."""
    out = PolyMap.__new__(PolyMap)
    out.nvars, out.ncomp, out._arrays = nvars, ncomp, None
    out.terms = {e: terms[e] for e in sorted(terms) if terms[e].any()}
    return out


def _substitute(terms: dict, xs: list[dict], nvars: int) -> dict:
    """Raw term dict of ``terms`` at x_i = xs[i], scalar term dicts of floats
    in ``nvars`` variables, summed in source-term order."""
    zero = (0,) * nvars
    powers = []
    for x, exps in zip(map(_canonical, xs), zip(*terms)):
        powers.append([x])
        for _ in range(1, max(exps)):
            powers[-1].append(_canonical(_product(powers[-1][-1], x)))
    out: dict[tuple[int, ...], np.ndarray] = {}
    for exp, coef in terms.items():
        factors = [row[e - 1] for row, e in zip(powers, exp) if e] or [{zero: 1.0}]
        mono = functools.reduce(lambda a, b: _canonical(_product(a, b)), factors)
        _product(mono, {zero: coef}, out)
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

    # -- evaluation --------------------------------------------------------

    def _eval_arrays(self):
        """Evaluation arrays derived from ``terms`` on first use, read-only.

        The power table holds x_j^k for k <= deg, deg being the largest
        single exponent, as rows j * (deg + 1) + k.  ``idx[j, t]`` is the
        row of x_j^e_tj, and ``coef[t]`` the coefficients of term t.  For
        d/dx_i, ``jac_idx[j, i, t]`` is the row of the same factor with
        e_ti lowered by one (clipped at zero), and ``jac_coef[t, i]`` is the
        weight e_ti * c_t.
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
                      exps.T[:, :, None] * coef[:, None, :])
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
        """Values at a block of points of shape (p, nvars); shape (p, ncomp)."""
        deg, idx, coef, _, _ = self._eval_arrays()
        mono = self._monomials(pts, deg, idx)  # (nterms, p)
        return _sum_terms(coef[:, :, None] * mono[:, None, :]).T

    def jac_many(self, pts) -> np.ndarray:
        """Jacobians at a block of points; shape (p, ncomp, nvars)."""
        deg, _, _, jac_idx, jac_coef = self._eval_arrays()
        mono = self._monomials(pts, deg, jac_idx)  # (nvars, nterms, p)
        terms = jac_coef[:, :, :, None] * mono.transpose(1, 0, 2)[:, :, None, :]
        return _sum_terms(terms).transpose(2, 1, 0)

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
        return _from_kernel(self.nvars, max(self.ncomp, other.ncomp),
                            _product(self.terms, other.terms))

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
        units = [tuple(row) for row in np.eye(new_n, dtype=int).tolist()]
        xs = [{(0,) * new_n: b, **dict(zip(units, row))}
              for row, b in zip(matrix.tolist(), offset.tolist())]
        return _from_kernel(new_n, self.ncomp, _substitute(self.terms, xs, new_n))

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
