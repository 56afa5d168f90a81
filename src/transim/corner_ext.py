"""Corner extension and boundary-respecting polynomial smoothing.

Two jobs live here.

``extend_from_corner`` takes boundary data on the coordinate hyperplane
pieces W_j = {x_j = 0} of a corner chart [0,inf)^k x R^{n-k} and produces a
single polynomial

    F = - sum_{nonempty J subset {1..k}} (-1)^|J| f_{min J} o proj_J,

where proj_J zeroes out the coordinates in J.  Telescoping cancellation
makes F restrict to f_i on every W_i exactly; with polynomial inputs the
whole computation is coefficient surgery and therefore exact.

``smooth_rel_boundary`` replaces a continuous simplex map that is already
polynomial on every facet by a single polynomial map that keeps the facet
restrictions and stays sup-close to the input.  The surrogate has the shape
E + (lambda_0 ... lambda_n) * Q: the boundary interpolant E reproduces the
facet data exactly (it is solved on the unisolvent principal lattice in the
Bernstein basis), and the interior correction Q is a least-squares fit of
the remaining residual against the barycentric bump, which vanishes on the
boundary by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleFaces, OutOfTube, ToleranceUnreachable
from .poly import AffineProduct, PolyMap, monomial_exponents
from .simplex_geom import (
    DeltaMorphism,
    SimplexDomain,
    principal_lattice,
    realize_morphism,
)
from .smooth_maps import PiecewiseMap, SmoothSimplexMap

__all__ = [
    "CornerData",
    "extend_from_corner",
    "verify_restriction_identity",
    "smooth_rel_boundary",
]

_DEGREE_CAP = 6
_COMPAT_TOL = 1e-9  # facet data may disagree this much at a shared lattice node


@dataclass(frozen=True)
class CornerData:
    """Boundary data for a depth-k corner chart in R^n.

    ``faces[j]`` is a scalar polynomial in the full n variables that must not
    depend on x_{j+1}; it represents the datum on W_{j+1} = {x_{j+1} = 0}.
    """

    n: int
    k: int
    faces: tuple[PolyMap, ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if len(self.faces) != self.k:
            raise ValueError("one face polynomial per wall")
        for j, f in enumerate(self.faces):
            if f.nvars != self.n or f.ncomp != 1:
                raise ValueError("face data must be scalar in n variables")
            if any(exp[j] for exp in f.terms):
                raise ValueError(f"face {j} depends on its own wall coordinate")

    @classmethod
    def from_global(cls, g: PolyMap, k: int) -> "CornerData":
        """Induce compatible corner data from a single global polynomial."""
        faces = tuple(_zero_out(g, j) for j in range(k))
        return cls(g.nvars, k, faces)


def _zero_out(f: PolyMap, j: int) -> PolyMap:
    """Restrict to {x_j = 0}: keep only terms with no x_j factor."""
    terms = {e: c for e, c in f.terms.items() if e[j] == 0}
    return PolyMap(f.nvars, f.ncomp, terms)


def _wall_grid(n: int, k: int, zeros: tuple[int, ...], per_dim: int) -> np.ndarray:
    """Grid on the wall intersection {x_j = 0, j in zeros} inside the chart.

    Corner coordinates range over [0, 1], free coordinates over [-1, 1].
    """
    axes = []
    for j in range(n):
        if j in zeros:
            axes.append(np.zeros(1))
        elif j < k:
            axes.append(np.linspace(0.0, 1.0, per_dim))
        else:
            axes.append(np.linspace(-1.0, 1.0, per_dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def check_compatibility(data: CornerData, tol: float = 1e-10, per_dim: int = 5) -> float:
    """Pairwise agreement of the face data on all wall intersections."""
    worst = 0.0
    for a in range(data.k):
        for b in range(a + 1, data.k):
            grid = _wall_grid(data.n, data.k, (a, b), per_dim)
            va = data.faces[a].eval_many(grid)
            vb = data.faces[b].eval_many(grid)
            worst = max(worst, float(np.max(np.abs(va - vb))))
    if worst > tol:
        raise IncompatibleFaces(
            f"face data disagree by {worst:.3e} on a wall intersection"
        )
    return worst


def extend_from_corner(data: CornerData, tol: float = 1e-10) -> PolyMap:
    """Inclusion-exclusion extension of compatible wall data."""
    check_compatibility(data, tol)
    n, k = data.n, data.k
    total = PolyMap.zero(n, 1)
    for mask in range(1, 1 << k):
        walls = tuple(j for j in range(k) if mask & (1 << j))
        f = data.faces[walls[0]]
        for j in walls:
            f = _zero_out(f, j)
        sign = -1.0 if len(walls) % 2 == 0 else 1.0
        total = total + f.scale(sign)
    return total


def verify_restriction_identity(
    data: CornerData, extension: PolyMap, wall: int, per_dim: int = 11
) -> float:
    """Max |F - f_wall| over a grid on W_wall inside the chart."""
    grid = _wall_grid(data.n, data.k, (wall,), per_dim)
    return float(
        np.max(np.abs(extension.eval_many(grid) - data.faces[wall].eval_many(grid)))
    )


# -- boundary-respecting smoothing -------------------------------------------------


_bernstein_cache: dict[tuple[int, int], list[PolyMap]] = {}


def _bernstein_basis(n: int, order: int) -> list[PolyMap]:
    """Bernstein polynomials of the given order on Delta^n, one per multi-index.

    Ordering matches the multi-index rows of ``principal_lattice``.
    """
    key = (n, order)
    if key in _bernstein_cache:
        return _bernstein_cache[key]
    lam0 = PolyMap.affine(-np.ones((1, n)), np.array([1.0]))
    lams = [lam0] + [PolyMap.coordinate(i, n) for i in range(n)]
    _, multis = principal_lattice(n, order)
    basis = []
    for alpha in multis:
        coeff = math.factorial(order)
        poly = PolyMap.constant(np.array([1.0]), n)
        for lam, a in zip(lams, alpha):
            coeff //= math.factorial(int(a))
            for _ in range(int(a)):
                poly = poly * lam
        basis.append(poly.scale(float(coeff)))
    _bernstein_cache[key] = basis
    return basis


def _boundary_interpolant(piecewise: PiecewiseMap, order: int) -> tuple[PolyMap, float]:
    """Polynomial with the prescribed facet restrictions.

    Solved on the principal lattice: boundary nodes carry the facet raw data,
    interior nodes carry the input values.  Unisolvence of the lattice makes
    the facet restrictions exact up to the linear solve.
    """
    n = piecewise.dim
    ncomp = piecewise.ambient.ambient_dim
    facet_raw = [piecewise.facet_map(i).flatten() for i in range(n + 1)]
    nodes, multis = principal_lattice(n, order)
    values = np.zeros((len(nodes), ncomp))
    for row, (x, m) in enumerate(zip(nodes, multis)):
        zero_walls = [i for i in range(n + 1) if m[i] == 0]
        if zero_walls:
            kept = np.delete(m, zero_walls[0]).astype(float) / order
            val = facet_raw[zero_walls[0]].eval(kept[1:])
            for other in zero_walls[1:]:
                kept_o = np.delete(m, other).astype(float) / order
                val_o = facet_raw[other].eval(kept_o[1:])
                if float(np.max(np.abs(val - val_o))) > _COMPAT_TOL:
                    raise IncompatibleFaces(
                        "facet data disagree at a shared lattice node"
                    )
            values[row] = val
        else:
            values[row] = piecewise.eval(x)
    basis = _bernstein_basis(n, order)
    vand = np.stack([b.eval_many(nodes)[:, 0] for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(vand, values, rcond=None)
    interp = PolyMap.zero(n, ncomp)
    for b, c in zip(basis, coeffs):
        interp = interp + b.scale_vector(c)
    facet_err = 0.0
    for i in range(n + 1):
        aff = realize_morphism(DeltaMorphism.face(i, n))
        restricted = interp.compose_affine(aff.matrix, aff.offset)
        facet_err = max(facet_err, restricted.max_coeff_diff(facet_raw[i]))
    return interp, facet_err


_GRID_ORDER = {1: 64, 2: 24, 3: 12}


def smooth_rel_boundary(
    sigma: SmoothSimplexMap | PiecewiseMap,
    tol: float,
) -> tuple[SmoothSimplexMap, dict]:
    """Single polynomial map matching sigma's facets and sup-close to sigma.

    A map that is already representable is returned unchanged (the homotopy
    to it has zero length).  Otherwise the output is E + rho * Q as described
    in the module docstring; ``ToleranceUnreachable`` is raised if the fit
    misses ``tol`` at the degree cap.
    """
    if isinstance(sigma, SmoothSimplexMap):
        return sigma, {"sup_error": 0.0, "facet_error": 0.0, "already_polynomial": True}

    n = sigma.dim
    if n < 1:
        raise ValueError("piecewise smoothing needs dimension >= 1")
    ambient = sigma.ambient
    flags = {sigma.facet_map(i).project_flag for i in range(n + 1)}
    if len(flags) != 1:
        raise IncompatibleFaces("facet maps disagree on the projection flag")
    project_flag = flags.pop()

    interp, facet_err = _boundary_interpolant(sigma, _DEGREE_CAP)

    rho = AffineProduct.barycentric(n)
    grid, _ = principal_lattice(n, _GRID_ORDER.get(n, 8))
    target = np.array([sigma.eval(x) for x in grid])
    resid = target - interp.eval_many(grid)

    qdeg = _DEGREE_CAP - (n + 1)
    correction = PolyMap.zero(n, ambient.ambient_dim)
    if qdeg >= 0:
        exps = monomial_exponents(n, qdeg)
        rho_vals = rho.eval_many(grid)
        cols = []
        for e in exps:
            mono = np.ones(len(grid))
            for j, p in enumerate(e):
                if p:
                    mono = mono * grid[:, j] ** p
            cols.append(rho_vals * mono)
        design = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(design, resid, rcond=None)
        rho_poly = rho.expand()
        for e, c in zip(exps, coef):
            mono = PolyMap(n, 1, {e: np.array([1.0])})
            correction = correction + (rho_poly * mono).scale_vector(c)

    candidate = SmoothSimplexMap(
        SimplexDomain(n), ambient, interp + correction, project_flag
    )

    if project_flag:
        raw = candidate.raw_many(grid)
        worst_offset = 0.0
        for v in raw:
            worst_offset = max(worst_offset, ambient.distance(v))
        if worst_offset >= ambient.tube_radius:
            raise OutOfTube("smoothed surrogate leaves the tubular neighborhood")

    fitted = candidate.eval_many(grid)
    actual = target
    if project_flag:
        actual = np.array([v if ambient.contains(v) else ambient.project(v) for v in target])
    sup_err = float(np.max(np.linalg.norm(fitted - actual, axis=1)))
    if sup_err > tol:
        raise ToleranceUnreachable(
            f"smoothing residual {sup_err:.3e} exceeds tol {tol:.3e} at degree cap"
        )
    return candidate, {
        "sup_error": sup_err,
        "facet_error": float(facet_err),
        "already_polynomial": False,
        "interpolation_degree": _DEGREE_CAP,
        "correction_degree": max(qdeg, -1),
    }
