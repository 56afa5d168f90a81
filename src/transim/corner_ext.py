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
facet data up to the rounding of one linear solve (it is solved on the
unisolvent principal lattice in the Bernstein basis), and the interior
correction Q is a least-squares fit of the remaining residual against the
barycentric bump, which vanishes on the boundary by construction.  The basis is ``simplex_geom._bernstein_polys``,
one map whose components run in ``principal_lattice`` order, so the
interpolation matrix is one evaluation of it at the lattice nodes;
``simplex_geom`` also holds the root-free test's Bernstein table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleFaces, ToleranceUnreachable
from .poly import AffineProduct, PolyMap, _product, _sum_terms, monomial_exponents
from .simplex_geom import SimplexDomain, _bernstein_polys, principal_lattice
from .smooth_maps import PiecewiseMap, SmoothSimplexMap

__all__ = [
    "CornerData",
    "extend_from_corner",
    "verify_restriction_identity",
    "smooth_rel_boundary",
]

_DEGREE_CAP = 6
_COMPAT_TOL = 1e-9  # facet data may disagree this much at a shared lattice node
_WALL_TOL = 1e-10  # wall data may disagree this much on a wall intersection
_COMPAT_GRID = 5  # grid points per coordinate of the wall-intersection check
_IDENTITY_GRID = 11  # grid points per coordinate of the restriction check


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


def check_compatibility(data: CornerData) -> float:
    """Pairwise agreement of the face data on all wall intersections."""
    worst = 0.0
    for a in range(data.k):
        for b in range(a + 1, data.k):
            grid = _wall_grid(data.n, data.k, (a, b), _COMPAT_GRID)
            va = data.faces[a].eval_many(grid)
            vb = data.faces[b].eval_many(grid)
            worst = max(worst, float(np.max(np.abs(va - vb))))
    if worst > _WALL_TOL:
        raise IncompatibleFaces(
            f"face data disagree by {worst:.3e} on a wall intersection"
        )
    return worst


def extend_from_corner(data: CornerData) -> PolyMap:
    """Inclusion-exclusion extension of compatible wall data."""
    check_compatibility(data)
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


def verify_restriction_identity(data: CornerData, extension: PolyMap, wall: int) -> float:
    """Max |F - f_wall| over a grid on W_wall inside the chart."""
    grid = _wall_grid(data.n, data.k, (wall,), _IDENTITY_GRID)
    return float(
        np.max(np.abs(extension.eval_many(grid) - data.faces[wall].eval_many(grid)))
    )


# -- boundary-respecting smoothing -------------------------------------------------


def _boundary_interpolant(piecewise: PiecewiseMap, order: int) -> PolyMap:
    """Polynomial with the prescribed facet restrictions.

    Solved on the principal lattice: boundary nodes carry the facet raw data,
    interior nodes carry the input values.  Unisolvence of the lattice makes
    the facet restrictions exact up to the linear solve.  Each monomial
    coefficient is one ordered sum over the basis, in lattice order.
    """
    n = piecewise.dim
    ncomp = piecewise.ambient.ambient_dim
    facet_raw = [piecewise.facet_map(i).flatten() for i in range(n + 1)]
    nodes, multis = principal_lattice(n, order)
    on_wall = multis == 0
    first_wall = np.argmax(on_wall, axis=1)
    values = np.zeros((len(nodes), ncomp))
    for i in range(n + 1):
        # the facet-i chart coordinates of a node are its multi-index without
        # entry i, over the order, less the leading entry; a node's first
        # wall sets its value and every later wall must agree with it
        rows = np.flatnonzero(on_wall[:, i])
        coords = np.delete(multis[rows], i, axis=1)[:, 1:].astype(float) / order
        vals = facet_raw[i].eval_many(coords)
        first = first_wall[rows] == i
        values[rows[first]] = vals[first]
        if np.any(np.abs(vals[~first] - values[rows[~first]]) > _COMPAT_TOL):
            raise IncompatibleFaces("facet data disagree at a shared lattice node")
    interior = ~on_wall.any(axis=1)
    values[interior] = piecewise.eval(nodes[interior])
    basis = _bernstein_polys(n, order)
    coeffs, *_ = np.linalg.lstsq(basis.eval_many(nodes), values, rcond=None)
    return PolyMap(n, ncomp, {e: _sum_terms(b[:, None] * coeffs) for e, b in basis.terms.items()})


_GRID_ORDER = {1: 64, 2: 24, 3: 12}


def smooth_rel_boundary(sigma: PiecewiseMap, tol: float) -> SmoothSimplexMap:
    """Single polynomial map matching sigma's facets and sup-close to sigma.

    The output is E + rho * Q as described in the module docstring;
    ``ToleranceUnreachable`` is raised if the fit misses ``tol`` at the
    degree cap, and ``OutOfTube`` if a projected surrogate leaves the tube
    on the fitting grid.
    """
    n = sigma.dim
    if n < 1:
        raise ValueError("piecewise smoothing needs dimension >= 1")
    ambient = sigma.ambient
    flags = {sigma.facet_map(i).project_flag for i in range(n + 1)}
    if len(flags) != 1:
        raise IncompatibleFaces("facet maps disagree on the projection flag")
    project_flag = flags.pop()

    interp = _boundary_interpolant(sigma, _DEGREE_CAP)

    rho = AffineProduct.barycentric(n)
    grid, _ = principal_lattice(n, _GRID_ORDER.get(n, 8))
    target = sigma.eval(grid)
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
        # Q on the left keeps each coefficient's sum in exponent order
        correction = PolyMap(n, ambient.ambient_dim,
                             _product(dict(zip(exps, coef)), rho.expand().terms))

    candidate = SmoothSimplexMap(
        SimplexDomain(n), ambient, interp + correction, project_flag
    )

    fitted = candidate.eval_many(grid)  # projecting raises OutOfTube off the tube
    actual = ambient.project_many(target) if project_flag else target
    sup_err = float(np.max(np.linalg.norm(fitted - actual, axis=1)))
    if sup_err > tol:
        raise ToleranceUnreachable(
            f"smoothing residual {sup_err:.3e} exceeds tol {tol:.3e} at degree cap"
        )
    return candidate
