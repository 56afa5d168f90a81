"""Smooth singular simplices in a representable polynomial class.

A ``SmoothSimplexMap`` is the data of a polynomial base map on Delta^n, an
optional list of interior bumps, and a projection flag:

    raw(x)   = poly(x) + sum_k scale_k * amplitude_k * rho_k(x) * s_k
    value(x) = pi(raw(x))        if project_flag else raw(x)

The bumps are the transversality perturbations: rho_k is kept as a factored
product of affine forms (typically the product of all barycentric
coordinates), so restricting to a facet kills the bump structurally and the
perturbed map agrees with its base map on the whole boundary exactly.  The
raw part of every map is an honest polynomial; projections are applied once,
on the outside.  This keeps the class closed under faces, degeneracies and
further perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

from .ambient import AmbientManifold
from .errors import NonFiniteMap
from .poly import AffineProduct, PolyMap, point_block
from .simplex_geom import DeltaMorphism, SimplexDomain, realize_morphism

__all__ = ["Bump", "SmoothSimplexMap", "PiecewiseMap", "finite_flatten", "maps_close"]

_OFFSET_SAMPLES = 400  # domain sample of max_raw_offset


@dataclass(frozen=True)
class Bump:
    """One interior perturbation term: scale * amplitude * rho(x) * s.

    ``scale`` is a float, or one value per row of the blocks the bump is
    evaluated on (a perturbation homotopy ramps it with each row's time)."""

    rho: AffineProduct
    s: np.ndarray
    amplitude: float
    scale: float | np.ndarray = 1.0
    rho_id: str = "bary"

    def contribution_many(self, pts) -> np.ndarray:
        w = self.scale * self.amplitude
        return np.outer(w * self.rho.eval_many(pts), self.s)

    def jacobian_many(self, pts) -> np.ndarray:
        w = np.reshape(self.scale * self.amplitude, (-1, 1, 1))
        grads = self.rho.grad_many(pts)  # (p, n)
        return w * self.s[None, :, None] * grads[:, None, :]


@dataclass(frozen=True)
class SmoothSimplexMap:
    """Polynomial simplex map Delta^n -> M, optionally projected through pi.

    ``loci`` holds the stratum loci ``transversal.intersection_locus`` has
    solved for this map.  It is not an argument: every map, including one
    made by ``restrict`` or ``dataclasses.replace``, starts with an empty
    memo."""

    domain: SimplexDomain
    ambient: AmbientManifold
    poly: PolyMap
    project_flag: bool = False
    bumps: tuple[Bump, ...] = ()
    loci: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.poly.nvars != self.domain.dim:
            raise ValueError("polynomial arity does not match the simplex dimension")
        if self.poly.ncomp != self.ambient.ambient_dim:
            raise ValueError("polynomial lands in the wrong R^N")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_poly(
        cls, poly: PolyMap, ambient: AmbientManifold, project: bool = False
    ) -> "SmoothSimplexMap":
        return cls(SimplexDomain(poly.nvars), ambient, poly, project)

    @classmethod
    def constant(
        cls, point, ambient: AmbientManifold, dim: int = 0, project: bool = False
    ) -> "SmoothSimplexMap":
        poly = PolyMap.constant(np.asarray(point, dtype=float), dim)
        return cls(SimplexDomain(dim), ambient, poly, project)

    @classmethod
    def affine_from_vertices(
        cls, images, ambient: AmbientManifold, project: bool = False
    ) -> "SmoothSimplexMap":
        """Affine simplex sending vertex i to images[i]."""
        images = np.asarray(images, dtype=float)
        n = images.shape[0] - 1
        offset = images[0]
        matrix = (images[1:] - offset).T if n else np.zeros((images.shape[1], 0))
        return cls(
            SimplexDomain(n), ambient, PolyMap.affine(matrix, offset), project
        )

    # -- basic data --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.domain.dim

    def flatten(self) -> PolyMap:
        """The raw part as a single polynomial (bumps expanded)."""
        out = self.poly
        for b in self.bumps:
            w = b.scale * b.amplitude
            if w == 0.0 or b.rho.is_identically_zero():
                continue
            out = out + b.rho.expand().scale_vector(w * b.s)
        return out

    def degree(self) -> int:
        deg = self.poly.total_degree()
        for b in self.bumps:
            deg = max(deg, b.rho.degree)
        return deg

    # -- evaluation ----------------------------------------------------------------

    def raw_many(self, pts) -> np.ndarray:
        pts = point_block(pts, self.dim)
        out = self.poly.eval_many(pts)
        for b in self.bumps:
            out = out + b.contribution_many(pts)
        return out

    def eval_many(self, pts, raw=None) -> np.ndarray:
        """Values at a block of points; ``raw``, if given, is ``raw_many(pts)``."""
        raw = self.raw_many(pts) if raw is None else raw
        if self.project_flag:
            return self.ambient.project_many(raw)
        return raw

    def jacobian_many(self, pts, raw=None) -> np.ndarray:
        """Jacobians of the value map, shape (p, N, n).  A projected map
        needs ``raw_many(pts)``, which a caller that has it passes as ``raw``."""
        pts = point_block(pts, self.dim)
        jac = self.poly.jac_many(pts)
        for b in self.bumps:
            jac = jac + b.jacobian_many(pts)
        if self.project_flag:
            raw = self.raw_many(pts) if raw is None else raw
            dpi = self.ambient.project_jacobian_many(raw)
            jac = np.einsum("pij,pjk->pik", dpi, jac)
        return jac

    # -- structure ------------------------------------------------------------------

    def restrict(self, beta: DeltaMorphism) -> "SmoothSimplexMap":
        """Precompose with the affine realization of a Delta-morphism.

        Exact coefficient substitution.  Bumps whose rho collapses to the
        zero functional under the substitution are dropped; this is how a
        boundary-supported perturbation disappears on its own facets.
        """
        if beta.target != self.dim:
            raise ValueError("morphism target does not match map dimension")
        aff = realize_morphism(beta)
        poly = self.poly.compose_affine(aff.matrix, aff.offset)
        bumps = []
        for b in self.bumps:
            rho = b.rho.compose_affine(aff.matrix, aff.offset)
            if rho.is_identically_zero():
                continue
            bumps.append(replace(b, rho=rho))
        return SmoothSimplexMap(
            SimplexDomain(beta.source),
            self.ambient,
            poly,
            self.project_flag,
            tuple(bumps),
        )

    def with_bump(self, s, amplitude: float, scale: float = 1.0) -> "SmoothSimplexMap":
        bump = Bump(
            rho=AffineProduct.barycentric(self.dim),
            s=np.asarray(s, dtype=float).reshape(self.ambient.ambient_dim),
            amplitude=float(amplitude),
            scale=float(scale),
            rho_id=f"bary{self.dim}",
        )
        return replace(self, bumps=self.bumps + (bump,))

    def with_last_bump_scale(self, scale) -> "SmoothSimplexMap":
        """The map with its last bump's scale set to ``scale``, a float or
        one value per row (see ``Bump``)."""
        if not self.bumps:
            raise ValueError("map has no bump to rescale")
        scale = np.asarray(scale, dtype=float) if np.ndim(scale) else float(scale)
        bumps = self.bumps[:-1] + (replace(self.bumps[-1], scale=scale),)
        return replace(self, bumps=bumps)

    # -- checks ------------------------------------------------------------------------

    def max_raw_offset(self) -> float:
        """Largest distance from raw values to their projections on a sample."""
        if not self.project_flag:
            return 0.0
        pts = self.domain.random_points(np.random.default_rng(0), _OFFSET_SAMPLES)
        raw = self.raw_many(pts)
        proj = self.ambient.project_many(raw)
        return float(np.max(np.linalg.norm(raw - proj, axis=1))) if len(pts) else 0.0


@runtime_checkable
class PiecewiseMap(Protocol):
    """Continuous simplex map whose facet restrictions are representable.

    Only produced internally (boundary-retraction slices) and by tests; the
    smoothing stage consumes these and returns a single polynomial map.
    ``eval`` takes a block of points, shape (p, dim), and returns (p, N).
    """

    dim: int
    ambient: AmbientManifold

    def eval(self, pts) -> np.ndarray: ...

    def facet_map(self, i: int) -> SmoothSimplexMap: ...


def finite_flatten(m: SmoothSimplexMap) -> PolyMap:
    """``m.flatten()``; raises ``NonFiniteMap`` if a coefficient is NaN or
    infinite."""
    flat = m.flatten()
    if not np.isfinite(np.array(list(flat.terms.values()))).all():
        raise NonFiniteMap(f"a {m.dim}-simplex map has a non-finite coefficient")
    return flat


def maps_close(a: SmoothSimplexMap, b: SmoothSimplexMap, tol: float = 1e-10) -> bool:
    """Structural equality of two representable maps up to coefficient noise."""
    if a.dim != b.dim or a.project_flag != b.project_flag:
        return False
    if (a.ambient.kind, a.ambient.ambient_dim) != (b.ambient.kind, b.ambient.ambient_dim):
        return False
    return a.flatten().max_coeff_diff(b.flatten()) <= tol
