import math

import numpy as np
import pytest

from transim import retraction, verify
from transim.corner_ext import (
    CornerData,
    check_compatibility,
    extend_from_corner,
    smooth_rel_boundary,
    verify_restriction_identity,
)
from transim.errors import IncompatibleFaces, ToleranceUnreachable
from transim.poly import AffineProduct, PolyMap, monomial_exponents
from transim.simplex_geom import DeltaMorphism, SimplexDomain, principal_lattice
from transim.smooth_maps import SmoothSimplexMap, maps_close


def _random_scalar(rng, nvars, degree=3):
    terms = {e: rng.uniform(-1, 1, 1) for e in monomial_exponents(nvars, degree)}
    return PolyMap(nvars, 1, terms)


def test_extension_restricts_to_each_wall():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        data = CornerData.from_global(_random_scalar(rng, n), k)
        ext = extend_from_corner(data)
        for wall in range(k):
            assert verify_restriction_identity(data, ext, wall) <= 1e-12


def test_extension_is_linear():
    rng = np.random.default_rng(42)
    g1 = _random_scalar(rng, 3)
    g2 = _random_scalar(rng, 3)
    d1 = CornerData.from_global(g1, 2)
    d2 = CornerData.from_global(g2, 2)
    dsum = CornerData.from_global(g1 + g2, 2)
    lhs = extend_from_corner(dsum)
    rhs = extend_from_corner(d1) + extend_from_corner(d2)
    assert lhs.max_coeff_diff(rhs) <= 1e-13


def test_extension_of_handmade_compatible_data():
    # f_0 = x_1^2, f_1 = x_0: both vanish where x_0 = x_1 = 0
    f0 = PolyMap(2, 1, {(0, 2): (1.0,)})
    f1 = PolyMap(2, 1, {(1, 0): (1.0,)})
    data = CornerData(2, 2, (f0, f1))
    ext = extend_from_corner(data)
    assert verify_restriction_identity(data, ext, 0) <= 1e-14
    assert verify_restriction_identity(data, ext, 1) <= 1e-14


def test_incompatible_faces_rejected():
    f0 = PolyMap(2, 1, {(0, 0): (1.0,)})
    f1 = PolyMap(2, 1, {(0, 0): (0.0,)})
    data = CornerData(2, 2, (f0, f1))
    with pytest.raises(IncompatibleFaces):
        extend_from_corner(data)


def test_face_must_ignore_its_own_wall():
    bad = PolyMap(2, 1, {(1, 0): (1.0,)})
    with pytest.raises(ValueError):
        CornerData(2, 1, (bad,))


def test_compatibility_measure_is_zero_for_global_data():
    rng = np.random.default_rng(43)
    data = CornerData.from_global(_random_scalar(rng, 4), 3)
    assert check_compatibility(data) <= 1e-14


class _WobblyMap:
    """Interior sine wobble over a polynomial base; facets stay polynomial."""

    def __init__(self, base, freq=3.0, height=0.05):
        self.base = base
        self.dim = base.dim
        self.ambient = base.ambient
        self.freq = freq
        self.height = height

    def eval(self, pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        lam0 = 1.0 - pts.sum(axis=1)
        rho = lam0 * np.prod(pts, axis=1)
        out = self.base.eval_many(pts)
        out[:, 0] += rho * self.height * np.sin(self.freq * pts[:, 0])
        return out

    def facet_map(self, i):
        return self.base.restrict(DeltaMorphism.face(i, self.dim))


def _base_map(rng, r2, n=2):
    terms = {e: rng.uniform(-1, 1, 2) for e in monomial_exponents(n, 2)}
    return SmoothSimplexMap.from_poly(PolyMap(n, 2, terms), r2)


def test_smoothing_keeps_facets_and_stays_close(r2):
    rng = np.random.default_rng(45)
    base = _base_map(rng, r2)
    wobbly = _WobblyMap(base, freq=3.0, height=0.05)
    out = smooth_rel_boundary(wobbly, tol=0.02)
    assert isinstance(out, SmoothSimplexMap)
    for i in range(3):
        beta = DeltaMorphism.face(i, 2)
        assert maps_close(out.restrict(beta), base.restrict(beta), tol=1e-9)
    pts = SimplexDomain(2).random_points(rng, 40)
    assert np.all(np.linalg.norm(out.eval_many(pts) - wobbly.eval(pts), axis=1) <= 0.02 + 1e-12)


def test_smoothing_reports_unreachable_tolerance(r2):
    rng = np.random.default_rng(46)
    base = _base_map(rng, r2)
    wobbly = _WobblyMap(base, freq=9.0, height=0.3)
    with pytest.raises(ToleranceUnreachable):
        smooth_rel_boundary(wobbly, tol=1e-12)


def test_smoothing_one_dimensional(r2):
    rng = np.random.default_rng(47)
    base = _base_map(rng, r2, n=1)
    wobbly = _WobblyMap(base, freq=2.0, height=0.03)
    out = smooth_rel_boundary(wobbly, tol=0.01)
    ends = np.array([[0.0], [1.0]])
    assert np.allclose(out.eval_many(ends), base.eval_many(ends), atol=1e-10)


def _product_built_basis(n, order):
    """Bernstein polynomials of that order on Delta^n in principal-lattice
    order, built product by product from the barycentric coordinates."""
    lams = [PolyMap.affine(-np.ones((1, n)), np.array([1.0]))] + [
        PolyMap(n, 1, {tuple(int(i == j) for i in range(n)): np.array([1.0])})
        for j in range(n)]
    basis = []
    for alpha in principal_lattice(n, order)[1]:
        coeff = math.factorial(order)
        poly = PolyMap.constant(np.array([1.0]), n)
        for lam, a in zip(lams, alpha):
            coeff //= math.factorial(int(a))
            for _ in range(int(a)):
                poly = poly * lam
        basis.append(poly.scale(float(coeff)))
    return basis


def _product_built_surrogate(sigma, order=6):
    """E + rho * Q assembled PolyMap by PolyMap over the product-built basis,
    from the same lattice data and least-squares fits as the smoothing."""
    n, ncomp = sigma.dim, sigma.ambient.ambient_dim
    facet_raw = [sigma.facet_map(i).flatten() for i in range(n + 1)]
    nodes, multis = principal_lattice(n, order)
    on_wall = multis == 0
    first_wall = np.argmax(on_wall, axis=1)
    values = np.zeros((len(nodes), ncomp))
    for i in range(n + 1):
        rows = np.flatnonzero(on_wall[:, i])
        coords = np.delete(multis[rows], i, axis=1)[:, 1:].astype(float) / order
        first = first_wall[rows] == i
        values[rows[first]] = facet_raw[i].eval_many(coords)[first]
    interior = ~on_wall.any(axis=1)
    values[interior] = sigma.eval(nodes[interior])
    basis = _product_built_basis(n, order)
    vand = np.stack([b.eval_many(nodes)[:, 0] for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(vand, values, rcond=None)
    interp = PolyMap.zero(n, ncomp)
    for b, c in zip(basis, coeffs):
        interp = interp + b.scale_vector(c)

    rho = AffineProduct.barycentric(n)
    grid, _ = principal_lattice(n, {1: 64, 2: 24, 3: 12}[n])
    resid = sigma.eval(grid) - interp.eval_many(grid)
    exps = monomial_exponents(n, order - (n + 1))
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
    correction = PolyMap.zero(n, ncomp)
    for e, c in zip(exps, coef):
        mono = PolyMap(n, 1, {e: np.array([1.0])})
        correction = correction + (rho_poly * mono).scale_vector(c)
    return interp + correction


def test_smoothing_surrogate_matches_the_product_built_basis(r2, monkeypatch):
    """The surrogate from the closed-form basis and ordered sums has the bits
    of the one built product by product, for unprojected wobbly maps of
    dimension 1 to 3 and for the cone slices the retraction smooths."""
    rng = np.random.default_rng(48)
    wobbly = [_WobblyMap(_base_map(rng, r2, n=n), freq=2.0 + n, height=0.04)
              for n in (1, 2, 3) for _ in range(2)]
    slices = []
    smooth = retraction.smooth_rel_boundary

    def record(sigma, tol):
        slices.append(sigma)
        return smooth(sigma, tol)

    monkeypatch.setattr(retraction, "smooth_rel_boundary", record)
    verify.check_retraction_identities(5)
    verify.check_torus_duality(seed=7)
    assert {(s.dim, s.ambient.ambient_dim) for s in slices} == {(2, 2), (1, 4)}
    assert all(isinstance(s, retraction.ConeSlice) for s in slices)
    for sigma in wobbly + slices:
        new = smooth_rel_boundary(sigma, tol=math.inf).poly
        old = _product_built_surrogate(sigma)
        assert list(new.terms) == list(old.terms)
        assert all(new.terms[e].tobytes() == old.terms[e].tobytes() for e in old.terms)
