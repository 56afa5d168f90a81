import numpy as np
import pytest

from transim.ambient import AmbientManifold
from transim.poly import PolyMap, monomial_exponents
from transim.simplex_geom import DeltaMorphism, SimplexDomain, realize_morphism
from transim.smooth_maps import SmoothSimplexMap, maps_close


def _random_map(rng, n, ambient, degree=3):
    terms = {
        e: rng.uniform(-1, 1, ambient.ambient_dim)
        for e in monomial_exponents(n, degree)
    }
    return SmoothSimplexMap.from_poly(PolyMap(n, ambient.ambient_dim, terms), ambient)


def test_restrict_matches_pointwise_composition(r2):
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        f = _random_map(rng, n, r2)
        beta = DeltaMorphism.face(int(rng.integers(0, n + 1)), n)
        g = f.restrict(beta)
        aff = realize_morphism(beta)
        for x in SimplexDomain(n - 1).random_points(rng, 6):
            assert np.allclose(g.eval(x), f.eval(aff.apply(x)), atol=1e-12)


def test_restrict_functorial(r2):
    rng = np.random.default_rng(32)
    f = _random_map(rng, 3, r2)
    outer = DeltaMorphism.face(1, 3)
    inner = DeltaMorphism.face(2, 2)
    assert maps_close(f.restrict(outer).restrict(inner), f.restrict(outer.compose(inner)))


def test_jacobian_matches_finite_differences(torus):
    rng = np.random.default_rng(33)
    poly = PolyMap.affine(
        np.array([[0.1, 0.0], [0.0, 0.2], [0.05, 0.0], [0.0, -0.1]]),
        np.array([0.70710678, 0.0, 0.70710678, 0.0]),
    )
    f = SmoothSimplexMap.from_poly(poly, torus, project=True).with_bump(
        [0.0, 0.02, 0.0, 0.01], amplitude=1.0
    )
    h = 1e-6
    for x in SimplexDomain(2).random_points(rng, 5):
        jac = f.jacobian(x)
        fd = np.zeros_like(jac)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (f.eval(x + e) - f.eval(x - e)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_bump_vanishes_on_every_facet(r2):
    rng = np.random.default_rng(34)
    base = _random_map(rng, 2, r2)
    bumped = base.with_bump([0.3, -0.4], amplitude=0.25)
    for i in range(3):
        beta = DeltaMorphism.face(i, 2)
        face = bumped.restrict(beta)
        assert not face.bumps
        assert maps_close(face, base.restrict(beta))


def test_zero_scale_recovers_base(r2):
    rng = np.random.default_rng(35)
    base = _random_map(rng, 2, r2)
    bumped = base.with_bump([1.0, 2.0], amplitude=0.5)
    assert maps_close(bumped.with_last_bump_scale(0.0), base)
    assert not maps_close(bumped, base)


def test_flatten_equals_raw(r2):
    rng = np.random.default_rng(36)
    f = _random_map(rng, 2, r2).with_bump([0.2, 0.1], amplitude=0.3, scale=0.7)
    flat = f.flatten()
    for x in SimplexDomain(2).random_points(rng, 10):
        assert np.allclose(flat.eval(x), f.raw(x), atol=1e-13)


def test_degenerate_map_has_vanishing_direction(r2):
    rng = np.random.default_rng(37)
    f = _random_map(rng, 1, r2)
    g = f.restrict(DeltaMorphism.degeneracy(0, 2))
    # s_0 sends (x1, x2) to x2, so g is constant along the x1 axis
    x = np.array([0.3, 0.3])
    jac = g.jacobian(x)
    assert np.linalg.norm(jac @ np.array([1.0, 0.0])) < 1e-12
    assert np.linalg.norm(jac) > 1e-3


def test_affine_from_vertices_hits_vertices(r2):
    images = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    f = SmoothSimplexMap.affine_from_vertices(images, r2)
    verts = SimplexDomain(2).vertices()
    for k in range(3):
        assert np.allclose(f.eval(verts[k]), images[k], atol=1e-15)


def test_constant_map_zero_dim(torus):
    p = np.array([0.70710678, 0.0, 0.70710678, 0.0])
    f = SmoothSimplexMap.constant(p, torus, dim=0)
    assert f.dim == 0
    assert np.allclose(f.eval(np.zeros(0)), p)


def test_projected_values_land_on_manifold(torus):
    poly = PolyMap.affine(
        np.array([[0.1, -0.05], [0.0, 0.2], [0.05, 0.1], [0.1, 0.0]]),
        np.array([0.72, 0.01, 0.70, -0.02]),
    )
    f = SmoothSimplexMap.from_poly(poly, torus, project=True)
    pts = f.domain.random_points(np.random.default_rng(5), 300)
    assert max(torus.distance(v) for v in f.eval_many(pts)) < 1e-10
    assert f.max_raw_offset() > 0.0


def test_unprojected_offset_is_zero(r2):
    rng = np.random.default_rng(38)
    f = _random_map(rng, 2, r2)
    assert f.max_raw_offset() == 0.0


def test_maps_close_detects_mismatch(r2):
    rng = np.random.default_rng(39)
    f = _random_map(rng, 2, r2)
    g = SmoothSimplexMap.from_poly(f.poly + PolyMap.constant([1e-6, 0.0], 2), r2)
    assert maps_close(f, g, tol=1e-5)
    assert not maps_close(f, g, tol=1e-8)


def test_maps_close_rejects_non_finite_coefficients(r2):
    rng = np.random.default_rng(40)
    f = _random_map(rng, 2, r2)
    for bad in (np.nan, np.inf):
        g = SmoothSimplexMap.from_poly(f.poly + PolyMap.constant([bad, 0.0], 2), r2)
        assert not maps_close(f, g)
        assert not maps_close(g, f)
        assert not maps_close(g, g, tol=1e300)


def test_arity_mismatch_rejected(r2):
    poly = PolyMap.affine(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        SmoothSimplexMap(SimplexDomain(2), r2, poly)
