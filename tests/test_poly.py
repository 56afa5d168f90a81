import math

import numpy as np
import pytest

from transim.poly import AffineProduct, PolyMap, monomial_exponents, point_block


def _random_poly(rng, nvars, ncomp, degree):
    terms = {e: rng.uniform(-1, 1, ncomp) for e in monomial_exponents(nvars, degree)}
    return PolyMap(nvars, ncomp, terms)


def test_monomial_exponent_count():
    for n in range(1, 5):
        for d in range(5):
            assert len(monomial_exponents(n, d)) == math.comb(n + d, n)


def test_zero_terms_are_dropped():
    p = PolyMap(2, 1, {(0, 0): [0.0], (1, 0): [2.0]})
    assert list(p.terms) == [(1, 0)]


def _per_term(p, pts):
    """Values and Jacobians straight from the definition: sum_t c_t prod_j
    x_j^e_tj, and d/dx_k of that, one term and one point at a time."""
    vals = np.zeros((len(pts), p.ncomp))
    jacs = np.zeros((len(pts), p.ncomp, p.nvars))
    for r, x in enumerate(pts):
        for exp, coef in p.terms.items():
            vals[r] += coef * math.prod(xi**e for xi, e in zip(x, exp))
            for k, ek in enumerate(exp):
                if ek:
                    rest = math.prod(xi**e for i, (xi, e) in enumerate(zip(x, exp)) if i != k)
                    jacs[r, :, k] += coef * ek * x[k] ** (ek - 1) * rest
    return vals, jacs


@pytest.mark.parametrize("nvars,ncomp,degree,rows", [
    (3, 2, 3, 20), (2, 1, 4, 1), (1, 3, 2, 0), (0, 2, 0, 5), (0, 1, 0, 0), (4, 1, 2, 7),
], ids=["cubic", "one-row", "no-rows", "no-vars", "no-vars-no-rows", "four-vars"])
def test_eval_many_and_jac_many_match_per_term_formula(nvars, ncomp, degree, rows):
    rng = np.random.default_rng(3 + nvars + rows)
    polys = [_random_poly(rng, nvars, ncomp, degree), PolyMap.zero(nvars, ncomp)]
    if nvars:
        # sparse, with gaps in the exponents of each variable
        polys.append(PolyMap(nvars, ncomp, {
            (3,) + (0,) * (nvars - 1): rng.uniform(-1, 1, ncomp),
            (0,) * (nvars - 1) + (5,): rng.uniform(-1, 1, ncomp),
        }))
    pts = rng.uniform(-1.5, 1.5, (rows, nvars))
    for p in polys:
        vals, jacs = _per_term(p, pts)
        got = p.eval_many(pts)
        got_jac = p.jac_many(pts)
        assert got.shape == (rows, ncomp)
        assert got_jac.shape == (rows, ncomp, nvars)
        assert np.allclose(got, vals, rtol=1e-13, atol=1e-13)
        assert np.allclose(got_jac, jacs, rtol=1e-13, atol=1e-13)
        for x, v, j in zip(pts, vals, jacs):
            assert np.allclose(p.eval(x), v, rtol=1e-13, atol=1e-13)
            assert np.allclose(p.jac(x), j, rtol=1e-13, atol=1e-13)


def test_evaluation_leaves_algebra_unchanged():
    """Evaluating a map derives its arrays; sums, products and affine
    substitution must still give the coefficients of a fresh copy."""
    rng = np.random.default_rng(10)
    p = _random_poly(rng, 3, 2, 3)
    s = _random_poly(rng, 3, 1, 2)
    pts = rng.uniform(-1, 1, (6, 3))
    mat = rng.uniform(-1, 1, (3, 2))
    off = rng.uniform(-1, 1, 3)

    def results(a, b):
        return [a + a, b * a, a.compose_affine(mat, off), b.compose_affine(mat, off)]

    fresh = results(PolyMap(3, 2, p.terms), PolyMap(3, 1, s.terms))
    for q in (p, s):
        q.eval_many(pts)
        q.jac_many(pts)
    for want, got in zip(fresh, results(p, s)):
        assert list(got.terms) == list(want.terms)
        assert got.max_coeff_diff(want) == 0.0
    assert np.array_equal(p.eval_many(pts), PolyMap(3, 2, p.terms).eval_many(pts))


def test_jac_matches_central_differences():
    rng = np.random.default_rng(4)
    p = _random_poly(rng, 3, 2, 3)
    h = 1e-6
    for x in rng.uniform(-0.5, 0.5, (5, 3)):
        j = p.jac(x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (p.eval(x + e) - p.eval(x - e)) / (2 * h)
            assert np.allclose(j[:, k], fd, atol=1e-7)


def test_algebra_is_pointwise():
    rng = np.random.default_rng(5)
    p = _random_poly(rng, 2, 2, 2)
    q = _random_poly(rng, 2, 2, 3)
    s = _random_poly(rng, 2, 1, 2)
    pts = rng.uniform(-1, 1, (10, 2))
    assert np.allclose((p + q).eval_many(pts), p.eval_many(pts) + q.eval_many(pts))
    assert np.allclose((p - q).eval_many(pts), p.eval_many(pts) - q.eval_many(pts))
    assert np.allclose(p.scale(2.5).eval_many(pts), 2.5 * p.eval_many(pts))
    prod = s * p
    assert np.allclose(prod.eval_many(pts), s.eval_many(pts) * p.eval_many(pts))


def test_compose_affine_is_exact_substitution():
    """Composition happens on coefficients, so it must agree with pointwise
    composition at machine precision even for degree-3 terms."""
    rng = np.random.default_rng(6)
    p = _random_poly(rng, 3, 2, 3)
    mat = rng.uniform(-1, 1, (3, 2))
    off = rng.uniform(-1, 1, 3)
    comp = p.compose_affine(mat, off)
    assert comp.nvars == 2
    for y in rng.uniform(-1, 1, (15, 2)):
        assert np.allclose(comp.eval(y), p.eval(mat @ y + off), atol=1e-13)


def test_compose_affine_identity_is_noop():
    rng = np.random.default_rng(7)
    p = _random_poly(rng, 2, 1, 3)
    same = p.compose_affine(np.eye(2), np.zeros(2))
    assert p.max_coeff_diff(same) == 0.0


def test_total_degree_and_component():
    p = PolyMap(2, 2, {(0, 0): [1.0, 0.0], (2, 1): [0.0, 3.0]})
    assert p.total_degree() == 3
    assert p.component(0).total_degree() == 0
    assert p.component(1).total_degree() == 3


def test_barycentric_product_vanishes_on_facets_exactly():
    rho = AffineProduct.barycentric(2)
    assert rho.eval([0.0, 0.3]) == 0.0
    assert rho.eval([0.3, 0.0]) == 0.0
    assert rho.eval([0.25, 0.75]) == 0.0  # lambda_0 = 0
    assert rho.eval([0.25, 0.25]) > 0.0


def test_barycentric_product_composes_exactly():
    rho = AffineProduct.barycentric(2)
    # edge 0 of the triangle: t -> (1 - t, t) has lambda_0 = 0 identically
    mat = np.array([[-1.0], [1.0]])
    off = np.array([1.0, 0.0])
    edge = rho.compose_affine(mat, off)
    assert edge.is_identically_zero()
    ts = np.linspace(0, 1, 7).reshape(-1, 1)
    assert np.all(edge.eval_many(ts) == 0.0)


def test_affine_product_expand_and_grad():
    rng = np.random.default_rng(9)
    rho = AffineProduct.barycentric(3)
    pts = rng.uniform(0, 0.3, (10, 3))
    dense = rho.expand()
    assert np.allclose(dense.eval_many(pts)[:, 0], rho.eval_many(pts), atol=1e-15)
    h = 1e-6
    for x in pts[:3]:
        g = rho.grad_many(x[None, :])[0]
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (rho.eval(x + e) - rho.eval(x - e)) / (2 * h)
            assert abs(g[k] - fd) < 1e-8


def test_max_coeff_diff_is_infinite_on_non_finite_differences():
    p = PolyMap(2, 2, {(0, 0): [1.0, 2.0], (1, 0): [0.5, 0.0]})
    near = PolyMap(2, 2, {(0, 0): [1.0, 2.0 + 1e-9], (1, 0): [0.5, 0.0]})
    assert p.max_coeff_diff(near) == pytest.approx(1e-9)
    for bad in (math.nan, math.inf, -math.inf):
        # the non-finite term is visited after a finite one, and alone
        q = PolyMap(2, 2, {(0, 0): [1.0, 2.0], (1, 0): [0.5, bad]})
        r = PolyMap(2, 2, {(0, 1): [bad, 0.0]})
        assert p.max_coeff_diff(q) == math.inf
        assert q.max_coeff_diff(p) == math.inf
        assert q.max_coeff_diff(q) == math.inf
        assert p.max_coeff_diff(r) == math.inf


def test_point_block_zero_dim():
    assert point_block(np.zeros((4, 0)), 0).shape == (4, 0)
    assert point_block(np.zeros(0), 0).shape == (1, 0)
    assert point_block([0.5, 0.25], 2).shape == (1, 2)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        PolyMap(2, 1, {(1,): [1.0]})
