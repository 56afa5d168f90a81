import math

import numpy as np
import pytest

from transim import poly
from transim.poly import (
    AffineProduct,
    PolyMap,
    _from_kernel,
    _substitute,
    monomial_exponents,
    point_block,
)


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
            assert np.allclose(p.eval_many(x[None])[0], v, rtol=1e-13, atol=1e-13)
            assert np.allclose(p.jac_many(x[None])[0], j, rtol=1e-13, atol=1e-13)


def test_eval_many_and_jac_many_are_row_invariant(assert_row_invariant):
    """A row's value and Jacobian have the same bits in any block: the
    blocks here straddle both ways of summing the terms."""
    rng = np.random.default_rng(12)
    for case in range(120):
        nvars, ncomp = int(rng.integers(0, 5)), int(rng.integers(1, 5))
        degree = int(rng.integers(0, 6))
        if case % 10 == 0:
            p = PolyMap.zero(nvars, ncomp)
        else:
            exps = monomial_exponents(nvars, degree)
            keep = rng.random(len(exps)) < 0.6
            p = PolyMap(nvars, ncomp, {e: rng.uniform(-2, 2, ncomp)
                                       for e, k in zip(exps, keep) if k})
        pts = rng.uniform(-1.5, 1.5, (int(rng.integers(2, 90)), nvars))
        assert_row_invariant(p.eval_many, pts, rng)
        assert_row_invariant(p.jac_many, pts, rng)


def _reference_mul(a, b):
    """``PolyMap.__mul__`` as a term-by-term loop over PolyMaps: the code the
    product kernel replaced, kept as the reference for its bits."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            contrib = (c1[0] * c2) if a.ncomp == 1 else (c2[0] * c1)
            if e in terms:
                terms[e] = terms[e] + contrib
            else:
                terms[e] = contrib.copy()
    return PolyMap(a.nvars, max(a.ncomp, b.ncomp), terms)


def _reference_compose(p, matrix, offset):
    """``PolyMap.compose_affine`` with every partial product a PolyMap: the
    code the product kernel replaced, kept as the reference for its bits."""
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float).reshape(-1)
    new_n = matrix.shape[1]
    lin = []
    for i in range(p.nvars):
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
    pow_cache = {}

    def lpow(i, e):
        if e == 0:
            return one
        if (i, e) not in pow_cache:
            pow_cache[i, e] = lin[i] if e == 1 else _reference_mul(lpow(i, e - 1), lin[i])
        return pow_cache[i, e]

    out = {}
    for exp, coef in p.terms.items():
        mono = one
        for i, e in enumerate(exp):
            if e:
                mono = _reference_mul(mono, lpow(i, e))
        for me, mc in mono.terms.items():
            acc = out.get(me)
            out[me] = mc[0] * coef if acc is None else acc + mc[0] * coef
    return PolyMap(new_n, p.ncomp, out)


def _coefficients(rng, shape):
    """Floats, dyadic values that cancel exactly, and -0.0 entries."""
    vals = np.where(rng.random(shape) < 0.5, rng.uniform(-1, 1, shape),
                    rng.choice([-1.0, -0.5, 0.5, 1.0], shape))
    return np.where(rng.random(shape) < 0.2, -0.0, vals)


def _algebra_cases(rng, count):
    """(vector map, scalar map, matrix, offset): 0-4 variables, degrees 0-5,
    1-3 components; 0/+-1 matrices with 0/1 offsets (faces and
    degeneracies), float matrices (sub-arcs), sparse matrices with zero
    offsets, and 0-variable targets."""
    for case in range(count):
        nvars, ncomp = int(rng.integers(0, 5)), int(rng.integers(1, 4))
        polys = []
        for comps, degree in ((ncomp, int(rng.integers(0, 6))), (1, int(rng.integers(0, 4)))):
            exps = [e for e in monomial_exponents(nvars, degree) if rng.random() < 0.7]
            polys.append(PolyMap(nvars, comps, dict(zip(exps, _coefficients(rng, (len(exps), comps))))))
        new_n = int(rng.integers(0, 4)) if case % 4 != 3 else 0
        if case % 4 == 0:
            mat = rng.integers(-1, 2, (nvars, new_n)).astype(float)
            off = rng.integers(0, 2, nvars).astype(float)
        elif case % 4 == 2:
            mat = np.where(rng.random((nvars, new_n)) < 0.4,
                           rng.uniform(-2, 2, (nvars, new_n)), 0.0)
            off = np.zeros(nvars)
        else:
            mat = rng.uniform(-1, 1, (nvars, new_n))
            off = rng.uniform(-1, 1, nvars)
        yield polys[0], polys[1], mat, off


def test_evaluation_leaves_algebra_unchanged():
    """Sums, products (scalar x vector and vector x scalar) and affine
    substitution give, key for key and bit for bit, what the reference
    algebra gives on fresh copies, whether or not the maps were evaluated
    first (evaluation derives arrays from ``terms``).  The term order and
    every signed zero count: the next product iterates in that order."""
    rng = np.random.default_rng(10)
    for case, (p, s, mat, off) in enumerate(_algebra_cases(rng, 300)):
        fresh_p, fresh_s = PolyMap(p.nvars, p.ncomp, p.terms), PolyMap(s.nvars, 1, s.terms)
        want = [fresh_p + fresh_p, _reference_mul(fresh_s, fresh_p),
                _reference_mul(fresh_p, fresh_s), _reference_compose(fresh_p, mat, off),
                _reference_compose(fresh_s, mat, off)]
        if case % 2:
            pts = rng.uniform(-1, 1, (6, p.nvars))
            for q in (p, s):
                q.eval_many(pts)
                q.jac_many(pts)
        got = [p + p, s * p, p * s, p.compose_affine(mat, off), s.compose_affine(mat, off)]
        for g, w in zip(got, want):
            assert (g.nvars, g.ncomp) == (w.nvars, w.ncomp)
            assert list(g.terms) == list(w.terms)
            assert [c.tobytes() for c in g.terms.values()] == [c.tobytes() for c in w.terms.values()]
        if case % 2:
            assert np.array_equal(p.eval_many(pts), fresh_p.eval_many(pts))


def test_jac_matches_central_differences():
    rng = np.random.default_rng(4)
    p = _random_poly(rng, 3, 2, 3)
    h = 1e-6
    for x in rng.uniform(-0.5, 0.5, (5, 3)):
        j = p.jac_many(x[None])[0]
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (p.eval_many(x + e)[0] - p.eval_many(x - e)[0]) / (2 * h)
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
        assert np.allclose(comp.eval_many(y)[0], p.eval_many(mat @ y + off)[0], atol=1e-13)


def test_compose_affine_identity_is_noop():
    rng = np.random.default_rng(7)
    p = _random_poly(rng, 2, 1, 3)
    same = p.compose_affine(np.eye(2), np.zeros(2))
    assert p.max_coeff_diff(same) == 0.0


def _magnitude(p):
    """p with every coefficient replaced by its absolute value."""
    return PolyMap(p.nvars, p.ncomp, {e: np.abs(c) for e, c in p.terms.items()})


def _compose(outer, inner):
    """outer o inner through the substitution loop of compose_affine, with
    each component of the inner map as x_i."""
    xs = [{e: float(c[i]) for e, c in inner.terms.items()} for i in range(inner.ncomp)]
    return PolyMap(inner.nvars, outer.ncomp, _substitute(outer.terms, xs, inner.nvars))


def test_substitution_matches_evaluating_inner_then_outer():
    """The substitution loop of compose_affine, given a polynomial inner map,
    agrees with evaluating the inner map and then the outer one: 0-3 inner
    variables, composite degree up to 6, -0.0 coefficients and coordinates,
    and maps without terms.  An affine inner map gives compose_affine's bits."""
    rng = np.random.default_rng(12)
    for _ in range(150):
        k, m = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        maps = []
        for nvars, ncomp, degree in ((k, m, int(rng.integers(0, 3))),
                                     (m, int(rng.integers(1, 3)), int(rng.integers(0, 4)))):
            exps = [e for e in monomial_exponents(nvars, degree) if rng.random() < 0.7]
            if rng.random() < 0.15:
                exps = []
            coeffs = _coefficients(rng, (len(exps), ncomp))
            maps.append(PolyMap(nvars, ncomp, dict(zip(exps, coeffs))))
        inner, outer = maps
        pts = np.where(rng.random((8, k)) < 0.2, -0.0, rng.uniform(-1, 1, (8, k)))
        got = _compose(outer, inner).eval_many(pts)
        want = outer.eval_many(inner.eval_many(pts))
        scale = _magnitude(outer).eval_many(_magnitude(inner).eval_many(np.abs(pts)))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        mat, off = _coefficients(rng, (m, k)), _coefficients(rng, m)
        substituted = _compose(outer, PolyMap.affine(mat, off))
        direct = outer.compose_affine(mat, off)
        assert list(substituted.terms) == list(direct.terms)
        assert ([c.tobytes() for c in substituted.terms.values()]
                == [c.tobytes() for c in direct.terms.values()])


def test_kernel_constructor_builds_what_the_checked_constructor_builds(monkeypatch):
    """``__mul__`` and ``compose_affine`` build their results with
    ``_from_kernel``: the keys, bits and dropped terms of ``PolyMap(...)``
    on the same raw kernel result, whose zero vectors carry either sign."""
    raws = []

    def recording(nvars, ncomp, terms):
        raws.append((nvars, ncomp, dict(terms)))
        return _from_kernel(nvars, ncomp, terms)

    monkeypatch.setattr(poly, "_from_kernel", recording)
    tiny = 1e-200  # tiny * -tiny underflows to -0.0
    # x terms cancel to +0.0; x^10 is -0.0 throughout; x^9 keeps a -0.0
    left = PolyMap(1, 1, {(0,): [1.0], (1,): [1.0], (5,): [tiny]})
    right = PolyMap(1, 2, {(0,): [-1.0, -2.0], (1,): [1.0, 2.0], (4,): [-tiny, 1.0],
                           (5,): [-tiny, -tiny]})
    # (x - 1)^2 at x = y1 + 1 cancels to +0.0 below y1^2; z = tiny y2 makes
    # the y2 term -0.0
    square = PolyMap(2, 2, {(0, 0): [1.0, 3.0], (1, 0): [-2.0, -6.0], (2, 0): [1.0, 3.0],
                            (0, 1): [-tiny, -tiny]})
    results = [left * right, square.compose_affine([[1.0, 0.0], [0.0, tiny]], [1.0, 0.0])]
    assert len(raws) == len(results)
    for out, (nvars, ncomp, raw) in zip(results, raws):
        zeros = [c for c in raw.values() if not c.any()]
        assert any(not np.signbit(c).any() for c in zeros)
        assert any(np.signbit(c).all() for c in zeros)
        checked = PolyMap(nvars, ncomp, raw)
        assert (out.nvars, out.ncomp) == (checked.nvars, checked.ncomp)
        assert list(out.terms) == list(checked.terms)
        assert len(out.terms) == len(raw) - len(zeros)
        assert [c.tobytes() for c in out.terms.values()] == [
            c.tobytes() for c in checked.terms.values()]
    assert np.signbit(results[0].terms[(9,)][0])  # a kept vector keeps its -0.0


def test_total_degree():
    p = PolyMap(2, 2, {(0, 0): [1.0, 0.0], (2, 1): [0.0, 3.0]})
    assert p.total_degree() == 3
    assert PolyMap.zero(2, 2).total_degree() == 0


def test_barycentric_product_vanishes_on_facets_exactly():
    rho = AffineProduct.barycentric(2)
    assert rho.eval_many([0.0, 0.3])[0] == 0.0
    assert rho.eval_many([0.3, 0.0])[0] == 0.0
    assert rho.eval_many([0.25, 0.75])[0] == 0.0  # lambda_0 = 0
    assert rho.eval_many([0.25, 0.25])[0] > 0.0


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
            fd = (rho.eval_many(x + e)[0] - rho.eval_many(x - e)[0]) / (2 * h)
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
