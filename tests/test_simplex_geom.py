import itertools
import math

import numpy as np
import pytest

from transim.simplex_geom import (
    DeltaMorphism,
    SimplexDomain,
    barycentrics_many,
    collapse_to_simplex,
    face_for_vertices,
    facet_coordinates_many,
    principal_lattice,
    realize_morphism,
    simplex_grid,
)


def _all_morphisms(src, tgt):
    out = []
    for vals in itertools.product(range(tgt + 1), repeat=src + 1):
        if all(a <= b for a, b in zip(vals, vals[1:])):
            out.append(DeltaMorphism(src, tgt, vals))
    return out


def test_simplicial_face_identity():
    # delta_j o delta_i = delta_i o delta_{j-1} for i < j
    for n in range(2, 5):
        for j in range(n + 1):
            for i in range(j):
                lhs = DeltaMorphism.face(j, n).compose(DeltaMorphism.face(i, n - 1))
                rhs = DeltaMorphism.face(i, n).compose(DeltaMorphism.face(j - 1, n - 1))
                assert lhs == rhs


def test_simplicial_degeneracy_identity():
    # s_j o s_i = s_i o s_{j+1} for i <= j
    for n in range(1, 4):
        for j in range(n):
            for i in range(j + 1):
                lhs = DeltaMorphism.degeneracy(j, n).compose(
                    DeltaMorphism.degeneracy(i, n + 1)
                )
                rhs = DeltaMorphism.degeneracy(i, n).compose(
                    DeltaMorphism.degeneracy(j + 1, n + 1)
                )
                assert lhs == rhs


def test_degeneracy_section():
    # s_j o delta_j = id and s_j o delta_{j+1} = id
    for n in range(1, 5):
        for j in range(n):
            s = DeltaMorphism.degeneracy(j, n)
            assert s.compose(DeltaMorphism.face(j, n)).is_identity()
            assert s.compose(DeltaMorphism.face(j + 1, n)).is_identity()


def test_monotonicity_enforced():
    with pytest.raises(ValueError):
        DeltaMorphism(1, 2, (2, 0))


def test_realization_is_functorial():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mid = int(rng.integers(0, 4))
        src = int(rng.integers(0, mid + 1))
        tgt = int(rng.integers(mid, 5))
        inners = _all_morphisms(src, mid)
        outers = _all_morphisms(mid, tgt)
        beta = inners[rng.integers(len(inners))]
        alpha = outers[rng.integers(len(outers))]
        lhs = realize_morphism(alpha.compose(beta))
        rhs = realize_morphism(alpha).compose(realize_morphism(beta))
        assert np.array_equal(lhs.matrix, rhs.matrix)
        assert np.array_equal(lhs.offset, rhs.offset)


def test_realization_sends_vertices_to_vertices():
    beta = DeltaMorphism.face(1, 2)
    aff = realize_morphism(beta)
    verts1 = SimplexDomain(1).vertices()
    verts2 = SimplexDomain(2).vertices()
    assert np.array_equal(aff.apply(verts1), verts2[list(beta.values)])


def test_realized_morphisms_apply_row_invariantly(assert_row_invariant):
    rng = np.random.default_rng(17)
    for src in range(5):
        for tgt in range(5):
            for beta in _all_morphisms(src, tgt):
                pts = rng.uniform(0.0, 1.0, (30, src)) * rng.choice([1e-3, 1.0, 7.0], (30, src))
                assert_row_invariant(realize_morphism(beta).apply, pts, rng)


def test_barycentrics_sum_to_one():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        lam = barycentrics_many(n, SimplexDomain(n).random_points(rng, 10))
        assert np.all(np.abs(lam.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(lam >= -1e-12)


def test_collapse_is_identity_inside():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        pts = SimplexDomain(n).random_points(rng, 8)
        assert np.allclose(collapse_to_simplex(pts), pts, atol=1e-15)


def test_collapse_is_nearest_point():
    """Cross-check against a dense grid argmin on the 2-simplex."""
    grid = simplex_grid(2, 180)
    rng = np.random.default_rng(14)
    zs = rng.uniform(-1.5, 1.5, (12, 2))
    nearest = collapse_to_simplex(zs)
    for z, p, lam in zip(zs, nearest, barycentrics_many(2, nearest)):
        assert np.all(lam >= -1e-12)
        best = grid[np.argmin(np.linalg.norm(grid - z, axis=1))]
        assert np.linalg.norm(z - p) <= np.linalg.norm(z - best) + 1e-9


def test_collapse_is_one_lipschitz():
    rng = np.random.default_rng(15)
    pairs = [(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)) for _ in range(40)]
    a, b = (np.array(side) for side in zip(*pairs))
    pa = collapse_to_simplex(a)
    pb = collapse_to_simplex(b)
    assert np.all(np.linalg.norm(pa - pb, axis=1) <= np.linalg.norm(a - b, axis=1) + 1e-12)


def test_face_for_vertices_roundtrip():
    beta = face_for_vertices(3, (0, 2))
    assert beta.values == (0, 2)
    assert (beta.source, beta.target) == (1, 3)
    with pytest.raises(ValueError):
        face_for_vertices(3, (1, 1))


def test_facet_coordinates_inverts_inclusion():
    rng = np.random.default_rng(16)
    n = 3
    for i in range(n + 1):
        aff = realize_morphism(DeltaMorphism.face(i, n))
        w = SimplexDomain(n - 1).random_points(rng, 6)
        assert np.allclose(facet_coordinates_many(n, i, aff.apply(w)), w, atol=1e-12)


def test_principal_lattice_counts():
    for n in (1, 2, 3):
        for order in (1, 2, 4):
            pts, multis = principal_lattice(n, order)
            assert len(pts) == math.comb(n + order, n)
            assert np.all(multis.sum(axis=1) == order)


def test_simplex_grid_zero_dim():
    assert simplex_grid(0, 5).shape == (1, 0)
    assert np.array_equal(simplex_grid(2, 1), np.zeros((1, 2)))  # below 2, the origin


def test_lattices_are_shared_and_read_only():
    for n, order in ((0, 3), (1, 4), (2, 5), (3, 2)):
        lattice = principal_lattice(n, order)
        assert principal_lattice(n, order) is lattice
        for arr in lattice:
            with pytest.raises(ValueError):
                arr[...] = 0.0
    for n, per_dim in ((0, 5), (2, 1), (2, 6)):
        grid = simplex_grid(n, per_dim)
        assert simplex_grid(n, per_dim) is grid
        with pytest.raises(ValueError):
            grid[...] = 1.0
