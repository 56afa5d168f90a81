import numpy as np
import pytest

from transim.ambient import AmbientManifold
from transim.errors import OutOfTube


def _tube_points(ambient, rng, count):
    """On-manifold points nudged by less than half the tube radius."""
    base = _surface_points(ambient, rng, count)
    noise = rng.normal(size=base.shape)
    noise *= 0.4 * ambient.tube_radius / np.linalg.norm(noise, axis=1)[:, None]
    return base, base + noise


def _surface_points(ambient, rng, count):
    if ambient.kind == "euclidean":
        return rng.normal(size=(count, ambient.ambient_dim))
    if ambient.kind == "sphere":
        z = rng.normal(size=(count, ambient.ambient_dim))
        return z / np.linalg.norm(z, axis=1)[:, None]
    if ambient.kind == "clifford_torus":
        th = rng.uniform(0, 2 * np.pi, (count, 2))
        r = 1.0 / np.sqrt(2.0)
        return np.column_stack(
            [r * np.cos(th[:, 0]), r * np.sin(th[:, 0]), r * np.cos(th[:, 1]), r * np.sin(th[:, 1])]
        )
    raise NotImplementedError(ambient.kind)


_PRESETS = [
    AmbientManifold.euclidean(3),
    AmbientManifold.sphere(3),
    AmbientManifold.clifford_torus(),
]


@pytest.mark.parametrize("ambient", _PRESETS, ids=lambda a: a.kind)
def test_projection_fixes_surface_points(ambient):
    rng = np.random.default_rng(21)
    pts = _surface_points(ambient, rng, 20)
    proj = ambient.project_many(pts)
    assert np.allclose(proj, pts, atol=1e-12)


@pytest.mark.parametrize("ambient", _PRESETS, ids=lambda a: a.kind)
def test_projection_is_idempotent_and_lands_on_m(ambient):
    rng = np.random.default_rng(22)
    _, tube = _tube_points(ambient, rng, 20)
    once = ambient.project_many(tube)
    twice = ambient.project_many(once)
    assert np.allclose(once, twice, atol=1e-12)
    for z in once:
        assert ambient.contains(z)


def test_sphere_rejects_far_points():
    s = AmbientManifold.sphere(3)
    with pytest.raises(OutOfTube):
        s.project([2.0, 0.0, 0.0])
    with pytest.raises(OutOfTube):
        s.project([0.1, 0.1, 0.0])


def test_torus_rejects_axis_points():
    t = AmbientManifold.clifford_torus()
    with pytest.raises(OutOfTube):
        t.project([0.0, 0.0, 0.7, 0.1])


@pytest.mark.parametrize("ambient", _PRESETS, ids=lambda a: a.kind)
def test_tangent_frames_orthonormal_and_tangent(ambient):
    rng = np.random.default_rng(23)
    pts = _surface_points(ambient, rng, 10)
    for z in pts:
        b = ambient.tangent_basis(z)
        assert b.shape == (ambient.ambient_dim, ambient.intrinsic_dim)
        assert np.allclose(b.T @ b, np.eye(ambient.intrinsic_dim), atol=1e-12)
        # directional derivative of the distance function vanishes along T_z M
        for v in b.T:
            h = 1e-6
            d = (ambient.distance(z + h * v) - ambient.distance(z - h * v)) / (2 * h)
            assert abs(d) < 1e-5


@pytest.mark.parametrize("ambient", _PRESETS, ids=lambda a: a.kind)
def test_project_jacobian_matches_finite_differences(ambient):
    rng = np.random.default_rng(24)
    _, tube = _tube_points(ambient, rng, 5)
    jacs = ambient.project_jacobian_many(tube)
    h = 1e-6
    n = ambient.ambient_dim
    for z, jac in zip(tube, jacs):
        fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (ambient.project(z + e) - ambient.project(z - e)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_projection_jacobian_restricts_to_identity_on_tangent():
    ambient = AmbientManifold.clifford_torus()
    rng = np.random.default_rng(25)
    for z in _surface_points(ambient, rng, 6):
        jac = ambient.project_jacobian_many(z[None, :])[0]
        b = ambient.tangent_basis(z)
        assert np.allclose(jac @ b, b, atol=1e-10)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="level_set"):
        AmbientManifold("level_set", 3, 2, 0.4)


def test_distance_agrees_with_projection():
    ambient = AmbientManifold.clifford_torus()
    rng = np.random.default_rng(27)
    _, tube = _tube_points(ambient, rng, 10)
    for z in tube:
        assert abs(ambient.distance(z) - np.linalg.norm(ambient.project(z) - z)) < 1e-12


def test_sphere_frame_at_pole_keeps_coordinate_axes():
    s = AmbientManifold.sphere(3)
    frame = s.tangent_basis([0.0, 0.0, 1.0])
    assert np.allclose(np.abs(frame), np.eye(3)[:, :2], atol=1e-12)
