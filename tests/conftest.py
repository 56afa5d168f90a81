import numpy as np
import pytest

from transim.ambient import AmbientManifold
from transim.scenarios import meridian_member, origin_member, plane
from transim.smooth_maps import SmoothSimplexMap
from transim.transversal import TCollection

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared list of per-criterion verdict lines, echoed after the run."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def r2():
    return plane()


@pytest.fixture
def torus():
    return AmbientManifold.clifford_torus()


@pytest.fixture
def origin_collection():
    return TCollection.of(origin_member())


@pytest.fixture
def meridian_collection():
    return TCollection.of(meridian_member())


@pytest.fixture
def crossing_triangle(r2):
    # origin strictly inside, edges well away from it
    return SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.0, -1.0], [1.5, -0.8], [0.0, 1.2]]), r2
    )


@pytest.fixture
def edge_triangle(r2):
    # origin sits on the open edge opposite vertex 2
    return SmoothSimplexMap.affine_from_vertices(
        np.array([[-0.8, 0.0], [0.9, 0.0], [0.1, 1.1]]), r2
    )


def _assert_row_invariant(f, pts, rng):
    """f of a block equals f of a random split of it, part by part, and f of
    each row alone, bit for bit."""
    full = f(pts)
    cuts = np.sort(rng.choice(np.arange(1, len(pts)), size=min(5, len(pts) - 1), replace=False))
    assert np.array_equal(np.concatenate([f(part) for part in np.split(pts, cuts)]), full)
    for i in range(len(pts)):
        assert np.array_equal(f(pts[i:i + 1]), full[i:i + 1])


@pytest.fixture
def assert_row_invariant():
    return _assert_row_invariant
