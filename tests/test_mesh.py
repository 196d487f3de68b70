import numpy as np
import pytest
from hypothesis import given, strategies as st

from fvpg1d import (Mesh, RegularFamilySpec, build_random_regular,
                    build_uniform, validate_regular)


def test_uniform_mesh_geometry():
    mesh = build_uniform(4)
    np.testing.assert_allclose(mesh.vertices, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    np.testing.assert_allclose(mesh.cell_widths, 0.25, atol=0)
    np.testing.assert_allclose(mesh.dual_widths, [0.125, 0.25, 0.25, 0.25, 0.125], atol=0)
    assert mesh.n == 4
    assert mesh.h_max == 0.25
    np.testing.assert_allclose(mesh.midpoints(), [0.125, 0.375, 0.625, 0.875], atol=0)


def test_single_cell_mesh():
    mesh = build_uniform(1)
    assert mesh.n == 1
    np.testing.assert_allclose(mesh.dual_widths, [0.5, 0.5], atol=0)


def test_dual_widths_sum_to_one():
    mesh = Mesh(np.array([0.0, 0.1, 0.15, 0.4, 0.75, 1.0]))
    assert abs(mesh.dual_widths.sum() - 1.0) < 1e-15
    assert abs(mesh.cell_widths.sum() - 1.0) < 1e-15


def test_interior_dual_width_is_midpoint_distance():
    mesh = Mesh(np.array([0.0, 0.2, 0.5, 1.0]))
    mids = mesh.midpoints()
    np.testing.assert_allclose(mesh.dual_widths[1:-1], np.diff(mids), atol=1e-16)


def test_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.1, 0.5, 1.0]))  # wrong left endpoint
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.9]))  # wrong right endpoint
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.6, 0.4, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))  # repeated vertex


def test_mesh_snaps_endpoint_rounding():
    mesh = Mesh(np.array([5e-15, 0.5, 1.0 - 5e-15]))
    assert mesh.vertices[0] == 0.0
    assert mesh.vertices[-1] == 1.0


def test_mesh_arrays_are_frozen():
    mesh = build_uniform(3)
    with pytest.raises(ValueError):
        mesh.vertices[0] = 0.5
    with pytest.raises(ValueError):
        mesh.cell_widths[0] = 0.5


def test_build_uniform_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_uniform(0)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        RegularFamilySpec(alpha=1.5, beta=2.0, n=4, seed=0)
    with pytest.raises(ValueError):
        RegularFamilySpec(alpha=0.5, beta=0.9, n=4, seed=0)
    with pytest.raises(ValueError):
        RegularFamilySpec(alpha=0.5, beta=2.0, n=0, seed=0)
    with pytest.raises(ValueError):
        RegularFamilySpec(alpha=0.5, beta=2.0, n=4, seed=-1)
    for alpha, beta in ((0.5, np.inf), (0.5, np.nan), (np.nan, 2.0), (-np.inf, 2.0)):
        with pytest.raises(ValueError, match="beta < inf"):
            RegularFamilySpec(alpha=alpha, beta=beta, n=4, seed=0)


def test_random_regular_is_deterministic():
    spec = RegularFamilySpec(alpha=0.5, beta=2.0, n=32, seed=123)
    a = build_random_regular(spec)
    b = build_random_regular(spec)
    np.testing.assert_array_equal(a.vertices, b.vertices)


def test_random_regular_seeds_differ():
    a = build_random_regular(RegularFamilySpec(0.5, 2.0, 32, seed=1))
    b = build_random_regular(RegularFamilySpec(0.5, 2.0, 32, seed=2))
    assert np.max(np.abs(a.vertices - b.vertices)) > 1e-6


def test_validate_regular_uniform_always_passes():
    mesh = build_uniform(17)
    assert validate_regular(mesh, 0.5, 2.0)
    assert validate_regular(mesh, 0.99, 1.01)


def test_validate_regular_detects_band_violation():
    mesh = Mesh(np.array([0.0, 0.9, 1.0]))  # widths 0.9 and 0.1, band [0.25, 1.0]
    assert not validate_regular(mesh, 0.5, 2.0)


def test_validate_regular_rejects_bad_band():
    with pytest.raises(ValueError):
        validate_regular(build_uniform(4), 2.0, 0.5)
    for beta in (np.inf, np.nan):
        with pytest.raises(ValueError):
            validate_regular(build_uniform(4), 0.5, beta)


@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    beta=st.floats(min_value=1.05, max_value=20.0),
)
def test_random_regular_family_properties(n, seed, alpha, beta):
    mesh = build_random_regular(RegularFamilySpec(alpha, beta, n, seed))
    assert mesh.vertices[0] == 0.0
    assert mesh.vertices[-1] == 1.0
    assert np.all(np.diff(mesh.vertices) > 0.0)
    assert validate_regular(mesh, alpha, beta)
    assert abs(mesh.cell_widths.sum() - 1.0) < 1e-12
