import numpy as np
import pytest
from hypothesis import given, strategies as st

from fvpg1d import (Mesh, RegularFamilySpec, SaddleSystem, SourceFunction,
                    assemble_fv, assemble_mass_pg,
                    build_random_regular, build_uniform, builtin_affine,
                    builtin_spline, moments, perturbed_family, project_rhs,
                    saddle_classical, sin_problem)
from fvpg1d.assembly import TriDiagonal
from fvpg1d.solver import apply_mass

from oracles import dense_tridiagonal, simpson


def random_mesh(n, seed):
    return build_random_regular(RegularFamilySpec(0.5, 2.0, n, seed))


# ---------------------------------------------------------------------------
# TriDiagonal band record
# ---------------------------------------------------------------------------

def test_tridiagonal_roundtrip():
    # the record keeps read-only copies of its bands, which the dense copy puts back
    rng = np.random.default_rng(0)
    m = 7
    bands = (rng.normal(size=m - 1), rng.normal(size=m), rng.normal(size=m - 1))
    T = TriDiagonal(*bands)
    dense = dense_tridiagonal(T)
    for k, band in zip((-1, 0, 1), bands):
        np.testing.assert_array_equal(np.diag(dense, k), band)
    bands[1][0] += 1.0
    assert T.diag[0] == dense[0, 0]
    with pytest.raises(ValueError):
        T.diag[0] = 0.0


def test_tridiagonal_band_length_validation():
    with pytest.raises(ValueError):
        TriDiagonal(lower=np.zeros(2), diag=np.zeros(2), upper=np.zeros(1))
    with pytest.raises(ValueError):
        TriDiagonal(lower=np.zeros(0), diag=np.zeros(0), upper=np.zeros(0))


def test_tridiagonal_single_entry():
    T = TriDiagonal(lower=np.zeros(0), diag=np.array([3.0]), upper=np.zeros(0))
    np.testing.assert_array_equal(dense_tridiagonal(T), [[3.0]])


# ---------------------------------------------------------------------------
# source terms
# ---------------------------------------------------------------------------

def test_cell_integrals_antiderivative_vs_quadrature():
    mesh = random_mesh(13, 3)
    pi = np.pi
    with_anti = SourceFunction(f=lambda x: pi**2 * np.sin(pi * x),
                               antiderivative=lambda x: -pi * np.cos(pi * x))
    without = SourceFunction(f=lambda x: pi**2 * np.sin(pi * x))
    np.testing.assert_allclose(with_anti.cell_integrals(mesh),
                               without.cell_integrals(mesh, quad_order=8),
                               rtol=0, atol=1e-12)


def test_cell_integrals_scalar_returning_callable():
    mesh = build_uniform(5)
    src = SourceFunction(f=lambda x: 2.0)  # scalar return exercises broadcast
    np.testing.assert_allclose(src.cell_integrals(mesh), 2.0 * mesh.cell_widths,
                               rtol=0, atol=1e-15)


def test_project_rhs_accepts_bare_callable():
    mesh = build_uniform(4)
    np.testing.assert_allclose(project_rhs(mesh, lambda x: np.ones_like(x)),
                               mesh.cell_widths, rtol=0, atol=1e-15)


def test_cell_integrals_simpson_cross_check():
    mesh = random_mesh(6, 9)
    src = sin_problem().f
    vals = src.cell_integrals(mesh)
    for j in range(mesh.n):
        ref = simpson(src.f, mesh.vertices[j], mesh.vertices[j + 1], panels=200)
        assert abs(vals[j] - ref) < 1e-10


# ---------------------------------------------------------------------------
# mass matrices
# ---------------------------------------------------------------------------

def test_classical_mass_structure():
    mesh = random_mesh(11, 1)
    M = saddle_classical(mesh, sin_problem().f).mass
    # the pair (1/3, 1/6) gives the hat-function bands bit for bit
    np.testing.assert_array_equal(M.diag, (2.0 / 3.0) * mesh.dual_widths)
    np.testing.assert_array_equal(M.lower, (1.0 / 6.0) * mesh.cell_widths)
    np.testing.assert_array_equal(M.lower, M.upper)
    # row sums collapse to the dual widths
    np.testing.assert_allclose(dense_tridiagonal(M).sum(axis=1), mesh.dual_widths,
                               rtol=0, atol=1e-15)
    # symmetric positive definite
    eigs = np.linalg.eigvalsh(dense_tridiagonal(M))
    assert eigs.min() > 0.0


def test_pg_mass_affine_equals_classical():
    mesh = random_mesh(9, 2)
    M_pg = assemble_mass_pg(mesh, moments(builtin_affine()))
    M_cl = saddle_classical(mesh, sin_problem().f).mass
    np.testing.assert_allclose(dense_tridiagonal(M_pg), dense_tridiagonal(M_cl),
                               rtol=0, atol=1e-15)


def test_pg_mass_spline_is_dual_width_diagonal():
    mesh = random_mesh(21, 4)
    M = assemble_mass_pg(mesh, moments(builtin_spline()))
    assert np.max(np.abs(M.lower)) < 1e-15
    np.testing.assert_allclose(M.diag, mesh.dual_widths, rtol=0, atol=1e-15)


def test_pg_mass_entries_against_direct_integration():
    # entry (i, j) = int hat_i * psi_j over the two shared cells
    mesh = random_mesh(4, 5)
    psi = builtin_spline()
    M = dense_tridiagonal(assemble_mass_pg(mesh, moments(psi)))
    rev = list(psi.coefficients[::-1])
    f = lambda t: np.polyval(rev, t)
    i = 2  # interior vertex with interior neighbours
    hl, hr = mesh.cell_widths[i - 1], mesh.cell_widths[i]
    diag_ref = hl * simpson(lambda t: t * f(t), 0, 1, 256) \
        + hr * simpson(lambda t: (1 - t) * f(1 - t), 0, 1, 256)
    off_ref = hr * simpson(lambda t: (1 - t) * f(t), 0, 1, 256)
    assert abs(M[i, i] - diag_ref) < 1e-10
    assert abs(M[i, i + 1] - off_ref) < 1e-10
    assert abs(M[i + 1, i] - hr * simpson(lambda t: t * f(1 - t), 0, 1, 256)) < 1e-10


@given(
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_pg_mass_row_sums(coeffs, n, seed):
    # every row sums to 2 * m_psi * (dual width): the nodal test functions
    # integrate to m_psi times the two adjacent cell widths
    from fvpg1d import WeightingFunction
    mesh = random_mesh(n, seed)
    m = moments(WeightingFunction.from_coefficients(coeffs))
    row_sums = apply_mass(mesh, m.m1, m.m0, np.ones(n + 1))
    scale = 1.0 + abs(m.m_psi)
    np.testing.assert_allclose(row_sums, 2.0 * m.m_psi * mesh.dual_widths,
                               rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("m1, m0", [(1.0 / 3.0, 1.0 / 6.0), (0.5, 0.0), (-0.3, 0.7)])
def test_apply_mass_matches_dense_bands(m1, m0):
    # the product the solver uses is the band record's matrix; with m0 = 0 it
    # is the diagonal band times x bit for bit
    rng = np.random.default_rng(1)
    for n in (1, 2, 9):
        mesh = random_mesh(n, n)
        T = assemble_mass_pg(mesh, SaddleSystem(mesh, m1, m0, np.zeros(n)))
        x = rng.normal(size=n + 1)
        np.testing.assert_allclose(apply_mass(mesh, m1, m0, x), dense_tridiagonal(T) @ x,
                                   rtol=0, atol=1e-15)
        if m0 == 0.0:
            np.testing.assert_array_equal(apply_mass(mesh, m1, m0, x), T.diag * x)


# ---------------------------------------------------------------------------
# divergence and finite-volume system
# ---------------------------------------------------------------------------

def test_divergence_matrix():
    # the two bands of B = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]]
    mesh = build_uniform(3)
    D = SaddleSystem(mesh, 1.0 / 3.0, 1.0 / 6.0, np.zeros(mesh.n)).div_matrix
    expected = np.array([[-1.0, -1.0, -1.0],
                         [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(D, expected)


def test_fv_uniform_stencil():
    n = 8
    mesh = build_uniform(n)
    A, b = assemble_fv(mesh, sin_problem().f)
    h = 1.0 / n
    np.testing.assert_allclose(A.diag[1:-1], 2.0 / h, rtol=1e-15)
    np.testing.assert_allclose(A.diag[[0, -1]], 3.0 / h, rtol=1e-15)
    np.testing.assert_allclose(A.lower, -1.0 / h, rtol=1e-15)
    np.testing.assert_array_equal(A.lower, A.upper)
    np.testing.assert_allclose(b, project_rhs(mesh, sin_problem().f), rtol=0, atol=0)


def test_fv_single_cell():
    A, b = assemble_fv(build_uniform(1), sin_problem().f)
    np.testing.assert_allclose(dense_tridiagonal(A), [[4.0]], rtol=0, atol=1e-15)
    assert abs(b[0] - 2.0 * np.pi) < 1e-14  # integral of pi^2 sin(pi x)


def test_fv_nonuniform_entries():
    mesh = random_mesh(10, 6)
    A, _ = assemble_fv(mesh, lambda x: np.ones_like(x))
    inv = 1.0 / mesh.dual_widths
    np.testing.assert_allclose(A.diag, inv[:-1] + inv[1:], rtol=0, atol=1e-13)
    np.testing.assert_allclose(A.lower, -inv[1:-1], rtol=0, atol=1e-13)
    eigs = np.linalg.eigvalsh(dense_tridiagonal(A))
    assert eigs.min() > 0.0


def test_fv_matrix_is_schur_complement_of_pg():
    # eliminating the diagonal PG mass reproduces the fv cell matrix
    mesh = random_mesh(12, 7)
    m = moments(builtin_spline())
    M = dense_tridiagonal(assemble_mass_pg(mesh, m))
    B = np.eye(mesh.n, mesh.n + 1, 1) - np.eye(mesh.n, mesh.n + 1)
    S = B @ np.linalg.solve(M, B.T)
    A, _ = assemble_fv(mesh, lambda x: np.zeros_like(x))
    np.testing.assert_allclose(S, dense_tridiagonal(A), rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# saddle systems
# ---------------------------------------------------------------------------

def test_saddle_shape_validation():
    mesh = build_uniform(4)
    SaddleSystem(mesh, 1.0 / 3.0, 1.0 / 6.0, np.zeros(mesh.n))  # fine
    with pytest.raises(ValueError):
        SaddleSystem(mesh, 1.0 / 3.0, 1.0 / 6.0, np.zeros(mesh.n + 1))


def test_saddle_labels():
    from fvpg1d import saddle_classical, saddle_pg
    mesh = build_uniform(4)
    f = sin_problem().f
    assert saddle_classical(mesh, f).label == "classical"
    assert saddle_pg(mesh, moments(perturbed_family(0.5)), f, label="pg:x").label == "pg:x"
