import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvpg1d import (DiscreteSolution, MomentTable, RegularFamilySpec,
                    SaddleSystem, SolverError, TriDiagonal, assemble_div,
                    assemble_mass_classical, build_random_regular,
                    build_uniform, builtin_affine, builtin_spline, moments,
                    perturbed_family, project_rhs, quadratic_problem,
                    residual, saddle_classical, saddle_pg, sin_problem,
                    solve_fv, solve_mixed, zero_problem)
from fvpg1d.solver import RESIDUAL_RTOL

from oracles import schur_is_pd


def random_mesh(n, seed):
    return build_random_regular(RegularFamilySpec(0.5, 2.0, n, seed))


# ---------------------------------------------------------------------------
# finite-volume path
# ---------------------------------------------------------------------------

def test_fv_zero_source_gives_zero():
    sol = solve_fv(build_uniform(16), zero_problem().f)
    assert np.max(np.abs(sol.u_cells)) < 1e-15
    assert np.max(np.abs(sol.p_nodes)) < 1e-15


def test_fv_quadratic_gradient_is_exact():
    # f = 2 makes the discrete gradient coincide with 1 - 2x at the vertices
    mesh = random_mesh(17, 11)
    sol = solve_fv(mesh, quadratic_problem().f)
    np.testing.assert_allclose(sol.p_nodes, 1.0 - 2.0 * mesh.vertices,
                               rtol=0, atol=1e-12)


def test_fv_cell_conservation():
    mesh = random_mesh(23, 12)
    f = sin_problem().f
    sol = solve_fv(mesh, f)
    balance = np.diff(sol.p_nodes) + f.cell_integrals(mesh)
    assert np.max(np.abs(balance)) < 1e-12


def test_fv_gradient_is_dual_width_quotient():
    mesh = random_mesh(9, 13)
    sol = solve_fv(mesh, sin_problem().f)
    u_ext = np.concatenate(([0.0], sol.u_cells, [0.0]))
    np.testing.assert_allclose(sol.p_nodes, np.diff(u_ext) / mesh.dual_widths,
                               rtol=0, atol=1e-14)


def test_fv_solution_shape_and_scheme():
    sol = solve_fv(build_uniform(5), sin_problem().f)
    assert sol.u_cells.shape == (5,)
    assert sol.p_nodes.shape == (6,)
    assert sol.scheme == "fv"


# ---------------------------------------------------------------------------
# mixed path
# ---------------------------------------------------------------------------

def test_mixed_classical_residual_small():
    mesh = random_mesh(19, 14)
    system = saddle_classical(mesh, sin_problem().f)
    sol = solve_mixed(system)
    assert residual(system, sol) < 1e-11
    assert sol.scheme == "classical"


def test_mixed_pg_cell_conservation():
    mesh = random_mesh(15, 15)
    f = sin_problem().f
    system = saddle_pg(mesh, moments(builtin_spline()), f)
    sol = solve_mixed(system)
    balance = np.diff(sol.p_nodes) + system.rhs_cells
    assert np.max(np.abs(balance)) < 1e-12


def test_classical_equals_pg_affine():
    mesh = random_mesh(14, 16)
    f = sin_problem().f
    a = solve_mixed(saddle_classical(mesh, f))
    b = solve_mixed(saddle_pg(mesh, moments(builtin_affine()), f))
    np.testing.assert_allclose(a.u_cells, b.u_cells, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.p_nodes, b.p_nodes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("psi_factory", [builtin_spline, lambda: perturbed_family(1.0)])
def test_pg_equals_fv_for_diagonal_mass(psi_factory):
    mesh = random_mesh(26, 17)
    f = sin_problem().f
    pg = solve_mixed(saddle_pg(mesh, moments(psi_factory()), f))
    fv = solve_fv(mesh, f)
    np.testing.assert_allclose(pg.u_cells, fv.u_cells, rtol=0, atol=1e-11)
    np.testing.assert_allclose(pg.p_nodes, fv.p_nodes, rtol=0, atol=1e-11)


def test_symmetry_on_uniform_mesh():
    # sin(pi x) is symmetric about 1/2, its gradient antisymmetric
    mesh = build_uniform(20)
    f = sin_problem().f
    for sol in (solve_fv(mesh, f),
                solve_mixed(saddle_classical(mesh, f)),
                solve_mixed(saddle_pg(mesh, moments(builtin_spline()), f))):
        assert np.max(np.abs(sol.u_cells - sol.u_cells[::-1])) < 1e-12
        assert np.max(np.abs(sol.p_nodes + sol.p_nodes[::-1])) < 1e-12


def test_mixed_rejects_singular_mass():
    mesh = build_uniform(4)
    n = mesh.n
    M = TriDiagonal(lower=np.zeros(n), diag=np.zeros(n + 1), upper=np.zeros(n))
    system = SaddleSystem(mass=M, div_matrix=assemble_div(mesh),
                          rhs_cells=project_rhs(mesh, sin_problem().f), mesh=mesh)
    with pytest.raises(SolverError):
        solve_mixed(system)


def test_mixed_rejects_indefinite_schur():
    mesh = build_uniform(6)
    M = assemble_mass_classical(mesh)
    negM = TriDiagonal(lower=-M.lower, diag=-M.diag, upper=-M.upper)
    system = SaddleSystem(mass=negM, div_matrix=assemble_div(mesh),
                          rhs_cells=project_rhs(mesh, sin_problem().f), mesh=mesh)
    with pytest.raises(SolverError):
        solve_mixed(system)


def test_schur_gate_matches_dense_oracle():
    # moment tables over a grid of (m1, m0), including m_psi < 0 with exactly
    # one negative mass eigenvalue, where the Schur complement stays definite
    grid = np.linspace(-1.0, 1.0, 11)
    f = sin_problem().f
    indefinite_accepted = 0
    for n in (1, 2, 3, 5, 8, 16):
        for mesh in (build_uniform(n), random_mesh(n, n)):
            for m1 in grid:
                for m0 in grid:
                    table = MomentTable(m_psi=m1 + m0, m1=m1, m0=m0, s=1.0, c=0.0,
                                        sd=1.0, cd=0.0)
                    system = saddle_pg(mesh, table, f)
                    M = system.mass.to_dense()
                    eigs = np.linalg.eigvalsh(M)
                    if np.abs(eigs).min() <= 1e-10 * np.abs(eigs).max():
                        continue  # singular mass block: rejected, tested above
                    if schur_is_pd(M):
                        solve_mixed(system)
                        indefinite_accepted += eigs.min() < 0.0
                    else:
                        with pytest.raises(SolverError, match="not positive definite"):
                            solve_mixed(system)
    assert indefinite_accepted > 0


SCHEMES = {
    "fv": lambda mesh, f: solve_fv(mesh, f),
    "classical": lambda mesh, f: solve_mixed(saddle_classical(mesh, f)),
    "pg": lambda mesh, f: solve_mixed(saddle_pg(mesh, moments(builtin_spline()), f)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_non_finite_input_raises_solver_error(scheme, bad):
    mesh = build_uniform(8)
    f = lambda x: np.where(x > 0.5, bad, 1.0)
    with pytest.raises(SolverError, match="cell load vector contains NaN or inf"):
        SCHEMES[scheme](mesh, f)
    if scheme != "fv":
        system = saddle_classical(mesh, sin_problem().f)
        diag = system.mass.diag.copy()
        diag[3] = bad
        mass = dataclasses.replace(system.mass, diag=diag)
        with pytest.raises(SolverError, match="mass block contains NaN or inf"):
            solve_mixed(dataclasses.replace(system, mass=mass))


@pytest.mark.parametrize("build", [
    lambda mesh, f: saddle_classical(mesh, f),
    lambda mesh, f: saddle_pg(mesh, moments(builtin_affine()), f),
], ids=["classical", "pg:affine"])
def test_mixed_memory_is_linear(build):
    # no dense block: assembly plus solve stay within 1 KiB per cell
    n = 2**18
    mesh = random_mesh(n, 18)
    f = sin_problem().f
    tracemalloc.start()
    try:
        system = build(mesh, f)
        sol = solve_mixed(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * n
    assert residual(system, sol) <= RESIDUAL_RTOL * max(1.0, np.abs(system.rhs_cells).max())


def test_solution_shape_validation():
    mesh = build_uniform(4)
    with pytest.raises(ValueError):
        DiscreteSolution(u_cells=np.zeros(3), p_nodes=np.zeros(5), mesh=mesh, scheme="x")
    with pytest.raises(ValueError):
        DiscreteSolution(u_cells=np.zeros(4), p_nodes=np.zeros(4), mesh=mesh, scheme="x")


def test_residual_detects_perturbation():
    mesh = build_uniform(8)
    system = saddle_classical(mesh, sin_problem().f)
    sol = solve_mixed(system)
    bad = DiscreteSolution(u_cells=sol.u_cells + 1e-3, p_nodes=sol.p_nodes,
                           mesh=mesh, scheme=sol.scheme)
    assert residual(system, bad) > 1e-4


@settings(max_examples=25)
@given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 2**16))
def test_property_fv_conservation_any_mesh(n, seed):
    mesh = random_mesh(n, seed)
    f = sin_problem().f
    sol = solve_fv(mesh, f)
    balance = np.diff(sol.p_nodes) + f.cell_integrals(mesh)
    assert np.max(np.abs(balance)) < 1e-11
