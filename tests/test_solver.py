import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fvpg1d
from fvpg1d import (DiscreteSolution, MomentTable, RegularFamilySpec,
                    SaddleSystem, SolverError, assemble_fv,
                    build_random_regular,
                    build_uniform, builtin_affine, builtin_spline, moments,
                    perturbed_family, project_rhs, quadratic_problem,
                    residual, saddle_classical, saddle_pg, sin_problem,
                    solve_fv, solve_mixed, zero_problem)
from fvpg1d.assembly import TriDiagonal
from fvpg1d.solver import RESIDUAL_RTOL, _count_below

from oracles import band_matvec, dense_tridiagonal, nodal_gradient, schur_is_pd


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
    np.testing.assert_array_equal(a.p_nodes, b.p_nodes)


@pytest.mark.parametrize("psi_factory", [builtin_spline, lambda: perturbed_family(1.0)])
def test_pg_equals_fv_for_diagonal_mass(psi_factory):
    mesh = random_mesh(26, 17)
    f = sin_problem().f
    pg = solve_mixed(saddle_pg(mesh, moments(psi_factory()), f))
    fv = solve_fv(mesh, f)
    np.testing.assert_allclose(pg.u_cells, fv.u_cells, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(pg.p_nodes, fv.p_nodes)


GRADIENT_SCHEMES = {
    "classical": lambda mesh, f: solve_mixed(saddle_classical(mesh, f)),
    "pg:spline": lambda mesh, f: solve_mixed(saddle_pg(mesh, moments(builtin_spline()), f)),
    "pg:affine": lambda mesh, f: solve_mixed(saddle_pg(mesh, moments(builtin_affine()), f)),
    "pg:perturbed:0.5": lambda mesh, f: solve_mixed(
        saddle_pg(mesh, moments(perturbed_family(0.5)), f)),
}
GRADIENT_MESHES = {"uniform": build_uniform, "regular": lambda n: random_mesh(n, 3)}


@pytest.mark.parametrize("family", sorted(GRADIENT_MESHES))
def test_every_scheme_returns_the_closed_form_gradient(family):
    # with g = 0 the pair drops out of p: every scheme returns fv's gradient
    # bit for bit, and for exact loads that is the exact gradient minus its
    # trapezoid mean up to the rounding of the prefix sums, whose error grows
    # like a random walk (measured <= 1.5 eps sqrt(n) max|u'| up to 2^20)
    problem = sin_problem()
    for n in (1, 7, 1000, 2**16, 2**20):
        mesh = GRADIENT_MESHES[family](n)
        p = solve_fv(mesh, problem.f).p_nodes
        for name, solve in GRADIENT_SCHEMES.items():
            assert np.array_equal(solve(mesh, problem.f).p_nodes, p), (name, n)
        tol = 4.0 * np.finfo(float).eps * np.sqrt(n) * np.pi
        assert np.abs(p - nodal_gradient(mesh, problem.p_exact)).max() <= tol, n


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
    # psi = 1e-320 t is definite as a pair, but its bands are subnormal at
    # n = 1000, round to 0 on the boundary rows at n = 2000 and on every row
    # at n = 10^4, which the gate must not take for a definite mass block
    tiny = (1e-320 / 3, 1e-320 / 6)
    cases = [(build_uniform(4), 0.0, 0.0)]
    cases += [(mesh, *tiny) for n in (1000, 2000, 10**4)
              for mesh in (build_uniform(n), random_mesh(n, n))]
    for mesh, m1, m0 in cases:
        system = SaddleSystem(mesh, m1, m0, project_rhs(mesh, sin_problem().f))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="mass block is singular"):
                solve_mixed(system)


def test_mixed_rejects_indefinite_schur():
    # -M for the classical pair: every mass eigenvalue is negative
    mesh = build_uniform(6)
    system = SaddleSystem(mesh, -1.0 / 3.0, -1.0 / 6.0, project_rhs(mesh, sin_problem().f))
    with pytest.raises(SolverError, match="not positive definite"):
        solve_mixed(system)


# psi = factor * unit: M and u scale with the factor, p does not, and the
# rounding of M p - u grows with max|u|, far beyond max(1, max|f|)
SCALED_PSI = {"spline": (builtin_spline().coefficients, 1.0, 8),
              "poly:1e100,1e100": ((1.0, 1.0), 1e100, 8),
              "1e10 spline": (builtin_spline().coefficients, 1e10, 1000)}


def scaled_pg(name, factor=None):
    unit, scale, n = SCALED_PSI[name]
    psi = fvpg1d.WeightingFunction.from_coefficients(
        [(scale if factor is None else factor) * c for c in unit])
    return saddle_pg(build_uniform(n), moments(psi), sin_problem().f)


@pytest.mark.parametrize("name", ["1e10 spline", "poly:1e100,1e100"])
def test_mixed_accepts_large_psi(name):
    sol, ref = solve_mixed(scaled_pg(name)), solve_mixed(scaled_pg(name, 1.0))
    np.testing.assert_allclose(sol.p_nodes, ref.p_nodes, rtol=0, atol=1e-12)
    u_max = np.abs(ref.u_cells).max()
    np.testing.assert_allclose(sol.u_cells / SCALED_PSI[name][1], ref.u_cells,
                               rtol=0, atol=1e-12 * u_max)


@pytest.mark.parametrize("name", sorted(SCALED_PSI))
def test_mixed_rejects_perturbed_flux_balance(name, monkeypatch):
    # the residual's scale grows with max|u|: a wrong u must still fail it
    exact = fvpg1d.solver.flux_balance

    def perturbed(*args):
        p, u = exact(*args)
        u[u.size // 2] += 1e-8 * max(1.0, np.abs(u).max())
        return p, u

    monkeypatch.setattr(fvpg1d.solver, "flux_balance", perturbed)
    with pytest.raises(SolverError, match="block residual"):
        solve_mixed(scaled_pg(name))


def test_schur_gate_matches_dense_oracle():
    # moment tables over a grid of (m1, m0), including m_psi < 0 with exactly
    # one negative mass eigenvalue, where the Schur complement stays definite,
    # and pairs within 1e-9 of the singular lines |m1| = |m0|
    grid = np.linspace(-1.0, 1.0, 11)
    pairs = [(m1, m0) for m1 in grid for m0 in grid]
    pairs += [(abs(m0) * (1.0 + e), m0) for m0 in grid if m0 != 0.0 for e in (1e-9, -1e-9)]
    f = sin_problem().f
    indefinite_accepted = 0
    for n in (1, 2, 3, 4, 5, 8, 16, 64, 257):
        for mesh in (build_uniform(n), random_mesh(n, n),
                     build_random_regular(RegularFamilySpec(0.1, 5.0, n, n))):
            for m1, m0 in pairs:
                table = MomentTable(m_psi=m1 + m0, m1=m1, m0=m0, s=1.0, c=0.0,
                                    sd=1.0, cd=0.0)
                system = saddle_pg(mesh, table, f)
                M = dense_tridiagonal(system.mass)
                eigs = np.linalg.eigvalsh(M)
                if np.abs(eigs).min() <= 1e-10 * np.abs(eigs).max():
                    with pytest.raises(SolverError):  # singular mass block
                        solve_mixed(system)
                elif schur_is_pd(M):
                    solve_mixed(system)
                    indefinite_accepted += eigs.min() < 0.0
                else:
                    with pytest.raises(SolverError, match="not positive definite"):
                        solve_mixed(system)
    assert indefinite_accepted > 0


def test_sturm_count_matches_dense_eigenvalues():
    rng = np.random.default_rng(5)
    for m in (2, 3, 10, 50):
        diag, off = rng.normal(size=m), rng.normal(size=m - 1)
        eigs = np.linalg.eigvalsh(dense_tridiagonal(TriDiagonal(off, diag, off)))
        for x in (-0.5, 0.0, 0.7):
            assert _count_below(diag, off, x) == np.count_nonzero(eigs < x)
    # an exact zero pivot (eigenvalues -1 and 1) is stepped over, not divided by
    assert _count_below(np.zeros(2), np.ones(1), 0.0) == 1


@pytest.mark.parametrize("m1, m0", [(1.0 / 6.0, 1.0 / 3.0), (-1.0 / 6.0, -1.0 / 3.0)],
                         ids=["1-t", "t-1"])
def test_schur_gate_rejects_indefinite_mass_at_large_n(m1, m0):
    # psi = 1 - t, and its negative, which needs the Sturm count: both leave
    # about half the mass eigenvalues negative, and the gate stays O(n)
    mesh = build_uniform(2**18)
    system = SaddleSystem(mesh, m1, m0, project_rhs(mesh, sin_problem().f))
    start = time.perf_counter()
    with pytest.raises(SolverError, match="not positive definite"):
        solve_mixed(system)
    assert time.perf_counter() - start < 2.0


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
        with pytest.raises(SolverError, match="mass block contains NaN or inf"):
            solve_mixed(dataclasses.replace(system, m1=bad))


@pytest.mark.parametrize("scheme", ["classical", "pg:affine", "fv"])
def test_mixed_memory_is_linear(scheme):
    # no dense block: assembly plus solve stay within 1 KiB per cell; fv solves
    # the pg:spline block system, whose mass block is diag(dual widths)
    n = 2**18
    mesh = random_mesh(n, 18)
    f = sin_problem().f
    psi = builtin_affine() if scheme == "pg:affine" else builtin_spline()
    build = saddle_classical if scheme == "classical" else (
        lambda mesh, f: saddle_pg(mesh, moments(psi), f))
    tracemalloc.start()
    try:
        sol = solve_fv(mesh, f) if scheme == "fv" else solve_mixed(build(mesh, f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * n
    system = build(mesh, f)
    assert residual(system, sol) <= RESIDUAL_RTOL * max(1.0, np.abs(system.rhs_cells).max())


def test_fv_solves_cell_system_at_large_n():
    # fv no longer factors assemble_fv's A; its u still solves A u = b to a
    # backward error of rounding size (measured <= 8.9e-15 over 10 seeds)
    for seed in range(3):
        mesh = random_mesh(2**16, seed)
        f = sin_problem().f
        u = solve_fv(mesh, f).u_cells
        A, b = assemble_fv(mesh, f)
        scale = band_matvec(np.abs(A.lower), A.diag, np.abs(A.upper), np.abs(u))
        assert np.abs(band_matvec(A.lower, A.diag, A.upper, u) - b).max() <= 1e-13 * scale.max()


# (n, m1, m0) in [-1, 1]^2 that the Schur gate mostly accepts: |m0| <= 0.9 m1
# makes M definite on any mesh; m0 < -m1 makes it indefinite with m_psi < 0,
# which the gate accepts on one or two cells and mostly on three
DEFINITE_MASS = st.tuples(st.integers(1, 60), st.floats(0.05, 1.0)).flatmap(
    lambda nm: st.tuples(st.just(nm[0]), st.just(nm[1]),
                         st.floats(max(-0.9 * nm[1], 0.05 - nm[1]), 0.9 * nm[1])))
INDEFINITE_MASS = st.tuples(st.integers(1, 3), st.floats(0.0, 0.95)).flatmap(
    lambda nm: st.tuples(st.just(nm[0]), st.just(nm[1]), st.floats(-1.0, -nm[1] - 0.05)))


@settings(max_examples=40)
@given(case=st.one_of(DEFINITE_MASS, INDEFINITE_MASS), seed=st.integers(0, 2**16))
def test_property_mixed_gradient_matches_fv(case, seed):
    # every mass row sums to 2 m_psi times the dual width, so with g = 0 the
    # pair drops out of p: every table the Schur gate accepts gives the fv
    # gradient bit for bit
    n, m1, m0 = case
    mesh = random_mesh(n, seed)
    f = sin_problem().f
    table = MomentTable(m_psi=m1 + m0, m1=m1, m0=m0, s=1.0, c=0.0, sd=1.0, cd=0.0)
    system = saddle_pg(mesh, table, f)
    try:
        sol = solve_mixed(system)
    except SolverError:
        assume(False)
    fv = solve_fv(mesh, f)
    assert np.array_equal(sol.p_nodes, fv.p_nodes)
    assert residual(system, sol) <= 1e-13 * max(1.0, np.abs(system.rhs_cells).max())


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
