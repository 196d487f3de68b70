import ast
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fvpg1d
from fvpg1d import (ConvergenceTable, ErrorReport, ManufacturedProblem, MomentTable,
                    RegularFamilySpec, SolverError, SourceFunction, build_random_regular,
                    build_uniform, builtin_affine, builtin_spline,
                    convergence_study, discrete_norm_q, error_norms, fit_rate,
                    get_problem, infsup_constant, infsup_sweep,
                    infsup_witness_sup, interp_p0, interp_p1, loglog_slope,
                    mesh_sequence, moments, perturbed_family,
                    quadratic_problem, run_scheme, sin_problem,
                    stability_constants, solve_fv, zero_problem)
from fvpg1d.assembly import QUAD_BLOCK, cell_gauss_rule, gauss_legendre

from oracles import (dense_infsup, dense_witness_sup, gauss_cell_sums, gram_is_pd,
                     infsup_limit, longdouble_witness_sup, psi_moments_exact, simpson,
                     squared_errors, uniform_infsup, uniform_witness_sup)


def random_mesh(n, seed):
    return build_random_regular(RegularFamilySpec(0.5, 2.0, n, seed))


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sin", "quadratic", "zero"])
def test_problem_self_consistency(name):
    prob = get_problem(name)
    assert abs(float(prob.u_exact(0.0))) < 1e-12
    assert abs(float(prob.u_exact(1.0))) < 1e-12
    # p = u' and (antiderivative of f)' = f, via centred differences
    x = np.linspace(0.1, 0.9, 9)
    eps = 1e-6
    du = (prob.u_exact(x + eps) - prob.u_exact(x - eps)) / (2 * eps)
    np.testing.assert_allclose(du, prob.p_exact(x), rtol=0, atol=1e-8)
    if prob.f.antiderivative is not None:
        dF = (prob.f.antiderivative(x + eps) - prob.f.antiderivative(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dF, np.broadcast_to(prob.f.f(x), x.shape),
                                   rtol=0, atol=1e-6)
    # -u'' = f via second differences
    d2u = (prob.u_exact(x + eps) - 2.0 * prob.u_exact(x) + prob.u_exact(x - eps)) / eps**2
    np.testing.assert_allclose(-d2u, np.broadcast_to(prob.f.f(x), x.shape),
                               rtol=0, atol=1e-3)


def test_get_problem_unknown():
    with pytest.raises(ValueError):
        get_problem("cubic")


def test_manufactured_problem_endpoint_validation():
    with pytest.raises(ValueError):
        ManufacturedProblem(name="bad", u_exact=lambda x: np.asarray(x),
                            p_exact=lambda x: np.ones_like(np.asarray(x)),
                            f=SourceFunction(f=lambda x: np.zeros_like(np.asarray(x))))


# ---------------------------------------------------------------------------
# interpolation operators
# ---------------------------------------------------------------------------

def test_interp_p0_exact_cell_averages():
    mesh = random_mesh(7, 21)
    pi = np.pi
    vals = interp_p0(mesh, lambda x: np.sin(pi * x),
                     antiderivative=lambda x: -np.cos(pi * x) / pi)
    for j in range(mesh.n):
        ref = simpson(lambda x: np.sin(pi * x), mesh.vertices[j],
                      mesh.vertices[j + 1], 200) / mesh.cell_widths[j]
        assert abs(vals[j] - ref) < 1e-10


def test_interp_p0_quadrature_matches_antiderivative():
    mesh = random_mesh(9, 22)
    pi = np.pi
    a = interp_p0(mesh, lambda x: np.sin(pi * x),
                  antiderivative=lambda x: -np.cos(pi * x) / pi)
    b = interp_p0(mesh, lambda x: np.sin(pi * x), quad_order=8)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_interp_p1_is_vertex_sampling():
    mesh = build_uniform(6)
    vals = interp_p1(mesh, lambda x: np.cos(np.pi * x))
    np.testing.assert_allclose(vals, np.cos(np.pi * mesh.vertices), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def test_error_norms_zero_problem():
    mesh = build_uniform(8)
    report = error_norms(solve_fv(mesh, zero_problem().f), zero_problem())
    assert report.err_u_l2 < 1e-14
    assert report.err_p_l2 < 1e-14
    assert report.err_p_h1 < 1e-14
    assert report.n == 8
    assert report.h_max == mesh.h_max


def test_error_norms_quadratic_gradient_exact():
    mesh = random_mesh(12, 23)
    report = error_norms(solve_fv(mesh, quadratic_problem().f), quadratic_problem())
    # vertex gradient and its slopes reproduce the affine exact gradient
    assert report.err_p_l2 < 1e-12
    assert report.err_p_h1 < 1e-12
    assert report.err_u_l2 > 1e-4  # cell constants cannot represent x(1-x)
    assert report.err_u_l2 < mesh.h_max


def test_error_norms_u_error_against_simpson():
    mesh = build_uniform(5)
    prob = sin_problem()
    sol = solve_fv(mesh, prob.f)
    report = error_norms(sol, prob)
    acc = 0.0
    for j in range(mesh.n):
        uj = sol.u_cells[j]
        acc += simpson(lambda x: (np.sin(np.pi * x) - uj) ** 2,
                       mesh.vertices[j], mesh.vertices[j + 1], 200)
    assert abs(report.err_u_l2 - np.sqrt(acc)) < 1e-10


# ---------------------------------------------------------------------------
# convergence tables and rate fitting
# ---------------------------------------------------------------------------

# either side of every block edge of the quadrature
QUAD_SIZES = (1, QUAD_BLOCK - 1, QUAD_BLOCK, QUAD_BLOCK + 1, 3 * QUAD_BLOCK + 5)


@pytest.mark.parametrize("name", ["sin", "quadratic"])
def test_error_norms_match_unfused_reference_exactly(name):
    # blocks and in-place squaring keep each cell's arithmetic: the unblocked
    # oracle's bits, not a tolerance
    problem = get_problem(name)
    for n in (2, 7) + QUAD_SIZES:
        for mesh in (build_uniform(n), random_mesh(n, n)):
            for scheme, order in (("fv", 1), ("classical", 3), ("fv", 8), ("classical", 16),
                                  ("fv", 32)):
                sol = run_scheme(mesh, problem, scheme, quad_order=order)
                u_sq, p_sq, div_sq = squared_errors(mesh.vertices, sol.u_cells, sol.p_nodes,
                                                    problem.u_exact, problem.p_exact,
                                                    problem.f.f, order)
                report = error_norms(sol, problem, order)
                assert report.err_u_l2 == np.sqrt(u_sq)
                assert report.err_p_l2 == np.sqrt(p_sq)
                assert report.err_p_h1 == np.sqrt(p_sq + div_sq)


@pytest.mark.parametrize("order", [1, 3, 8, 16, 32])
def test_cell_sums_match_unblocked_reference_exactly(order):
    # bare-callable loads and cell averages take the same blocked sums
    f = sin_problem().f.f
    bare = SourceFunction(f)
    for n in QUAD_SIZES:
        for mesh in (build_uniform(n), random_mesh(n, n)):
            sums = gauss_cell_sums(mesh.vertices, f, order)
            np.testing.assert_array_equal(bare.cell_integrals(mesh, order),
                                          mesh.cell_widths * sums)
            np.testing.assert_array_equal(interp_p0(mesh, f, order), sums)


@pytest.mark.parametrize("block", [1, 7, 5000])
def test_cell_sums_do_not_depend_on_block_size(monkeypatch, block):
    mesh = random_mesh(1000, 4)
    problem = sin_problem()
    sol = solve_fv(mesh, problem.f)
    expected = error_norms(sol, problem, 3), interp_p0(mesh, problem.p_exact, 3)
    monkeypatch.setattr(fvpg1d.assembly, "QUAD_BLOCK", block)
    got = error_norms(sol, problem, 3), interp_p0(mesh, problem.p_exact, 3)
    assert got[0] == expected[0]
    np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("order", [1, 3, 8, 16, 32])
def test_cell_sums_within_4_eps_of_longdouble(order):
    # a product and a pairwise sum of positive terms: at most
    # ceil(log2(order)) + 1 roundings of eps/2 each, 3 eps at order 32
    mesh = random_mesh(3 * QUAD_BLOCK + 5, 5)
    fn = lambda x: np.exp(np.sin(7.0 * x))
    got = cell_gauss_rule(mesh, order, lambda at, x, cells: (at(fn),))[0]
    x, w = gauss_legendre(order)
    pts = mesh.vertices[:-1, None] + mesh.cell_widths[:, None] * x[None, :]
    ref = (fn(pts).astype(np.longdouble) * w.astype(np.longdouble)).sum(axis=1)
    rel = np.abs(got.astype(np.longdouble) - ref) / ref
    assert float(rel.max()) <= 4 * np.finfo(float).eps


def test_error_norms_memory_is_three_cell_arrays_plus_blocks():
    # the (n, order) point arrays are gone: three per-cell sums plus a few
    # (order, QUAD_BLOCK) arrays, whatever n is
    n = 2**18
    problem = sin_problem()
    sol = solve_fv(random_mesh(n, 18), problem.f)
    for order in (8, 32):
        tracemalloc.start()
        try:
            error_norms(sol, problem, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 10 * 8 * order * QUAD_BLOCK


def test_loglog_slope_recovers_powers():
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    assert abs(loglog_slope(h, h**2) - 2.0) < 1e-12
    assert abs(loglog_slope(h, 3.0 * h) - 1.0) < 1e-12
    assert np.isfinite(loglog_slope(h, np.zeros(4)))  # floored, no crash


def test_convergence_table_sorting_and_columns():
    rows = [ErrorReport(1.0, 1.0, 1.0, h_max=1.0 / n, n=n) for n in (32, 8, 16)]
    table = ConvergenceTable(rows)
    np.testing.assert_array_equal(table.column("n"), [8, 16, 32])
    assert table.column("h_max")[0] == 0.125


def test_fit_rate_validation():
    rows2 = [ErrorReport(1.0, 1.0, 1.0, 0.5, 2), ErrorReport(0.5, 0.5, 0.5, 0.25, 4)]
    with pytest.raises(ValueError):
        fit_rate(ConvergenceTable(rows2))
    dup = [ErrorReport(1.0, 1.0, 1.0, 0.5, 2), ErrorReport(0.5, 0.5, 0.5, 0.5, 3),
           ErrorReport(0.25, 0.25, 0.25, 0.125, 8)]
    with pytest.raises(ValueError):
        fit_rate(ConvergenceTable(dup))


def test_convergence_study_fv_first_order():
    table = convergence_study(sin_problem(), [8, 16, 32, 64], scheme="fv")
    slopes = fit_rate(table)
    assert slopes["err_u_l2"] > 0.9
    assert slopes["err_p_h1"] > 0.9


def test_convergence_study_schemes_match():
    t_fv = convergence_study(sin_problem(), [8, 16, 32], scheme="fv")
    t_pg = convergence_study(sin_problem(), [8, 16, 32], scheme="pg",
                             psi=builtin_spline())
    np.testing.assert_allclose(t_fv.column("err_u_l2"), t_pg.column("err_u_l2"),
                               rtol=1e-8, atol=1e-14)


# ---------------------------------------------------------------------------
# discrete norms in the psi basis
# ---------------------------------------------------------------------------

def test_discrete_norm_shape_validation():
    with pytest.raises(ValueError):
        discrete_norm_q(build_uniform(4), moments(builtin_spline()), np.zeros(4))


def test_discrete_norm_affine_is_p1_norm():
    mesh = random_mesh(6, 24)
    rng = np.random.default_rng(1)
    q = rng.normal(size=mesh.n + 1)
    l2, h1 = discrete_norm_q(mesh, moments(builtin_affine()), q)
    acc_l2 = acc_h1 = 0.0
    for j in range(mesh.n):
        a, b = q[j], q[j + 1]
        xl, xr = mesh.vertices[j], mesh.vertices[j + 1]
        h = mesh.cell_widths[j]
        acc_l2 += simpson(lambda x: (a * (xr - x) / h + b * (x - xl) / h) ** 2, xl, xr, 64)
        acc_h1 += ((b - a) / h) ** 2 * h
    assert abs(l2 - np.sqrt(acc_l2)) < 1e-10
    assert abs(h1 - np.sqrt(acc_h1)) < 1e-12


def test_discrete_norm_spline_against_quadrature():
    mesh = random_mesh(5, 25)
    psi = builtin_spline()
    rev = list(psi.coefficients[::-1])
    f = lambda t: np.polyval(rev, t)
    rng = np.random.default_rng(2)
    q = rng.normal(size=mesh.n + 1)
    l2, _ = discrete_norm_q(mesh, moments(psi), q)
    acc = 0.0
    for j in range(mesh.n):
        a, b = q[j], q[j + 1]
        h = mesh.cell_widths[j]
        acc += h * simpson(lambda t: (a * f(1.0 - t) + b * f(t)) ** 2, 0.0, 1.0, 512)
    assert abs(l2 - np.sqrt(acc)) < 1e-9


def test_discrete_norm_constant_field_h1():
    # under the reflection identity a constant-coefficient field is constant,
    # so its gradient seminorm vanishes; breaking the identity leaves
    # kappa * n * sqrt(2 * epsilon) on a uniform mesh
    n, kappa = 16, 1.0
    mesh = build_uniform(n)
    ones = np.full(n + 1, kappa)
    _, h1_spline = discrete_norm_q(mesh, moments(builtin_spline()), ones)
    assert h1_spline < 1e-6
    m = moments(perturbed_family(1.0))
    eps = stability_constants(m).epsilon
    _, h1_pert = discrete_norm_q(mesh, m, ones)
    assert abs(h1_pert - kappa * n * np.sqrt(2.0 * eps)) < 1e-10


@pytest.mark.parametrize("name", ["affine", "spline"])
def test_discrete_norm_h1_keeps_digits_at_large_n(name):
    # under the reflection identity the seminorm is sqrt((sd + cd)/2) times the
    # P1 one; summing sd (q_j^2 + q_{j+1}^2) - 2 cd q_j q_{j+1} instead loses
    # 7.3e-9 (affine) and 2.6e-8 (spline) here to cancelling 1/h terms
    mesh = build_uniform(2 ** 20)
    q = np.sin(np.pi * mesh.vertices)
    psi = {"affine": builtin_affine, "spline": builtin_spline}[name]()
    exact = psi_moments_exact(psi.coefficients)
    ref = np.sqrt(float((exact["sd"] + exact["cd"]) / 2)
                  * np.sum(np.diff(q) ** 2 / mesh.cell_widths))
    _, h1 = discrete_norm_q(mesh, moments(psi), q)
    assert abs(h1 - ref) <= 1e-13 * ref


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(0, 2**16),
    vec_seed=st.integers(0, 2**16),
)
def test_property_norm_bounds_spline(n, seed, vec_seed):
    # psi-norm of a nodal field vs the hat-basis norm of the same coefficients
    mesh = random_mesh(n, seed)
    q = np.random.default_rng(vec_seed).normal(size=n + 1)
    m = moments(builtin_spline())
    constants = stability_constants(m)
    l2_psi, _ = discrete_norm_q(mesh, m, q)
    l2_p1, _ = discrete_norm_q(mesh, moments(builtin_affine()), q)
    lhs = 1.5 * constants.delta * l2_p1**2
    rhs = 12.0 * constants.delta_tilde * l2_p1**2
    assert lhs <= l2_psi**2 * (1.0 + 1e-12) + 1e-300
    assert l2_psi**2 <= rhs * (1.0 + 1e-12) + 1e-300


@settings(max_examples=40)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 2**16))
def test_property_norm_lower_bounds(n, seed):
    # cellwise: s(a^2+b^2) + 2c ab >= (s - |c|)(a^2 + b^2), likewise for sd, cd
    mesh = random_mesh(n, seed)
    q = np.random.default_rng(seed + 1).normal(size=n + 1)
    m = moments(perturbed_family(1.0))
    l2, h1 = discrete_norm_q(mesh, m, q)
    h = mesh.cell_widths
    pair = q[:-1] ** 2 + q[1:] ** 2
    floor_l2 = (m.s - abs(m.c)) * float(np.sum(h * pair))
    floor_h1 = (m.sd - abs(m.cd)) * float(np.sum(pair / h))
    assert l2**2 >= floor_l2 * (1.0 - 1e-12) - 1e-300
    assert h1**2 >= floor_h1 * (1.0 - 1e-12) - 1e-300


# ---------------------------------------------------------------------------
# inf-sup estimator
# ---------------------------------------------------------------------------

def test_infsup_affine_uniform_floor():
    # measured floor of the classical mixed pairing; regression window
    for n in (8, 32):
        r = infsup_constant(build_uniform(n), moments(builtin_affine()))
        assert 0.85 < r.delta_T < 0.95


def test_infsup_spline_uniform_floor():
    for n in (8, 64):
        r = infsup_constant(build_uniform(n), moments(builtin_spline()))
        assert 0.20 < r.delta_T < 0.23


def test_infsup_perturbed_decays():
    m = moments(perturbed_family(1.0))
    d8 = infsup_constant(build_uniform(8), m).delta_T
    d64 = infsup_constant(build_uniform(64), m).delta_T
    assert d64 < 0.3 * d8


def test_infsup_report_metadata():
    r = infsup_constant(build_uniform(4), moments(builtin_spline()),
                        psi_id="spline", mesh_id="uniform:n=4")
    assert r.n == 4 and r.psi_id == "spline" and r.mesh_id == "uniform:n=4"


def test_witness_sup_respects_bound():
    m = moments(perturbed_family(1.0))
    eps = stability_constants(m).epsilon
    for n in (8, 32, 128):
        sup = infsup_witness_sup(build_uniform(n), m)
        bound = 2.0 / np.sqrt(n * eps)
        assert sup <= bound * (1.0 + 1e-12)
        assert sup > 0.05 * bound  # non-degenerate


def test_infsup_degenerate_psi_raises():
    # psi = 0 has a singular test Gram matrix
    from fvpg1d import WeightingFunction
    zero = WeightingFunction.from_coefficients([0.0])
    with pytest.raises(ValueError):
        infsup_constant(build_uniform(4), moments(zero))


def test_infsup_rejects_non_finite_moments():
    # the table refuses NaN and inf itself, so no estimator ever sees them
    with pytest.raises(ValueError, match="weighting-function moments"):
        MomentTable(m_psi=np.nan, m1=np.nan, m0=np.nan, s=np.inf, c=0.0,
                    sd=1.0, cd=0.0)


def test_infsup_singular_coupling_is_zero():
    # a zero pg mass leaves [[0, B^t], [B, 0]], rank 2n: 1^t M 1 = 0
    table = MomentTable(m_psi=0.0, m1=0.0, m0=0.0, s=1.0, c=0.0, sd=1.0, cd=0.0)
    assert infsup_constant(build_uniform(4), table).delta_T == 0.0


def test_infsup_rounded_singular_coupling_is_zero():
    # psi = t - 1.5 t^2 has m_psi = 0 exactly, but m1 + m0 rounds to -5.6e-17;
    # within 1e-12 (|m1| + |m0|) of zero the coupling counts as singular
    m = moments(fvpg1d.WeightingFunction.from_coefficients([0.0, 1.0, -1.5]))
    assert m.m1 + m.m0 != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (4, 8, 64):
            assert infsup_constant(build_uniform(n), m).delta_T == 0.0
            assert infsup_constant(random_mesh(n, n), m).delta_T == 0.0


def test_infsup_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(fvpg1d.analysis, "INFSUP_MAXITER", 3)
    with pytest.raises(SolverError, match="did not converge"):
        infsup_constant(build_uniform(64), moments(builtin_spline()))


INFSUP_FAMILIES = {"spline": builtin_spline, "affine": builtin_affine,
                   "perturbed:1": lambda: perturbed_family(1.0),
                   # g = b - a < 0 on every cell: the two-ports carry a negative g
                   "poly:0,1,0,-1": lambda: fvpg1d.WeightingFunction.from_coefficients(
                       [0.0, 1.0, 0.0, -1.0])}


@pytest.mark.parametrize("name", sorted(INFSUP_FAMILIES))
def test_infsup_matches_dense_oracle(name):
    # banded Lanczos against the dense whitened SVD, the witness against the
    # long-double elimination, on uniform and regular meshes
    m = moments(INFSUP_FAMILIES[name]())
    eps = np.finfo(float).eps
    for n in (2, 3, 8, 64, 257, 512):
        for mesh in (build_uniform(n), random_mesh(n, n)):
            ref = dense_infsup(mesh.vertices, m)
            assert abs(infsup_constant(mesh, m).delta_T - ref) <= 1e-10 * ref
            ref = longdouble_witness_sup(mesh.vertices, m)
            assert abs(infsup_witness_sup(mesh, m) - ref) <= 1e-14 * ref
            # the dense oracle factors the cancelling bands in float: its own
            # error grows like n^2 eps (0.27 n^2 eps at most here, 2.2e-12 for
            # affine on the uniform mesh at n = 512)
            assert abs(dense_witness_sup(mesh.vertices, m) - ref) <= n * n * eps * ref


@pytest.mark.parametrize("name", ["affine", "spline"])
def test_witness_matches_uniform_closed_form(name):
    m = moments(INFSUP_FAMILIES[name]())
    for k in range(23):
        ref = uniform_witness_sup(2 ** k, m)
        assert abs(infsup_witness_sup(build_uniform(2 ** k), m) - ref) <= 1e-14 * ref, k


def test_infsup_perturbed_law_at_large_n():
    # delta_T ~ 1/(n sqrt(2 eps)) on uniform meshes, pinned where the dense
    # estimator could not go
    m = moments(perturbed_family(1.0))
    n = 2 ** 14
    eps = stability_constants(m).epsilon
    delta = infsup_constant(build_uniform(n), m).delta_T
    assert abs(delta * n * np.sqrt(2.0 * eps) - 1.0) <= 1e-8


# psi = t + a t(1 - t)(1 - 2t): reflection-compatible, with m0 != 0
COMPATIBLE_PSI = {"spline": list(builtin_spline().coefficients), "affine": [0.0, 1.0]}
for _a in (0.7, -1.5, 3.0):
    COMPATIBLE_PSI[f"a={_a:g}"] = [0.0, 1.0 + _a, -3.0 * _a, 2.0 * _a]


@pytest.mark.parametrize("name", sorted(COMPATIBLE_PSI))
def test_infsup_matches_uniform_closed_form(name):
    # the Gram blocks applied cell by cell keep the lowest mode's digits; their
    # bands s h + sd/h and c h - cd/h lose up to 4.6e-7 (a = 0.7) at n = 10^5
    coeffs = COMPATIBLE_PSI[name]
    m = moments(fvpg1d.WeightingFunction.from_coefficients(coeffs))
    for n in (1, 2, 3, 4, 8, 33, 256, 4096, 10 ** 5):
        ref = uniform_infsup(n, coeffs)
        assert abs(infsup_constant(build_uniform(n), m).delta_T - ref) <= 1e-12 * ref, n


@pytest.mark.parametrize("name, limit", [("spline", 0.21763750890), ("affine", 0.90800033165),
                                         ("a=0.7", 0.88569439931)])
def test_infsup_limit_and_second_order_law(name, limit):
    # delta_T / delta_inf - 1 falls like n^-2: its constant (-0.0176 spline,
    # 0.0757 affine, 0.0804 for a = 0.7) is held within 1 % from n = 512 to
    # 32768, where delta_T itself sits 1.6e-11 from its limit for spline
    coeffs = COMPATIBLE_PSI[name]
    delta_inf = infsup_limit(coeffs)
    assert abs(delta_inf - limit) <= 1e-11
    m = moments(fvpg1d.WeightingFunction.from_coefficients(coeffs))
    law = [(infsup_constant(build_uniform(n), m).delta_T / delta_inf - 1.0) * n * n
           for n in (512, 4096, 32768)]
    assert all(abs(k / law[0] - 1.0) <= 1e-2 for k in law), law


def test_infsup_leaves_scipy_sparse_unimported(tmp_path):
    # structural guard on start-up cost, no timing: the CLI, psi-check, the
    # solve and converge commands of every scheme, the estimator and the
    # witness need neither scipy.linalg nor scipy.sparse
    code = ("import sys, fvpg1d, fvpg1d.cli\n"
            "assert fvpg1d.cli.main(['psi-check']) == 0\n"
            "assert fvpg1d.cli.main(['solve', '--scheme', 'fv', '--n', '64', '-o', 'fv.csv']) == 0\n"
            "assert fvpg1d.cli.main(['solve', '--scheme', 'pg', '--n', '64', '--compare',\n"
            "                        '-o', 'pg.csv']) == 0\n"
            "assert fvpg1d.cli.main(['converge', '--scheme', 'classical', '-o', 'cl.csv']) == 0\n"
            "mesh, m = fvpg1d.build_uniform(8), fvpg1d.moments(fvpg1d.builtin_spline())\n"
            "fvpg1d.infsup_constant(mesh, m)\n"
            "assert fvpg1d.infsup_witness_sup(mesh, m) > 0.0\n"
            "loaded = [name for name in ('scipy.linalg', 'scipy.sparse') if name in sys.modules]\n"
            "assert not loaded, loaded\n")
    path = [str(Path(fvpg1d.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_solver_and_estimator_never_read_mass_bands():
    # both read the mass block as (mesh, m1, m0): no band record, no band
    # product and no float row sums, so no arithmetic drifts back onto them
    banned = {"TriDiagonal", "assemble_mass_pg", "mass", "matvec", "row_sums"}
    found = []
    for name in ("solver.py", "analysis.py"):
        path = Path(fvpg1d.__file__).resolve().parent / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.name if isinstance(node, ast.alias) else None)
            if names in banned:
                found.append(f"{name}:{getattr(node, 'lineno', '?')} {names}")
    assert not found, found


def test_package_never_imports_scipy_linalg_or_sparse():
    # the static twin of the guard above, for every module and every branch
    banned = ("scipy.linalg", "scipy.sparse")
    found = []
    for path in sorted(Path(fvpg1d.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert not found, found


# psi = 0, 1, 1 - 2t, 2t - 1 and 0.9 (1 - 2t) + (1 - 2t)^3 give a singular
# Gram matrix (the last one a rounding-level positive a, not 0); the eta
# families are definite with a margin far above rounding
GRAM_PSI = {"0": [0.0], "1": [1.0], "1-2t": [1.0, -2.0], "2t-1": [-1.0, 2.0],
            "0.9(1-2t)+(1-2t)^3": [1.9, -7.8, 12.0, -8.0],
            "affine": [0.0, 1.0], "spline": [0.0, -9.0, 30.0, -20.0], "t^2": [0.0, 0.0, 1.0],
            "poly:0,1.7,-2.1,1.4": [0.0, 1.7, -2.1, 1.4],
            "perturbed:1": list(perturbed_family(1.0).coefficients)}
for _eta in (1e-2, 1e-4):
    GRAM_PSI[f"1+{_eta:g}t"] = [1.0, _eta]
    GRAM_PSI[f"1-2t+{_eta:g}t^2"] = [1.0, -2.0, _eta]
    GRAM_PSI[f"{_eta:g}"] = [_eta]
# tables built directly: one zero mode in the mass part, one in the stiffness
# part, and each with a small definite margin
GRAM_TABLES = [(1.0, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0),
               (0.0, 0.0, 1.0, -1.0), (1.0, 1.0 - 1e-6, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0 - 1e-6),
               (1.0, 1.0, 1.0, -1.0), (1.0, 0.0, 1.0, 0.0)]


def test_gram_definiteness_matches_dense_cholesky():
    tables = [moments(fvpg1d.WeightingFunction.from_coefficients(c)) for c in GRAM_PSI.values()]
    tables += [MomentTable(m_psi=0.0, m1=0.0, m0=0.0, s=s, c=c, sd=sd, cd=cd)
               for s, c, sd, cd in GRAM_TABLES]
    verdicts = set()
    for m in tables:
        for n in (1, 2, 3, 8, 64, 257):
            for mesh in (build_uniform(n), build_random_regular(RegularFamilySpec(0.1, 5.0, n, n))):
                try:
                    fvpg1d.analysis._gram_halves(mesh, m)
                    closed_form = True
                except ValueError as exc:
                    assert str(exc) == fvpg1d.analysis.DEGENERATE_GRAM
                    closed_form = False
                assert closed_form == gram_is_pd(mesh.vertices, m), (m, n)
                verdicts.add(closed_form)
    assert verdicts == {True, False}
    # definite, but too close to singular for the dense pivots to tell: its
    # min(a, b) is 4e-14 of the terms forming it, 200 times the rounding
    near = moments(fvpg1d.WeightingFunction.from_coefficients([1.0, -2.0, 1e-6]))
    for n in (1, 64, 4096):
        fvpg1d.analysis._gram_halves(build_uniform(n), near)


def test_gram_accepts_stable_psi_at_large_n():
    # the margin (s + c) h shrinks like 1/n while the 1/h terms grow like n:
    # checked on the moment combinations, spline and affine stay definite
    tables = [moments(builtin_spline()), moments(builtin_affine())]
    for n in (2 ** 20, 2 ** 22):
        for mesh in (build_uniform(n), build_random_regular(RegularFamilySpec(0.5, 2.0, n, 3))):
            for m in tables:
                fvpg1d.analysis._gram_halves(mesh, m)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_mesh_sequence_sorted_and_seeded():
    meshes = mesh_sequence([32, 8, 16], family="regular", seed=5)
    assert [m.n for m in meshes] == [8, 16, 32]
    again = mesh_sequence([8, 16, 32], family="regular", seed=5)
    for a, b in zip(meshes, again):
        np.testing.assert_array_equal(a.vertices, b.vertices)
    with pytest.raises(ValueError):
        mesh_sequence([4], family="chebyshev")


def test_run_scheme_validation():
    mesh = build_uniform(4)
    with pytest.raises(ValueError):
        run_scheme(mesh, sin_problem(), "pg")  # missing psi
    with pytest.raises(ValueError):
        run_scheme(mesh, sin_problem(), "spectral")


def test_infsup_sweep_labels():
    reports = infsup_sweep(builtin_spline(), [4, 8])
    assert [r.n for r in reports] == [4, 8]
    assert all(r.psi_id == "spline" for r in reports)
    assert reports[0].mesh_id == "uniform:n=4"
