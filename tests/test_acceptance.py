"""Acceptance gate: the target behaviours of the package, pinned end to end.

Each test covers one numbered criterion, enforces the stated tolerance, and
prints a single summary line (run with ``-s`` to see the lines for passing
tests).  Runtime budgets are asserted with ``time.perf_counter`` around the
computational section only.

Criterion 9 is split into its three clauses (ratio / decay window / witness
bound).  The decay-window clause is expected to fail: the measured inf-sup
constant of the perturbed family decays like n^-1, faster than the
window [-0.7, -0.3] built from the one-sided witness bound 2/sqrt(n*eps).
The failure message carries the full numerical analysis.
"""

import time

import numpy as np

from fvpg1d import (RegularFamilySpec, build_random_regular, build_uniform,
                    builtin_affine, builtin_spline, convergence_study,
                    design_cubic, discrete_norm_q, gauss_legendre,
                    infsup_constant, infsup_witness_sup, interp_p0, interp_p1,
                    loglog_slope, moments, perturbed_family, saddle_pg,
                    sin_problem, solve_fv, solve_mixed, stability_constants,
                    assemble_fv, assemble_mass_pg)

from oracles import oracle_infsup

N_CYCLE = (4, 8, 16, 32, 64, 128)


def _report(num, ok, detail, elapsed, budget):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail} ({elapsed:.2f} s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, (
        f"criterion {num} exceeded its {budget:g} s budget: {elapsed:.2f} s")


def _rel(x, ref):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    return float(np.max(np.abs(x - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def test_criterion_01_pg_mass_diagonal_on_regular_meshes():
    """Spline weighting: cross mass is the dual-width diagonal on 50 meshes."""
    t0 = time.perf_counter()
    m = moments(builtin_spline())
    worst_off = worst_diag = 0.0
    for i in range(50):
        mesh = build_random_regular(
            RegularFamilySpec(0.5, 2.0, N_CYCLE[i % 6], seed=i))
        M = assemble_mass_pg(mesh, m)
        worst_off = max(worst_off, float(np.max(np.abs(M.lower))),
                        float(np.max(np.abs(M.upper))))
        worst_diag = max(worst_diag, float(np.max(np.abs(M.diag - mesh.dual_widths))))
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-13 and worst_diag <= 1e-13
    _report("01", ok,
            f"max off-diagonal {worst_off:.2e}, max |diag - dual width| "
            f"{worst_diag:.2e} over 50 regular meshes (tol 1e-13)",
            elapsed, budget=1.0)


def test_criterion_02_design_cubic_coefficients():
    """The moment conditions pin the cubic 30x^2 - 9x - 20x^3 exactly."""
    t0 = time.perf_counter()
    coeffs = np.array(design_cubic().coefficients)
    err = float(np.max(np.abs(coeffs - np.array([0.0, -9.0, 30.0, -20.0]))))
    elapsed = time.perf_counter() - t0
    _report("02", err <= 1e-13,
            f"design_cubic -> {coeffs.tolist()}, max deviation {err:.2e} (tol 1e-13)",
            elapsed, budget=1.0)


def test_criterion_03_pg_equals_fv():
    """Diagonal-mass weightings reproduce the finite-volume solution."""
    t0 = time.perf_counter()
    prob = sin_problem()
    fams = [builtin_spline(), perturbed_family(0.5), perturbed_family(1.0)]
    tables = [moments(psi) for psi in fams]
    worst = 0.0
    for i in range(20):
        mesh = build_random_regular(
            RegularFamilySpec(0.5, 2.0, N_CYCLE[i % 6], seed=100 + i))
        fv = solve_fv(mesh, prob.f)
        for m in tables:
            pg = solve_mixed(saddle_pg(mesh, m, prob.f))
            worst = max(worst,
                        float(np.max(np.abs(pg.u_cells - fv.u_cells))),
                        float(np.max(np.abs(pg.p_nodes - fv.p_nodes))))
    elapsed = time.perf_counter() - t0
    _report("03", worst <= 1e-10,
            f"max |pg - fv| {worst:.2e} over 20 regular meshes x 3 weightings "
            f"(tol 1e-10)", elapsed, budget=2.0)


def test_criterion_04_uniform_fv_stencil():
    """Eliminated cell system on uniform meshes, exact to rounding.

    The dimensionally consistent pairing is asserted: interior rows
    (-1, 2, -1)/h with cell loads int f — equivalently the same rows and
    loads both scaled by 1/h — with boundary diagonal 3/h from the halved
    dual widths (a single cell gives 4u = int f).
    """
    t0 = time.perf_counter()
    prob = sin_problem()
    worst = 0.0
    for n in (1, 2, 8, 33):
        mesh = build_uniform(n)
        A, b = assemble_fv(mesh, prob.f)
        h = 1.0 / n
        ref_diag = np.full(n, 2.0 / h)
        ref_diag[0] += 1.0 / h
        ref_diag[-1] += 1.0 / h
        ref_b = np.diff(prob.f.antiderivative(mesh.vertices))
        checks = [_rel(A.diag, ref_diag), _rel(b, ref_b),
                  _rel(A.diag / h, ref_diag / h), _rel(b / h, ref_b / h)]
        if n > 1:
            ref_off = np.full(n - 1, -1.0 / h)
            checks += [_rel(A.lower, ref_off), _rel(A.upper, ref_off),
                       _rel(A.lower / h, ref_off / h)]
        if n == 1:
            checks.append(_rel(A.diag, [4.0]))
        worst = max(worst, *checks)
    elapsed = time.perf_counter() - t0
    _report("04", worst <= 1e-14,
            f"interior rows (-1,2,-1)/h with loads int f, boundary diagonal 3/h, "
            f"single cell 4u = int f; max relative deviation {worst:.2e} (tol 1e-14)",
            elapsed, budget=1.0)


def test_criterion_05_norm_equivalence():
    """(3/2) delta ||q~||^2 <= ||q||^2 <= 12 delta~ ||q~||^2, 1000 vectors."""
    t0 = time.perf_counter()
    fams = [(moments(builtin_affine()), 1.0 / 6.0, 1.0 / 3.0),
            (moments(builtin_spline()), 0.5, 8.0 / 7.0)]
    m_p1 = moments(builtin_affine())
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for i in range(10):
        mesh = build_random_regular(
            RegularFamilySpec(0.5, 2.0, N_CYCLE[i % 6], seed=200 + i))
        for q in rng.normal(size=(100, mesh.n + 1)):
            p1_sq = discrete_norm_q(mesh, m_p1, q)[0] ** 2
            for m, delta, delta_tilde in fams:
                psi_sq = discrete_norm_q(mesh, m, q)[0] ** 2
                lo = 1.5 * delta * p1_sq
                hi = 12.0 * delta_tilde * p1_sq
                scale = max(psi_sq, hi)
                worst = max(worst, (lo - psi_sq) / scale, (psi_sq - hi) / scale)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and count == 1000
    _report("05", ok,
            f"worst relative violation {worst:.2e} over {count} vectors, affine "
            f"(delta 1/6, delta~ 1/3) and spline (1/2, 8/7) weightings (tol 1e-12)",
            elapsed, budget=1.0)


def _convergence_slopes(columns):
    slopes = {}
    for family in ("uniform", "regular"):
        table = convergence_study(sin_problem(), (8, 16, 32, 64, 128, 256),
                                  scheme="pg", psi=builtin_spline(),
                                  family=family, seed=11)
        h = table.column("h_max")
        combined = sum(table.column(name) for name in columns)
        slopes[family] = loglog_slope(h, combined)
    return slopes


def test_criterion_06_first_order_graph_norm():
    """err_u_l2 + err_p_h1 decays at least first order for the stable family."""
    t0 = time.perf_counter()
    slopes = _convergence_slopes(("err_u_l2", "err_p_h1"))
    elapsed = time.perf_counter() - t0
    ok = all(s >= 0.9 for s in slopes.values())
    _report("06", ok,
            "fitted slope of err_u_l2 + err_p_h1: "
            + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
            + " (floor 0.9, n = 8..256)", elapsed, budget=10.0)


def test_criterion_07_first_order_l2():
    """err_u_l2 + err_p_l2 decays at least first order as well."""
    t0 = time.perf_counter()
    slopes = _convergence_slopes(("err_u_l2", "err_p_l2"))
    elapsed = time.perf_counter() - t0
    ok = all(s >= 0.9 for s in slopes.values())
    _report("07", ok,
            "fitted slope of err_u_l2 + err_p_l2: "
            + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
            + " (floor 0.9, n = 8..256)", elapsed, budget=10.0)


def test_criterion_08_interpolation_orders():
    """Cell-average and nodal interpolation errors decay at first order."""
    t0 = time.perf_counter()
    pi = np.pi
    v = lambda x: np.sin(pi * x)
    v_anti = lambda x: -np.cos(pi * x) / pi
    q = lambda x: np.cos(pi * x)
    dq = lambda x: -pi * np.sin(pi * x)
    x8, w8 = gauss_legendre(8)
    hs, e_avg, e_nod_h1, e_nod_l2 = [], [], [], []
    for n in (8, 16, 32, 64, 128, 256):
        mesh = build_uniform(n)
        h = mesh.cell_widths
        pts = mesh.vertices[:-1, None] + h[:, None] * x8[None, :]
        vbar = interp_p0(mesh, v, antiderivative=v_anti)
        err_avg_sq = float(np.sum(((v(pts) - vbar[:, None]) ** 2 @ w8) * h))
        qn = interp_p1(mesh, q)
        q_lin = qn[:-1, None] * (1.0 - x8)[None, :] + qn[1:, None] * x8[None, :]
        err_l2_sq = float(np.sum(((q(pts) - q_lin) ** 2 @ w8) * h))
        slopes = np.diff(qn) / h
        err_h1_sq = err_l2_sq + float(np.sum(((dq(pts) - slopes[:, None]) ** 2 @ w8) * h))
        hs.append(mesh.h_max)
        e_avg.append(np.sqrt(err_avg_sq))
        e_nod_h1.append(np.sqrt(err_h1_sq))
        e_nod_l2.append(np.sqrt(err_l2_sq))
    s_avg = loglog_slope(hs, e_avg)
    s_h1 = loglog_slope(hs, e_nod_h1)
    s_l2 = loglog_slope(hs, e_nod_l2)
    elapsed = time.perf_counter() - t0
    ok = min(s_avg, s_h1, s_l2) >= 0.9
    _report("08", ok,
            f"slopes: cell-average L2 {s_avg:.3f}, nodal H1 {s_h1:.3f}, "
            f"nodal L2 {s_l2:.3f} for sin/cos(pi x), n = 8..256 (floor 0.9)",
            elapsed, budget=5.0)


NS_UNSTABLE = (8, 16, 32, 64, 128)


def _unstable_sweep():
    m = moments(perturbed_family(1.0))
    deltas = np.array([infsup_constant(build_uniform(n), m).delta_T
                       for n in NS_UNSTABLE])
    return m, deltas


def test_criterion_09a_unstable_ratio():
    """Perturbed weighting (c = 1): the inf-sup constant collapses with n."""
    t0 = time.perf_counter()
    _, deltas = _unstable_sweep()
    ratio = float(deltas[-1] / deltas[0])
    elapsed = time.perf_counter() - t0
    _report("09a", ratio < 0.5,
            f"delta_T(128)/delta_T(8) = {ratio:.4f} (< 0.5 required)",
            elapsed, budget=30.0)


def test_criterion_09b_unstable_decay_window():
    """Fitted decay rate of delta_T vs n inside [-0.7, -0.3].

    Expected to fail: the window matches the n^-1/2 decay of the one-sided
    witness bound, but the measured constant decays a full order faster.
    """
    t0 = time.perf_counter()
    m, deltas = _unstable_sweep()
    slope = loglog_slope(NS_UNSTABLE, deltas)
    eps = stability_constants(m).epsilon
    witness = [infsup_witness_sup(build_uniform(n), m) for n in NS_UNSTABLE]
    witness_slope = loglog_slope(NS_UNSTABLE, witness)
    predicted = 1.0 / (NS_UNSTABLE[-1] * np.sqrt(2.0 * eps))
    elapsed = time.perf_counter() - t0
    ok = -0.7 <= slope <= -0.3
    _report("09b", ok,
            f"fitted slope of delta_T vs n is {slope:.3f}, asserted window "
            f"[-0.7, -0.3]. The window reflects the n^-0.5 decay of the witness "
            f"bound 2/sqrt(n*eps), but that bound is one-sided and not attained: "
            f"the worst trial direction is the constant-gradient field "
            f"(u = 0, p = const), whose best normalized test response scales "
            f"like 1/(n*sqrt(2*eps)) — first-order decay "
            f"(predicted {predicted:.3e} vs measured {deltas[-1]:.3e} at n = 128). "
            f"The witness supremum itself decays at slope {witness_slope:.2f}, "
            f"inside the window; the ratio and witness clauses of this criterion "
            f"hold (see the 09a and 09c lines)",
            elapsed, budget=30.0)


def test_criterion_09c_witness_bound():
    """The unit trial pair (u = 1, p = 0) obeys the 2/sqrt(n*eps) ceiling."""
    t0 = time.perf_counter()
    m, _ = _unstable_sweep()
    eps = stability_constants(m).epsilon
    worst_ratio = 0.0
    for n in NS_UNSTABLE:
        sup = infsup_witness_sup(build_uniform(n), m)
        worst_ratio = max(worst_ratio, sup / (2.0 / np.sqrt(n * eps)))
    elapsed = time.perf_counter() - t0
    _report("09c", worst_ratio <= 1.01,
            f"max witness-sup / bound ratio {worst_ratio:.3f} "
            f"(must stay within factor 1.01 of 2/sqrt(n*eps))",
            elapsed, budget=30.0)


def test_criterion_10_stable_floor():
    """Spline weighting keeps a uniform positive inf-sup floor."""
    t0 = time.perf_counter()
    m = moments(builtin_spline())
    ns = (4, 8, 16, 32, 64, 128)
    deltas = np.array([infsup_constant(build_uniform(n), m).delta_T for n in ns])
    elapsed = time.perf_counter() - t0
    ok = float(deltas.min()) >= 0.5 * float(deltas[0])
    _report("10", ok,
            f"min delta_T {deltas.min():.6f} vs 0.5 x delta_T(4) = "
            f"{0.5 * deltas[0]:.6f}; measured floor {deltas.min():.6f} over "
            f"n = 4..128 (no decay)", elapsed, budget=30.0)


def test_criterion_11_oracle_equivalence():
    """The banded inf-sup estimator matches a from-scratch quadrature oracle."""
    t0 = time.perf_counter()
    families = {
        "affine": [1.0, 0.0],
        "spline": [-20.0, 30.0, -9.0, 0.0],
        "perturbed:1": [-5.0, -10.0, 24.0, -8.0, 0.0],
    }
    tables = {"affine": moments(builtin_affine()),
              "spline": moments(builtin_spline()),
              "perturbed:1": moments(perturbed_family(1.0))}
    worst = 0.0
    for name, rev in families.items():
        drev = np.polyder(np.array(rev))
        for n in (2, 4, 8):
            for mesh in (build_uniform(n),
                         build_random_regular(RegularFamilySpec(0.5, 2.0, n, 42))):
                mine = infsup_constant(mesh, tables[name]).delta_T
                ref = oracle_infsup(mesh.vertices,
                                    lambda t: np.polyval(rev, t),
                                    lambda t: np.polyval(drev, t))
                worst = max(worst, abs(mine - ref))
    elapsed = time.perf_counter() - t0
    _report("11", worst <= 1e-8,
            f"max |estimator - oracle| {worst:.2e} over 3 weightings x "
            f"n in (2, 4, 8) x (uniform, regular) (tol 1e-8)",
            elapsed, budget=1.0)
