"""Command-line front end.

Subcommands
    psi-check   evaluate the four weighting-function conditions and constants
    solve       solve one problem on one mesh, write cell/node tables
    converge    error sweep over a refinement sequence, fitted rates
    infsup      discrete inf-sup constant over a refinement sequence

Exit codes: 0 on success, 1 on usage/parse/solver errors, 2 when a requested
assertion (conditions, --compare, --assert-rate, --assert-stable,
--assert-unstable) fails.  CSV output is deterministic: 17 significant
digits, '.' decimal separator, one metadata JSON sidecar per file.  Plots are
delegated to emitted gnuplot scripts; nothing here draws.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import (ConvergenceTable, PROBLEM_NAMES, convergence_study,
                       error_norms, fit_rate, get_problem, infsup_sweep,
                       loglog_slope, run_scheme)
from .assembly import DEFAULT_QUAD_ORDER
from .mesh import RegularFamilySpec, build_random_regular, build_uniform
from .solver import SolverError, solve_fv
from .weighting import (WeightingFunction, builtin_affine, builtin_spline,
                        condition_report, moments, perturbed_family,
                        stability_constants)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSERT = 2

OUTDIR_ENV = "FVPG1D_OUTDIR"
COMPARE_TOL = 1e-10
MACHINE_LEVEL = 1e-12  # error columns below this count as converged
CONDITION_NAMES = ("localization", "orthogonality", "fv_compat", "interp_compat")
CSV_BLOCK = 1024  # rows formatted and written at a time by _write_solve_csv


def parse_psi(text: str) -> WeightingFunction:
    """Parse a weighting-function spec.

    Grammar: ``affine`` | ``spline`` | ``perturbed:<c>`` | ``poly:<c0,c1,...>``;
    a bare comma-separated coefficient list is accepted as shorthand for
    ``poly:``.
    """
    text = text.strip()
    if text == "affine":
        return builtin_affine()
    if text == "spline":
        return builtin_spline()
    if text.startswith("perturbed:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad perturbation size in {text!r}") from None
        return perturbed_family(c)
    body = text[5:] if text.startswith("poly:") else text
    try:
        coeffs = [float(tok) for tok in body.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse weighting function spec {text!r}") from None
    return WeightingFunction.from_coefficients(coeffs)


def parse_n_seq(text: str, minimum: int = 1):
    try:
        values = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise ValueError(f"cannot parse cell-count sequence {text!r}") from None
    if any(v < 1 for v in values):
        raise ValueError("cell counts must be positive")
    if len(values) < minimum:
        raise ValueError(f"need at least {minimum} distinct cell counts")
    return values


def fmt(x) -> str:
    return format(float(x), ".17g")


def _make_mesh(args):
    if args.mesh == "uniform":
        return build_uniform(args.n)
    return build_random_regular(RegularFamilySpec(args.alpha, args.beta, args.n, args.seed))


def _resolve_output(path, default_name):
    if path:
        return path
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_solve_csv(path, vertices, u_cells, p_nodes):
    """Write the cell table and then the node table of a solve, CSV_BLOCK
    rows at a time, every value as ``fmt`` prints it.  Each vertex is
    formatted once: the cell pass keeps a block's vertex strings as one
    newline-joined text, and the node pass splits it again."""
    vertex_texts = []
    with open(path, "w", newline="") as fh:
        fh.write("x_left,x_right,u_cell\n")
        for start in range(0, u_cells.size, CSV_BLOCK):
            xs = list(map(fmt, vertices[start:start + CSV_BLOCK + 1].tolist()))
            us = map(fmt, u_cells[start:start + CSV_BLOCK].tolist())
            fh.write("\n".join(map(",".join, zip(xs[:-1], xs[1:], us))) + "\n")
            vertex_texts.append("\n".join(xs[:-1]))
        vertex_texts.append(fmt(vertices[-1]))
        fh.write("x_node,p_node\n")
        start = 0
        for text in vertex_texts:
            xs = text.split("\n")
            ps = map(fmt, p_nodes[start:start + len(xs)].tolist())
            fh.write("\n".join(map(",".join, zip(xs, ps))) + "\n")
            start += len(xs)


def _write_sidecar(csv_path, command, config):
    import scipy  # only for its version string; commands without a sidecar skip the import

    meta = {
        "command": command,
        "config": config,
        "versions": {
            "fvpg1d": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _write_text(csv_path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_psi_check(args) -> int:
    psi = parse_psi(args.psi)
    m = moments(psi)
    report = condition_report(psi, m=m)
    constants = stability_constants(m)

    print(f"weighting function: {psi.label}")
    for name, value in report.as_dict().items():
        print(f"  {name:<14s} {'true' if value else 'false'}")
    print(f"  delta          {fmt(constants.delta)}")
    print(f"  delta_tilde    {fmt(constants.delta_tilde)}")
    print(f"  epsilon        {fmt(constants.epsilon)}")
    print(f"  K              {fmt(constants.K)}")

    if args.output:
        payload = {
            "psi": psi.label,
            "conditions": report.as_dict(),
            "moments": {k: getattr(m, k) for k in ("m_psi", "m1", "m0", "s", "c", "sd", "cd")},
            "constants": {k: getattr(constants, k) for k in ("delta", "delta_tilde", "epsilon", "K")},
        }
        _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    required = CONDITION_NAMES if "all" in args.require else tuple(args.require)
    unknown = [name for name in required if name not in CONDITION_NAMES]
    if unknown:
        raise ValueError("unknown condition name(s): " + ", ".join(unknown))
    flags = report.as_dict()
    if all(flags[name] for name in required):
        return EXIT_OK
    return EXIT_ASSERT


def cmd_solve(args) -> int:
    mesh = _make_mesh(args)
    problem = get_problem(args.problem)
    psi = parse_psi(args.psi)
    solution = run_scheme(mesh, problem, args.scheme, psi, args.quad_order)

    out = _resolve_output(args.output, "solve.csv")
    _write_solve_csv(out, mesh.vertices, solution.u_cells, solution.p_nodes)
    _write_sidecar(out, "solve", {
        "problem": args.problem, "scheme": args.scheme, "psi": psi.label,
        "mesh": args.mesh, "n": args.n, "alpha": args.alpha, "beta": args.beta,
        "seed": args.seed, "quad_order": args.quad_order,
    })

    report = error_norms(solution, problem, args.quad_order)
    print(f"scheme={solution.scheme} n={mesh.n} h_max={fmt(mesh.h_max)}")
    print(f"  err_u_l2={fmt(report.err_u_l2)} err_p_l2={fmt(report.err_p_l2)} "
          f"err_p_h1={fmt(report.err_p_h1)}")
    print(f"wrote {out}")

    if args.compare:
        reference = solve_fv(mesh, problem.f, args.quad_order)
        du = float(np.max(np.abs(solution.u_cells - reference.u_cells)))
        dp = float(np.max(np.abs(solution.p_nodes - reference.p_nodes)))
        print(f"compare vs fv: max|du|={fmt(du)} max|dp|={fmt(dp)} tol={COMPARE_TOL:g}")
        if max(du, dp) > COMPARE_TOL:
            print("compare: MISMATCH", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def _gnuplot_script(csv_path):
    return "\n".join([
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'h_max'",
        "set ylabel 'error'",
        "set key left top",
        f"plot '{csv_path}' using 2:3 with linespoints title 'err_u_l2', \\",
        f"     '{csv_path}' using 2:4 with linespoints title 'err_p_l2', \\",
        f"     '{csv_path}' using 2:5 with linespoints title 'err_p_h1'",
        "",
    ])


def cmd_converge(args) -> int:
    n_values = parse_n_seq(args.n_seq, minimum=3)
    problem = get_problem(args.problem)
    psi = parse_psi(args.psi)
    table = convergence_study(problem, n_values, scheme=args.scheme, psi=psi,
                              family=args.mesh, alpha=args.alpha, beta=args.beta,
                              seed=args.seed, quad_order=args.quad_order)
    slopes = fit_rate(table)

    lines = ["n,h_max,err_u_l2,err_p_l2,err_p_h1"]
    for r in table.rows:
        lines.append(f"{r.n},{fmt(r.h_max)},{fmt(r.err_u_l2)},{fmt(r.err_p_l2)},{fmt(r.err_p_h1)}")
    lines.append("slope,," + ",".join(fmt(slopes[k]) for k in ConvergenceTable.ERROR_COLUMNS))

    out = _resolve_output(args.output, "converge.csv")
    _write_text(out, "\n".join(lines) + "\n")
    _write_sidecar(out, "converge", {
        "problem": args.problem, "scheme": args.scheme, "psi": psi.label,
        "mesh": args.mesh, "n_seq": n_values, "alpha": args.alpha,
        "beta": args.beta, "seed": args.seed, "quad_order": args.quad_order,
    })
    if args.gnuplot:
        _write_text(args.gnuplot, _gnuplot_script(out))

    print("n      h_max         err_u_l2      err_p_l2      err_p_h1")
    for r in table.rows:
        print(f"{r.n:<6d} {r.h_max:<13.6e} {r.err_u_l2:<13.6e} {r.err_p_l2:<13.6e} {r.err_p_h1:<13.6e}")
    print("slopes: " + "  ".join(f"{k}={slopes[k]:+.3f}" for k in ConvergenceTable.ERROR_COLUMNS))
    print(f"wrote {out}")

    if args.assert_rate is not None:
        failed = []
        for name in ConvergenceTable.ERROR_COLUMNS:
            column_max = float(table.column(name).max())
            if column_max <= MACHINE_LEVEL:  # converged to rounding; rate is moot
                continue
            if slopes[name] < args.assert_rate:
                failed.append(f"{name} slope {slopes[name]:.3f} < {args.assert_rate:.3f}")
        if failed:
            print("assert-rate: " + "; ".join(failed), file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def cmd_infsup(args) -> int:
    n_values = parse_n_seq(args.n_seq, minimum=2)
    psi = parse_psi(args.psi)
    reports = infsup_sweep(psi, n_values, family=args.mesh, alpha=args.alpha,
                           beta=args.beta, seed=args.seed)
    deltas = np.array([r.delta_T for r in reports])
    if deltas.min() == 0.0:  # m_psi = 0 makes it 0 at every n: no ratio, no slope
        raise SolverError(f"coupling is singular for psi={psi.label} (m_psi = 0): delta_T = 0")
    ratio = float(deltas[-1] / deltas[0])
    slope = loglog_slope([r.n for r in reports], deltas)

    lines = ["n,delta_T"]
    for r in reports:
        lines.append(f"{r.n},{fmt(r.delta_T)}")
    lines.append(f"ratio,{fmt(ratio)}")
    lines.append(f"slope,{fmt(slope)}")

    out = _resolve_output(args.output, "infsup.csv")
    _write_text(out, "\n".join(lines) + "\n")
    _write_sidecar(out, "infsup", {
        "psi": psi.label, "mesh": args.mesh, "n_seq": n_values,
        "alpha": args.alpha, "beta": args.beta, "seed": args.seed,
    })

    print(f"psi={psi.label}")
    for r in reports:
        print(f"  n={r.n:<5d} delta_T={r.delta_T:.10e}")
    print(f"  ratio(last/first)={ratio:.6f} slope-vs-n={slope:+.3f}")
    print(f"wrote {out}")

    if args.assert_stable and float(deltas.min()) < 0.5 * float(deltas[0]):
        print(f"assert-stable: delta_T dropped below half its coarsest value "
              f"(min {deltas.min():.3e} vs {deltas[0]:.3e})", file=sys.stderr)
        return EXIT_ASSERT
    if args.assert_unstable and ratio >= 0.5:
        print(f"assert-unstable: ratio {ratio:.3f} did not drop below 0.5", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_mesh_options(sub):
    sub.add_argument("--mesh", choices=("uniform", "regular"), default="uniform",
                     help="mesh family (default uniform)")
    sub.add_argument("--alpha", type=float, default=0.5,
                     help="lower regularity bound for --mesh regular (default 0.5)")
    sub.add_argument("--beta", type=float, default=2.0,
                     help="upper regularity bound for --mesh regular (default 2.0)")
    sub.add_argument("--seed", type=int, default=0,
                     help="random seed for --mesh regular (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvpg1d",
        description="Finite volumes / mixed Petrov-Galerkin schemes on the unit interval.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("psi-check", help="check weighting-function conditions")
    p.add_argument("--psi", default="spline",
                   help="affine | spline | perturbed:<c> | poly:<c0,c1,...> (default spline)")
    p.add_argument("--require", default=["all"], type=lambda s: s.split(","),
                   help="comma list of conditions required for exit 0 "
                        "(localization,orthogonality,fv_compat,interp_compat; default all)")
    p.add_argument("-o", "--output", help="optional JSON report path")
    p.set_defaults(func=cmd_psi_check)

    p = subs.add_parser("solve", help="solve one problem on one mesh")
    p.add_argument("--problem", choices=PROBLEM_NAMES, default="sin")
    p.add_argument("--scheme", choices=("fv", "classical", "pg"), default="fv")
    p.add_argument("--psi", default="spline", help="weighting function for --scheme pg")
    p.add_argument("--n", type=int, default=16, help="number of cells (default 16)")
    _add_mesh_options(p)
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p.add_argument("--compare", action="store_true",
                   help="also solve with the fv scheme and require agreement to 1e-10")
    p.add_argument("-o", "--output", help=f"CSV path (default solve.csv under ${OUTDIR_ENV} or .)")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("converge", help="error sweep over a refinement sequence")
    p.add_argument("--problem", choices=PROBLEM_NAMES, default="sin")
    p.add_argument("--scheme", choices=("fv", "classical", "pg"), default="fv")
    p.add_argument("--psi", default="spline")
    p.add_argument("--n-seq", default="8,16,32,64,128",
                   help="comma list of cell counts (default 8,16,32,64,128)")
    _add_mesh_options(p)
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p.add_argument("--assert-rate", type=float, nargs="?", const=0.9, default=None,
                   help="exit 2 unless every error column converges at this rate "
                        "(default floor 0.9 when the flag is given)")
    p.add_argument("--gnuplot", help="also emit a gnuplot script at this path")
    p.add_argument("-o", "--output", help="CSV path (default converge.csv)")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("infsup", help="inf-sup constant over a refinement sequence")
    p.add_argument("--psi", default="spline")
    p.add_argument("--n-seq", default="4,8,16,32,64,128")
    _add_mesh_options(p)
    p.add_argument("--assert-stable", action="store_true",
                   help="exit 2 if delta_T drops below half its coarsest value")
    p.add_argument("--assert-unstable", action="store_true",
                   help="exit 2 if delta_T(last)/delta_T(first) stays at or above 0.5")
    p.add_argument("-o", "--output", help="CSV path (default infsup.csv)")
    p.set_defaults(func=cmd_infsup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory; try fewer cells", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
