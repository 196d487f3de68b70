"""The four benchmark workloads: fixed case lists, case runners and checks.

A workload is built from the workload seed alone.  The seed fixes the
regular-mesh seeds and the order in which each pass visits the cases; the
program under test only ever sees the meshes, callables and argv built here.

Every workload has the same shape:

    cases            the fixed case list, one pass runs each case once
    warmup           the smallest case, run once untimed during set-up
    run(case)        the timed work; returns whatever the checks need
    check(case, out) untimed; returns a Record (problem is "" when correct)
    check_pass(recs) untimed checks over a whole pass (fitted slopes,
                     inf-sup decay); returns {case id: problem}

The module never binds a package function at import: every call goes through
the package namespace at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mixed-solve", "fv-large", "infsup-sweep", "cli-batch")

# the CLI's --assert-rate floor and its "converged to rounding" level
RATE_FLOOR = 0.9
MACHINE_LEVEL = 1e-12
# criterion 03: pg:spline reproduces the fv scheme
PG_FV_TOL = 1e-10
ALPHA, BETA = 0.5, 2.0


@dataclass(frozen=True)
class Case:
    id: str
    series: str
    n: int
    args: tuple = ()


@dataclass
class Record:
    problem: str = ""
    errors: tuple = ()          # (err_u_l2, err_p_l2, err_p_h1, h_max)
    residual_ratio: float = 0.0
    system_bytes: int = 0
    delta: float = 0.0


def _slope(x, y):
    """Least-squares slope of log y against log x."""
    return statistics.linear_regression([math.log(v) for v in x],
                                        [math.log(max(v, 1e-300)) for v in y]).slope


def _rate_problems(records, cases, columns):
    """Cases of every series whose fitted error slope is below RATE_FLOOR."""
    by_series = {}
    for case in cases:
        rec = records.get(case.id)
        if rec is not None and rec.errors:
            by_series.setdefault(case.series, []).append((case.id, rec.errors))
    problems = {}
    for series, rows in by_series.items():
        if len(rows) < 3:
            continue
        h = [errors[3] for _, errors in rows]
        for col in columns:
            values = [errors[col] for _, errors in rows]
            if max(values) <= MACHINE_LEVEL:
                continue
            slope = _slope(h, values)
            if not slope >= RATE_FLOOR:
                for case_id, _ in rows:
                    problems[case_id] = (f"{series}: error column {col} slope "
                                         f"{slope:.3f} < {RATE_FLOOR}")
    return problems


class _Workload:
    """Shared seeding and mesh construction."""

    def __init__(self, fv, seed, sizes):
        self.fv = fv
        rng = random.Random(seed)
        self.mesh_seeds = {n: rng.randrange(2**32) for n in sizes}
        self.order_rng = random.Random(rng.randrange(2**32))
        self.sizes = sizes

    def mesh(self, family, n):
        fv = self.fv
        if family == "uniform":
            return fv.build_uniform(n)
        return fv.build_random_regular(fv.RegularFamilySpec(ALPHA, BETA, n, self.mesh_seeds[n]))

    @property
    def warmup(self):
        return min(self.cases, key=lambda c: (c.n, c.id))

    def check_pass(self, records):
        return {}


class MixedSolve(_Workload):
    """pg:spline, pg:affine and classical mixed solves of the sin problem."""

    SIZES = (256, 512, 1024, 2048)
    SMOKE_SIZES = (8, 16, 32)

    def __init__(self, fv, seed, smoke=False):
        super().__init__(fv, seed, self.SMOKE_SIZES if smoke else self.SIZES)
        self.problem = fv.sin_problem()
        self.psis = {"pg:spline": fv.builtin_spline(), "pg:affine": fv.builtin_affine()}
        self.cases = [Case(f"{scheme}/{family}/n={n}", f"{scheme}/{family}", n, (scheme, family))
                      for scheme in ("pg:spline", "pg:affine", "classical")
                      for family in ("uniform", "regular") for n in self.sizes]

    def run(self, case):
        fv = self.fv
        scheme, family = case.args
        mesh = self.mesh(family, case.n)
        if scheme == "classical":
            system = fv.saddle_classical(mesh, self.problem.f)
        else:
            system = fv.saddle_pg(mesh, fv.moments(self.psis[scheme]), self.problem.f,
                                  label=scheme)
        solution = fv.solve_mixed(system)
        return system, solution, fv.error_norms(solution, self.problem)

    def check(self, case, out):
        import numpy as np
        from fvpg1d.solver import RESIDUAL_RTOL
        fv = self.fv
        system, solution, report = out
        problems = []
        scale = max(1.0, float(np.abs(system.rhs_cells).max()))
        ratio = fv.residual(system, solution) / (RESIDUAL_RTOL * scale)
        if not ratio <= 1.0:
            problems.append(f"block residual is {ratio:.3g} x RESIDUAL_RTOL*scale")
        if case.args[0] == "pg:spline":
            ref = fv.solve_fv(solution.mesh, self.problem.f)
            diff = max(float(np.abs(solution.u_cells - ref.u_cells).max()),
                       float(np.abs(solution.p_nodes - ref.p_nodes).max()))
            if not diff <= PG_FV_TOL:
                problems.append(f"pg:spline differs from fv by {diff:.3g}")
        nbytes = (system.mass.lower.nbytes + system.mass.diag.nbytes + system.mass.upper.nbytes
                  + system.div_matrix.nbytes + system.rhs_cells.nbytes)
        errors = (report.err_u_l2, report.err_p_l2, report.err_p_h1, report.h_max)
        if not all(math.isfinite(e) for e in errors):
            problems.append("non-finite error norm")
        return Record("; ".join(problems), errors, ratio, nbytes)

    def check_pass(self, records):
        return _rate_problems(records, self.cases, (0, 1, 2))


class FvLarge(_Workload):
    """solve_fv + error_norms at large n, load exact or by quadrature."""

    SIZES = (2**16, 2**18, 2**20)
    SMOKE_SIZES = (256, 1024, 4096)

    def __init__(self, fv, seed, smoke=False):
        super().__init__(fv, seed, self.SMOKE_SIZES if smoke else self.SIZES)
        self.problem = fv.sin_problem()
        # the bare callable has no antiderivative, so project_rhs takes its Gauss path
        self.loads = {"exact": self.problem.f, "quadrature": self.problem.f.f}
        self.cases = [Case(f"fv:{load}/{family}/n={n}", f"fv:{load}/{family}", n, (load, family))
                      for load in self.loads for family in ("uniform", "regular")
                      for n in self.sizes]

    def run(self, case):
        fv = self.fv
        load, family = case.args
        solution = fv.solve_fv(self.mesh(family, case.n), self.loads[load])
        return solution, fv.error_norms(solution, self.problem)

    def probe(self, case, out):
        """assemble_fv on the inputs solve_fv just had; timed outside wall_s."""
        self.fv.assemble_fv(out[0].mesh, self.loads[case.args[0]])

    def check(self, case, out):
        report = out[1]
        errors = (report.err_u_l2, report.err_p_l2, report.err_p_h1, report.h_max)
        ok = all(math.isfinite(e) for e in errors)
        return Record("" if ok else "non-finite error norm", errors)

    def check_pass(self, records):
        # Only the u column is fitted: at n >= 2**18 the p columns are set by
        # rounding (p is a difference quotient of u over widths ~1e-6), so
        # they stop converging; see bench/README.md.
        return _rate_problems(records, self.cases, (0,))


class InfSupSweep(_Workload):
    """infsup_constant for a stable and an unstable weighting function."""

    SIZES = (64, 128, 256, 512)
    SMOKE_SIZES = (8, 16, 32)

    def __init__(self, fv, seed, smoke=False):
        super().__init__(fv, seed, self.SMOKE_SIZES if smoke else self.SIZES)
        self.psis = {"spline": fv.builtin_spline(), "perturbed:1": fv.perturbed_family(1.0)}
        self.cases = [Case(f"{psi}/{family}/n={n}", f"{psi}/{family}", n, (psi, family))
                      for psi in self.psis for family in ("uniform", "regular")
                      for n in self.sizes]

    def run(self, case):
        fv = self.fv
        psi, family = case.args
        mesh = self.mesh(family, case.n)
        m = fv.moments(self.psis[psi])
        return mesh, m, fv.infsup_constant(mesh, m)

    def check(self, case, out):
        mesh, m, report = out
        witness = self.fv.infsup_witness_sup(mesh, m)
        delta = report.delta_T
        if not (math.isfinite(delta) and 0.0 < delta <= witness):
            return Record(f"delta_T {delta!r} not in (0, witness sup {witness!r}]", delta=delta)
        return Record(delta=delta)

    def check_pass(self, records):
        problems = {}
        for series in {c.series for c in self.cases}:
            cases = sorted((c for c in self.cases if c.series == series), key=lambda c: c.n)
            deltas = [records[c.id].delta for c in cases if c.id in records]
            if len(deltas) != len(cases):
                continue
            if series.startswith("spline") and min(deltas) < 0.5 * deltas[0]:
                why = f"{series}: delta_T fell below half its coarsest value"
            elif series.startswith("perturbed") and not deltas[-1] / deltas[0] < 0.5:
                why = f"{series}: delta_T ratio {deltas[-1] / deltas[0]:.3f} is not below 0.5"
            else:
                continue
            problems.update({c.id: why for c in cases})
        return problems


class CliBatch(_Workload):
    """Fresh `python -m fvpg1d.cli` processes, one at a time.

    With in_process=True each case is an in-process cli.main(argv) call
    instead; the traced run uses that, since spans are recorded in this
    process only.
    """

    def __init__(self, fv, seed, smoke=False, workdir=".", src=".", in_process=False):
        big, conv, inf = (256, "8,16,32,64", "8,16,32") if smoke else \
            (65536, "16,32,64,128,256", "16,32,64,128")
        super().__init__(fv, seed, (0,))
        mesh_seed = str(self.mesh_seeds[0])
        self.workdir = Path(workdir)
        self.src = str(src)
        self.in_process = in_process
        specs = [
            ("psi-check/spline", 0, ["psi-check", "--psi", "spline"]),
            ("psi-check/perturbed:1", 0, ["psi-check", "--psi", "perturbed:1", "--require",
                                           "localization,orthogonality,fv_compat"]),
            ("solve/pg/n=64", 64, ["solve", "--scheme", "pg", "--n", "64", "--compare"]),
            ("converge/pg/uniform", 256, ["converge", "--scheme", "pg", "--n-seq", conv,
                                          "--assert-rate"]),
            ("converge/classical/regular", 256, ["converge", "--scheme", "classical",
                                                 "--mesh", "regular", "--seed", mesh_seed,
                                                 "--n-seq", conv, "--assert-rate"]),
            ("infsup/spline", 128, ["infsup", "--psi", "spline", "--n-seq", inf,
                                    "--assert-stable"]),
            ("infsup/perturbed:1", 128, ["infsup", "--psi", "perturbed:1", "--n-seq", inf,
                                         "--assert-unstable"]),
            (f"solve/fv/n={big}", big, ["solve", "--scheme", "fv", "--n", str(big)]),
        ]
        self.cases = []
        self.outputs = {}
        for case_id, n, argv in specs:
            stem = case_id.replace("/", "_").replace(":", "-").replace("=", "")
            out = self.workdir / (stem + (".json" if argv[0] == "psi-check" else ".csv"))
            files = [out] if argv[0] == "psi-check" else [out, Path(str(out) + ".meta.json")]
            self.cases.append(Case(case_id, argv[0], n, tuple(argv + ["-o", str(out)])))
            self.outputs[case_id] = files
        self.reference = {}

    @property
    def warmup(self):
        return self.cases[0]

    def run(self, case):
        if self.in_process:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.fv.cli.main(list(case.args)), sink.getvalue()
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-m", "fvpg1d.cli", *case.args],
                              cwd=self.workdir, env=env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout + proc.stderr

    def check(self, case, out):
        code, text = out
        if code != 0:
            tail = text.strip().splitlines()[-1:] or [""]
            return Record(f"exit code {code}: {tail[0]}")
        try:
            blobs = [path.read_bytes() for path in self.outputs[case.id]]
        except OSError as exc:
            return Record(f"missing output: {exc}")
        first = self.reference.setdefault(case.id, blobs)
        if blobs != first:
            return Record("output differs from the first invocation of the same command")
        return Record()


def make(name, fv, seed, smoke=False, workdir=".", src=".", in_process=False):
    if name == "mixed-solve":
        return MixedSolve(fv, seed, smoke)
    if name == "fv-large":
        return FvLarge(fv, seed, smoke)
    if name == "infsup-sweep":
        return InfSupSweep(fv, seed, smoke)
    if name == "cli-batch":
        return CliBatch(fv, seed, smoke, workdir, src, in_process)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
