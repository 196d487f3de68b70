"""One benchmark child process: set up, run timed passes, check, report.

run.py starts this file once per set-up sample and once for the measured run.
The child imports fvpg1d from the checkout's src/, builds the workload from
the seed, runs one untimed warm-up case and notes its set-up time, counted
from --t0, the parent's time.monotonic() just before it started the child.
Then it runs passes over the case list, each in a seeded order, until
--seconds have passed.  The correctness checks run after each case and after
each pass, outside the timed region.  The result goes to --result as JSON.

With --trace 1 the passes alternate untraced and traced, so the trace
overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracer as tracing
import workloads

IMPORT_SAMPLES = 5


def _tail(latencies):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def _blas_info():
    """Name, build string and thread count of every OpenBLAS this process loaded."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        libs.append(info)
    return libs


def _l3_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return None


def _mem_available_mib():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _git_commit(root):
    if not (root / ".git").exists():  # an exported tree; do not report an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(root):
    import numpy
    import scipy
    src_lines = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "fvpg1d").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_mib": _mem_available_mib(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def _import_seconds(src):
    """Median over fresh interpreters of the time to import fvpg1d and its CLI."""
    code = ("import time; t = time.perf_counter(); import fvpg1d, fvpg1d.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, work, trace):
        self.work = work
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0             # failing case runs
        self.problems = {}          # case id -> first problem seen
        self.walls = {}             # pass number -> wall seconds
        self.traced = set()         # traced pass numbers
        self.case_ms = {}           # (pass number, case id) -> ms
        self.probe_s = {}           # pass number -> assemble_fv probe seconds
        self.residual_ratio = 0.0
        self.system_bytes = 0
        self.orders = []

    def run_pass(self, number, order, traced):
        work, tr = self.work, self.tracer
        records, problems, wall, probe = {}, {}, 0.0, 0.0
        if traced:
            tr.install()
            tracemalloc.start()
        try:
            for case in order:
                self.attempted += 1
                if traced:
                    tr.context = (number, case.id)
                    tr.active = True
                start = time.perf_counter()
                try:
                    if traced:
                        with tr.span("case", case.n):
                            out = work.run(case)
                    else:
                        out = work.run(case)
                except Exception as exc:  # a failing case is counted, the run goes on
                    out, problem = None, f"raised {type(exc).__name__}: {exc}"
                finally:
                    elapsed = time.perf_counter() - start
                    if traced:
                        tr.active = False
                wall += elapsed
                self.case_ms[number, case.id] = elapsed * 1e3
                if out is None:
                    problems[case.id] = problem
                    continue
                if traced and hasattr(work, "probe"):
                    start = time.perf_counter()
                    work.probe(case, out)
                    probe += time.perf_counter() - start
                record = work.check(case, out)
                del out
                records[case.id] = record
                self.residual_ratio = max(self.residual_ratio, record.residual_ratio)
                self.system_bytes = max(self.system_bytes, record.system_bytes)
                if record.problem:
                    problems[case.id] = record.problem
        finally:
            if traced:
                tracemalloc.stop()
                tr.uninstall()
        for case_id, problem in work.check_pass(records).items():
            problems.setdefault(case_id, problem)
        self.failed += len(problems)
        for case_id, problem in problems.items():
            self.problems.setdefault(case_id, problem)
        self.walls[number] = wall
        if traced:
            self.traced.add(number)
            self.probe_s[number] = probe

    def run(self, seconds):
        """Run passes while the next one is expected to end within `seconds`."""
        start = time.perf_counter()
        durations = []
        number = 0
        while True:
            order = list(self.work.cases)
            self.work.order_rng.shuffle(order)
            self.orders.append([c.id for c in order])
            begun = time.perf_counter()
            self.run_pass(number, order, traced=self.trace and number % 2 == 1)
            durations.append(time.perf_counter() - begun)
            number += 1
            expected_end = time.perf_counter() - start + statistics.median(durations)
            if expected_end > seconds and (not self.trace or number >= 2):
                break

    def case_ms_by_id(self):
        """Latencies of every untraced pass, grouped by case id."""
        by_id = {}
        for (number, case_id), ms in sorted(self.case_ms.items()):
            if number not in self.traced:
                by_id.setdefault(case_id, []).append(ms)
        return by_id

    def end_to_end(self):
        walls = [w for p, w in self.walls.items() if p not in self.traced]
        per_case = self.case_ms_by_id()
        latencies = [ms for samples in per_case.values() for ms in samples]
        tail, pct = _tail(latencies)
        metrics = {
            # each case at its median over the passes, so one slow pass moves it little
            "wall_s": (sum(statistics.median(ms) for ms in per_case.values()) / 1e3, "s"),
            # the upper middle sample, so an even count still gives a measured case
            "case_ms_p50": (statistics.median_high(latencies), "ms"),
            "case_ms_tail": (tail, "ms"),
        }
        if isinstance(self.work, workloads.CliBatch):
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (rss_kib / 1024, "MiB")
        details = {"tail_percentile": pct, "samples": len(latencies),
                   "passes": len(walls), "pass_walls_s": walls,
                   "case_ms": per_case}
        return metrics, details

    def per_layer(self, src):
        untraced = {p: w for p, w in self.walls.items() if p not in self.traced}
        traced = {p: w for p, w in self.walls.items() if p in self.traced}
        stats, mem_exp, errors = tracing.summarize(self.tracer.spans, traced)
        units = {"calls": "count", "busy_s": "s", "share": "frac", "exp": "1",
                 "peak_mib": "MiB"}
        metrics = {}
        for name, st in stats.items():
            for stat, value in st.items():
                metrics[f"{name}.{stat}"] = (value, units[stat])
        metrics["assembly.system_bytes"] = (self.system_bytes, "B")
        metrics["assembly.assemble_fv.busy_s"] = (
            statistics.median(self.probe_s.values()) if self.probe_s else 0.0, "s")
        metrics["solver.residual_ratio"] = (self.residual_ratio, "1")
        metrics["solver.errors"] = (errors.get("solver", 0), "count")
        cli = isinstance(self.work, workloads.CliBatch)
        metrics["cli.import_s"] = (_import_seconds(src) if cli else 0.0, "s")
        for sub in ("psi-check", "solve", "converge", "infsup"):
            slowest = [max((ms for (p, cid), ms in self.case_ms.items()
                            if p == number and cid.split("/")[0] == sub), default=0.0)
                       for number in untraced]
            metrics[f"cli.{sub}.ms"] = (statistics.median(slowest) if cli else 0.0, "ms")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.values()) / statistics.median(untraced.values()) - 1.0,
            "frac")
        details = {"complexity": tracing.complexity_report(stats, mem_exp),
                   "passes": len(untraced), "traced_passes": len(traced)}
        return metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import fvpg1d
    import fvpg1d.cli  # noqa: F401  (part of set-up: the CLI's imports count)
    if Path(fvpg1d.__file__).resolve().parent != (src / "fvpg1d").resolve():
        raise SystemExit(f"fvpg1d was imported from {fvpg1d.__file__}, not from {src}")

    work = workloads.make(args.workload, fvpg1d, args.seed, smoke=args.smoke,
                          workdir=args.workdir, src=src, in_process=bool(args.trace))
    warm = work.warmup
    record = work.check(warm, work.run(warm))
    if record.problem:
        raise SystemExit(f"warm-up case {warm.id} failed: {record.problem}")
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        # after set-up is timed: one run of the largest case grows the heap
        # and lets the allocator settle, so the first timed pass is no slower
        largest = max(work.cases, key=lambda c: (c.n, c.id))
        work.check(largest, work.run(largest))
        runner = Runner(work, bool(args.trace))
        runner.run(args.seconds)
        if args.trace:
            metrics, details = runner.per_layer(src)
            tracing.write_spans(runner.tracer.spans, args.trace_file)
        else:
            metrics, details = runner.end_to_end()
        result.update({
            "metrics": metrics,
            "details": details,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "problems": runner.problems,
            "mesh_seeds": work.mesh_seeds,
            "first_order": runner.orders[0],
            "facts": machine_facts(root),
        })
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
