"""fvpg1d benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 bench/run.py --workload mixed-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: one child process runs the cases back to back (cli-batch: one CLI
subprocess at a time).  With --trace 0 the run starts SETUP_SAMPLES fresh
children, the last of which also measures, and prints the end-to-end
metrics; with --trace 1 one child alternates untraced and traced passes and
the run prints the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the machine facts, is written to
.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json and the spans of a
traced run to .bench_out/trace_<workload>_seed<seed>.json.

Exit codes: 0 when the run completed (the correctness verdict is in the
JSON), 1 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
# every run, builds included, must end within 180 s
DEADLINE_S = 170.0


def _run_child(cmd, deadline):
    """Run one child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(cmd[1:4])} did not finish before the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _child(args, workdir, result, deadline, setup_only, trace_file=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), "--workdir", str(workdir),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    cmd += ["--t0", repr(time.monotonic())]
    _run_child(cmd, deadline)
    with open(result) as fh:
        return json.load(fh)


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}_seed{args.seed}"
    trace_file = out_dir / f"trace_{tag}.json" if args.trace else None
    setups = []
    try:
        # set-up samples first; the last child also measures
        for i in range(1 if args.trace else SETUP_SAMPLES):
            last = i == (0 if args.trace else SETUP_SAMPLES - 1)
            workdir = scratch / f"child{i}"
            workdir.mkdir(parents=True)
            res = _child(args, workdir, scratch / f"result{i}.json", deadline,
                         setup_only=not last, trace_file=trace_file)
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"], "failed_frac": res["failed"] / res["attempted"],
        "problems": res["problems"], "metrics": metrics, "setup_samples_s": setups,
        "details": res["details"], "mesh_seeds": res["mesh_seeds"],
        "first_pass_order": res["first_order"], "facts": res["facts"],
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    path = out_dir / f"BENCH_{tag}_trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=2) + "\n")
    full["result_file"] = str(path.relative_to(ROOT))
    return full


def report(full):
    """Human-readable summary; the JSON line follows it."""
    d, f = full["details"], full["facts"]
    print(f"workload {full['workload']}  seed {full['seed']}  passes {d['passes']}"
          + (f" + {d['traced_passes']} traced" if full["trace"] else ""))
    for name, m in full["metrics"].items():
        extra = ""
        if name == "case_ms_tail":
            extra = f"  (p{d['tail_percentile']:.1f} of {d['samples']} cases)"
        print(f"  {name:<40s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  failed_frac {full['failed_frac']:.6g} ({full['failed']} of {full['attempted']})")
    for case_id, problem in sorted(full["problems"].items()):
        print(f"  FAILED {case_id}: {problem}")
    for line in d.get("complexity", ()):
        print(f"  above O(n log n): {line}")
    blas = ", ".join(f"{b['library']} x{b.get('threads', '?')}" for b in f["blas"])
    print(f"  machine: nproc {f['nproc']}, L3 {f['l3_bytes']} B, "
          f"available {f['mem_available_mib']:.0f} MiB, python {f['python']}, "
          f"numpy {f['numpy']}, scipy {f['scipy']}, blas {blas}, "
          f"commit {f['git_commit']}, src lines {f['src_lines']}")
    print(f"  wrote {full['result_file']}" + (f" and {full['trace_file']}"
                                              if full["trace_file"] else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description="fvpg1d benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fvpg1d" / "__init__.py").is_file():
        print(f"error: no fvpg1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        full = measure(args)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(full)
    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
