"""Spans around the calls into each fvpg1d layer, recorded from outside.

Tracer.install() replaces each traced function by a wrapper in every fvpg1d
module namespace that holds it, so calls made by the benchmark and calls
between the package's own modules (analysis -> solver, cli -> analysis, ...)
are both seen.  Nothing under src/ changes.  A wrapper records a span only
while the tracer is active; the correctness checks run with it inactive.

A span holds its name, start, end, the span that caused it, the case it
belongs to, the cell count n of its arguments and the tracemalloc peak above
the memory in use when it started.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc

TRACED = {
    "mesh": ("build_uniform", "build_random_regular"),
    "weighting": ("moments",),
    "assembly": ("saddle_pg", "saddle_classical"),
    "solver": ("solve_fv", "solve_mixed", "residual"),
    "analysis": ("error_norms", "infsup_constant", "infsup_witness_sup"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
MIB = 2.0**20
# ROADMAP target: O(n) or O(n log n).  Over one decade of n, n log n fits a
# log-log slope of about 1.15; anything steeper is reported.
TARGET_EXP = 1.25


def _n_of(args):
    """Cell count of the first argument that carries one."""
    for arg in args:
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
        mesh = getattr(arg, "mesh", arg)
        n = getattr(mesh, "n", None)
        if isinstance(n, int):
            return n
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self.context = (0, "")  # (pass number, case id)
        self._stack = []
        self._patched = []
        self._next_id = 0

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "fvpg1d" or name.startswith("fvpg1d.")]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"fvpg1d.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self._patched.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name, _n_of(args)):
                return fn(*args, **kwargs)
        return traced

    def span(self, name, n=None):
        return _Span(self, name, n)


class _Span:
    """Context manager for one span; nested spans keep the parent's peak."""

    def __init__(self, tracer, name, n):
        self.tracer, self.name, self.n = tracer, name, n

    def __enter__(self):
        t = self.tracer
        stack = t._stack
        current, peak = tracemalloc.get_traced_memory()
        if stack:  # the parent's peak so far, before the reset below erases it
            stack[-1].child_peak = max(stack[-1].child_peak, peak)
        tracemalloc.reset_peak()
        self.id = t._next_id
        t._next_id += 1
        self.parent = stack[-1].id if stack else None
        self.base = current
        self.child_peak = 0
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        peak = max(tracemalloc.get_traced_memory()[1], self.child_peak)
        if t._stack:
            t._stack[-1].child_peak = max(t._stack[-1].child_peak, peak)
        pass_no, case_id = t.context
        t.spans.append({
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": end, "n": self.n, "pass": pass_no,
            "case": case_id, "peak_bytes": max(peak - self.base, 0),
            "error": exc_type.__name__ if exc_type else None,
        })
        return False


def write_spans(spans, path):
    with open(path, "w") as fh:
        json.dump({"spans": spans}, fh)


def _fit(points):
    """Log-log slope through the median value at each n; None under 3 sizes."""
    by_n = {}
    for n, v in points:
        if n and v > 0:
            by_n.setdefault(n, []).append(v)
    if len(by_n) < 3:
        return None
    ns = sorted(by_n)
    return statistics.linear_regression([math.log(n) for n in ns],
                                        [math.log(statistics.median(by_n[n])) for n in ns]).slope


def summarize(spans, traced_walls):
    """Per-function calls, self busy time, share, exponent and peak memory.

    calls and busy_s are per traced pass (busy_s is the median over passes
    of the self time: span duration minus its direct children); share is
    self time over traced wall time summed over the traced passes; exp is
    the log-log slope of time per call against n.  Also returns the memory
    exponents the complexity report needs.
    """
    passes = max(len(traced_walls), 1)  # traced_walls: {pass number: wall seconds}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats, mem_exp = {}, {}
    total_wall = sum(traced_walls.values()) or float("nan")
    for name in FUNCTIONS:
        mine = [s for s in spans if s["name"] == name]
        per_pass = {}
        for s in mine:
            self_time = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            per_pass[s["pass"]] = per_pass.get(s["pass"], 0.0) + self_time
        busy = [per_pass.get(p, 0.0) for p in traced_walls] or [0.0]
        exp = _fit([(s["n"], s["end"] - s["start"]) for s in mine])
        mem_exp[name] = _fit([(s["n"], s["peak_bytes"]) for s in mine])
        stats[name] = {
            "calls": len(mine) / passes,
            "busy_s": statistics.median(busy),
            "share": sum(per_pass.values()) / total_wall,
            "exp": exp if exp is not None else 0.0,
            "peak_mib": max((s["peak_bytes"] for s in mine), default=0) / MIB,
        }
    errors = {}
    for s in spans:
        if s["error"]:
            module = s["name"].split(".")[0]
            errors[module] = errors.get(module, 0) + 1
    return stats, mem_exp, {k: v / passes for k, v in errors.items()}


def complexity_report(stats, mem_exp):
    """Lines naming each layer whose time or memory grows faster than the target."""
    lines = []
    for name in FUNCTIONS:
        st = stats[name]
        if st["calls"] and st["exp"] > TARGET_EXP:
            lines.append(f"{name}: time per call ~ n^{st['exp']:.2f}")
        me = mem_exp[name]
        if me is not None and me > TARGET_EXP and st["peak_mib"] >= 1.0:
            lines.append(f"{name}: peak memory ~ n^{me:.2f} "
                         f"(largest {st['peak_mib']:.1f} MiB)")
    return lines
