"""The benchmark's workloads still run against the package.

``bench/workloads.py`` reads package names and attributes (for example the
bands of ``SaddleSystem.mass`` and ``div_matrix``), so a change in ``src``
can break the benchmark without breaking any other test.  This loads that
module as it is, without writing into ``bench/``, and runs every case of the
three benchmark workloads at their smoke sizes through the checks the
harness applies.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fvpg1d
import fvpg1d.cli  # noqa: F401  (cli-batch calls fvpg1d.cli.main in process)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["mixed-solve", "infsup-sweep", "cli-batch"])
def test_workload_cases_pass_their_checks(workloads, name, tmp_path):
    workload = workloads.make(name, fvpg1d, seed=7, smoke=True, workdir=tmp_path,
                              in_process=True)
    records = {}
    for case in [workload.warmup] + list(workload.cases):
        record = workload.check(case, workload.run(case))
        assert record.problem == "", (case.id, record.problem)
        records[case.id] = record
    assert workload.check_pass(records) == {}
