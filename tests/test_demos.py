"""Smoke test: every narrative demo runs to completion against the package."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = [
    "01_weighting_functions.py",
    "02_scheme_equivalence.py",
    "03_convergence.py",
    "04_stability.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    assert capsys.readouterr().out
