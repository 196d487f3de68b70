import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fvpg1d
from fvpg1d import cli


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# psi parsing
# ---------------------------------------------------------------------------

def test_parse_psi_grammar():
    assert cli.parse_psi("affine").label == "affine"
    assert cli.parse_psi("spline").coefficients == (0.0, -9.0, 30.0, -20.0)
    assert cli.parse_psi("perturbed:0.5").label == "perturbed:0.5"
    assert cli.parse_psi("poly:0,1").coefficients == (0.0, 1.0)
    assert cli.parse_psi("0,-9,30,-20").coefficients == (0.0, -9.0, 30.0, -20.0)
    with pytest.raises(ValueError):
        cli.parse_psi("perturbed:x")
    with pytest.raises(ValueError):
        cli.parse_psi("poly:a,b")


def test_parse_n_seq():
    assert cli.parse_n_seq("16,8,8,32") == [8, 16, 32]
    with pytest.raises(ValueError):
        cli.parse_n_seq("8,x")
    with pytest.raises(ValueError):
        cli.parse_n_seq("0,8")
    with pytest.raises(ValueError):
        cli.parse_n_seq("8,16", minimum=3)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_version_and_usage_exit_codes(capsys):
    assert run(["--version"]) == 0
    assert run(["frobnicate"]) == 1          # unknown subcommand
    assert run([]) == 1                      # missing subcommand
    assert run(["solve", "--problem", "poisson9"]) == 1  # bad choice
    capsys.readouterr()


def test_psi_check_exit_codes(tmp_path, capsys):
    assert run(["psi-check", "--psi", "spline"]) == 0
    assert run(["psi-check", "--psi", "affine"]) == 2  # orthogonality fails
    assert run(["psi-check", "--psi", "affine",
                "--require", "localization,interp_compat"]) == 0
    assert run(["psi-check", "--psi", "perturbed:1"]) == 2  # reflection fails
    assert run(["psi-check", "--psi", "perturbed:1",
                "--require", "localization,orthogonality,fv_compat"]) == 0
    assert run(["psi-check", "--psi", "nope:1"]) == 1
    assert run(["psi-check", "--require", "frobnicate"]) == 1
    assert run(["psi-check", "--quad-order", "16"]) == 1  # gone: every --psi is a polynomial
    capsys.readouterr()


def test_out_of_memory_is_one_line_error(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_solve", exhausted)
    assert run(["solve"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")


@pytest.mark.parametrize("spec", ["poly:nan", "poly:inf,1", "perturbed:nan",
                                  "poly:1e308,1e308,1e308", "poly:0,1e308"])
def test_non_finite_psi_is_one_line_error_in_a_fresh_process(spec):
    # a real process, so a numpy RuntimeWarning would show on stderr too; the
    # last two are finite coefficients whose moments overflow
    path = [str(Path(fvpg1d.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run([sys.executable, "-m", "fvpg1d.cli", "psi-check", "--psi", spec],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["error: weighting-function moments contain NaN or inf"]


# ---------------------------------------------------------------------------
# fuzzed input boundary: exit 0, 1 or 2, never a traceback or a warning
# ---------------------------------------------------------------------------

float_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e400"]))
psi_specs = st.one_of(
    st.text(max_size=40),
    st.lists(float_tokens, min_size=1, max_size=6).map(lambda xs: "poly:" + ",".join(xs)),
    float_tokens.map(lambda x: "perturbed:" + x))


@given(spec=psi_specs)
def test_fuzz_psi_check_exit_codes(spec):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["psi-check", "--psi=" + spec])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@given(text=st.one_of(
    st.text(max_size=30),
    st.lists(st.integers(-2**70, 2**70).map(str) | st.text(max_size=4), max_size=6).map(",".join)))
def test_fuzz_parse_n_seq(text):
    try:
        values = cli.parse_n_seq(text)
    except ValueError:
        return
    assert all(type(v) is int and v >= 1 for v in values)
    assert values == sorted(set(values))


# the floats that can break the band [alpha/n, beta/n] of a regular mesh
band_specials = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324])


@example(alpha=0.5, beta=np.inf, seed=0)
@given(alpha=st.floats(0.0, 1.0) | band_specials | st.floats(),
       beta=st.floats(1.0, 1e308) | band_specials | st.floats(),
       seed=st.integers(-2**70, 2**70) | st.integers(0, 99))
def test_fuzz_solve_regular_mesh_bounds(alpha, beta, seed, tmp_path_factory):
    out_csv = tmp_path_factory.getbasetemp() / "fuzz_regular.csv"
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["solve", "--mesh", "regular", f"--alpha={alpha!r}", f"--beta={beta!r}",
                    f"--seed={seed}", "--n", "8", "-o", str(out_csv)])
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_psi_check_report_payload(tmp_path, capsys):
    out = tmp_path / "spline.json"
    assert run(["psi-check", "--psi", "spline", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["psi"] == "spline"
    assert all(payload["conditions"].values())
    assert abs(payload["constants"]["delta"] - 0.5) < 1e-12
    assert abs(payload["constants"]["epsilon"]) < 1e-12
    assert abs(payload["moments"]["s"] - 8.0 / 7.0) < 1e-12
    text = capsys.readouterr().out
    assert "localization" in text and "delta_tilde" in text


def test_psi_check_poly_shorthand_matches_builtin(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["psi-check", "--psi", "spline", "-o", str(a)]) == 0
    assert run(["psi-check", "--psi", "0,-9,30,-20", "-o", str(b)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert pa["moments"] == pb["moments"]
    assert pa["conditions"] == pb["conditions"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_csv_layout_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run(["solve", "--problem", "sin", "--scheme", "fv", "--n", "8",
                "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_left,x_right,u_cell"
    assert lines[9] == "x_node,p_node"
    assert len(lines) == 1 + 8 + 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.125
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["command"] == "solve"
    assert meta["config"]["n"] == 8
    assert meta["config"]["scheme"] == "fv"
    assert set(meta["versions"]) == {"fvpg1d", "numpy", "scipy"}
    text = capsys.readouterr().out
    assert "err_u_l2=" in text


def test_solve_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--mesh", "regular", "--seed", "7", "--n", "13",
            "--scheme", "pg", "--psi", "spline"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() \
        == (tmp_path / "b.csv.meta.json").read_bytes()
    capsys.readouterr()


def test_solve_compare_paths(tmp_path, capsys):
    ok = ["solve", "--scheme", "pg", "--psi", "spline", "--n", "16",
          "--compare", "-o", str(tmp_path / "x.csv")]
    assert run(ok) == 0
    # the affine weighting is a genuinely different scheme, so compare trips
    bad = ["solve", "--scheme", "pg", "--psi", "affine", "--n", "16",
           "--compare", "-o", str(tmp_path / "y.csv")]
    assert run(bad) == 2
    err = capsys.readouterr().err
    assert "MISMATCH" in err


@pytest.mark.parametrize("n", [2**16, 2**18])
def test_solve_compare_holds_at_large_n(n, tmp_path, capsys):
    # pg:spline and fv share one route, so this pins that route against
    # rounding growth: eliminating u first, through the n^2-conditioned cell
    # system, missed 1e-10 here (7.3e-10 in u at 2^16)
    argv = ["solve", "--scheme", "pg", "--psi", "spline", "--n", str(n), "--compare"]
    assert run(argv + ["-o", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()


def test_solve_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert run(["solve", "--n", "4"]) == 0
    assert (tmp_path / "solve.csv").exists()
    assert (tmp_path / "solve.csv.meta.json").exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_csv_and_assert_rate(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert run(["converge", "--problem", "sin", "--scheme", "fv",
                "--n-seq", "8,16,32", "--assert-rate", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,h_max,err_u_l2,err_p_l2,err_p_h1"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("slope,,")
    slopes = [float(tok) for tok in lines[-1].split(",")[2:]]
    assert all(s > 0.9 for s in slopes)
    text = capsys.readouterr().out
    assert "slopes:" in text


def test_converge_assert_rate_failure(tmp_path, capsys):
    # demanding second order from a first-order pipeline must trip the gate
    code = run(["converge", "--problem", "sin", "--scheme", "fv",
                "--n-seq", "8,16,32", "--assert-rate", "1.8",
                "-o", str(tmp_path / "c.csv")])
    assert code == 2
    assert "assert-rate" in capsys.readouterr().err


@pytest.mark.parametrize("mesh", ["uniform", "regular"])
def test_fv_assert_rate_holds_at_large_n(mesh, tmp_path, capsys):
    # slopes u 1.000, p_l2 2.015 (uniform) / 1.993 (regular), p_h1 1.000;
    # eliminating u first gave p_l2 -2.385 on uniform meshes, rounding-bound
    argv = ["converge", "--scheme", "fv", "--mesh", mesh, "--n-seq", "65536,262144,1048576",
            "--assert-rate", "-o", str(tmp_path / "c.csv")]
    assert run(argv) == 0
    capsys.readouterr()


def test_converge_machine_level_exemption(tmp_path, capsys):
    # the quadratic problem drives the gradient errors to rounding level;
    # those columns must not poison the rate assertion
    code = run(["converge", "--problem", "quadratic", "--scheme", "fv",
                "--n-seq", "8,16,32", "--assert-rate",
                "-o", str(tmp_path / "q.csv")])
    assert code == 0
    capsys.readouterr()


def test_converge_needs_three_counts(tmp_path, capsys):
    assert run(["converge", "--n-seq", "8,16", "-o", str(tmp_path / "c.csv")]) == 1
    capsys.readouterr()


def test_converge_gnuplot_script(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    gp = tmp_path / "conv.gp"
    assert run(["converge", "--n-seq", "8,16,32", "-o", str(out),
                "--gnuplot", str(gp)]) == 0
    script = gp.read_text()
    assert "set logscale xy" in script
    assert str(out) in script
    assert "using 2:3" in script
    capsys.readouterr()


def test_converge_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["converge", "--mesh", "regular", "--seed", "3", "--n-seq", "8,16,32",
            "--scheme", "pg", "--psi", "perturbed:0.5"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# infsup
# ---------------------------------------------------------------------------

def test_infsup_csv_layout(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert run(["infsup", "--psi", "spline", "--n-seq", "4,8,16",
                "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,delta_T"
    assert len(lines) == 1 + 3 + 2
    assert lines[-2].startswith("ratio,")
    assert lines[-1].startswith("slope,")
    ratio = float(lines[-2].split(",")[1])
    assert ratio > 0.9  # stable family stays flat
    capsys.readouterr()


def test_infsup_assert_flags(tmp_path, capsys):
    stable = ["infsup", "--psi", "spline", "--n-seq", "4,8,16,32"]
    unstable = ["infsup", "--psi", "perturbed:1", "--n-seq", "8,16,32,64,128"]
    assert run(stable + ["--assert-stable", "-o", str(tmp_path / "a.csv")]) == 0
    assert run(unstable + ["--assert-unstable", "-o", str(tmp_path / "b.csv")]) == 0
    assert run(stable + ["--assert-unstable", "-o", str(tmp_path / "c.csv")]) == 2
    assert run(unstable + ["--assert-stable", "-o", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert "assert-unstable" in err and "assert-stable" in err


def test_infsup_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run(["infsup", "--n-seq", "4,8", "-o", str(target)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["poly:nan", "poly:inf,1"])
def test_infsup_non_finite_psi_is_one_line_error(spec, tmp_path, capsys):
    assert run(["infsup", "--psi", spec, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: weighting-function moments contain NaN or inf"]


def test_infsup_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["infsup", "--mesh", "regular", "--seed", "9", "--psi", "perturbed:1",
            "--n-seq", "4,8,16"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
