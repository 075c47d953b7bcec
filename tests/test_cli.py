"""Command line behavior: output formats, config validation, exit codes."""

import argparse
import ast
import builtins
import collections
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import cvdistill
from cvdistill import chi_core, scenarios
from cvdistill.chi_core import ChannelParams
from cvdistill.cli import (
    CSV_HEADER,
    ConfigError,
    build_parser,
    main,
    parse_run_config,
    parse_temperature,
    parse_wavelength,
)
from cvdistill.scenarios import Strategy

import oracles

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
DATA = os.path.join(os.path.dirname(__file__), "data")
STRATEGIES = ("noop", "subtract_before", "subtract_after", "coherent_before",
              "coherent_after")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the program must not import it
    src = os.path.dirname(os.path.dirname(cvdistill.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cvdistill.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# env

def test_env_reports_planck_occupation(capsys):
    assert main(["env", "--wavelength", "1064nm", "--temperature", "300K"]) == 0
    assert capsys.readouterr().out.strip() == "2.65710790868e-20"


def test_main_parses_alike_with_its_one_parser(capsys):
    # the parser is built once per process; a call after an argparse error
    # parses, reports and exits as the first call did
    env = ["env", "--wavelength", "1064nm", "--temperature", "300K"]
    runs = []
    for _ in range(2):
        assert main(env) == 0
        with pytest.raises(SystemExit) as exc:
            main(["point", "--strategy", "noop", "--s", "x"])
        runs.append((exc.value.code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and "invalid float value: 'x'" in runs[0][1].err
    assert build_parser() is build_parser()


def test_env_micron_wavelength(capsys):
    assert main(["env", "--wavelength", "20um", "--temperature", "300"]) == 0
    assert capsys.readouterr().out.strip() == "9.99927194212e-02"


def test_env_bare_meters_matches_unit_form(capsys):
    main(["env", "--wavelength", "1.064e-6", "--temperature", "300K"])
    a = capsys.readouterr().out
    main(["env", "--wavelength", "1064nm", "--temperature", "300K"])
    assert capsys.readouterr().out == a


def test_env_rejects_unknown_unit(capsys):
    assert main(["env", "--wavelength", "10ly", "--temperature", "300K"]) == 2
    assert "unknown wavelength unit" in capsys.readouterr().err


def test_env_rejects_negative_temperature(capsys):
    assert main(["env", "--wavelength", "1064nm", "--temperature=-5K"]) == 2


def test_env_large_x_gives_zero_occupation(capsys):
    # 1/(e^x - 1) overflows math.expm1 at x ~ 1.4e4; e^(-x)/(1 - e^(-x)) is 0
    assert main(["env", "--wavelength", "1064nm", "--temperature", "1K"]) == 0
    assert capsys.readouterr().out.strip() == "0.00000000000e+00"


@pytest.mark.parametrize("wavelength,temperature,name", [
    ("1e999", "300K", "wavelength"), ("1064nm", "inf", "temperature"),
    ("1064nm", "nan", "temperature"), ("1064nm", "infK", "temperature")])
def test_env_rejects_non_finite_inputs(capsys, wavelength, temperature, name):
    code = main(["env", "--wavelength", wavelength,
                 "--temperature", temperature])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must") \
        and "finite" in captured.err


def test_env_underflowing_product_reads_zero(capsys):
    # lambda kB T underflows to 0, so x = hc/(lambda kB T) is infinite
    code = main(["env", "--wavelength", "1e-320", "--temperature", "1e-300"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.00000000000e+00"


def test_env_refuses_an_occupation_beyond_floats(capsys):
    code = main(["env", "--wavelength", "1e300", "--temperature", "1e300"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: FloatingPointError")


def test_wavelength_and_temperature_parsers():
    assert parse_wavelength("1064nm") == pytest.approx(1.064e-6)
    assert parse_wavelength("0.02mm") == pytest.approx(2e-5)
    assert parse_wavelength(" 2 m ") == 2.0
    assert parse_temperature("300K") == 300.0
    assert parse_temperature("0") == 0.0
    for bad in ("nm", "-3um", "1.0pc", "1e999", "1e306km"):
        with pytest.raises(ConfigError):
            parse_wavelength(bad)
    for bad in ("cold", "inf", "-inf", "nan", "1e999K"):
        with pytest.raises(ConfigError):
            parse_temperature(bad)


# ---------------------------------------------------------------------------
# point

def test_point_json_noop_lossless(capsys):
    code = main(["point", "--strategy", "noop", "--s", "0.403",
                 "--eta", "1.0", "--n-th", "0.0", "--n-trunc", "10",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "noop"
    assert payload["t_opt"] == 1.0
    assert payload["p_success"] == pytest.approx(1.0, abs=1e-12)
    assert payload["E_N"] == pytest.approx(
        oracles.truncated_tmsv_log_negativity(0.403, 10), rel=1e-9)
    assert payload["E_N_gauss"] == pytest.approx(
        oracles.tmsv_log_negativity(0.403), rel=1e-12)
    assert payload["fidelity"] == pytest.approx(
        oracles.tmsv_fidelity(0.403), rel=1e-12)
    assert payload["flags"] == ""


def test_point_json_is_the_sweep_row(tmp_path, capsys):
    # point and sweep print one set of columns: same names, same order, and
    # for a pinned weight the same values
    assert main(["point", "--strategy", "coherent_after", "--s", "0.114",
                 "--eta", "0.7", "--n-th", "0.1", "--t", "0.8",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    out = tmp_path / "row.csv"
    cfg = write_config(tmp_path, "strategies = coherent_after\ns = 0.114\n"
                       "n_th = 0.1\neta_min = 0.7\neta_max = 0.7\n"
                       f"eta_points = 1\nt = 0.8\noutput = {out}\n")
    assert main(["sweep", cfg]) == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER
    assert list(payload) == CSV_HEADER.split(",")
    assert [v if isinstance(v, str) else f"{v:.11e}"
            for v in payload.values()] == row.split(",")
    rec = scenarios.evaluate_point(scenarios.ScenarioConfig(
        Strategy.COHERENT_AFTER, 0.114, ChannelParams(0.7, 0.1),
        t_override=0.8))
    assert payload["fidelity"] == rec.fidelity
    assert payload["p_success"] == rec.p_success
    assert payload["E_N"] == rec.e_n_fock


def test_point_text_format_pins_weight(capsys):
    code = main(["point", "--strategy", "coherent_before", "--s", "0.114",
                 "--eta", "0.8", "--n-th", "0.1", "--t", "0.9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t_opt = 9.00000000000e-01" in out
    assert out.startswith("strategy = coherent_before")
    assert "flags = " in out


def test_point_accepts_underscore_spelling(capsys):
    code = main(["point", "--strategy", "noop", "--s", "0.1",
                 "--eta", "0.5", "--n_th", "0.0"])
    assert code == 0


def test_point_rejects_unknown_strategy(capsys):
    code = main(["point", "--strategy", "swap", "--s", "0.1",
                 "--eta", "0.5", "--n-th", "0.0"])
    assert code == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_point_rejects_negative_squeezing(capsys):
    code = main(["point", "--strategy", "noop", "--s", "-0.1",
                 "--eta", "0.5", "--n-th", "0.0"])
    assert code == 2


@pytest.mark.parametrize("option,value", [("--s", "nan"), ("--s", "inf"),
                                          ("--n-th", "nan"), ("--n-th", "inf")])
def test_point_rejects_non_finite_inputs(capsys, option, value):
    args = {"--s": "0.1", "--n-th": "0.1", option: value}
    code = main(["point", "--strategy", "coherent_before", "--eta", "0.5",
                 "--s", args["--s"], "--n-th", args["--n-th"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


POINT = {"strategy": "coherent_before", "s": "0.1", "eta": "0.5",
         "n_th": "0.1", "n_trunc": "5", "objective": "negativity", "t": "0.5"}


@pytest.mark.parametrize("key,value", [
    ("strategy", "warp"), ("s", "-1"), ("eta", "0"), ("n_th", "-1"),
    ("n_trunc", "-1"), ("objective", "purity"), ("t", "1.5")])
def test_point_and_one_row_sweep_refuse_alike(tmp_path, capsys, key, value):
    # one rule per input: point refuses it with the sweep's message, less
    # the config path
    point = {**POINT, key: value}
    assert main(["point"] + [f"--{k.replace('_', '-')}={v}"
                             for k, v in point.items()]) == 2
    point_out = capsys.readouterr()
    sweep = {"strategies": point["strategy"], "eta_min": point["eta"],
             "eta_max": point["eta"], "eta_points": "1",
             **{k: v for k, v in point.items() if k not in ("strategy", "eta")}}
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in sweep.items())
                       + f"output = {tmp_path / 'o.csv'}\n")
    assert main(["sweep", cfg]) == 2
    sweep_err = capsys.readouterr().err
    assert point_out.out == ""
    assert point_out.err == sweep_err.replace(f"{cfg}: ", "", 1)
    assert point_out.err.startswith("error: ") and "usage" not in point_out.err


def test_point_eigensolver_failure_is_numerical_exit(monkeypatch, capsys):
    def no_convergence(rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scenarios, "log_negativity", no_convergence)
    code = main(["point", "--strategy", "coherent_before", "--s", "0.114",
                 "--eta", "0.5", "--n-th", "0.1"])
    assert code == 3
    assert "LinAlgError" in capsys.readouterr().err


def test_point_imaginary_moment_covariance_is_numerical_exit(monkeypatch, capsys):
    covariance = chi_core._moment_covariance

    def imaginary(kernel):
        cov, norm = covariance(kernel)
        cov[-1, -1] += 1e-300j
        return cov, norm
    monkeypatch.setattr(chi_core, "_moment_covariance", imaginary)
    code = main(["point", "--strategy", "coherent_after", "--s", "0.114",
                 "--eta", "0.5", "--n-th", "0.1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: SingularKernelError: moment covariance "
                            "has an imaginary part\n")


@pytest.mark.parametrize("argv", [
    ["--strategy", "noop", "--s", "400", "--eta", "0.5", "--n-th", "0.1"],
    ["--strategy", "noop", "--s", "0.3", "--eta", "0.5", "--n-th", "1e100"],
    ["--strategy", "coherent_before", "--s", "0.3", "--eta", "0.5",
     "--n-th", "1e300"],
    ["--strategy", "coherent_after", "--s", "0.3", "--eta", "0.5",
     "--n-th", "1e300"],
    ["--strategy", "subtract_after", "--s", "0.3", "--eta", "0.5",
     "--n-th", "1e300"],
])
def test_point_overflowing_inputs_are_numerical_exit(capsys, argv):
    # cosh(2s) overflows above s ~ 356, the channel's (2 n_th + 1) terms
    # overflow at huge n_th, and at n_th 1e300 the Fock matrix is all zero
    # (operation first) or the kernel entries of about 5e299 overflow the
    # coefficients of the operation after the channel
    with np.errstate(all="ignore"):
        assert main(["point", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("s", ["5", "20"])
def test_point_refuses_squeezing_whose_kernel_rounds_away_the_state(capsys, s):
    # the kernel holds cosh(2s)/2 and sinh(2s)/2 and the state is their
    # difference, so above s = 3 its rounding passes the outputs' 1e-10:
    # the row printed E_N_gauss 1e-7 off at s 5, and np.linalg.inv raised
    # LinAlgError at s 20
    code = main(["point", "--strategy", "noop", "--s", s, "--eta", "0.5",
                 "--n-th", "0.1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: SingularKernelError: s = {float(s)} is above "
                            "3.0: the kernel's e^(-2s) is lost to rounding\n")


@pytest.mark.parametrize("argv", [
    ["--strategy", "coherent_before"],
    ["--strategy", "noop"],
    ["--strategy", "coherent_before", "--objective", "fidelity"],
], ids=["coherent_before", "noop", "coherent_before-fidelity"])
def test_point_overflowing_kernel_determinant_is_singular(capsys, argv):
    # at n_th 1e300 the kernel's determinant overflows, and so do the powers
    # of the fidelity integral's kappa; either is refused as a singular
    # kernel before any moment reads 0.  At n_th 1e308 the channel's thermal
    # term itself overflows and is refused before it enters the kernel.  No
    # RuntimeWarning leaks
    for s, n_th in (("0.3", "1e300"), ("0.3", "1e308"), ("0.1", "1e308")):
        assert main(["point", *argv, "--s", s, "--eta", "0.5",
                     "--n-th", n_th]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SingularKernelError: ")


@pytest.mark.parametrize("n_trunc,code", [("14", 0), ("16", 3), ("20", 3)])
def test_point_refuses_uncertified_fock_matrix(capsys, tmp_path, n_trunc, code):
    # float64 reconstruction of the s = 1 squeezed vacuum breaks down at
    # n_trunc 16 (trace 1.00017) and 20 (trace 1.397, E_N above the exact
    # value); those cutoffs must not print a number.  The one error line
    # names the refused row by its strategy and eta, not by its place among
    # a chunk's rows, so the row prints the same line in a sweep: alone, and
    # at n_trunc 16 after a row of its chunk that certify passes (eta 0.05)
    assert main(["point", "--strategy", "noop", "--s", "1.0", "--eta", "1.0",
                 "--n-th", "0", "--n-trunc", n_trunc]) == code
    err = capsys.readouterr().err
    assert ("PrecisionError" in err) == (code == 3)
    if code == 3:
        assert err.startswith("error: PrecisionError: noop at eta = 1.0: "
                              f"n_trunc = {n_trunc} gives no state: trace ")
        assert err.count("\n") == 1 and "index" not in err
        for eta_min, points in [(1.0, 1)] + [(0.05, 2)] * (n_trunc == "16"):
            cfg = write_config(tmp_path, (
                f"strategies = noop\ns = 1.0\nn_th = 0\neta_min = {eta_min}\n"
                f"eta_max = 1.0\neta_points = {points}\nn_trunc = {n_trunc}\n"
                f"output = {tmp_path / 'o.csv'}\n"))
            assert main(["sweep", cfg]) == 3
            assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [
    ["point", "--strategy", "noop", "--s", "0.1", "--eta", "0.5", "--n-th", "0.1",
     "--n-trunc", "2000"],
    ["point", "--strategy", "noop", "--s", "0.1", "--eta", "0.5", "--n-th", "0.1",
     "--n-trunc", "100000"],
    ["sweep", "eta_points = 1000000000000000"],
], ids=["n_trunc-2000", "n_trunc-100000", "eta_points-1e15"])
def test_inputs_too_large_to_allocate_exit_with_one_error_line(capsys, tmp_path, argv):
    # the Fock matrices of n_trunc 2000 would take 117 TiB, those of
    # n_trunc 100000 more bytes than numpy can index, and the eta grid
    # 7.1 PiB: numpy refuses each before allocating anything.  A cutoff too
    # large is a numerical failure (exit 3), a grid too large a bad
    # configuration (exit 2)
    if argv[0] == "sweep":
        argv = ["sweep", write_config(tmp_path, (
            f"strategies = noop\ns = 0.1\nn_th = 0.1\n{argv[1]}\n"
            f"output = {tmp_path / 'o.csv'}\n"))]
    assert main(argv) == (2 if argv[0] == "sweep" else 3)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    if argv[0] == "sweep":
        assert "eta_points = 1000000000000000 is too many: " in captured.err
        assert not (tmp_path / "o.csv").exists()
    else:
        assert captured.err.startswith(f"error: MemoryError: n_trunc = {argv[-1]}: ")


def test_point_prints_a_product_state_it_once_refused(capsys):
    # at s 0 the covariance is the product state diag(11.49): its
    # discriminant is exactly 0 and rounds to -1.5e-11, against a Delta^2
    # of 7.0e4, so the relative test reads it as 0
    assert main(["point", "--strategy", "coherent_after", "--s", "0",
                 "--eta", "0.001", "--n-th", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["E_N_gauss"] == 0.0


def test_point_below_separation_eta_reports_the_most_probable_weight(capsys):
    # eta 0.7 is below separation_eta = 0.780, so the operation acts on a
    # separable state and E_N is 0 at every weight; the grid's float noise
    # once picked t_opt 0.00257 with E_N 4.1e-11 and no flag.  The printed
    # E_N is still the Fock route's, whose float error at n_trunc 8 is
    # about 4e-11.
    assert main(["point", "--strategy", "coherent_after", "--s", "0.029",
                 "--eta", "0.7", "--n-th", "0.1", "--n-trunc", "8",
                 "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["t_opt"], row["flags"]) == (0.0, "zero_objective")
    assert row["E_N_gauss"] == 0.0 and 0.0 <= row["E_N"] < 1e-10
    assert row["p_success"] == pytest.approx(1.06252596106, rel=0, abs=1e-10)


# ---------------------------------------------------------------------------
# sweep

SMALL_SWEEP = """\
# two cheap strategies on a coarse grid
strategies = noop, subtract_before
s = 0.114
n_th = 0.1
eta_min = 0.5
eta_max = 1.0
eta_points = 3
n_trunc = 4
output = {out}
"""


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out))
    assert main(["sweep", cfg]) == 0
    assert f"wrote 6 rows to {out}" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["noop"] * 3 + ["subtract_before"] * 3
    etas = [float(r[3]) for r in rows[:3]]
    assert etas == pytest.approx([0.5, 0.75, 1.0])
    for r in rows:
        assert len(r) == 10
        for field in r[1:9]:
            float(field)  # all numeric columns parse
    assert rows[0][9] == ""


def test_sweep_reruns_byte_identical(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out))
    main(["sweep", cfg])
    first = out.read_bytes()
    main(["sweep", cfg])
    assert out.read_bytes() == first


def test_sweep_pinned_weight_column(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, (
        "strategies = coherent_after\n"
        "s = 0.114\n"
        "n_th = 0.1\n"
        "eta_points = 2\n"
        "eta_min = 0.6\n"
        "eta_max = 1.0\n"
        "n_trunc = 4\n"
        "t = 0.9\n"
        f"output = {out}\n"))
    assert main(["sweep", cfg]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[4]) for r in rows] == [0.9, 0.9]


def test_sweep_leaves_no_temp_files(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out))
    main(["sweep", cfg])
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_sweep_csv_gets_the_mode_of_a_plain_write(tmp_path, umask):
    # the atomic write goes through a 0600 temporary file; the CSV must get
    # what open(path, "w") gives instead: 0o666 less the umask for a new
    # file, and its own mode for one that exists
    out = tmp_path / "rows.csv"
    plain = tmp_path / "plain.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out))
    old = os.umask(umask)
    try:
        assert main(["sweep", cfg]) == 0
        plain.open("w").close()
        assert out.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        out.chmod(0o640)
        assert main(["sweep", cfg]) == 0
        assert out.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(old)
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_sweep_csv_leaves_the_umask_alone(tmp_path, monkeypatch):
    # setting the umask, even to read it, is process-wide: a file another
    # thread creates meanwhile would get the temporary umask
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out))
    umask = os.umask(0o022)
    os.umask(umask)

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    assert main(["sweep", cfg]) == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_sweep_output_through_a_symlink_rewrites_its_target(tmp_path, capsys,
                                                            monkeypatch):
    # as with open(path, "w"), a link at the output path is written through:
    # the target gets the rows and keeps its mode, and the link stays a link;
    # a link into a missing directory is refused before any row
    plain = tmp_path / "plain.csv"
    assert main(["sweep", write_config(tmp_path, SMALL_SWEEP.format(out=plain))]) == 0
    real = tmp_path / "real"
    real.mkdir()
    target = real / "target.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["sweep", write_config(tmp_path, SMALL_SWEEP.format(out=link))]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in real.iterdir()) == ["target.csv"]
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(tmp_path / "no_such_dir" / "rows.csv")
    rows = []
    monkeypatch.setattr(scenarios, "_evaluate_chunk", lambda *a: rows.append(a))
    capsys.readouterr()
    assert main(["sweep", write_config(tmp_path, SMALL_SWEEP.format(out=dangling))]) == 4
    assert f"no such directory: '{tmp_path}/no_such_dir'" in capsys.readouterr().err
    assert rows == []


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    # editors that save UTF-8 with a BOM must not turn the first key into
    # an unknown one
    for text in (SMALL_SWEEP, SMALL_SWEEP.split("\n", 1)[1]):
        plain = write_config(tmp_path, text.format(out="o.csv"))
        marked = tmp_path / "bom.cfg"
        marked.write_text(text.format(out="o.csv"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_run_config(str(marked)) == parse_run_config(plain)


def test_sweep_overflowing_squeezing_is_numerical_exit(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out).replace(
        "s = 0.114", "s = 400"))
    assert main(["sweep", cfg]) == 3
    assert capsys.readouterr().err.startswith("error: OverflowError")
    assert not out.exists()


def test_sweep_overflowing_coefficients_are_numerical_exit(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=out)
                       .replace("noop, subtract_before", "coherent_after")
                       .replace("n_th = 0.1", "n_th = 1e300"))
    assert main(["sweep", cfg]) == 3
    assert capsys.readouterr().err.startswith("error: FloatingPointError")
    assert not out.exists()


def test_sweep_missing_config_file(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_sweep_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    out = tmp_path / "o.csv"
    cfg.write_bytes(b"# temp\xe9rature\n" + SMALL_SWEEP.format(out=out).encode())
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("output,code,message", [
    ("", 2, "output must name a file"),
    ("{tmp}/no_such_dir/out.csv", 4, "no such directory: '{tmp}/no_such_dir'"),
    ("{tmp}", 4, "is a directory: '{tmp}'"),
])
def test_sweep_refuses_a_bad_output_before_any_row(tmp_path, capsys, monkeypatch,
                                                    output, code, message):
    rows = []
    monkeypatch.setattr(scenarios, "_evaluate_chunk", lambda *a: rows.append(a))
    output = output.format(tmp=tmp_path)
    cfg = write_config(tmp_path, SMALL_SWEEP.format(out=output))
    assert main(["sweep", cfg]) == code
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    if code == 4:
        assert err.startswith(f"error: cannot write {output}: ")
    assert rows == [] and os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("mutation,message", [
    ("unknown = 1\n", "unknown key"),
    ("s = 0.1\ns = 0.2\n", "duplicate key"),
    ("strategies = noop, warp\n", "unknown strategy"),
    ("strategies =\n", "unknown strategy"),
    ("eta_min = 0.0\n", "eta must lie in (0, 1]"),
    ("eta_max = 1.5\n", "eta must lie in (0, 1]"),
    ("eta_points = 1\n", "single-point"),
    ("n_trunc = -1\n", "n_trunc must be nonnegative"),
    ("objective = purity\n", "unknown objective"),
    ("t = 1.5\n", "t must lie"),
    ("s = -1\n", "s must be nonnegative and finite"),
    ("s = nan\n", "s must be nonnegative and finite"),
    ("s = inf\n", "s must be nonnegative and finite"),
    ("n_th = nan\n", "n_th must be nonnegative and finite"),
    ("n_th = inf\n", "n_th must be nonnegative and finite"),
])
def test_sweep_config_errors(tmp_path, capsys, mutation, message):
    base = {"strategies": "noop", "s": "0.1", "n_th": "0.0",
            "output": str(tmp_path / "o.csv")}
    key = mutation.split("=")[0].strip()
    if key in base and not mutation.count("\n") > 1:
        del base[key]
    text = "".join(f"{k} = {v}\n" for k, v in base.items()) + mutation
    cfg = write_config(tmp_path, text)
    assert main(["sweep", cfg]) == 2
    assert message in capsys.readouterr().err


def test_sweep_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "strategies = noop\ns = 0.1\nn_th = 0.0\n")
    assert main(["sweep", cfg]) == 2
    assert "missing required key" in capsys.readouterr().err


def test_sweep_unwritable_output(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "strategies = noop\n"
        "s = 0.1\n"
        "n_th = 0.0\n"
        "eta_points = 1\n"
        "eta_min = 1.0\n"
        "eta_max = 1.0\n"
        f"output = {tmp_path}/no_such_dir/out.csv\n"))
    assert main(["sweep", cfg]) == 4
    assert "cannot write" in capsys.readouterr().err


def test_parse_run_config_defaults(tmp_path):
    configs, output = parse_run_config(write_config(
        tmp_path, "strategies = noop, coherent_after\ns = 0.1\nn_th = 0.0\n"
                  "output = o.csv\n"))
    assert output == "o.csv"
    assert len(configs) == 202
    for strategy, rows in ((Strategy.NOOP, configs[:101]),
                           (Strategy.COHERENT_AFTER, configs[101:])):
        etas = [cfg.channel.eta for cfg in rows]
        assert all(type(eta) is float for eta in etas)
        assert etas == list(np.linspace(0.01, 1.0, 101))
        assert etas[0] == 0.01 and etas[-1] == 1.0
        for cfg in rows:
            assert cfg.strategy is strategy
            assert (cfg.s, cfg.channel.n_th) == (0.1, 0.0)
            assert cfg.n_trunc == 5
            assert cfg.objective == "negativity"
            assert cfg.t_override is None


def test_sweep_accepts_zero_squeezing(tmp_path, capsys):
    # a sweep takes the same inputs as point: s = 0 is the vacuum, from which
    # no photon can be subtracted, so those rows are flagged, not refused
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, (
        f"strategies = {', '.join(STRATEGIES)}\n"
        "s = 0\n"
        "n_th = 0.1\n"
        "eta_min = 0.2\n"
        "eta_max = 1.0\n"
        "eta_points = 3\n"
        "n_trunc = 3\n"
        f"output = {out}\n"))
    assert main(["sweep", cfg]) == 0
    assert f"wrote 15 rows to {out}" in capsys.readouterr().out
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[0] for r in rows] == [name for name in STRATEGIES for _ in range(3)]
    assert all(float(r[1]) == 0.0 for r in rows)
    assert [r[9] for r in rows if r[0] == "subtract_before"] == ["zero_state"] * 3


def test_readme_sweep_config_parses_to_documented_rows(tmp_path):
    # the sweep config block in README.md is the documented default run
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    configs, output = parse_run_config(write_config(tmp_path, block))
    grid = [float(eta) for eta in np.linspace(0.01, 1.0, 101)]
    assert output == "fig_sweep.csv"
    assert len(configs) == 505
    assert [(cfg.strategy.value, cfg.channel.eta) for cfg in configs] == [
        (strategy, eta) for strategy in STRATEGIES for eta in grid]
    assert {(cfg.s, cfg.channel.n_th, cfg.n_trunc, cfg.objective,
             cfg.t_override) for cfg in configs} == {
        (0.029, 0.1, 5, "negativity", None)}


def test_readme_python_api_example_runs(capsys):
    # the README "Python API" block runs as printed against the public API
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    namespace = {"print": lambda *args, **kwargs: None}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == ""
    assert namespace["rho"].shape == (121, 121)
    assert namespace["log_negativity"](namespace["rho"]) == pytest.approx(
        2 * 0.403 * math.log2(math.e), abs=1e-3)


def layout_names():
    """(path, backticked identifiers) of each bullet of README's Layout."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    layout = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = []
    for bullet in re.split(r"^- ", layout, flags=re.M)[1:]:
        spans = re.findall(r"`([^`]+)`", bullet)
        bullets.append((spans[0], [n for n in spans[1:]
                                   if re.fullmatch(r"[A-Za-z_]\w*", n)]))
    return bullets


def test_readme_layout_names_resolve():
    # every identifier the Layout names exists: in a cvdistill module (and,
    # in the tests bullet, also in tests/oracles.py), as a builtin, or as a
    # command line subcommand; a name left behind by a refactor fails here
    package = [importlib.import_module(f"cvdistill.{m.name}")
               for m in pkgutil.iter_modules(cvdistill.__path__)]
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    bullets = layout_names()
    assert [path for path, _ in bullets] == [
        "src/cvdistill/chi_core.py", "src/cvdistill/fock_recon.py",
        "src/cvdistill/entanglement.py", "src/cvdistill/scenarios.py",
        "src/cvdistill/cli.py", "tests/"]
    for path, names in bullets:
        scope = package + ([oracles] if path.startswith("tests/") else [])
        missing = [n for n in names
                   if not any(hasattr(m, n) for m in scope)
                   and not hasattr(builtins, n) and n not in commands]
        assert names and not missing, (path, missing)
    assert len({n for _, names in bullets for n in names}) >= 25


def test_every_module_level_name_in_src_is_used():
    # no linter ships with the project, so dead names are caught here: each
    # module-level function, class and constant of a cvdistill module is
    # loaded somewhere in the package outside the statement that defines
    # it; an export from cvdistill/__init__.py is not a use, since a name
    # only the tests use belongs in the tests
    src = os.path.dirname(cvdistill.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    del trees["__init__.py"]
    loads = collections.defaultdict(set)  # name -> ids of the loading statements
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads[node.id].add(id(stmt))
    dead = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}:{name}" for name in names
                     if not loads[name] - {id(stmt)}]
    assert dead == []


def test_every_name_a_src_module_imports_is_loaded_there():
    # no linter ships with the project, so leftover imports are caught
    # here: each name a cvdistill module imports is loaded in that module,
    # with no exemption for the "import x as x" re-export form; __init__.py
    # only re-exports, and a __future__ import is a directive
    src = os.path.dirname(cvdistill.__file__)
    unused = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{name}:{alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in loaded]
    assert unused == []


PINNED_SWEEP = """\
strategies = noop, subtract_before, subtract_after, coherent_before, coherent_after
s = 0.029
n_th = 0.1
eta_min = 0.2
eta_max = 1.0
eta_points = 3
n_trunc = 5
objective = {objective}
output = {out}
"""

# (strategy, eta, t_opt, E_N, E_N_gauss, fidelity, p_success, flags) of
# PINNED_SWEEP as computed by the one-weight-at-a-time pipeline, before the
# (t, r) basis.  Rows without a weight to optimize are the same for both
# objectives.
_FIXED_ROWS = [
    ("noop", 0.2, 1.0, 0.0, 0.0, 4.65391186837e-01, 1.0, ""),
    ("noop", 0.6, 1.0, 0.0, 0.0, 4.88713176886e-01, 1.0, ""),
    ("noop", 1.0, 1.0, 8.36763106582e-02, 8.36763123716e-02,
     5.14495936534e-01, 1.0, ""),
    ("subtract_before", 0.2, 1.0, 0.0, 0.0, 4.67696760036e-01,
     8.42651142069e-04, ""),
    ("subtract_before", 0.6, 1.0, 1.98793945820e-04, 0.0, 4.96383396369e-01,
     8.42651142069e-04, ""),
    ("subtract_before", 1.0, 1.0, 1.64927359290e-01, 1.67207929642e-01,
     5.28751663910e-01, 8.42651142069e-04, ""),
    ("subtract_after", 0.2, 1.0, 0.0, 0.0, 4.38771636419e-01,
     6.46062559086e-03, ""),
    ("subtract_after", 0.6, 1.0, 0.0, 0.0, 4.85720053262e-01,
     1.94373372891e-03, ""),
    ("subtract_after", 1.0, 1.0, 1.64927359290e-01, 1.67207929642e-01,
     5.28751663910e-01, 8.42651142069e-04, ""),
]

PINNED_ROWS = {
    "negativity": _FIXED_ROWS + [
        ("coherent_before", 0.2, 0.0, 0.0, 0.0, 3.93249044999e-01,
         1.00252512272e+00, "zero_objective"),
        ("coherent_before", 0.6, 9.90643118126e-01, 3.43482754895e-01,
         9.86802697634e-02, 5.38843631797e-01, 1.28248547785e-03, ""),
        ("coherent_before", 1.0, 9.85804865150e-01, 1.00675802919e+00,
         1.37102587652e-03, 6.09774454113e-01, 1.77694191538e-03, ""),
        ("coherent_after", 0.2, 0.0, 0.0, 0.0, 2.35195856300e-01,
         1.16679711991e+00, "zero_objective"),
        ("coherent_after", 0.6, 0.0, 0.0, 0.0, 2.52531463660e-01,
         1.08295321667e+00, "zero_objective"),
        ("coherent_after", 1.0, 9.85804865150e-01, 1.00675802919e+00,
         1.37102587652e-03, 6.09774454113e-01, 1.77694191538e-03, ""),
    ],
    "fidelity": _FIXED_ROWS + [
        ("coherent_before", 0.2, 9.94604466124e-01, 0.0, 0.0,
         4.79893320005e-01, 1.01243130271e-03, ""),
        ("coherent_before", 0.6, 9.93561078801e-01, 3.19324625034e-01,
         2.01691855113e-01, 5.45442331853e-01, 1.07169582845e-03, ""),
        ("coherent_before", 1.0, 9.92059179851e-01, 9.15747158790e-01,
         5.25414785352e-01, 6.42768612885e-01, 1.17192375152e-03, ""),
        ("coherent_after", 0.2, 1.0, 0.0, 0.0, 4.38771636419e-01,
         6.46062559086e-03, ""),
        ("coherent_after", 0.6, 1.0, 0.0, 0.0, 4.85720053262e-01,
         1.94373372891e-03, ""),
        ("coherent_after", 1.0, 9.92059179851e-01, 9.15747158790e-01,
         5.25414785352e-01, 6.42768612885e-01, 1.17192375152e-03, ""),
    ],
}


@pytest.mark.parametrize("objective", sorted(PINNED_ROWS))
def test_sweep_matches_pinned_values(tmp_path, objective):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, PINNED_SWEEP.format(objective=objective,
                                                     out=out))
    assert main(["sweep", cfg]) == 0
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").splitlines()[1:]]
    want = PINNED_ROWS[objective]
    assert len(rows) == len(want)
    for got, (strategy, eta, *values, flags) in zip(rows, want):
        assert (got[0], got[9]) == (strategy, flags)
        assert [float(x) for x in got[1:9]] == pytest.approx(
            [0.029, 0.1, eta, *values], rel=0, abs=1e-10)


REGRESSION_SWEEP = """\
strategies = noop, subtract_before, subtract_after, coherent_before, coherent_after
s = 0.029
n_th = 0.1
eta_min = 0.01
eta_max = 1.0
eta_points = 11
n_trunc = 5
objective = {objective}
output = {out}
"""


def test_sweep_matches_committed_regression_csvs(tmp_path):
    # the README sweep on an 11-point eta grid under both objectives, against
    # the committed CSVs in tests/data; fields compare as parsed numbers, so
    # a change below 1e-10 in any printed value passes
    for objective in ("negativity", "fidelity"):
        out = tmp_path / f"{objective}.csv"
        cfg = write_config(tmp_path, REGRESSION_SWEEP.format(
            objective=objective, out=out))
        assert main(["sweep", cfg]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        path = os.path.join(DATA, f"readme_eta11_{objective}.csv")
        with open(path, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        assert got[0] == want[0] == CSV_HEADER
        assert len(got) == len(want) == 56
        for row, ref in zip(got[1:], want[1:]):
            row, ref = row.split(","), ref.split(",")
            assert (row[0], row[9]) == (ref[0], ref[9])
            assert [float(x) for x in row[1:9]] == pytest.approx(
                [float(x) for x in ref[1:9]], rel=0, abs=1e-10), (objective, ref)
