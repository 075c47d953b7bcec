"""Command line behavior: output formats, config validation, exit codes."""

import json

import numpy as np
import pytest

from cvdistill import scenarios
from cvdistill.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_run_config,
    parse_temperature,
    parse_wavelength,
)

import oracles


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# env

def test_env_reports_planck_occupation(capsys):
    assert main(["env", "--wavelength", "1064nm", "--temperature", "300K"]) == 0
    assert capsys.readouterr().out.strip() == "2.65710790868e-20"


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


def test_wavelength_and_temperature_parsers():
    assert parse_wavelength("1064nm") == pytest.approx(1.064e-6)
    assert parse_wavelength("0.02mm") == pytest.approx(2e-5)
    assert parse_wavelength(" 2 m ") == 2.0
    assert parse_temperature("300K") == 300.0
    assert parse_temperature("0") == 0.0
    for bad in ("nm", "-3um", "1.0pc"):
        with pytest.raises(ConfigError):
            parse_wavelength(bad)
    with pytest.raises(ConfigError):
        parse_temperature("cold")


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


def test_point_eigensolver_failure_is_numerical_exit(monkeypatch, capsys):
    def no_convergence(rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scenarios, "log_negativity", no_convergence)
    code = main(["point", "--strategy", "coherent_before", "--s", "0.114",
                 "--eta", "0.5", "--n-th", "0.1"])
    assert code == 3
    assert "LinAlgError" in capsys.readouterr().err


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


def test_sweep_missing_config_file(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("mutation,message", [
    ("unknown = 1\n", "unknown key"),
    ("s = 0.1\ns = 0.2\n", "duplicate key"),
    ("strategies = noop, warp\n", "unknown strategy"),
    ("strategies =\n", "unknown strategy"),
    ("eta_min = 0.0\n", "eta_min"),
    ("eta_points = 1\n", "single-point"),
    ("objective = purity\n", "unknown objective"),
    ("t = 1.5\n", "t must lie"),
    ("s = -1\n", "must be positive"),
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
    cfg = parse_run_config(write_config(
        tmp_path, "strategies = noop\ns = 0.1\nn_th = 0.0\noutput = o.csv\n"))
    assert cfg.eta_min == 0.01
    assert cfg.eta_max == 1.0
    assert cfg.eta_points == 101
    assert cfg.n_trunc == 5
    assert cfg.objective == "negativity"
    assert cfg.t is None
