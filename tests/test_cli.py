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


@pytest.mark.parametrize("option,value", [("--s", "nan"), ("--s", "inf"),
                                          ("--n-th", "nan"), ("--n-th", "inf")])
def test_point_rejects_non_finite_inputs(capsys, option, value):
    args = {"--s": "0.1", "--n-th": "0.1", option: value}
    code = main(["point", "--strategy", "coherent_before", "--eta", "0.5",
                 "--s", args["--s"], "--n-th", args["--n-th"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_point_eigensolver_failure_is_numerical_exit(monkeypatch, capsys):
    def no_convergence(rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scenarios, "log_negativity", no_convergence)
    code = main(["point", "--strategy", "coherent_before", "--s", "0.114",
                 "--eta", "0.5", "--n-th", "0.1"])
    assert code == 3
    assert "LinAlgError" in capsys.readouterr().err


@pytest.mark.parametrize("n_trunc,code", [("14", 0), ("16", 3), ("20", 3)])
def test_point_refuses_uncertified_fock_matrix(capsys, n_trunc, code):
    # float64 reconstruction of the s = 1 squeezed vacuum breaks down at
    # n_trunc 16 (trace 1.00017) and 20 (trace 1.397, E_N above the exact
    # value); those cutoffs must not print a number
    assert main(["point", "--strategy", "noop", "--s", "1.0", "--eta", "1.0",
                 "--n-th", "0", "--n-trunc", n_trunc]) == code
    assert ("PrecisionError" in capsys.readouterr().err) == (code == 3)


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
    ("s = nan\n", "s must be positive and finite"),
    ("s = inf\n", "s must be positive and finite"),
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
    cfg = parse_run_config(write_config(
        tmp_path, "strategies = noop\ns = 0.1\nn_th = 0.0\noutput = o.csv\n"))
    assert cfg.eta_min == 0.01
    assert cfg.eta_max == 1.0
    assert cfg.eta_points == 101
    assert cfg.n_trunc == 5
    assert cfg.objective == "negativity"
    assert cfg.t is None


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
