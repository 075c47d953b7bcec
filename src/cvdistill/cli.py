"""Command line front end.

Three subcommands: sweep (strategy grid -> CSV), point (one setting, text or
JSON report), env (thermal occupation for a wavelength and temperature).
Exit codes: 0 success, 2 bad configuration or arguments, 3 numerical failure,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import shutil
import sys

import numpy as np

from .chi_core import ChannelParams, SingularKernelError
from .entanglement import InvalidCovarianceError, thermal_occupation
from .fock_recon import PrecisionError
from .scenarios import ScenarioConfig, Strategy, evaluate_point, sweep

CSV_HEADER = "strategy,s,n_th,eta,t_opt,E_N,E_N_gauss,fidelity,p_success,flags"

EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

_COMPUTE_ERRORS = (SingularKernelError, np.linalg.LinAlgError,
                   InvalidCovarianceError, PrecisionError, ArithmeticError, MemoryError)


class ConfigError(ValueError):
    pass


_CONFIG_KEYS = {"strategies", "s", "n_th", "eta_min", "eta_max", "eta_points",
                "n_trunc", "objective", "output", "t"}
_REQUIRED_KEYS = ("strategies", "s", "n_th", "output")


def scenario_configs(strategies, s, n_th, etas, **options):
    """One ScenarioConfig per CSV row, strategy-major over etas, from
    strategy names and the other inputs as numbers: the rows of a sweep, or
    the one row of a point.  options (n_trunc, objective, t_override) are
    passed on where the user set them, not None: their defaults live only
    in ScenarioConfig.  An unknown name, or any input that ScenarioConfig
    or ChannelParams refuses, raises ConfigError with their message."""
    options = {key: value for key, value in options.items() if value is not None}
    kinds = []
    for name in strategies:
        try:
            kinds.append(Strategy(name))
        except ValueError:
            raise ConfigError(f"unknown strategy {name!r}") from None
    try:
        return [ScenarioConfig(strategy, s, ChannelParams(eta, n_th), **options)
                for strategy in kinds for eta in etas]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_run_config(path):
    """Read a flat key = value sweep configuration into (configs, output).

    Blank lines and # comments are ignored; unknown keys are rejected rather
    than silently skipped so typos cannot turn into default values.  configs
    holds scenario_configs' rows over linspace(eta_min, eta_max,
    eta_points), which checks the strategies and the ranges of s, n_th,
    eta, n_trunc, objective and t, as for a single point.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if not raw["output"]:
        raise ConfigError(f"{path}: output must name a file")

    def number(key, conv, default=None):
        if key not in raw:
            return default
        try:
            return conv(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {raw[key]!r}") from exc

    eta_min = number("eta_min", float, 0.01)
    eta_max = number("eta_max", float, 1.0)
    eta_points = number("eta_points", int, 101)
    if not eta_min <= eta_max:
        raise ConfigError(f"{path}: need eta_min <= eta_max")
    if eta_points < 1:
        raise ConfigError(f"{path}: eta_points must be at least 1")
    if eta_points == 1 and eta_min != eta_max:
        raise ConfigError(f"{path}: a single-point grid needs eta_min = eta_max")
    try:  # numpy refuses a grid it cannot allocate or index before allocating
        with np.errstate(invalid="ignore"):  # an infinite bound is refused below
            etas = [float(eta) for eta in np.linspace(eta_min, eta_max, eta_points)]
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{path}: eta_points = {eta_points} is too many: {exc}") from None
    names = [name.strip() for name in raw["strategies"].split(",")]
    try:
        configs = scenario_configs(
            names, number("s", float), number("n_th", float), etas,
            t_override=number("t", float), n_trunc=number("n_trunc", int),
            objective=raw.get("objective"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return configs, raw["output"]


def _fmt(x):
    """Numbers to 12 significant digits, enough that equal physics gives
    equal bytes; text as is."""
    return x if isinstance(x, str) else f"{x:.11e}"


def _columns(rec):
    """A record's output values, keyed by the CSV_HEADER names in order."""
    return dict(zip(CSV_HEADER.split(","), [
        rec.strategy.value, rec.s, rec.n_th, rec.eta, rec.t_opt, rec.e_n_fock,
        rec.e_n_gauss, rec.fidelity, rec.p_success, rec.flags]))


def _record_row(rec):
    return ",".join(_fmt(value) for value in _columns(rec).values())


def write_sweep_csv(path, records):
    """Write rows atomically: a crashed run never leaves a half file.  The
    rows go to a new .tmp file of random name, created with mode 0o666
    less the umask as the OS applies it, given path's own mode if path
    exists, and renamed over path: the mode a plain open(path, "w") gives,
    with the process's umask left alone.  As with that open, a symlink at
    path stays a link, and its target gets the rows and keeps its mode."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    body = "\n".join([CSV_HEADER] + [_record_row(r) for r in records]) + "\n"
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _check_output(path):
    """Raise the OSError that writing path would end with if its directory
    (a symlink's target's, as write_sweep_csv resolves it) is missing or
    path names a directory, before any row is computed."""
    directory = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no such directory: {directory!r}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"is a directory: {path!r}")


def cmd_sweep(args):
    configs, output = parse_run_config(args.config)
    try:  # sweep does no I/O: every OSError here is the output's
        _check_output(output)
        records = sweep(configs)
        write_sweep_csv(output, records)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(records)} rows to {output}")
    return 0


def cmd_point(args):
    [scen] = scenario_configs([args.strategy], args.s, args.n_th, [args.eta],
                              n_trunc=args.n_trunc, objective=args.objective,
                              t_override=args.t)
    payload = _columns(evaluate_point(scen))
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key} = {_fmt(value)}")
    return 0


_WAVELENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "m": 1.0}


def parse_wavelength(text):
    """'1064nm', '20um', '1.55e-6' (bare numbers are meters) -> meters."""
    m = re.fullmatch(r"\s*([0-9.eE+-]+)\s*([a-zµ]*)\s*", text)
    if not m:
        raise ConfigError(f"cannot parse wavelength {text!r}")
    value, unit = m.groups()
    try:
        value = float(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse wavelength {text!r}") from exc
    if unit and unit not in _WAVELENGTH_UNITS:
        raise ConfigError(f"unknown wavelength unit {unit!r}")
    scale = _WAVELENGTH_UNITS[unit] if unit else 1.0
    result = value * scale
    if not 0 < result < math.inf:
        raise ConfigError("wavelength must be positive and finite")
    return result


def parse_temperature(text):
    """'300K' or '300' -> kelvin."""
    t = text.strip()
    if t.endswith(("K", "k")):
        t = t[:-1]
    try:
        value = float(t)
    except ValueError as exc:
        raise ConfigError(f"cannot parse temperature {text!r}") from exc
    if not 0 <= value < math.inf:
        raise ConfigError("temperature must be nonnegative and finite")
    return value


def cmd_env(args):
    wavelength = parse_wavelength(args.wavelength)
    temperature = parse_temperature(args.temperature)
    print(_fmt(thermal_occupation(wavelength, temperature)))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command line parser, built once per process: parse_args leaves
    it as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="cvdistill",
        description="Entanglement distillation by coherent photon "
                    "addition/subtraction under thermal loss.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a strategy/eta sweep to CSV")
    p_sweep.add_argument("config", help="flat key = value config file")

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.add_argument("--strategy", required=True)
    p_point.add_argument("--s", type=float, required=True)
    p_point.add_argument("--eta", type=float, required=True)
    p_point.add_argument("--n-th", "--n_th", dest="n_th", type=float,
                         required=True)
    p_point.add_argument("--t", type=float,
                         help="pin the weight of a coherent strategy instead "
                              "of optimizing; other strategies ignore it")
    p_point.add_argument("--n-trunc", type=int)
    p_point.add_argument("--objective",
                         help="what the weight optimizer maximizes: "
                              "negativity (default) or fidelity")
    p_point.add_argument("--json", action="store_true")

    p_env = sub.add_parser("env", help="thermal occupation of a mode")
    p_env.add_argument("--wavelength", required=True,
                       help="e.g. 1064nm, 20um, 1.55e-6")
    p_env.add_argument("--temperature", required=True, help="e.g. 300K")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"sweep": cmd_sweep, "point": cmd_point, "env": cmd_env}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _COMPUTE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
