"""Command line front end.

Three subcommands: sweep (strategy grid -> CSV), point (one setting, text or
JSON report), env (thermal occupation for a wavelength and temperature).
Exit codes: 0 success, 2 bad configuration or arguments, 3 numerical failure,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .chi_core import ChannelParams, SingularKernelError, ZeroStateError
from .entanglement import InvalidCovarianceError, thermal_occupation
from .fock_recon import PrecisionError
from .scenarios import ScenarioConfig, Strategy, default_eta_grid, evaluate_point, sweep_eta

CSV_HEADER = "strategy,s,n_th,eta,t_opt,E_N,E_N_gauss,fidelity,p_success,flags"

EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

_COMPUTE_ERRORS = (ZeroStateError, SingularKernelError, np.linalg.LinAlgError,
                   InvalidCovarianceError, PrecisionError, FloatingPointError)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    strategies: list
    s: float
    n_th: float
    output: str
    eta_min: float = 0.01
    eta_max: float = 1.0
    eta_points: int = 101
    n_trunc: int = 5
    objective: str = "negativity"
    t: float | None = None


_CONFIG_KEYS = {"strategies", "s", "n_th", "eta_min", "eta_max", "eta_points",
                "n_trunc", "objective", "output", "t"}
_REQUIRED_KEYS = ("strategies", "s", "n_th", "output")


def parse_run_config(path):
    """Read a flat key = value sweep configuration.

    Blank lines and # comments are ignored; unknown keys are rejected rather
    than silently skipped so typos cannot turn into default values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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

    def number(key, conv, default=None):
        if key not in raw:
            return default
        try:
            return conv(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {raw[key]!r}") from exc

    strategies = []
    for name in raw["strategies"].split(","):
        name = name.strip()
        try:
            strategies.append(Strategy(name))
        except ValueError as exc:
            raise ConfigError(f"{path}: unknown strategy {name!r}") from exc
    if not strategies:
        raise ConfigError(f"{path}: empty strategy list")
    cfg = RunConfig(
        strategies=strategies,
        s=number("s", float),
        n_th=number("n_th", float),
        output=raw["output"],
        eta_min=number("eta_min", float, 0.01),
        eta_max=number("eta_max", float, 1.0),
        eta_points=number("eta_points", int, 101),
        n_trunc=number("n_trunc", int, 5),
        objective=raw.get("objective", "negativity"),
        t=number("t", float),
    )
    if not 0 < cfg.s < np.inf:
        raise ConfigError(f"{path}: squeezing s must be positive and finite")
    if not 0 <= cfg.n_th < np.inf:
        raise ConfigError(f"{path}: n_th must be nonnegative and finite")
    if not 0.0 < cfg.eta_min <= cfg.eta_max <= 1.0:
        raise ConfigError(f"{path}: need 0 < eta_min <= eta_max <= 1")
    if cfg.eta_points < 1:
        raise ConfigError(f"{path}: eta_points must be at least 1")
    if cfg.eta_points == 1 and cfg.eta_min != cfg.eta_max:
        raise ConfigError(f"{path}: a single-point grid needs eta_min = eta_max")
    if cfg.n_trunc < 0:
        raise ConfigError(f"{path}: n_trunc must be nonnegative")
    if cfg.objective not in ("negativity", "fidelity"):
        raise ConfigError(f"{path}: unknown objective {cfg.objective!r}")
    if cfg.t is not None and not 0.0 <= cfg.t <= 1.0:
        raise ConfigError(f"{path}: t must lie in [0, 1]")
    return cfg


def _fmt(x):
    """12 significant digits; enough that equal physics gives equal bytes."""
    return f"{x:.11e}"


def _record_row(rec):
    return ",".join([
        rec.strategy.value,
        _fmt(rec.s),
        _fmt(rec.n_th),
        _fmt(rec.eta),
        _fmt(rec.t_opt),
        _fmt(rec.e_n_fock),
        _fmt(rec.e_n_gauss),
        _fmt(rec.fidelity),
        _fmt(rec.p_success),
        rec.flags,
    ])


def write_sweep_csv(path, records):
    """Write rows atomically: a crashed run never leaves a half file."""
    directory = os.path.dirname(os.path.abspath(path))
    body = "\n".join([CSV_HEADER] + [_record_row(r) for r in records]) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_sweep(args):
    cfg = parse_run_config(args.config)
    grid = default_eta_grid(cfg.eta_points, cfg.eta_min, cfg.eta_max)
    records = []
    for strategy in cfg.strategies:
        scen = ScenarioConfig(
            strategy=strategy,
            s=cfg.s,
            channel=ChannelParams(eta=cfg.eta_max, n_th=cfg.n_th),
            n_trunc=cfg.n_trunc,
            objective=cfg.objective,
            t_override=cfg.t,
        )
        records.extend(sweep_eta(scen, grid))
    try:
        write_sweep_csv(cfg.output, records)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(records)} rows to {cfg.output}")
    return 0


def cmd_point(args):
    try:
        strategy = Strategy(args.strategy)
    except ValueError:
        print(f"error: unknown strategy {args.strategy!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        scen = ScenarioConfig(
            strategy=strategy,
            s=args.s,
            channel=ChannelParams(eta=args.eta, n_th=args.n_th),
            n_trunc=args.n_trunc,
            objective=args.objective,
            t_override=args.t,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rec = evaluate_point(scen)
    payload = {
        "strategy": rec.strategy.value,
        "s": rec.s,
        "n_th": rec.n_th,
        "eta": rec.eta,
        "t_opt": rec.t_opt,
        "E_N": rec.e_n_fock,
        "E_N_gauss": rec.e_n_gauss,
        "fidelity": rec.fidelity,
        "p_success": rec.p_success,
        "flags": rec.flags,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if isinstance(value, float):
                print(f"{key} = {_fmt(value)}")
            else:
                print(f"{key} = {value}")
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
    if result <= 0:
        raise ConfigError("wavelength must be positive")
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
    if value < 0:
        raise ConfigError("temperature must be nonnegative")
    return value


def cmd_env(args):
    wavelength = parse_wavelength(args.wavelength)
    temperature = parse_temperature(args.temperature)
    print(_fmt(thermal_occupation(wavelength, temperature)))
    return 0


def build_parser():
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
    p_point.add_argument("--t", type=float, default=None,
                         help="pin the coherent weight instead of optimizing")
    p_point.add_argument("--n-trunc", type=int, default=5)
    p_point.add_argument("--objective", default="negativity",
                         choices=("negativity", "fidelity"))
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
