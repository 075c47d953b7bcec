"""Correctness gate for the benchmark's outputs.

An output whose input has a stored reference (perfbench/refs, written from
the commit that defined the benchmark) must match it: same rows in the same
order, same strategies and flags, every float within TOLERANCE.  Any other
output is checked against physical invariants instead.  Each check returns
the number of failed rows and the largest parsed float deviation seen.
"""

from __future__ import annotations

import csv
import io
import json
import math

TOLERANCE = 1e-10  # the ROADMAP gate on parsed output values
CSV_HEADER = ["strategy", "s", "n_th", "eta", "t_opt", "E_N", "E_N_gauss",
              "fidelity", "p_success", "flags"]
FLOAT_KEYS = ["s", "n_th", "eta", "t_opt", "E_N", "E_N_gauss", "fidelity",
              "p_success"]
EXACT_KEYS = ["strategy", "flags"]
KNOWN_FLAGS = {"", "zero_objective", "zero_state", "zero_objective;zero_state"}


def parse_csv(text):
    """Rows of a sweep CSV as dicts; raises ValueError on a malformed file."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for fields in reader:
        if len(fields) != len(CSV_HEADER):
            raise ValueError(f"row with {len(fields)} fields")
        row = dict(zip(CSV_HEADER, fields))
        for key in FLOAT_KEYS:
            row[key] = float(row[key])
        rows.append(row)
    return rows


def _row_deviation(got, want):
    """(matches, largest float deviation) of one parsed row against another."""
    if any(got.get(k) != want.get(k) for k in EXACT_KEYS):
        return False, math.inf
    dev = 0.0
    for key in FLOAT_KEYS:
        a, b = got.get(key), want.get(key)
        if not isinstance(a, float) or not isinstance(b, float):
            return False, math.inf
        d = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
        dev = max(dev, d)
    return dev <= TOLERANCE, dev


def compare_rows(got, want):
    """(failed rows, largest deviation).  A missing or extra row counts as a
    failure of each row of the longer list that has no partner."""
    failed = abs(len(got) - len(want))
    dev = 0.0 if not failed else math.inf
    for g, w in zip(got, want):
        ok, d = _row_deviation(g, w)
        failed += not ok
        dev = max(dev, d)
    return failed, dev


def row_invariants(row, expect):
    """True when a parsed row is physically possible and echoes its input.

    expect holds the input's strategy, s, n_th and eta.  p_success is only
    checked to be nonnegative: it is the trace of the unnormalized output,
    a rate relative to an unstated gain, and exceeds 1 where the a^dag part
    of t a + r a^dag dominates (coherent_before, s = 0.286, eta = 0.8911,
    n_th = 0.1107, t = 0.0741 gives 1.256)."""
    values = [row[k] for k in FLOAT_KEYS]
    if not all(math.isfinite(v) for v in values):
        return False
    if row["strategy"] != expect["strategy"]:
        return False
    # the CSV keeps 12 significant digits of each input
    for key in ("s", "n_th", "eta"):
        if not math.isclose(row[key], expect[key], rel_tol=1e-11, abs_tol=1e-15):
            return False
    return (row["flags"] in KNOWN_FLAGS
            and row["E_N"] >= 0.0 and row["E_N_gauss"] >= 0.0
            and 0.0 <= row["fidelity"] <= 1.0
            and row["p_success"] >= 0.0
            and 0.0 <= row["t_opt"] <= 1.0)


def check_rows(rows, expected, reference):
    """Gate a list of parsed rows.  expected lists each row's input (see
    row_invariants); reference is the stored list of rows or None."""
    if reference is not None:
        return compare_rows(rows, reference)
    failed = abs(len(rows) - len(expected))
    for row, expect in zip(rows, expected):
        failed += not row_invariants(row, expect)
    return failed, 0.0


def check_csv(text, expected, reference_text):
    """Gate one sweep CSV; returns (failed rows, largest deviation)."""
    try:
        rows = parse_csv(text)
        reference = parse_csv(reference_text) if reference_text is not None else None
    except ValueError:
        return len(expected), math.inf
    return check_rows(rows, expected, reference)


def check_point(text, expect, reference_text):
    """Gate one `point --json` output; returns (failed, largest deviation)."""
    try:
        row = json.loads(text)
        reference = json.loads(reference_text) if reference_text is not None else None
    except json.JSONDecodeError:
        return 1, math.inf
    if not isinstance(row, dict) or set(row) != set(CSV_HEADER):
        return 1, math.inf
    if not all(isinstance(row[k], (int, float)) for k in FLOAT_KEYS):
        return 1, math.inf
    row = {k: float(v) if k in FLOAT_KEYS else v for k, v in row.items()}
    if reference is not None:
        reference = {k: float(v) if k in FLOAT_KEYS else v
                     for k, v in reference.items()}
        ok, dev = _row_deviation(row, reference)
        return int(not ok), dev
    return int(not row_invariants(row, expect)), 0.0
