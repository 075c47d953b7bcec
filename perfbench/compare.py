"""Compare benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl \
        [--claim rows_per_s@sweep_negativity ...]
    python3 perfbench/compare.py --summarize RESULTS.jsonl

Each file holds the lines `perfbench/run.py --record FILE` appends, one per
run.  Run both commits with the same --seconds, alternating which side runs
first, at least ten times per workload.

For a claimed (metric, workload) the gain counts only when the runs
alternated, the change wins at least nine tenths of the pairs (the i-th
parent run against the i-th change run, in time order; ties count for
neither side) and the medians differ by more than the parent's
interquartile range.  Every other
(metric, workload) must not be worse than the parent's median by more than
the metric's bound in BENCHMARK.json; where either side's spread exceeds the
bound it is reported unresolved, unless every change run beats every parent
run.

Timing figures are in reference time (perfbench/probe.py), which assumes the
calibration probe is unaffected by the change.  When the median probe
duration moved by more than a metric's bound, that metric is reported
unresolved, claimed or not.  The same bound rule is applied to the plain
wall-clock figures and printed beside each verdict.  Exit status 1 when a
claim is not met, or a metric regressed in reference or wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

if __package__ in (None, ""):
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.stats import quartiles, relative_iqr  # noqa: E402

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def judge_claim(parent, change, direction, parent_first):
    """The claim rule on two lists of runs in time order.  parent_first
    counts the pairs whose parent run ended first; runs that did not
    alternate (about half each way) cannot support a claim, because machine
    drift alone then favours one side."""
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, direction) for p, c in pairs)
    q1, med_p, q3 = quartiles(parent) if len(parent) > 1 else (parent[0],) * 3
    med_c = statistics.median(change)
    moved = _better(med_c, med_p, direction) and abs(med_c - med_p) > q3 - q1
    alternated = abs(parent_first - len(pairs) / 2) <= 1
    met = (len(pairs) >= MIN_PAIRS and alternated
           and wins >= WIN_SHARE * len(pairs) and moved)
    info = {"pairs": len(pairs), "wins": wins, "parent_iqr": q3 - q1,
            "parent_first": parent_first}
    return ("met" if met else "not met"), info


def judge_bound(parent, change, direction, bound):
    """ok / regression / unresolved for an unclaimed (metric, workload)."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    worse = (med_c - med_p) / med_p if direction == "lower" else (med_p - med_c) / med_p
    spreads = [relative_iqr(v) for v in (parent, change)]
    info = {"worse_share": worse, "spread": max(spreads)}
    if max(spreads) > bound:
        if all(_better(c, p, direction) for c in change for p in parent):
            return "ok", info
        return "unresolved", info
    return ("regression" if worse > bound else "ok"), info


def untraced_runs(records, workload):
    return sorted((r for r in records if r["workload"] == workload and not r["trace"]),
                  key=lambda r: r["finished"])


def series(runs, metric, wall=False):
    """(finish times, values) of one metric over runs in time order; with
    wall, its plain wall-clock figure instead of the reference-time one."""
    if wall:
        runs = [r for r in runs if metric in r["detail"]["wall_clock_metrics"]]
        return ([r["finished"] for r in runs],
                [r["detail"]["wall_clock_metrics"][metric] for r in runs])
    runs = [r for r in runs if metric in r["metrics"]]
    return [r["finished"] for r in runs], [r["metrics"][metric]["value"] for r in runs]


def probe_shift(parent_runs, change_runs):
    """Relative change of the median calibration probe duration.  The probe
    runs in the program's process, so a change that slows the whole process
    (more heap for the collector to scan, threads or workers left running)
    slows it too and would divide out of every reference-time figure."""
    p = statistics.median(r["detail"]["probe_ms_median"] for r in parent_runs)
    c = statistics.median(r["detail"]["probe_ms_median"] for r in change_runs)
    return (c - p) / p


def compare(parent, change, spec, claims):
    """Rows of (workload, metric, verdict, parent median, change median,
    info, wall-clock verdict or None)."""
    rows = []
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for wl in workloads:
        runs_p, runs_c = untraced_runs(parent, wl), untraced_runs(change, wl)
        if not runs_p or not runs_c:
            continue
        shift = probe_shift(runs_p, runs_c)
        for m in spec["end_to_end"]:
            name, direction, bound = m["name"], m["better"], m["bound"]
            (tp, p), (tc, c) = series(runs_p, name), series(runs_c, name)
            if not p or not c:
                continue
            _, wp = series(runs_p, name, wall=True)
            _, wc = series(runs_c, name, wall=True)
            timed = bool(wp and wc)
            if (name, wl) in claims:
                first = sum(a < b for a, b in zip(tp, tc))
                verdict, info = judge_claim(p, c, direction, first)
            else:
                verdict, info = judge_bound(p, c, direction, bound)
            wall_verdict = judge_bound(wp, wc, direction, bound)[0] if timed else None
            if timed:
                info["probe_shift"] = shift
                if abs(shift) > bound:
                    verdict = "unresolved"
            rows.append((wl, name, verdict, statistics.median(p),
                         statistics.median(c), info, wall_verdict))
    return rows


def summarize(records):
    """Median and quartiles of every metric, per workload and run kind."""
    out = {}
    for r in records:
        kind = "per_layer" if r["trace"] else "end_to_end"
        slot = out.setdefault(r["workload"], {}).setdefault(kind, {})
        for name, m in r["metrics"].items():
            slot.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for kinds in out.values():
        for metrics in kinds.values():
            for m in metrics.values():
                values = m.pop("values")
                q = quartiles(values) if len(values) > 1 else (values[0],) * 3
                m.update(runs=len(values), median=q[1], q1=q[0], q3=q[2])
    return out


def incorrect(records):
    return sum(1 for r in records if not r["correct"] or r["failed"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--summarize", metavar="RESULTS",
                    help="print medians and quartiles of one result file as JSON")
    ap.add_argument("--claim", action="append", default=[],
                    help="metric@workload the change claims to improve")
    args = ap.parse_args(argv)
    if args.summarize:
        print(json.dumps(summarize(load(args.summarize)), indent=1, sort_keys=True))
        return 0
    if not (args.parent and args.change):
        ap.error("give PARENT and CHANGE result files, or --summarize")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    claims = set()
    for c in args.claim:
        metric, _, workload = c.partition("@")
        claims.add((metric, workload))
    parent, change = load(args.parent), load(args.change)
    rows = compare(parent, change, spec, claims)
    failing = False
    print(f"{'workload':<18} {'metric':<14} {'parent':>12} {'change':>12}  "
          "verdict (details) wall clock: verdict")
    for wl, metric, verdict, mp, mc, info, wall_verdict in rows:
        extra = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in info.items())
        wall = f" wall clock: {wall_verdict}" if wall_verdict else ""
        print(f"{wl:<18} {metric:<14} {mp:>12.6g} {mc:>12.6g}  {verdict} ({extra}){wall}")
        claimed = (metric, wl) in claims
        failing |= (verdict in ("regression", "not met") or wall_verdict == "regression"
                    or (claimed and verdict != "met"))
    for (metric, wl) in sorted(claims - {(m, w) for w, m, *_ in rows}):
        print(f"claim {metric}@{wl}: no runs on both sides")
        failing = True
    bad = incorrect(change)
    if bad:
        print(f"change: {bad} runs with failed outputs")
        failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
