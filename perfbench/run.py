"""cvdistill benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_negativity --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports cvdistill from the
checkout's src/ directory.  With --trace 0 it runs the workload in a closed
loop for --seconds and measures the end-to-end metrics, with no spans
recorded.  With --trace 1 it takes a fixed number of inputs, runs each once
untraced and once with every layer wrapped, and reports the per-layer
metrics.  Outputs are checked against stored references (perfbench/refs)
or, for inputs without one, against invariants.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
--record FILE also appends the full result as one JSON line, the input of
perfbench/compare.py.
"""

import os
import sys

# One BLAS thread per process, set before numpy is first imported (here or
# in the set-up children, which inherit the environment).  On a 2-core
# machine, 20 pinned n_trunc 8 points took 7.1-7.7 s wall and 10.1-10.7 s CPU
# with two OpenBLAS threads, and 7.5-8.2 s wall and 7.6-8.3 s CPU with one.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if __package__ in (None, ""):  # run as a script: import the perfbench package
    sys.path[0] = ROOT

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from perfbench import stats, tracing  # noqa: E402
from perfbench.probe import REFERENCE_MS, Probe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, SweepInput, attempt, closed_loop, run_item)

OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")
SETUP_RUNS = 7
# Within a sweep the calibration probe runs before a row once this much time
# has passed since the last probe: before about one row in three of the
# sweeps at the defining commit, adding 5-12% to a run's wall time.  Probe
# time is left out of every figure.
ROW_PROBE_GAP_S = 0.2
# A fresh interpreter imports cvdistill and builds the CLI parser, then runs
# a calibration probe (numpy is loaded by then, so it adds nothing to the
# import) to tell how fast the CPU it ran on was.
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import cvdistill.cli
cvdistill.cli.build_parser()
t1 = time.perf_counter()
from perfbench.probe import Probe
probe = Probe()
probe.run()
print(t1 - t0, probe.durations()[0])
"""

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "1/s", "point_ms_p50": "ms",
                    "point_ms_tail": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the full result as a JSON line here")
    return p.parse_args(argv)


def import_cvdistill():
    """Import cvdistill from this checkout, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "cvdistill", "cli.py")):
        raise SystemExit(f"perfbench: no cvdistill sources under {SRC}; "
                         "run from the root of a cvdistill checkout")
    sys.path.insert(0, SRC)
    import cvdistill
    import cvdistill.cli
    here = os.path.realpath(cvdistill.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported cvdistill from {here}, not {SRC}")
    return cvdistill.cli


# ---------------------------------------------------------------------------
# environment stamp

def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cvdistill")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def env_stamp():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement

def measure_setup():
    """Median time to import cvdistill and build the CLI parser in a fresh
    interpreter, after one untimed start that writes the bytecode caches.
    Returns (median reference seconds, wall seconds of each start); each
    start is scaled by its own probes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    wall, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if k:
            t, probe_s = (float(x) for x in out.stdout.split())
            wall.append(t)
            scaled.append(t * REFERENCE_MS * 1e-3 / probe_s)
    return statistics.median(scaled), wall


def load_refs(workload):
    path = os.path.join(REFS, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def gate_outcomes(outcomes, refs):
    """Check every output; returns (attempted, failed, gate summary)."""
    attempted = failed = 0
    max_dev = 0.0
    with_ref = identical = 0
    digest = hashlib.sha256()
    for oc in outcomes:
        n = oc.item.n_rows
        attempted += n
        if oc.output is None:
            failed += n
            continue
        ref = refs.get(oc.item.key)
        with_ref += ref is not None
        identical += ref == oc.output
        digest.update(oc.output.encode())
        bad, dev = oc.item.check(oc.output, ref)
        failed += bad
        max_dev = max(max_dev, dev)
    summary = {"outputs": len(outcomes), "with_reference": with_ref,
               "without_reference": sum(oc.output is not None for oc in outcomes) - with_ref,
               "bit_identical": identical, "max_deviation": max_dev,
               "output_sha256": digest.hexdigest(),
               "errors": sorted({oc.error for oc in outcomes if oc.error})}
    return attempted, failed, summary


def install_row_probes(probe):
    """Run the calibration probe before a sweep row (an evaluate_point call
    reached from sweep_eta) once ROW_PROBE_GAP_S has passed since the last
    probe, so that reference time follows the machine's speed within a
    sweep.  Returns a function that removes the hook.  Without the hook
    target, or for rows computed in other processes, probes run between
    items only; no metric changes its meaning."""
    from cvdistill import scenarios
    original = getattr(scenarios, "evaluate_point", None)
    if original is None:
        return lambda: None

    def probed_row(*args, **kwargs):
        if probe.clock() - probe.ends[-1] >= ROW_PROBE_GAP_S:
            probe.run()
        return original(*args, **kwargs)

    scenarios.evaluate_point = probed_row
    return lambda: setattr(scenarios, "evaluate_point", original)


def latency_samples(outcomes, probe):
    """Latency of every cli.main call divided by the rows it wrote, as
    (wall ms, reference ms) lists with one sample per call.  A point is one
    row, so its sample is the call's latency; a sweep's sample is its time
    per row, whichever way the program computes the rows."""
    wall, scaled = [], []
    for oc in outcomes:
        w, r = probe.split(oc.start, oc.end)
        wall.append(w * 1e3 / oc.item.n_rows)
        scaled.append(r * 1e3 / oc.item.n_rows)
    return wall, scaled


def run_untraced(cli, workload, args, workdir):
    clock = time.perf_counter
    refs = load_refs(workload.name)
    probe = Probe(clock)
    remove_row_probes = install_row_probes(probe)

    def call(item):
        probe.run()
        return run_item(cli, item, workdir)

    try:
        outcomes, _ = closed_loop(workload.inputs(args.seed, args.seconds), call,
                                  args.seconds, clock)
        probe.run()
    finally:
        remove_row_probes()
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted, failed, summary = gate_outcomes(outcomes, refs)
    busy = [probe.split(oc.start, oc.end) for oc in outcomes]
    wall_s = sum(w for w, _ in busy)
    ref_s = sum(r for _, r in busy)
    wall_ms, ref_ms = latency_samples(outcomes, probe)
    tail_p, tail_v, n = stats.tail(ref_ms)
    setup, setup_wall = measure_setup()
    metrics = {
        "setup_s": setup,
        "rows_per_s": attempted / ref_s,
        "point_ms_p50": statistics.median(ref_ms),
        "point_ms_tail": tail_v,
        # ru_maxrss is in KiB on Linux; children are the workload's own
        # (set-up children start only after this is read)
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
    }
    wall_metrics = {
        "setup_s": statistics.median(setup_wall),
        "rows_per_s": attempted / wall_s,
        "point_ms_p50": statistics.median(wall_ms),
        "point_ms_tail": stats.percentile(wall_ms, tail_p),
    }
    probe_ms = [d * 1e3 for d in probe.durations()]
    detail = {"items": len(outcomes), "busy_wall_s": wall_s, "busy_reference_s": ref_s,
              "wall_clock_metrics": wall_metrics, "probes": len(probe_ms),
              "probe_ms_median": statistics.median(probe_ms),
              "tail_percentile": tail_p, "latency_samples": n,
              "setup_wall_s": setup_wall,
              "error_rate": failed / max(attempted, 1), "gate": summary}
    return attempted, failed, metrics, END_TO_END_UNITS, detail


def run_traced(cli, workload, args, workdir):
    """Each item runs untraced, then traced, back to back, with probes
    before each run and between sweep rows in both, so that machine speed
    drift cancels out of trace.overhead_pct.  The row probes run outside
    every layer span."""
    clock = time.perf_counter
    refs = load_refs(workload.name)
    items = itertools.islice(workload.inputs(args.seed, args.seconds),
                             workload.trace_items(args.seconds))
    probe = Probe(clock)
    tracer = tracing.Tracer(clock)

    def call(item):
        probe.run()
        return run_item(cli, item, workdir)

    root = tracer.span(tracing.ROOT, call)
    plain, traced = [], []
    cpu = children_cpu = 0.0
    for item in items:
        remove_row_probes = install_row_probes(probe)
        plain.append(attempt(call, item, clock))
        remove_row_probes()
        hooks = tracing.install(tracer, tracing.cvdistill_hooks())
        remove_row_probes = install_row_probes(probe)
        cpu0 = os.times()
        try:
            traced.append(attempt(root, item, clock))
        finally:
            remove_row_probes()
            hooks.uninstall()
        cpu1 = os.times()
        cpu += sum(cpu1[:4]) - sum(cpu0[:4])
        children_cpu += (cpu1[2] + cpu1[3]) - (cpu0[2] + cpu0[3])
    probe.run()
    plain_split = [probe.split(oc.start, oc.end) for oc in plain]
    traced_split = [probe.split(oc.start, oc.end) for oc in traced]
    wall_traced = sum(w for w, _ in traced_split)  # probes left out

    attempted, failed, summary = gate_outcomes(plain + traced, refs)
    for a, b in zip(plain, traced):  # tracing must not change a single byte
        failed += (a.output != b.output) * b.item.n_rows
    metrics = tracing.layer_metrics(tracer.spans, wall_traced)
    metrics.update({
        "cli.csv_bytes": sum(len(oc.output.encode()) for oc in traced
                             if oc.output and isinstance(oc.item, SweepInput)),
        "process.cpu_s": cpu,
        "process.cpu_per_wall": cpu / sum(oc.end - oc.start for oc in traced),
        "trace.overhead_pct": 100.0 * (sum(r for _, r in traced_split)
                                       / sum(r for _, r in plain_split) - 1.0),
        "trace.absent_hooks": len(hooks.absent_hooks),
    })
    tracer.write(os.path.join(OUT, f"spans-{workload.name}.json"))
    detail = {"items": len(traced), "wall_s": wall_traced,
              "untraced_wall_s": sum(w for w, _ in plain_split),
              "spans": len(tracer.spans),
              "layer_self_ms": tracing.layer_self_ms(tracer.spans),
              "absent_hooks": hooks.absent_hooks, "absent": hooks.absent_metrics,
              "children_cpu_s": children_cpu,
              "error_rate": failed / max(attempted, 1), "gate": summary}
    return attempted, failed, metrics, tracing.PER_LAYER_UNITS, detail


# ---------------------------------------------------------------------------

def report(args, stamp, attempted, failed, metrics, units, detail):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(stamp))
    absent = set(detail.get("absent", ()))
    for name in sorted(metrics):
        tag = "  (absent: hook target missing)" if name in absent else ""
        print(f"  {name} = {metrics[name]!r} {units[name]}{tag}")
    if "tail_percentile" in detail:
        print(f"  point_ms_tail is p{detail['tail_percentile']} of "
              f"{detail['latency_samples']} samples (one per cli.main call, "
              "its time over its rows)")
        print(f"  times above are reference time: wall time scaled by {REFERENCE_MS} ms "
              f"over the calibration probe's duration (median "
              f"{detail['probe_ms_median']:.3f} ms over {detail['probes']} probes)")
        for name, value in detail["wall_clock_metrics"].items():
            print(f"  wall clock: {name} = {value!r} {units[name]}")
    print(f"  error_rate = {detail['error_rate']!r} ({failed} of {attempted} failed)")
    g = detail["gate"]
    print(f"gate: {g['outputs']} outputs, {g['with_reference']} with a reference, "
          f"{g['bit_identical']} bit-identical, max deviation {g['max_deviation']!r}, "
          f"{g['without_reference']} without a reference (invariants only), "
          f"sha256 {g['output_sha256']}")
    if args.trace:
        print("layer self ms: " + ", ".join(f"{k} {v:.1f}"
                                            for k, v in detail["layer_self_ms"].items()))
        if detail["absent"]:
            print("absent: " + ", ".join(detail["absent"]))
        print("note: spans cover this process only; work done in worker "
              "processes lowers trace.coverage"
              + (f" (children used {detail['children_cpu_s']:.3f} s CPU)"
                 if detail["children_cpu_s"] > 0 else ""))
    for err in g["errors"]:
        print(f"error: {err}")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    cli = import_cvdistill()
    stamp = env_stamp()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, units, detail = run(cli, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["loadavg_end"] = os.getloadavg()
    correct = failed == 0
    report(args, stamp, attempted, failed, metrics, units, detail)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "finished": time.time(), "env": stamp,
                                 "detail": detail, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
