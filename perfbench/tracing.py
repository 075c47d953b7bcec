"""Spans recorded around calls into cvdistill, and the per-layer numbers
derived from them.

The hooks wrap public functions at the sites the program calls them from
(module globals of the calling module, or methods on the class), so nothing
inside ``src/`` changes.  A hook whose target no longer exists is recorded
as absent and its metrics are reported as such instead of crashing the run.
Spans are kept in memory as plain lists and written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
from dataclasses import dataclass, field

# span record layout: [name, start, end, parent index, row id, info]
NAME, START, END, PARENT, ROW, INFO = range(6)

# Root spans stand for a whole request (one cli.main call).  They are not a
# layer: their self time is wall time no layer accounts for, which is where
# work hidden in worker processes shows up.
ROOT = "request"


class Tracer:
    """Records nested spans with a single explicit stack (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.rows = 0  # row ids handed out so far
        self.row = -1  # id of the row being computed, -1 between rows

    def span(self, name, fn, *, info=None, new_row=False, classify=None):
        """Wrap fn so that every call records one span.

        classify(args, kwargs) may rename the span per call; info(result,
        args, kwargs) stores one value derived from the call on the span;
        new_row starts a new row id (one row or point of output).
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            if new_row:
                self.row, self.rows = self.rows, self.rows + 1
            rec = [classify(args, kwargs) if classify else name, clock(), 0.0,
                   stack[-1] if stack else -1, self.row, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(result, args, kwargs)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if new_row:
                    self.row = -1

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "row", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def ancestor(spans, i, name):
    """Index of the nearest ancestor of span i called name, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


@dataclass
class Hook:
    """One wrapped call site: owner is a module path or "module:Class"."""

    owner: str
    attr: str
    name: str
    metrics: tuple
    info: object = None
    new_row: bool = False
    classify: object = None
    # optional check on the resolved target; a false result marks the hook
    # absent although the attribute exists (e.g. a removed parameter)
    requires: object = None


@dataclass
class Installed:
    restore: list = field(default_factory=list)
    absent_hooks: list = field(default_factory=list)
    absent_metrics: list = field(default_factory=list)

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def install(tracer, hooks):
    """Wrap every hook target that exists; list the rest as absent."""
    done = Installed()
    for hook in hooks:
        owner = _resolve(hook.owner)
        target = getattr(owner, hook.attr, None) if owner is not None else None
        if target is None or (hook.requires and not hook.requires(target)):
            done.absent_hooks.append(f"{hook.owner}.{hook.attr} -> {hook.name}")
            done.absent_metrics.extend(m for m in hook.metrics
                                       if m not in done.absent_metrics)
            continue
        wrapped = tracer.span(hook.name, target, info=hook.info,
                              new_row=hook.new_row, classify=hook.classify)
        done.restore.append((owner, hook.attr, target))
        setattr(owner, hook.attr, wrapped)
    return done


# ---------------------------------------------------------------------------
# the cvdistill hooks

def _has_method_param(fn):
    return "method" in inspect.signature(fn).parameters


def _logneg_kind(default):
    def classify(args, kwargs):
        method = kwargs.get("method", args[1] if len(args) > 1 else default)
        return f"entanglement.logneg_{method}"
    return classify


def _log_negativity_hooks():
    from cvdistill import entanglement
    fn = getattr(entanglement, "log_negativity", None)
    metrics = ("entanglement.logneg_lapack.calls", "entanglement.logneg_lapack.ms",
               "entanglement.logneg_jacobi.calls", "entanglement.logneg_jacobi.ms")
    if fn is not None and _has_method_param(fn):
        default = inspect.signature(fn).parameters["method"].default
        return [Hook("cvdistill.scenarios", "log_negativity", "", metrics,
                     classify=_logneg_kind(default))]
    # Without the method switch every call is the LAPACK production path and
    # the Jacobi share can no longer be told apart.
    return [Hook("cvdistill.scenarios", "log_negativity",
                 "entanglement.logneg_lapack", metrics[:2]),
            Hook("cvdistill.scenarios", "log_negativity", "", metrics[2:],
                 requires=_has_method_param)]


def _flag(result, args, kwargs):
    return getattr(result, "flag", getattr(result, "flags", ""))


def _table_entries(result, args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    return math.prod(int(s) for s in shape)


def _fock_dim(result, args, kwargs):
    n_trunc = args[2] if len(args) > 2 else kwargs["n_trunc"]
    return (int(n_trunc) + 1) ** 2


PIPELINE = ("chi_core.tmsv", "chi_core.coherent_op", "chi_core.channel",
            "chi_core.normalize")


def cvdistill_hooks():
    """Hooks for the five layers: cli, scenarios, chi_core, fock_recon,
    entanglement.  scenarios imports the chi_core and entanglement functions
    by name, so those are wrapped as attributes of cvdistill.scenarios."""
    ev_metrics = ("scenarios.evaluate_point.calls", "scenarios.evaluate_point.ms_p50",
                  "scenarios.pipelines_per_row", "scenarios.zero_state_rows")
    opt_metrics = ("scenarios.optimize_t.calls", "scenarios.optimize_t.self_ms",
                   "scenarios.zero_objective_share")
    pipe_metrics = ("chi_core.pipeline_ms", "scenarios.pipelines_per_row",
                    "scenarios.zero_objective_share")
    return [
        Hook("cvdistill.cli", "build_parser", "cli.parse", ("cli.parse_ms",)),
        Hook("cvdistill.cli", "parse_run_config", "cli.parse", ("cli.parse_ms",)),
        Hook("cvdistill.cli", "write_sweep_csv", "cli.write", ("cli.write_ms",)),
        # points reach evaluate_point from cli, sweep rows from sweep_eta
        Hook("cvdistill.cli", "evaluate_point", "scenarios.evaluate_point",
             ev_metrics, info=_flag, new_row=True),
        Hook("cvdistill.scenarios", "evaluate_point", "scenarios.evaluate_point",
             ev_metrics, info=_flag, new_row=True),
        Hook("cvdistill.scenarios", "optimize_t", "scenarios.optimize_t",
             opt_metrics, info=_flag),
        Hook("cvdistill.scenarios:_PointEvaluator", "objective", "scenarios.objective",
             ("scenarios.objective_evals_per_opt",)),
        Hook("cvdistill.scenarios:_PointEvaluator", "probability",
             "scenarios.probability", ()),
        Hook("cvdistill.scenarios", "tmsv_chi", "chi_core.tmsv", pipe_metrics),
        Hook("cvdistill.scenarios", "apply_coherent_op", "chi_core.coherent_op",
             ("chi_core.pipeline_ms", "chi_core.coherent_op.calls",
              "chi_core.coherent_op.ms")),
        Hook("cvdistill.scenarios", "apply_thermal_channel", "chi_core.channel",
             ("chi_core.pipeline_ms", "chi_core.channel.ms")),
        Hook("cvdistill.scenarios", "normalize", "chi_core.normalize",
             ("chi_core.pipeline_ms", "chi_core.normalize.ms")),
        Hook("cvdistill.chi_core:MomentEngine", "__init__", "chi_core.moment_engine",
             ("chi_core.moment_engine.builds",)),
        Hook("cvdistill.chi_core:MomentEngine", "moment_table", "chi_core.moment_table",
             ("chi_core.moment_table.ms", "chi_core.moment_table.entries"),
             info=_table_entries),
        Hook("cvdistill.fock_recon:FockMatrixBuilder", "__init__", "fock_recon.build",
             ("fock_recon.build.calls", "fock_recon.build.self_ms", "fock_recon.dim"),
             info=_fock_dim),
        Hook("cvdistill.fock_recon:FockMatrixBuilder", "matrix", "fock_recon.matrix",
             ("fock_recon.matrix.calls", "fock_recon.matrix.ms")),
        *_log_negativity_hooks(),
        Hook("cvdistill.scenarios", "teleportation_fidelity", "entanglement.fidelity",
             ("entanglement.fidelity.calls", "entanglement.fidelity.ms")),
        Hook("cvdistill.scenarios", "covariance_from_chi", "entanglement.gaussian",
             ("entanglement.gaussian.ms",)),
        Hook("cvdistill.scenarios", "gaussian_log_negativity", "entanglement.gaussian",
             ("entanglement.gaussian.ms",)),
        Hook("cvdistill.scenarios", "success_probability", "entanglement.success_prob",
             ("entanglement.success_prob.calls",)),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("cli", "scenarios", "chi_core", "fock_recon", "entanglement")

PER_LAYER_UNITS = {
    "cli.parse_ms": "ms", "cli.write_ms": "ms", "cli.csv_bytes": "bytes",
    "scenarios.evaluate_point.calls": "count", "scenarios.evaluate_point.ms_p50": "ms",
    "scenarios.optimize_t.calls": "count", "scenarios.optimize_t.self_ms": "ms",
    "scenarios.objective_evals_per_opt": "count", "scenarios.pipelines_per_row": "count",
    "scenarios.zero_objective_share": "ratio", "scenarios.zero_state_rows": "count",
    "chi_core.pipeline_ms": "ms", "chi_core.coherent_op.calls": "count",
    "chi_core.coherent_op.ms": "ms", "chi_core.channel.ms": "ms",
    "chi_core.normalize.ms": "ms", "chi_core.moment_engine.builds": "count",
    "chi_core.moment_table.ms": "ms", "chi_core.moment_table.entries": "count",
    "fock_recon.build.calls": "count", "fock_recon.build.self_ms": "ms",
    "fock_recon.dim": "count", "fock_recon.matrix.calls": "count",
    "fock_recon.matrix.ms": "ms",
    "entanglement.logneg_lapack.calls": "count", "entanglement.logneg_lapack.ms": "ms",
    "entanglement.logneg_jacobi.calls": "count", "entanglement.logneg_jacobi.ms": "ms",
    "entanglement.fidelity.calls": "count", "entanglement.fidelity.ms": "ms",
    "entanglement.gaussian.ms": "ms", "entanglement.success_prob.calls": "count",
    "process.cpu_s": "s", "process.cpu_per_wall": "ratio",
    "trace.coverage": "ratio", "trace.overhead_pct": "%", "trace.absent_hooks": "count",
}


def layer_metrics(spans, wall_s):
    """Per-layer numbers from one traced run.  Times are in ms; *.ms is the
    inclusive span time, *.self_ms excludes wrapped children."""
    selfs = self_times(spans)
    calls, total, own = {}, {}, {}
    for i, s in enumerate(spans):
        n = s[NAME]
        calls[n] = calls.get(n, 0) + 1
        total[n] = total.get(n, 0.0) + (s[END] - s[START]) * 1e3
        own[n] = own.get(n, 0.0) + selfs[i] * 1e3

    def c(n):
        return calls.get(n, 0)

    def ms(n):
        return total.get(n, 0.0)

    rows = [i for i, s in enumerate(spans) if s[NAME] == "scenarios.evaluate_point"]
    row_ms = [(spans[i][END] - spans[i][START]) * 1e3 for i in rows]
    opts = [i for i, s in enumerate(spans) if s[NAME] == "scenarios.optimize_t"]
    pipes_in_opt = {}
    for i, s in enumerate(spans):
        if s[NAME] == "chi_core.tmsv":
            a = ancestor(spans, i, "scenarios.optimize_t")
            if a >= 0:
                pipes_in_opt[a] = pipes_in_opt.get(a, 0) + 1
    wasted = sum(n for a, n in pipes_in_opt.items() if spans[a][INFO] == "zero_objective")
    objective_in_opt = sum(1 for i, s in enumerate(spans)
                           if s[NAME] == "scenarios.objective"
                           and ancestor(spans, i, "scenarios.optimize_t") >= 0)
    layer_self = sum(t for i, t in enumerate(selfs) if spans[i][NAME] != ROOT)
    n_rows = max(len(rows), 1)
    return {
        "cli.parse_ms": ms("cli.parse"),
        "cli.write_ms": ms("cli.write"),
        "scenarios.evaluate_point.calls": c("scenarios.evaluate_point"),
        "scenarios.evaluate_point.ms_p50": statistics.median(row_ms) if row_ms else 0.0,
        "scenarios.optimize_t.calls": c("scenarios.optimize_t"),
        "scenarios.optimize_t.self_ms": own.get("scenarios.optimize_t", 0.0),
        "scenarios.objective_evals_per_opt": objective_in_opt / max(len(opts), 1),
        "scenarios.pipelines_per_row": c("chi_core.tmsv") / n_rows,
        "scenarios.zero_objective_share": wasted / max(sum(pipes_in_opt.values()), 1),
        "scenarios.zero_state_rows": sum(1 for i in rows
                                         if "zero_state" in (spans[i][INFO] or "")),
        "chi_core.pipeline_ms": sum(ms(n) for n in PIPELINE),
        "chi_core.coherent_op.calls": c("chi_core.coherent_op"),
        "chi_core.coherent_op.ms": ms("chi_core.coherent_op"),
        "chi_core.channel.ms": ms("chi_core.channel"),
        "chi_core.normalize.ms": ms("chi_core.normalize"),
        "chi_core.moment_engine.builds": c("chi_core.moment_engine"),
        "chi_core.moment_table.ms": ms("chi_core.moment_table"),
        "chi_core.moment_table.entries": sum(s[INFO] or 0 for s in spans
                                             if s[NAME] == "chi_core.moment_table"),
        "fock_recon.build.calls": c("fock_recon.build"),
        "fock_recon.build.self_ms": own.get("fock_recon.build", 0.0),
        "fock_recon.dim": max((s[INFO] or 0 for s in spans
                               if s[NAME] == "fock_recon.build"), default=0),
        "fock_recon.matrix.calls": c("fock_recon.matrix"),
        "fock_recon.matrix.ms": ms("fock_recon.matrix"),
        "entanglement.logneg_lapack.calls": c("entanglement.logneg_lapack"),
        "entanglement.logneg_lapack.ms": ms("entanglement.logneg_lapack"),
        "entanglement.logneg_jacobi.calls": c("entanglement.logneg_jacobi"),
        "entanglement.logneg_jacobi.ms": ms("entanglement.logneg_jacobi"),
        "entanglement.fidelity.calls": c("entanglement.fidelity"),
        "entanglement.fidelity.ms": ms("entanglement.fidelity"),
        "entanglement.gaussian.ms": ms("entanglement.gaussian"),
        "entanglement.success_prob.calls": c("entanglement.success_prob"),
        "trace.coverage": layer_self / wall_s if wall_s > 0 else 0.0,
    }


def layer_self_ms(spans):
    """Self time per layer (the prefix of the span name), root excluded."""
    out = dict.fromkeys(LAYERS, 0.0)
    for i, t in enumerate(self_times(spans)):
        layer = spans[i][NAME].split(".", 1)[0]
        if spans[i][NAME] != ROOT:
            out[layer] = out.get(layer, 0.0) + t * 1e3
    return out
