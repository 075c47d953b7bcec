"""Tests of the benchmark's own arithmetic, gate and hooks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import types

import pytest

from perfbench import compare, gate, stats, tracing
from perfbench.run import END_TO_END_UNITS, REFS, ROOT
from perfbench.workloads import WORKLOADS, eta_grid, point_inputs, sweep_inputs


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# self time

def test_self_time_subtracts_direct_children_only():
    S = tracing
    spans = [["root", 0.0, 10.0, -1, 0, None],
             ["a", 1.0, 4.0, 0, 0, None],
             ["b", 5.0, 9.0, 0, 0, None],
             ["c", 6.0, 8.0, 2, 0, None]]
    assert S.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert S.ancestor(spans, 3, "root") == 0
    assert S.ancestor(spans, 1, "b") == -1


def test_tracer_records_nesting_and_layer_self_time():
    tracer = tracing.Tracer(FakeClock())
    table = tracer.span("chi_core.moment_table", lambda: None)
    build = tracer.span("fock_recon.build", lambda: table())
    root = tracer.span(tracing.ROOT, lambda: build())
    root()
    # readings: root 1, build 2, table 3..4, build 5, root 6
    assert [s[:4] for s in tracer.spans] == [
        [tracing.ROOT, 1.0, 6.0, -1],
        ["fock_recon.build", 2.0, 5.0, 0],
        ["chi_core.moment_table", 3.0, 4.0, 1]]
    assert [s[tracing.ROW] for s in tracer.spans] == [-1, -1, -1]
    m = tracing.layer_metrics(tracer.spans, wall_s=5.0)
    assert m["fock_recon.build.self_ms"] == pytest.approx(2000.0)
    assert m["chi_core.moment_table.ms"] == pytest.approx(1000.0)
    # the root is not a layer: coverage is layer self time over wall time
    assert m["trace.coverage"] == pytest.approx(3.0 / 5.0)
    assert tracing.layer_self_ms(tracer.spans)["fock_recon"] == pytest.approx(2000.0)


def test_row_ids_cover_a_row_and_its_children_only():
    tracer = tracing.Tracer(FakeClock())
    inner = tracer.span("chi_core.tmsv", lambda: None)
    row = tracer.span("scenarios.evaluate_point", lambda: inner(), new_row=True)
    parse = tracer.span("cli.parse", lambda: None)
    parse(), row(), row(), parse()
    assert [(s[tracing.NAME], s[tracing.ROW]) for s in tracer.spans] == [
        ("cli.parse", -1), ("scenarios.evaluate_point", 0), ("chi_core.tmsv", 0),
        ("scenarios.evaluate_point", 1), ("chi_core.tmsv", 1), ("cli.parse", -1)]


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("cli.parse", boom)()
    assert tracer.spans[0][tracing.END] == 2.0
    assert not tracer._stack


# ---------------------------------------------------------------------------
# reference time

def test_probe_scales_each_piece_by_the_probes_around_it():
    from perfbench.probe import REFERENCE_MS, Probe
    probe = Probe()
    ref = REFERENCE_MS * 1e-3
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [ref, 1.0 + 2 * ref, 2.0 + ref]
    probe.medians = [ref, 2 * ref, ref]
    wall, scaled = probe.split(ref, 1.0)
    assert wall == pytest.approx(1.0 - ref)
    assert scaled == pytest.approx((1.0 - ref) / 1.5)
    # a probe inside the interval is left out of both
    wall, scaled = probe.split(ref, 2.0)
    inner = (1.0 - ref) + (1.0 - 2 * ref)
    assert wall == pytest.approx(inner)
    assert scaled == pytest.approx(inner / 1.5)
    # after the last probe only the one before it counts
    assert probe.split(2.0 + ref, 3.0) == pytest.approx((1.0 - ref, 1.0 - ref))
    probe.run()
    assert len(probe.durations()) == 4
    assert probe.ends[-1] - probe.starts[-1] >= 2 * probe.durations()[-1] > 0


# ---------------------------------------------------------------------------
# tail percentile

@pytest.mark.parametrize("n,p", [(20, 50), (21, 52), (60, 83), (100, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p
    values = list(range(n))
    pct, value, count = stats.tail(values)
    assert (pct, count) == (p, n)
    assert sum(v > value for v in values) >= 10
    # the next percentile up would leave fewer than ten
    assert sum(v > stats.percentile(values, p + 1) for v in values) < 10


def test_tail_with_twenty_samples_or_fewer_is_the_median():
    assert [stats.tail_percentile(n) for n in (1, 10, 11, 19)] == [50] * 4
    assert stats.tail([3.0, 1.0, 2.0]) == (50, 2.0, 3)
    assert stats.tail([4.0, 1.0, 3.0, 2.0]) == (50, 2.0, 4)


# ---------------------------------------------------------------------------
# correctness gate

def _stored_sweep_csv():
    with open(os.path.join(REFS, "sweep_negativity.json"), encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    key = sorted(outputs)[0]
    return key, outputs[key]


def _perturb(text, row, column, delta):
    lines = text.splitlines(keepends=True)
    fields = lines[row].split(",")
    fields[column] = f"{float(fields[column]) + delta:.11e}"
    lines[row] = ",".join(fields)
    return "".join(lines)


def test_reference_matches_itself():
    _, text = _stored_sweep_csv()
    rows = text.count("\n") - 1
    assert gate.check_csv(text, [{}] * rows, text) == (0, 0.0)


def test_perturbation_of_1e_9_is_caught():
    _, text = _stored_sweep_csv()
    e_n = gate.CSV_HEADER.index("E_N")
    bad = _perturb(text, 3, e_n, 1e-9)
    failed, dev = gate.check_csv(bad, [], text)
    assert failed == 1
    assert dev == pytest.approx(1e-9, rel=1e-2)


def test_changed_flag_or_row_order_is_caught():
    _, text = _stored_sweep_csv()
    lines = text.splitlines(keepends=True)
    swapped = "".join([lines[0], lines[2], lines[1]] + lines[3:])
    assert gate.check_csv(swapped, [], text)[0] == 2
    fields = lines[1].rstrip("\n").split(",")
    fields[-1] = "zero_state"
    flagged = "".join([lines[0], ",".join(fields) + "\n"] + lines[2:])
    assert gate.check_csv(flagged, [], text)[0] == 1


def test_invariants_without_a_reference():
    key, text = _stored_sweep_csv()
    fields = dict(part.split("=") for part in key.split()[1:])
    from perfbench.workloads import SweepInput
    item = SweepInput(float(fields["s"]), float(fields["n_th"]),
                      int(fields["eta_points"]), fields["objective"])
    assert item.check(text, None) == (0, 0.0)
    fid = gate.CSV_HEADER.index("fidelity")
    assert item.check(_perturb(text, 2, fid, 2.0), None)[0] == 1


def test_point_gate():
    row = {"strategy": "coherent_after", "s": 0.1, "n_th": 0.05, "eta": 0.5,
           "t_opt": 0.3, "E_N": 0.2, "E_N_gauss": 0.1, "fidelity": 0.6,
           "p_success": 1.2, "flags": ""}
    expect = {k: row[k] for k in ("strategy", "s", "n_th", "eta")}
    text = json.dumps(row)
    assert gate.check_point(text, expect, text) == (0, 0.0)
    assert gate.check_point(text, expect, None) == (0, 0.0)
    moved = json.dumps(dict(row, E_N=0.2 + 1e-9))
    assert gate.check_point(moved, expect, text)[0] == 1
    assert gate.check_point(json.dumps(dict(row, E_N=-0.1)), expect, None)[0] == 1
    assert gate.check_point(json.dumps(dict(row, E_N="0.2")), expect, None)[0] == 1
    assert gate.check_point("not json", expect, None)[0] == 1


# ---------------------------------------------------------------------------
# hooks

def test_missing_hook_target_is_reported_absent():
    mod = types.ModuleType("fake_layer")
    mod.present = lambda x: x + 1
    import sys
    sys.modules["fake_layer"] = mod
    try:
        tracer = tracing.Tracer(FakeClock())
        done = tracing.install(tracer, [
            tracing.Hook("fake_layer", "present", "cli.parse", ("cli.parse_ms",)),
            tracing.Hook("fake_layer", "gone", "cli.write", ("cli.write_ms",)),
            tracing.Hook("no_such_module", "f", "cli.write", ("cli.write_ms",)),
        ])
        assert mod.present(1) == 2
        assert [s[0] for s in tracer.spans] == ["cli.parse"]
        assert done.absent_metrics == ["cli.write_ms"]
        assert len(done.absent_hooks) == 2
        done.uninstall()
        assert not hasattr(mod.present, "__wrapped__")
    finally:
        del sys.modules["fake_layer"]


def test_cvdistill_hooks_degrade_when_targets_go(monkeypatch):
    from cvdistill import entanglement, fock_recon, scenarios

    def lapack_only(rho):
        return 0.0

    monkeypatch.delattr(fock_recon, "FockMatrixBuilder")
    monkeypatch.setattr(entanglement, "log_negativity", lapack_only)
    monkeypatch.setattr(scenarios, "log_negativity", lapack_only)
    tracer = tracing.Tracer()
    done = tracing.install(tracer, tracing.cvdistill_hooks())
    try:
        assert "fock_recon.build.self_ms" in done.absent_metrics
        assert "fock_recon.matrix.calls" in done.absent_metrics
        assert "entanglement.logneg_jacobi.ms" in done.absent_metrics
        assert "entanglement.logneg_lapack.ms" not in done.absent_metrics
        scenarios.log_negativity(None)
        assert tracer.spans[-1][tracing.NAME] == "entanglement.logneg_lapack"
    finally:
        done.uninstall()
    assert scenarios.log_negativity is lapack_only


def test_cvdistill_hooks_all_present_and_restored():
    from cvdistill import cli, scenarios
    originals = (cli.evaluate_point, scenarios.tmsv_chi)
    done = tracing.install(tracing.Tracer(), tracing.cvdistill_hooks())
    assert done.absent_hooks == []
    assert cli.evaluate_point is not originals[0]
    done.uninstall()
    assert (cli.evaluate_point, scenarios.tmsv_chi) == originals


# ---------------------------------------------------------------------------
# inputs, spec and comparison

def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    import itertools
    take = lambda gen: list(itertools.islice(gen, 20))  # noqa: E731
    assert take(point_inputs(3)) == take(point_inputs(3))
    assert take(point_inputs(3)) != take(point_inputs(4))
    assert take(sweep_inputs("negativity", 3, 20)) == take(sweep_inputs("negativity", 3, 20))
    assert [p.strategy for p in take(point_inputs(1))[:4]] == [
        "coherent_before", "coherent_after"] * 2


def test_eta_grid_matches_the_program():
    from cvdistill.scenarios import default_eta_grid
    assert eta_grid(7) == [float(x) for x in default_eta_grid(7, 0.01, 1.0)]


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_claim_rule():
    parent = [100.0 + k for k in range(10)]

    def verdict(change, parent=parent, parent_first=5):
        return compare.judge_claim(parent, change, "lower", parent_first)[0]

    assert verdict([90.0] * 10) == "met"
    # eight wins of ten is not enough
    assert verdict([90.0] * 8 + [200.0] * 2) == "not met"
    # winning every pair by less than the parent's own spread is not enough
    assert verdict([p - 0.5 for p in parent]) == "not met"
    assert verdict([90.0] * 5, parent[:5], 2) == "not met"
    # all parent runs first: drift could explain the gain
    assert verdict([90.0] * 10, parent_first=10) == "not met"


def test_bound_rule():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]

    def verdict(change, better="lower"):
        return compare.judge_bound(parent, change, better, 0.1)[0]

    assert verdict([105.0, 106, 104, 105.5, 104.5]) == "ok"
    assert verdict([120.0, 121, 119, 120.5, 119.5]) == "regression"
    assert verdict([60.0, 140.0, 100.0, 80.0, 120.0]) == "unresolved"
    # wider than the bound, but every change run beats every parent run
    assert verdict([40.0, 60.0, 50.0, 45.0, 55.0]) == "ok"
    assert verdict([1.0, 1.01, 1.02, 1.01, 1.0], "higher") == "regression"


def _records(rows_per_s, probe_ms, wall_scale=1.0, start=0.0):
    """Untraced result lines as run.py --record writes them."""
    return [{"workload": "w", "trace": 0, "finished": start + 2.0 * k,
             "correct": True, "failed": 0,
             "metrics": {"rows_per_s": {"value": v, "unit": "1/s"},
                         "peak_rss_mb": {"value": 60.0, "unit": "MB"}},
             "detail": {"wall_clock_metrics": {"rows_per_s": v * wall_scale},
                        "probe_ms_median": probe_ms}}
            for k, v in enumerate(rows_per_s)]


SPEC = {"end_to_end": [
    {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}


def test_compare_checks_wall_clock_and_the_probe():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    parent = _records(steady, 7.0)

    def verdicts(change):
        return {(m, v, wall) for _, m, v, _, _, _, wall
                in compare.compare(parent, change, SPEC, set())}

    assert verdicts(_records(steady, 7.1, start=1.0)) == {
        ("rows_per_s", "ok", "ok"), ("peak_rss_mb", "ok", None)}
    # the program slowed the probe as much as itself: reference time hides
    # it, the probe check and the wall clock do not
    assert verdicts(_records(steady, 14.0, wall_scale=0.5, start=1.0)) == {
        ("rows_per_s", "unresolved", "regression"), ("peak_rss_mb", "ok", None)}
    # a claim cannot be met while the probe moved
    claimed = compare.compare(parent, _records([20.0] * 5, 14.0, start=1.0), SPEC,
                              {("rows_per_s", "w")})
    assert claimed[0][2] == "unresolved"


def test_sweep_latency_is_time_per_row_of_each_call():
    from perfbench.probe import REFERENCE_MS, Probe
    from perfbench.run import latency_samples
    from perfbench.workloads import Outcome, PointInput, SweepInput
    probe = Probe()
    ref = REFERENCE_MS * 1e-3
    probe.starts, probe.ends = [0.0, 10.0], [ref, 10.0 + ref]
    probe.medians = [ref, ref]
    sweep = SweepInput(s=0.03, n_th=0.1, eta_points=3, objective="negativity")
    point = PointInput("coherent_before", 0.1, 0.5, 0.1, 0.5)
    wall, scaled = latency_samples(
        [Outcome(sweep, ref, ref + 1.5, ""), Outcome(point, 5.0, 5.25, "")], probe)
    assert wall == pytest.approx([100.0, 250.0])  # 1.5 s over 15 rows; one point
    assert scaled == pytest.approx(wall)
