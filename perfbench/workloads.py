"""Workload inputs generated from a seed, and the closed loop that runs them.

Each workload is an endless, deterministic stream of inputs drawn from its
seed; a run takes items from the front of the stream until its time is up,
one at a time (a closed loop with one client).  The program only ever sees
the generated inputs, through its public command line entry point
cvdistill.cli.main.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

from perfbench import gate

STRATEGIES = ("noop", "subtract_before", "subtract_after", "coherent_before",
              "coherent_after")
ETA_MIN, ETA_MAX = 0.01, 1.0
SWEEP_N_TRUNC = 5
POINT_N_TRUNC = 8

# The eta grid of one sweep is sized so that about SWEEPS_PER_RUN sweeps fit
# in a run at the seed commit's throughput of the README sweep (about 7 rows
# per second on one core of a 2-core x86 machine).  Several sweeps, each with
# its own (s, n_th) draw, average out the draw-to-draw cost difference.
SEED_ROWS_PER_S = 7.0
SWEEPS_PER_RUN = 4
# n_trunc 8 pinned points at the seed commit, same machine
SEED_POINTS_PER_S = 2.5
POINT_BLOCK = 16  # even, so the two strategies alternate across blocks too


def eta_points_for(seconds):
    return max(3, round(seconds * SEED_ROWS_PER_S / (len(STRATEGIES) * SWEEPS_PER_RUN)))


def eta_grid(points):
    """The grid `cvdistill sweep` builds (numpy.linspace), as floats."""
    import numpy as np
    return [float(x) for x in np.linspace(ETA_MIN, ETA_MAX, points)]


@dataclass(frozen=True)
class SweepInput:
    s: float
    n_th: float
    eta_points: int
    objective: str

    @property
    def key(self):
        return (f"sweep s={self.s!r} n_th={self.n_th!r} "
                f"eta_points={self.eta_points} objective={self.objective}")

    @property
    def n_rows(self):
        return len(STRATEGIES) * self.eta_points

    def config(self, output):
        """The README sweep config with this input's values."""
        return "\n".join([
            f"strategies = {', '.join(STRATEGIES)}",
            f"s = {self.s!r}",
            f"n_th = {self.n_th!r}",
            f"eta_min = {ETA_MIN!r}",
            f"eta_max = {ETA_MAX!r}",
            f"eta_points = {self.eta_points}",
            f"n_trunc = {SWEEP_N_TRUNC}",
            f"objective = {self.objective}",
            f"output = {output}",
        ]) + "\n"

    def expected_rows(self):
        grid = eta_grid(self.eta_points)
        return [{"strategy": st, "s": self.s, "n_th": self.n_th, "eta": eta}
                for st in STRATEGIES for eta in grid]

    def check(self, text, reference):
        """(failed rows, largest deviation) of this sweep's CSV."""
        return gate.check_csv(text, self.expected_rows(), reference)


@dataclass(frozen=True)
class PointInput:
    strategy: str
    s: float
    eta: float
    n_th: float
    t: float

    @property
    def argv(self):
        return ["point", "--strategy", self.strategy, "--s", repr(self.s),
                "--eta", repr(self.eta), "--n-th", repr(self.n_th),
                "--t", repr(self.t), "--n-trunc", str(POINT_N_TRUNC), "--json"]

    @property
    def key(self):
        return " ".join(self.argv)

    @property
    def n_rows(self):
        return 1

    def expected_rows(self):
        return [{"strategy": self.strategy, "s": self.s, "n_th": self.n_th,
                 "eta": self.eta}]

    def check(self, text, reference):
        """(failed, largest deviation) of this point's JSON."""
        return gate.check_point(text, self.expected_rows()[0], reference)


def stratified(rng, size, ranges):
    """`size` draws from the box `ranges` with exactly one draw in each of
    `size` equal slices of every coordinate (a Latin hypercube).  Streams
    are made of such blocks, so that any run covers the ranges evenly and
    runs with different seeds do comparable work."""
    columns = []
    for lo, hi in ranges:
        slices = list(range(size))
        rng.shuffle(slices)
        columns.append([lo + (k + rng.random()) * (hi - lo) / size for k in slices])
    return list(zip(*columns))


def sweep_inputs(objective, seed, seconds):
    """README sweeps with (s, n_th) drawn around the paper's s = 0.029,
    n_th = 0.1; both sweep workloads see the same draws for one seed."""
    rng = random.Random(f"sweep/{seed}")
    points = eta_points_for(seconds)
    while True:
        for s, n_th in stratified(rng, SWEEPS_PER_RUN, [(0.02, 0.04), (0.05, 0.15)]):
            yield SweepInput(s=round(s, 4), n_th=round(n_th, 3), eta_points=points,
                             objective=objective)


def point_inputs(seed):
    """Pinned-weight n_trunc 8 points, alternating the two coherent
    strategies."""
    rng = random.Random(f"points/{seed}")
    ranges = [(0.03, 0.5), (0.2, 1.0), (0.0, 0.3), (0.0, 1.0)]
    while True:
        block = stratified(rng, POINT_BLOCK, ranges)
        for k, (s, eta, n_th, t) in enumerate(block):
            yield PointInput(strategy=STRATEGIES[3 + k % 2], s=round(s, 4),
                             eta=round(eta, 4), n_th=round(n_th, 4), t=round(t, 4))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sweep" or "point"
    objective: str = "negativity"

    def inputs(self, seed, seconds):
        if self.kind == "sweep":
            return sweep_inputs(self.objective, seed, seconds)
        return point_inputs(seed)

    def trace_items(self, seconds):
        """A fixed number of items for the traced run, so that its counts
        repeat exactly and compare across commits.  The run does them twice
        (untraced, then traced), about `seconds` at the seed commit."""
        if self.kind == "sweep":
            return SWEEPS_PER_RUN // 2
        return max(2, round(seconds * SEED_POINTS_PER_S / 2))


WORKLOADS = {w.name: w for w in (
    Workload("sweep_negativity",
             "the paper's main figure: README sweep, optimizer rebuilds the chi "
             "pipeline ~117 times a row and eigensolves each; gains of a faster "
             "optimizer show here", "sweep"),
    Workload("sweep_fidelity",
             "same sweep optimizing teleportation fidelity: new MomentEngine per "
             "objective call, no Fock matrix or eigensolve in the loop",
             "sweep", objective="fidelity"),
    Workload("points_pinned_n8",
             "pinned-t n_trunc 8 points bypass the optimizer; time is the final "
             "Jacobi eigensolve and the Fock builder", "point"),
)}


@dataclass
class Outcome:
    """One item of a run: its input, output text and timing."""

    item: object
    start: float
    end: float
    output: str | None
    error: str = ""


def run_item(cli, item, workdir):
    """Run one input through cvdistill.cli.main and collect its output."""
    stdout = io.StringIO()
    if isinstance(item, SweepInput):
        csv_path = os.path.join(workdir, "sweep.csv")
        cfg_path = os.path.join(workdir, "sweep.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(item.config(csv_path))
        argv = ["sweep", cfg_path]
    else:
        argv = item.argv
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        return code, None
    if isinstance(item, SweepInput):
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(csv_path)
        return code, text
    return code, stdout.getvalue().strip()


def attempt(call, item, clock):
    """Run one item; a failing item is recorded, never raised."""
    start = clock()
    try:
        code, output = call(item)
        error = "" if code == 0 else f"exit code {code}"
    except Exception as exc:  # the run goes on and counts the failure
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(item, start, clock(), output, error)


def closed_loop(items, call, seconds, clock):
    """Run items one after another until `seconds` have passed.

    A new item starts only while the run is expected to end no later than
    half an item past the budget.  Returns (outcomes, wall seconds)."""
    outcomes = []
    t0 = clock()
    for item in items:
        elapsed = clock() - t0
        if outcomes and elapsed + 0.5 * elapsed / len(outcomes) >= seconds:
            break
        outcomes.append(attempt(call, item, clock))
    return outcomes, clock() - t0
