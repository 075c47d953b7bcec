"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_refs.py

For every workload and each of the seeds 0 to 9 it runs the first items of
the seed's input stream (at the run length in BENCHMARK.json) and stores
each output under its input in perfbench/refs/<workload>.json.  It takes
five times as many items as a run did at the commit the references were
taken from, so that a program up to five times faster still has every
output of a run on these seeds checked against a reference.  Outputs that
fail the invariant checks are not stored; the script exits 1 instead.
"""

import itertools
import json
import os
import sys
import tempfile

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import run  # noqa: E402  (pins the BLAS threads on import)
from perfbench.workloads import WORKLOADS, run_item  # noqa: E402

SEEDS = range(10)
# The most items a 20 s run did at the commit the references come from (on
# a 2-core x86 VM): 7 sweeps of 35 rows, 69 n_trunc 8 points.  About five
# times that per seed.
ITEMS_PER_SEED = {"sweep": 40, "point": 350}


def write_refs(cli, workload, seconds, stamp):
    """Run and store the reference outputs of one workload; returns 0, or 1
    when an output failed its checks."""
    status = 0
    outputs = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        for seed in SEEDS:
            items = itertools.islice(workload.inputs(seed, seconds),
                                     ITEMS_PER_SEED[workload.kind])
            for item in items:
                code, text = run_item(cli, item, workdir)
                if code != 0 or item.check(text, None)[0]:
                    print(f"{workload.name} seed {seed}: {item.key} fails its checks",
                          file=sys.stderr)
                    status = 1
                    continue
                outputs[item.key] = text
            print(f"{workload.name} seed {seed}: {len(outputs)} outputs", flush=True)
    os.makedirs(run.REFS, exist_ok=True)
    with open(os.path.join(run.REFS, f"{workload.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"git_commit": stamp["git_commit"], "src_sha256": stamp["src_sha256"],
                   "run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]],
                   "outputs": outputs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return status


def main():
    cli = run.import_cvdistill()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    stamp = run.env_stamp()
    return max(write_refs(cli, w, seconds, stamp) for w in WORKLOADS.values())


if __name__ == "__main__":
    sys.exit(main())
