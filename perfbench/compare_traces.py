"""Two traced runs of one workload must count the same work.

    python3 perfbench/compare_traces.py --workload NAME

Makes two traced runs (`run.py --trace 1`, seeds 1 and 2) and compares the
trace summaries they write under perfbench/runs/. The seed selects nothing,
so both runs issue the same commands in the same fixed order; the check
shows that the counts are deterministic. Every count metric must be
identical (stdbasis.reductions, stdbasis.pairs, stdbasis.jet_rungs and
invariants.local_vdim.calls among them); exit code 1 marks those that are
not.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import LAYER_UNITS, RUNS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [n for n, u in LAYER_UNITS.items() if u == "count"]
SEEDS = (1, 2)


def traced_run(workload, seed):
    """Runs one traced run; returns its trace summary."""
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(RUNS, "%s-seed%d.trace.json" % (workload, seed))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    a, b = (traced_run(args.workload, s)["metrics"] for s in SEEDS)
    diff = [n for n in COUNTS if a.get(n) != b.get(n)]
    for name in COUNTS:
        mark = "DIFFERS" if name in diff else "same"
        print("%-32s %14s %14s  %s" % (name, a.get(name), b.get(name), mark))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
