"""Regenerate zariski_reference.json by two independent routes.

    python3 perfbench/make_reference.py [--output PATH]

Route A is the workload's own command (ds ordering, default strategy).
Route B computes the same Milnor and Tjurina numbers under the ls ordering
with fifo pair selection. The table is written only when the two routes
agree on every value, when the paper's mu 10661 for (40,30,8) t=0 comes
out, and when tau < mu holds on every member; otherwise nothing is written
and the exit code is 1. It takes about 25 s on a 2-core host.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import REFERENCE, CheckError, check_reference  # noqa: E402
from worker import import_germkit  # noqa: E402
from workloads import PRIME, ZARISKI_MEMBERS, zariski_spec  # noqa: E402

ROUTE_A = ("ds", None)
ROUTE_B = ("ls", "fifo")


def compute(cli, invariant, member, route):
    ordering, strategy = route
    argv = [invariant, "--ring", "%d (x,y,z) %s" % (PRIME, ordering),
            "--family", zariski_spec(member), "--json"]
    if strategy:
        argv += ["--strategy", strategy]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit("germkit %s exited %r" % (" ".join(argv), rc))
    doc = json.loads(out.getvalue())
    value = doc["mu" if invariant == "milnor" else "tau"]
    print("%-8s %-22s %s  %6s  %.1fs" % (invariant, zariski_spec(member),
                                         ordering, value, time.perf_counter() - t0),
          file=sys.stderr, flush=True)
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=REFERENCE)
    args = ap.parse_args(argv)
    cli = import_germkit()

    rows = []
    disagreements = []
    for member, _ in ZARISKI_MEMBERS:
        row = {"a": member[0], "b": member[1], "c": member[2], "t": member[3]}
        for invariant, key in (("milnor", "mu"), ("tjurina", "tau")):
            a = compute(cli, invariant, member, ROUTE_A)
            b = compute(cli, invariant, member, ROUTE_B)
            if a != b:
                disagreements.append("%s %s: route A %r, route B %r"
                                     % (invariant, zariski_spec(member), a, b))
            row[key] = a
        rows.append(row)
    if disagreements:
        for line in disagreements:
            print("disagreement: " + line, file=sys.stderr)
        print("refusing to write %s" % args.output, file=sys.stderr)
        return 1
    try:
        check_reference({(r["a"], r["b"], r["c"], r["t"]): (r["mu"], r["tau"])
                         for r in rows})
    except CheckError as exc:
        print("refusing to write %s: %s" % (args.output, exc), file=sys.stderr)
        return 1
    doc = {
        "characteristic": PRIME,
        "route_a": {"ordering": ROUTE_A[0], "strategy": "default"},
        "route_b": {"ordering": ROUTE_B[0], "strategy": ROUTE_B[1]},
        "members": rows,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.output, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
