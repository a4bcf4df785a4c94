"""One benchmark process: set up, then issue one pass of a workload.

    python3 perfbench/worker.py --workload NAME --mode MODE [--spans FILE]

MODE is `setup` (import and load, then exit), `pass` (one untraced pass),
`spans` (one pass under the span tracer) or `coeff` (one pass counting
coefficient-field calls). The process prints `ready` once the first command
could be issued. A set-up worker then prints the time of one host probe
(probe.py). A pass worker prints one JSON line with every command's output,
exit code, wall and CPU time, the times of the probes taken between the
commands, and the pass's wall time, CPU time and peak RSS.

Commands are issued one at a time, in this process and thread, through
`germkit.cli.main(argv)` with stdout and stderr captured. A probe runs
before the first command, before every command that starts at least
PROBE_GAP_S after the last probe, and after the last command; probe time is
outside every command's time.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_GAP_S = 0.5


def import_germkit():
    """Import germkit from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import germkit
    import germkit.cli

    where = os.path.realpath(germkit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError("germkit was imported from %s, not %s" % (where, SRC))
    return germkit.cli


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "spans", "coeff"),
                    required=True)
    ap.add_argument("--spans", default=None, help="span file for --mode spans")
    args = ap.parse_args(argv)

    cli = import_germkit()
    sys.path.insert(0, HERE)
    from workloads import commands

    cmds = commands(args.workload)
    print("ready", flush=True)
    from probe import probe

    if args.mode == "setup":
        print(json.dumps({"probe_s": probe()}), flush=True)
        return 0

    tracer = None
    if args.mode == "spans":
        from tracer import SpanTracer

        tracer = SpanTracer()
        tracer.install()
    elif args.mode == "coeff":
        from tracer import CoeffCounter

        tracer = CoeffCounter()
        tracer.install()

    records = []
    probes = []  # probe seconds
    clock = time.perf_counter
    cpu_clock = time.process_time
    last_probe = float("-inf")
    for cmd in cmds:
        if clock() - last_probe >= PROBE_GAP_S:
            probes.append(probe())
            last_probe = clock()
        out = io.StringIO()
        err = io.StringIO()
        s, c = clock(), cpu_clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cmd["argv"]))
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation
            rc = "%s: %s" % (type(exc).__name__, exc)
        records.append((rc, clock() - s, cpu_clock() - c, out.getvalue(), err.getvalue()))
    probes.append(probe())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": sum(r[1] for r in records),
        "cpu_s": sum(r[2] for r in records),
        "peak_rss_mb": peak_mb,
        "probes": probes,
        "rcs": [r[0] for r in records],
        "op_s": [r[1] for r in records],
        "outputs": [r[3] for r in records],
        "errors": [r[4] for r in records],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.mode == "spans" and args.spans:
            tracer.write(args.spans)
            result["span_count"] = len(tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
