"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; germkit is imported from its
`src/`. Every pass of the workload runs in a fresh worker process
(worker.py); set-up is timed from spawning a worker until it reports that
the first command could be issued, several times per run, and the median is
reported. With `--trace 0` the run issues whole passes until the next one
would overrun S seconds (at least one) and reports the end-to-end metrics:
medians over the passes and set-up samples, each multiplied by the run's
scale, probe.REFERENCE_S over the mean time of the host probes (probe.py)
that the run's workers took. The raw medians go to stderr.
With `--trace 1` it runs one pass under the span tracer (writing the span
file), one pass counting coefficient-field calls and one untraced pass for
the tracer's overhead, and reports the per-layer metrics. Every output is
checked (checks.py) after the timed passes. The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SETUP_SAMPLES = 11  # set-up-only workers per run, after one discarded warm-up
RUN_LIMIT_S = 170.0  # every worker is killed past this point of the run


class BenchError(Exception):
    pass


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("GERMKIT_")}
        self.env["PYTHONHASHSEED"] = "0"  # one less source of run-to-run drift
        # set-up is timed as a user meets it, with germkit's bytecode cached
        # (the discarded warm-up worker writes the cache)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, mode, spans=None):
        """One worker; returns (set-up seconds, its last stdout line as JSON)."""
        argv = [sys.executable, WORKER, "--workload", self.workload, "--mode", mode]
        if spans:
            argv += ["--spans", spans]
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if left <= 0:
            raise BenchError("run time limit reached before a %s worker" % mode)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("%s worker exceeded the run time limit" % mode) from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if first.strip() != "ready" or proc.returncode != 0:
            raise BenchError("%s worker failed (exit %r): %s"
                             % (mode, proc.returncode, (first + err).strip()[-2000:]))
        return setup, json.loads(out.strip().splitlines()[-1])


def check_outputs(workload, cmds, passes):
    """Returns (attempted, failed, wrong); checks run outside the timing.

    Failed commands and wrong outputs are listed on stderr.
    """
    checker = checks.Checker(workload)
    attempted = failed = wrong = 0
    for res in passes:
        ok = []
        for cmd, rc, out, err in zip(cmds, res["rcs"], res["outputs"], res["errors"]):
            attempted += 1
            if rc != 0:
                failed += 1
                print("failed: %s -> %r %s" % (" ".join(cmd["argv"]), rc,
                                              err.strip()[-300:]), file=sys.stderr)
                continue
            ok.append((cmd, out))
            try:
                checker.check(cmd, out)
            except checks.CheckError as exc:
                wrong += 1
                print("wrong: %s: %s" % (" ".join(cmd["argv"]), exc), file=sys.stderr)
        try:
            checker.check_together([c for c, _ in ok], [o for _, o in ok])
        except checks.CheckError as exc:
            wrong += 1
            print("wrong: %s" % exc, file=sys.stderr)
    return attempted, failed, wrong


def measure(run, seconds):
    setups = [run.spawn("setup") for _ in range(SETUP_SAMPLES + 1)][1:]
    probes = [doc["probe_s"] for _, doc in setups]
    setups = [s for s, _ in setups]
    passes = []
    while True:
        s0 = time.perf_counter()
        setup, res = run.spawn("pass")
        setups.append(setup)
        probes += res["probes"]
        passes.append(res)
        used = time.perf_counter() - s0
        elapsed = time.perf_counter() - run.t_start
        if elapsed + used > seconds:
            break
    med = statistics.median
    raw = {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in passes),
        "cpu_s": med(r["cpu_s"] for r in passes),
        # each command's median over the passes, then the median command:
        # on ft-corpus the median falls between two clusters of commands,
        # and a single pass's extremes of each cluster spread it by 9-12 %
        "op_p50_s": med(med(times) for times in zip(*(r["op_s"] for r in passes))),
    }
    # the mean, not the median: the probe's times fall into two clusters,
    # and the median jumps between them
    scale = probe.REFERENCE_S / statistics.mean(probes)
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (med(r["peak_rss_mb"] for r in passes), "MB")
    print("raw medians: %s; %d probes, scale %.4f"
          % (", ".join("%s %.5g" % kv for kv in raw.items()), len(probes), scale),
          file=sys.stderr)
    return passes, metrics


LAYER_UNITS = {
    "cli.self_s": "s", "parse.calls": "count", "parse.self_s": "s",
    "parse.chars": "count", "ring.self_s": "s", "coeff.rational_ops": "count",
    "coeff.prime_ops": "count", "coeff.max_coeff_bits": "bits",
    "stdbasis.std.calls": "count", "stdbasis.std.self_s": "s",
    "stdbasis.reductions": "count", "stdbasis.pairs": "count",
    "stdbasis.discarded": "count", "stdbasis.reductions_per_s": "1/s",
    "stdbasis.jet_rungs": "count", "stdbasis.uncertified_rung_s": "s",
    "stdbasis.useful_reduction_share": "ratio", "stdbasis.staircase_s": "s",
    "invariants.milnor_s": "s", "invariants.tjurina_s": "s",
    "invariants.local_vdim.calls": "count", "invariants.repeat_vdim_share": "ratio",
    "poincare.omega_s": "s", "poincare.condition1_s": "s",
    "poincare.condition2_s": "s", "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s", "trace.overhead": "ratio",
}


def trace(run, cmds):
    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, "%s-seed%d" % (run.workload, run.seed))
    _, spans = run.spawn("spans", spans=stem + ".spans.jsonl")
    _, coeff = run.spawn("coeff")
    _, plain = run.spawn("pass")
    layers = dict(spans["layers"])
    layers.update(coeff["layers"])
    layers["coeff.max_coeff_bits"] = checks.max_coeff_bits(
        cmds, plain["rcs"], plain["outputs"])
    layers["trace.traced_wall_s"] = spans["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    # each pass's time over its own mean probe, so host drift between the
    # two passes does not count as overhead
    layers["trace.overhead"] = ((spans["wall_s"] / statistics.mean(spans["probes"]))
                                / (plain["wall_s"] / statistics.mean(plain["probes"])))
    summary = {"workload": run.workload, "seed": run.seed,
               "span_count": spans["span_count"], "metrics": layers}
    with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    return [spans, coeff, plain], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "germkit", "__init__.py")):
        print("run.py: no germkit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    cmds = commands(args.workload)
    try:
        if args.trace:
            passes, metrics = trace(run, cmds)
        else:
            passes, metrics = measure(run, args.seconds)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, wrong = check_outputs(args.workload, cmds, passes)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
