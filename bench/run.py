#!/usr/bin/env python3
"""The repo's benchmark: four fixed-work workloads, two passes.

    python3 bench/run.py                         all workloads, end-to-end pass
    python3 bench/run.py --trace 1               all workloads, per-layer pass
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                 one workload, in this process
    python3 bench/run.py --quick                 smoke run, < 30 s, all checks on
    python3 bench/run.py --aa SETS RUNS          A/A gate against BENCHMARK.json

Every metric is printed by name with its unit; the last line of a
one-workload run is the JSON object the driver reads.  The exit code is
non-zero when any reference check failed.  See README.md for what the
numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import harness
from harness import REPO_ROOT

SRC = os.path.join(REPO_ROOT, "src")

# BENCHMARK.json is the one list of workloads, metric names, units and
# bounds; what a pass measured is held against it before it is printed.
with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: share of a nominal round's work in --quick rounds
QUICK_SCALE = 0.2


def rounds_for(seconds: int) -> int:
    """Counted rounds per phase.  A flood round, a window round and their
    two set-up groups take ~3.3 s here, so the work is a fixed function of
    ``--seconds``, never of the box's speed; a short ``--seconds`` drops
    rounds, down to 7, and never shortens them."""
    return max(7, round(seconds / 3.3))


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: {SRC}/repro not found: the benchmark measures the "
              "repro package of its own checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from measure import traced_pass, untraced_pass
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    allowed = harness.allowed_cpus()
    chosen = ([harness.pinned_cpu(allowed)] if workload.cpus == "one"
              else allowed)
    harness.pin(chosen)
    env = harness.environment(args.seed, allowed, chosen)
    calib = harness.calibration_s()

    workload.prepare(args.seed, args.quick)
    if args.trace:
        result = traced_pass(workload, 1 if args.quick else 5, allowed)
    elif args.quick:
        result = untraced_pass(workload, 3, QUICK_SCALE)
    else:
        result = untraced_pass(workload, rounds_for(args.seconds), 1.0)
    harness.close_environment(env, calib)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(result.metrics) != {m["name"] for m in declared}:
        odd = set(result.metrics) ^ {m["name"] for m in declared}
        result.failed += 1
        result.notes.append(f"measured and declared metrics differ: {sorted(odd)}")

    flag = " [quick]" if args.quick else ""
    print(f"== {workload.name}{flag}: {workload.why}")
    print(f"   item: {workload.item}")
    # a round that raised leaves its metrics out; the run has failed
    metrics = {m["name"]: {"value": result.metrics.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, ranks in result.rounds.items():
        print(f"rounds {name:29s} " + " ".join(
            f"{label} {value:.6g}" for label, value in
            zip(("best", "quartile", "median", "worst"), ranks)))
    print(f"{'attempted':36s} {result.attempted:>16d} count")
    print(f"{'failed':36s} {result.failed:>16d} count")
    print(f"{'false_exit_alarms':36s} {len(workload.false_exits):>16d} count")
    for note in result.notes:
        print(f"FAILED {note}")
    print(f"info {json.dumps(result.info)}")
    print(f"env {json.dumps(env)}")

    record = {"correct": result.failed == 0, "attempted": result.attempted,
              "failed": result.failed, "metrics": metrics}
    if not args.quick:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        with open(os.path.join(harness.OUT_DIR, "history.jsonl"), "a") as fh:
            fh.write(json.dumps({
                "time": time.time(), "workload": workload.name,
                "trace": args.trace, "seconds": args.seconds, "env": env,
                "info": result.info, "rounds": result.rounds,
                "notes": result.notes,
                "false_exit_alarms": len(workload.false_exits),
                **record}) + "\n")
    print(json.dumps(record))
    return 0 if result.failed == 0 else 1


# ---------------------------------------------------------------------------
# all workloads, one fresh child process each, one at a time
# ---------------------------------------------------------------------------

def run_child(workload: str, args: argparse.Namespace, seed: int,
              echo: bool = True) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        print(f"FAILED {workload}: exit code {proc.returncode}, no result")
    return record


def run_all(args: argparse.Namespace) -> int:
    records = {w: run_child(w, args, args.seed) for w in WORKLOAD_NAMES}
    ok = all(r["correct"] for r in records.values())
    print("== summary" + (" [quick]" if args.quick else ""))
    for w, r in records.items():
        print(f"{w:16s} attempted {r['attempted']:>12d}  failed "
              f"{r['failed']:>8d}  {'ok' if r['correct'] else 'FAILED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# A/A gate
# ---------------------------------------------------------------------------

def run_aa(args: argparse.Namespace) -> int:
    """Alternate complete runs of the same code into SETS sets and hold
    the gaps between the sets' medians against the bounds."""
    n_sets, n_runs = args.aa
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # values[workload][metric][set] -> one value per run
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m: [[] for _ in range(n_sets)] for m in bounds}
        for w in WORKLOAD_NAMES}
    ok = True
    for k in range(n_sets * n_runs):
        for w in WORKLOAD_NAMES:
            record = run_child(w, args, seed=args.seed + k, echo=False)
            ok = ok and record["correct"]
            if not record["metrics"]:   # the child died; already reported
                continue
            for m in bounds:
                values[w][m][k % n_sets].append(record["metrics"][m]["value"])
        print(f"run {k + 1}/{n_sets * n_runs} -> set {k % n_sets}",
              flush=True)

    print(f"{'workload':14s} {'metric':20s} " + " ".join(
        f"{'set' + str(s) + ' median (q1..q3)':>38s}" for s in range(n_sets))
        + f" {'iqr':>7s} {'p90-p10':>7s} {'gap':>7s} {'bound':>6s}")
    for w in WORKLOAD_NAMES:
        for m, bound in bounds.items():
            sets = values[w][m]
            medians = [statistics.median(s) for s in sets]
            quartiles = [statistics.quantiles(s, n=4) for s in sets]
            pooled = sorted(v for s in sets for v in s)
            spread = harness.quartile_spread(pooled)
            wide = ((harness.percentile(pooled, 0.9)
                     - harness.percentile(pooled, 0.1))
                    / statistics.median(pooled))
            gap = (max(medians) - min(medians)) / min(medians)
            # the driver does not gate the spread of setup_s
            bad = gap > bound or (spread > bound and m != "setup_s")
            ok = ok and not bad
            print(f"{w:14s} {m:20s} " + " ".join(
                f"{med:>14.6g} ({qs[0]:>9.5g}..{qs[2]:>9.5g})"
                for med, qs in zip(medians, quartiles))
                + f" {spread:>7.4f} {wide:>7.4f} {gap:>7.4f} {bound:>6.2f}"
                + ("  EXCEEDED" if bad else ""))
    print("A/A " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


_MAIN_PID = os.getpid()


def _on_sigterm(signum: int, _frame: Any) -> None:
    if os.getpid() != _MAIN_PID:
        # a forked worker inherits this handler; it dies as it always did
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    # no unwinding: stage threads blocked on a ring would never be joined
    harness.stop_children(grace=0.0)
    os._exit(128 + signum)


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                    help="nominal measuring time; sets the round count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--aa", type=int, nargs=2, metavar=("SETS", "RUNS"))
    args = ap.parse_args(argv)
    # No process outlives this one, on any path out: orphans are handed to
    # us, and both the normal exit and SIGTERM end in the sweep that stops
    # and reaps every child.
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        if args.aa:
            return run_aa(args)
        if args.workload:
            return run_workload(args)
        return run_all(args)
    finally:
        for pid in harness.stop_children():
            print(f"bench: killed leftover process {pid}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
