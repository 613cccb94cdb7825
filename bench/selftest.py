#!/usr/bin/env python3
"""Checks the benchmark against itself (about a minute):

* what ``run.py --quick`` measures and prints for every workload, on both
  passes, is exactly what ``BENCHMARK.json`` declares, with its units;
* every name is made of ``[A-Za-z0-9_.-]`` and used once;
* a corrupted value, a dropped item and two swapped items each make a
  sink report ``failed > 0``.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from harness import BENCH_DIR, REPO_ROOT
from run import SPEC, WORKLOAD_NAMES

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
problems = []


def check(ok: bool, what: str) -> None:
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        problems.append(what)


def check_names() -> None:
    from workloads import WORKLOADS

    declared = {0: [(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in SPEC["per_layer"]]}
    check(WORKLOAD_NAMES == list(WORKLOADS),
          "BENCHMARK.json workloads equal workloads.WORKLOADS")
    names = [n for n, _u in declared[0] + declared[1]] + WORKLOAD_NAMES
    check(all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names),
          "every name matches [A-Za-z0-9_.-]+ and is used once")

    for trace, metrics in declared.items():
        for workload in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--quick", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            record = json.loads(proc.stdout.splitlines()[-1])
            printed = [(n, m["unit"]) for n, m in record["metrics"].items()]
            check(proc.returncode == 0 and record["correct"]
                  and printed == metrics,
                  f"{workload} --trace {trace} prints the declared metrics "
                  f"and fails nothing")


def faulty(stream, fault: str, at: int):
    """``stream`` with one value corrupted, dropped or swapped at ``at``."""
    items = list(stream)
    if fault == "corrupt":
        items[at] = items[at] + 1
    elif fault == "drop":
        del items[at]
    elif fault == "swap":
        items[at], items[at + 1] = items[at + 1], items[at]
    return items


def check_sinks() -> None:
    import numpy as np

    from repro.core.items import ItemBlock
    from workloads import BlockSink, HopScalar, ScalarSink, count_failed

    base, n = 1_000_123, 1000
    outputs = [(i + 1) * 2 for i in range(base, base + n)]
    total = HopScalar.expected_total(base, n)
    for fault in ("none", "corrupt", "drop", "swap"):
        sink = ScalarSink(2 * base)
        for x in faulty(outputs, fault, 500):
            sink(x)
        failed = sink.failed(n, total)
        check((failed > 0) == (fault != "none"),
              f"ScalarSink, fault {fault}: failed = {failed}")

    dim = 8
    blocks = [ItemBlock((np.full(dim, k), np.full(dim, 2 * k)),
                        layout="tuple", key=k) for k in range(64)]
    color_sum = sum(b.columns[0] for b in blocks)
    work_sum = sum(b.columns[1] for b in blocks)
    for fault in ("none", "corrupt", "drop", "swap"):
        stream = list(blocks)
        if fault == "corrupt":
            bad = stream[30]
            stream[30] = ItemBlock((bad.columns[0] + 1, bad.columns[1]),
                                   layout="tuple", key=bad.key)
        else:
            stream = faulty(stream, fault, 30)
        sink = BlockSink(dim)
        for block in stream:
            sink(block)
        sums_ok = (np.array_equal(sink.colors, color_sum)
                   and np.array_equal(sink.work, work_sum))
        failed = count_failed(len(blocks), sink.blocks, sink.disorder, sums_ok)
        check((failed > 0) == (fault != "none"),
              f"BlockSink, fault {fault}: failed = {failed}")


if __name__ == "__main__":
    check_sinks()
    check_names()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
