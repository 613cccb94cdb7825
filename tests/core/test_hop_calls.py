"""A work count for the thread backend's per-item hop path.

Timed metrics of the hop path spread between runs of the same code; the
number of Python calls per item is a property of the code.  The graph
is the benchmark's ``hop_scalar`` shape — source -> ordered
``Farm(Pipe(inc, dbl), replicas=2)`` -> sink — run pinned to one CPU,
with every thread's ``call`` events counted.  Each item crosses four
hops, so the bound prices the whole per-hop path: channel put/get, the
unit's bound fetch/apply/publish, envelopes and the reorder push.  With
a token gate the bound is the same: the source's acquire and the sink's
release add a lock each, and a release notifies only a parked source.
"""

import itertools
import os
import sys
import threading

import pytest

from repro.core.config import ExecConfig
from repro.core.graph import Farm, Pipe, StageSpec, linear_graph
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource

N = 2000
#: Python calls per item; the path made 54.6 before units bound their
#: fetch/apply/publish once at start and channels woke peers once
MAX_CALLS_PER_ITEM = 36
#: ``Condition.notify`` calls per item under ``max_tokens``: a release
#: that wakes nobody must not notify (1.08 per item when every one did)
MAX_NOTIFY_PER_ITEM = 0.25


def _inc(x):
    return x + 1


def _dbl(x):
    return x * 2


def _graph(n, seen):
    return linear_graph(
        IterSource(range(n)),
        Farm(Pipe(StageSpec(FunctionStage(_inc), "inc"),
                  StageSpec(FunctionStage(_dbl), "dbl")),
             replicas=2, ordered=True),
        StageSpec(FunctionStage(seen.append), "sink"))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("max_tokens", [None, 64])
def test_hop_path_python_calls_per_item(max_tokens):
    cfg = ExecConfig(collect_outputs=False, max_tokens=max_tokens)
    execute(_graph(100, []), cfg)  # warm the plan and kernel caches
    seen: list = []
    counter = itertools.count()
    tick = counter.__next__
    notifies = itertools.count()
    notified = notifies.__next__
    notify_code = threading.Condition.notify.__code__

    def profile(frame, event, arg):
        if event == "call":
            tick()
            if frame.f_code is notify_code:
                notified()

    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            execute(_graph(N, seen), cfg)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    finally:
        os.sched_setaffinity(0, mask)
    assert seen == [(x + 1) * 2 for x in range(N)]
    per_item = next(counter) / N
    assert per_item <= MAX_CALLS_PER_ITEM, (
        f"{per_item:.1f} Python calls per item on the hop path "
        f"(bound {MAX_CALLS_PER_ITEM})")
    if max_tokens is not None:
        per_item = next(notifies) / N
        assert per_item < MAX_NOTIFY_PER_ITEM, (
            f"{per_item:.2f} notify calls per item with a token gate "
            f"(bound {MAX_NOTIFY_PER_ITEM})")
