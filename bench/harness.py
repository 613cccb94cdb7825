"""Measurement primitives shared by the workloads, the probes and run.py.

Everything here measures from outside the program: clocks, CPU and RSS
accounting, CPU pinning, the leak check, the environment record and the
in-memory span store of the traced pass.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

pc = time.perf_counter


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

median = statistics.median


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def good_quartile(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The quartile on the good side of per-round values: the value a
    quarter of the way from the best round to the worst (nearest rank).

    A neighbour on this box only ever slows a round down, so the error of
    a round has one sign.  The good quartile needs a quarter of the rounds
    undisturbed, where the median needs half; it is not the best round,
    which is the luckiest one.  See README, "Why the numbers repeat".
    """
    ranked = sorted(values, reverse=higher_is_better)
    return ranked[round(0.25 * (len(ranked) - 1))]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver gates on."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------------------
# CPU, memory, pinning
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Stopwatch:
    """Wall and CPU time of a ``with`` block."""

    start = 0.0   #: perf_counter at entry
    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._c0 = cpu_seconds()
        self.start = pc()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = pc() - self.start
        self.cpu = cpu_seconds() - self._c0


def allowed_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def pin(cpus: Sequence[int]) -> None:
    os.sched_setaffinity(0, set(cpus))


def pinned_cpu(allowed: Sequence[int]) -> int:
    """The one CPU GIL-bound workloads run on: the highest allowed one
    (CPU 0 takes most interrupts).  A fixed choice, recorded in the
    environment record."""
    return allowed[-1]


# ---------------------------------------------------------------------------
# leak check
# ---------------------------------------------------------------------------

def _child_pids() -> set:
    me = str(os.getpid())
    kids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        # the command name may contain spaces; fields resume after ")"
        if stat[stat.rindex(")") + 2:].split()[1] == me:
            kids.add(int(entry))
    return kids


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class LeakCheck:
    """Threads, child processes and /dev/shm entries that outlive a round."""

    def __init__(self) -> None:
        self._threads = {t.ident for t in threading.enumerate()}
        self._children = _child_pids()
        self._shm = _shm_entries()

    def _now(self) -> List[str]:
        leaks = [f"thread {t.name}" for t in threading.enumerate()
                 if t.ident not in self._threads]
        leaks += [f"child pid {p}" for p in _child_pids() - self._children]
        leaks += [f"/dev/shm/{n}" for n in _shm_entries() - self._shm]
        return leaks

    def leaks(self, grace: float = 0.5) -> List[str]:
        """What leaked; a thread past its join may need a moment to go."""
        deadline = pc() + grace
        found = self._now()
        while found and pc() < deadline:
            time.sleep(0.01)
            found = self._now()
        return found


# ---------------------------------------------------------------------------
# leaving no process behind
# ---------------------------------------------------------------------------

def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants: one whose own
    parent dies is handed to us, not to init, so ``stop_children`` sees it."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped below


def stop_children(grace: float = 5.0) -> List[int]:
    """Stop and reap every process this one started; returns the pids that
    had to be killed.

    The first ``SharedMemory`` of the process backend starts
    multiprocessing's resource tracker, which by design ends only when
    every copy of our end of its pipe is closed - after we are gone, were
    it not stopped here.  Forked workers hold a copy, so they go first:
    each child gets ``grace`` seconds to end by itself, then SIGKILL.  The
    call returns when no child is left.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    killed: List[int] = []
    deadline = pc() + grace

    def sweep(keep: Optional[int]) -> None:
        while True:
            kids = _child_pids() - {keep}
            if not kids:
                return
            for pid in kids:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    continue  # reaped by its owner since the scan
                if not done and pc() > deadline and pid not in killed:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    killed.append(pid)
            time.sleep(0.005)

    sweep(keep=getattr(tracker, "_pid", None))
    try:
        tracker._stop()   # closes the pipe and waits for the tracker
    except (AttributeError, OSError):
        pass  # no such private hook here: the sweep below ends it
    sweep(keep=None)
    return killed


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

#: iterations of the fixed pure-Python calibration loop (~0.2 s here)
CALIBRATION_LOOPS = 4_000_000


def calibration_s() -> float:
    """Time a fixed pure-Python loop: the same work before and after a
    workload tells a noisy box from a noisy program."""
    t0 = pc()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i & 3
    return pc() - t0


def environment(seed: int, allowed: Sequence[int],
                chosen: Sequence[int]) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": list(allowed),
        "chosen_cpus": list(chosen),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "loadavg_before": os.getloadavg()[0],
    }


def close_environment(env: Dict[str, Any], calib_before: float) -> None:
    after = calibration_s()
    env["loadavg_after"] = os.getloadavg()[0]
    env["calibration_s"] = [calib_before, after]
    env["disturbed"] = abs(after - calib_before) > 0.10 * min(after,
                                                               calib_before)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """One fixed-work round of one workload."""

    items: int                       #: items offered
    failed: int = 0                  #: items missing, wrong or out of order
    wall: float = 0.0
    cpu: float = 0.0
    latencies: List[float] = field(default_factory=list)  #: seconds, counted samples
    notes: List[str] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)  #: every RunResult

    def fail(self, count: int, note: str) -> None:
        self.failed = min(self.items, self.failed + count)
        self.notes.append(note)


def run_round(fn: Callable[[], Round], items: int) -> Round:
    """Run one round under the leak check; a round that raises or leaks
    fails every item it offered."""
    import gc

    gc.collect()
    check = LeakCheck()
    try:
        rnd = fn()
    except Exception as exc:  # noqa: BLE001 - boundary: record and count
        import traceback

        traceback.print_exc(file=sys.stderr)
        rnd = Round(items=items)
        rnd.fail(items, f"raised {exc!r}")
    leaked = check.leaks()
    if leaked:
        rnd.fail(rnd.items, "leaked " + ", ".join(leaked))
    return rnd


# ---------------------------------------------------------------------------
# spans (traced pass only)
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span store of one traced round.

    Every span is ``(name, start, end, items, busy)`` on
    ``time.perf_counter`` (one system-wide monotonic clock, so stamps taken
    in a forked worker line up with the parent's) and a child of the
    round's ``run`` span.  ``busy`` is the time charged to the span's
    body: its duration, unless the recorder measured the body's CPU time
    itself.  ``list.append`` is atomic under the GIL, so stage threads
    share one list.  Nothing is written until the benchmark ends.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.rows: List[Tuple[str, float, float, int, float]] = []
        self.run: Tuple[float, float] = (0.0, 0.0)

    def add(self, name: str, start: float, end: float, items: int = 1,
            busy: Optional[float] = None) -> None:
        self.rows.append((name, start, end, items,
                          end - start if busy is None else busy))

    def wrap(self, name: str, fn: Callable[[Any], Any],
             weigh: Optional[Callable[[Any], int]] = None
             ) -> Callable[[Any], Any]:
        """``fn`` with every call recorded as a span; ``weigh`` gives the
        number of stream items one call carries (a block's length),
        one if omitted."""
        add = self.add

        def traced(item: Any) -> Any:
            t0 = pc()
            out = fn(item)
            add(name, t0, pc(), weigh(item) if weigh else 1)
            return out

        return traced

    def wrap_source(self, name: str, items: Any,
                    weigh: Optional[Callable[[Any], int]] = None) -> Any:
        """Iterate ``items``, recording the time taken to produce each."""
        add = self.add
        t0 = pc()
        for item in items:
            add(name, t0, pc(), weigh(item) if weigh else 1)
            yield item
            t0 = pc()

    # -- analysis ----------------------------------------------------------
    def busy(self) -> Dict[str, float]:
        """Summed busy time per name."""
        out: Dict[str, float] = {}
        for name, _t0, _t1, _n, busy in self.rows:
            out[name] = out.get(name, 0.0) + busy
        return out

    def items(self) -> Dict[str, int]:
        """Stream items covered by the spans of each name."""
        out: Dict[str, int] = {}
        for name, _t0, _t1, n, _busy in self.rows:
            out[name] = out.get(name, 0) + n
        return out

    def self_time(self) -> float:
        """The run span minus the union of its children's intervals."""
        covered = 0.0
        cur_start = cur_end = None
        for t0, t1 in sorted(row[1:3] for row in self.rows):
            if cur_end is None or t0 > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = t0, t1
            elif t1 > cur_end:
                cur_end = t1
        if cur_end is not None:
            covered += cur_end - cur_start
        return (self.run[1] - self.run[0]) - covered

    def write(self, path: str) -> None:
        origin = self.run[0]
        wall = round(self.run[1] - origin, 7)
        spans: List[List[Any]] = [[0, None, "run", 0.0, wall, 0, wall]]
        spans += [[i + 1, 0, name, round(t0 - origin, 7),
                   round(t1 - origin, 7), n, round(busy, 7)]
                  for i, (name, t0, t1, n, busy) in enumerate(self.rows)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start_s", "end_s",
                                  "items", "busy_s"],
                       "spans": spans}, fh)
