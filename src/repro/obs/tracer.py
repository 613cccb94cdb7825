"""Structured tracing: spans, counters and instants over an abstract clock.

The default tracer is :data:`NOOP_TRACER` — a :class:`Tracer` whose every
method is a no-op and whose ``enabled`` flag is ``False``.  Hot paths in
the executors check that flag once and skip all instrumentation, so an
untraced run pays nothing.

A :class:`SpanRecorder` collects events in memory: per-item spans (stage
service, queue put/get wait, token wait, GPU kernel and copy-engine busy
intervals), queue-occupancy counter samples, and instant markers.  It
also feeds a log-bucketed :class:`~repro.obs.histogram.LatencyHistogram`
per (stage, replica track) from the stage spans, so percentile service
latencies come for free with any trace.

The active tracer travels in a context variable (like
:func:`repro.sim.context.current_cursor`) so deeply nested code — the GPU
device model, SPar's generated stages — can emit events without
plumbing: :func:`current_tracer` reads the
:func:`repro.core.config.use_config` overlay.  Context variables do
**not** propagate into spawned threads; the native executor re-installs
the run's tracer inside every thread body.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import _OVERLAY
from repro.obs.clock import Clock
from repro.obs.histogram import LatencyHistogram
from repro.sim.context import current_cursor

#: span categories — each becomes a Chrome trace track type
CAT_STAGE = "stage"          #: CPU stage service interval (per item)
CAT_QUEUE = "queue"          #: time blocked on a bounded queue put/get
CAT_TOKEN = "token"          #: source blocked on the TBB token gate
CAT_COLLECTOR = "collector"  #: sequencer/collector reorder activity
CAT_KERNEL = "kernel"        #: GPU compute-engine busy interval
CAT_COPY = "copy"            #: GPU copy-engine (H2D/D2H/D2D) busy interval
CAT_SPAR = "spar"            #: SPar Target-stage host-side occupation
CAT_USER = "user"            #: instants emitted from user stage code
CAT_CONTROL = "control"      #: autonomic-controller actions (instants)


@dataclass
class SpanEvent:
    """A closed interval on one track (Chrome ``ph:"X"``)."""

    run: int
    cat: str
    track: str
    name: str
    start: float
    end: float
    args: Optional[Dict[str, Any]] = None


@dataclass
class CounterEvent:
    """A sampled value over time (Chrome ``ph:"C"``), e.g. queue occupancy."""

    run: int
    track: str
    name: str
    t: float
    value: float


@dataclass
class InstantEvent:
    """A point-in-time marker (Chrome ``ph:"i"``)."""

    run: int
    track: str
    name: str
    t: float
    args: Optional[Dict[str, Any]] = None


@dataclass
class RunInfo:
    """One executor run inside a recorder (its own Chrome process)."""

    index: int
    name: str
    mode: str
    makespan: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """No-op base tracer; every recording method does nothing.

    ``enabled`` is a class attribute so executors can hoist the check out
    of their per-item loops.
    """

    enabled = False

    def begin_run(self, name: str, mode: str,
                  clock: Optional[Clock] = None) -> int:
        """Open a new run scope; returns its index (0 for the no-op)."""
        return 0

    def end_run(self, makespan: Optional[float] = None) -> None:
        """Close the current run scope."""

    def span(self, cat: str, track: str, name: str, start: float, end: float,
             args: Optional[Dict[str, Any]] = None) -> None:
        """Record a closed ``[start, end]`` interval on ``track``."""

    def instant(self, track: str, name: str, t: Optional[float] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time marker."""

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        """Record one sample of a time-varying value."""

    def now(self) -> float:
        """Current time on the active run's clock (0.0 for the no-op)."""
        return 0.0

    @property
    def events(self) -> Tuple[Any, ...]:
        """All recorded events (empty for the no-op tracer)."""
        return ()


#: the shared do-nothing tracer installed by default
NOOP_TRACER = Tracer()


class SpanRecorder(Tracer):
    """In-memory tracer; feed it to :func:`repro.run` or install it
    ambiently with ``use_config(tracer=...)``, then export via
    :mod:`repro.obs.export`."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.runs: List[RunInfo] = []
        self.spans: List[SpanEvent] = []
        self.counters: List[CounterEvent] = []
        self.instants: List[InstantEvent] = []
        #: (stage name, track) -> service-latency histogram
        self.histograms: Dict[Tuple[str, str], LatencyHistogram] = {}
        self._clock: Optional[Clock] = None
        self._run = 0

    # -- run scoping -----------------------------------------------------
    def begin_run(self, name: str, mode: str,
                  clock: Optional[Clock] = None) -> int:
        with self._lock:
            self._run += 1
            self.runs.append(RunInfo(self._run, name, mode))
            self._clock = clock
            return self._run

    def end_run(self, makespan: Optional[float] = None) -> None:
        with self._lock:
            if self.runs:
                self.runs[-1].makespan = makespan
            self._clock = None

    # -- recording -------------------------------------------------------
    def span(self, cat: str, track: str, name: str, start: float, end: float,
             args: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            self.spans.append(SpanEvent(self._run, cat, track, name,
                                        start, end, args))
            if cat == CAT_STAGE:
                h = self.histograms.get((name, track))
                if h is None:
                    h = self.histograms[(name, track)] = LatencyHistogram()
                h.add(end - start)

    def instant(self, track: str, name: str, t: Optional[float] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            self.instants.append(InstantEvent(
                self._run, track, name, self.now() if t is None else t, args))

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        with self._lock:
            self.counters.append(CounterEvent(self._run, track, name, t, value))

    # -- clocks ----------------------------------------------------------
    def now(self) -> float:
        """Time on the active clock.

        An active :class:`~repro.sim.context.WorkCursor` wins: inside a
        simulated stage invocation the cursor is ahead of the engine (it
        accumulates the invocation's virtual cost before the process
        sleeps), so intra-stage events land at their true virtual time.
        """
        cur = current_cursor()
        if cur is not None:
            return cur.now
        clock = self._clock
        return clock.now() if clock is not None else 0.0

    # -- queries ---------------------------------------------------------
    @property
    def events(self) -> Tuple[Any, ...]:
        return tuple(self.spans) + tuple(self.counters) + tuple(self.instants)

    def spans_by_cat(self, cat: str) -> List[SpanEvent]:
        return [s for s in self.spans if s.cat == cat]

    def track_types(self) -> set:
        """Distinct span categories recorded (acceptance: >= 4 for a
        traced hybrid run: stage, queue, kernel, copy)."""
        return {s.cat for s in self.spans}

    def stage_histogram(self, stage: str) -> LatencyHistogram:
        """Service-latency histogram for ``stage`` merged over replicas."""
        merged = LatencyHistogram()
        for (name, _track), h in self.histograms.items():
            if name == stage:
                merged.merge(h)
        return merged


def current_tracer() -> Tracer:
    """The ambient tracer: the innermost ``use_config(tracer=...)``
    value, else :data:`NOOP_TRACER`."""
    return _OVERLAY.get().get("tracer", NOOP_TRACER)
