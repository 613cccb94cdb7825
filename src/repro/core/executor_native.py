"""Threaded executor: runs an execution plan on real Python threads.

The lowering itself lives in :mod:`repro.core.plan` — this executor
consumes an :class:`~repro.core.plan.ExecutionPlan` verbatim: one thread
per plan unit (source, every stage replica, every implicit sequencer),
one bounded-channel :class:`Edge` per channel spec.

Hand-offs ride the purpose-built channels of :mod:`repro.core.channel`:
SPSC ring buffers wherever the plan proves single-producer/single-
consumer access (the common case), a lock-minimal MPMC fallback on
shared edges, with FastFlow's blocking vs spinning disciplines selected
by ``ExecConfig.blocking``.  Batching is consumer-side only: a stage
drains up to ``ExecConfig.batch_size`` envelopes its queue already holds
in one multi-pop, and a producer never holds an envelope back.

Internal protocol: payloads travel in :class:`Env` envelopes —
``(seq, payloads_tuple)``.  Every stage consumes one envelope and emits
exactly one (or none, when all its payloads were filtered), so TBB-style
token accounting is exact: a token is acquired per envelope at the
source, transferred downstream, and released when the envelope is
filtered or leaves the last stage.

The unit bodies (source, stage, sequencer loops) live in
:class:`UnitRunner`, deliberately separated from thread orchestration:
the process backend (:mod:`repro.core.executor_process`) runs the same
loops — one runner in the parent, one inside every worker process —
over the same :class:`Edge` (bound to shared memory where it crosses a
process boundary), so per-item semantics (ordering, EOS, token flow,
metrics, tracing) are defined exactly once.

Failure semantics: an exception in any stage aborts the whole run; the
error box wakes every thread parked on a channel or the token pool
immediately (event-driven, no polling interval) and the original
exception is re-raised from :meth:`NativeExecutor.run`.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

from repro.control.controller import Controller, StageHandle
from repro.core.channel import Aborted, AbortSignal, make_channel
from repro.core.config import ExecConfig, use_config
from repro.core.graph import PipelineGraph
from repro.core.items import EOS, ItemBlock, Multi, RETIRE
from repro.core.metrics import RunResult, StageMetrics
from repro.core.opt import FusedStage, get_kernel
from repro.core.ordering import SimpleReorderBuffer
from repro.core.plan import (
    ChannelSpec,
    ElasticGroup,
    ExecutionPlan,
    SequencerUnit,
    SourceSpec,
    StageUnit,
    build_plan,
    clone_replica_units,
)
from repro.core.stage import Stage, StageContext
from repro.obs.clock import WallClock
from repro.obs.metrics import LiveTelemetry
from repro.obs.tracer import (
    CAT_COLLECTOR,
    CAT_QUEUE,
    CAT_STAGE,
    CAT_TOKEN,
)

#: don't record queue/token wait spans shorter than this (wall seconds);
#: an uncontended queue op returns in microseconds and would only add noise
_MIN_WAIT = 1e-4

#: another thread failed; unwind quietly (raised from channel waits)
PipelineAborted = Aborted


class Env:
    """Envelope: ordered unit of flow between stages."""

    __slots__ = ("seq", "payloads", "tokened")

    def __init__(self, seq: int, payloads: tuple, tokened: bool = True):
        self.seq = seq
        self.payloads = payloads  # callers build tuples
        self.tokened = tokened

    def __reduce__(self):
        # Envelopes cross process boundaries on shm channels.
        return (Env, (self.seq, self.payloads, self.tokened))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Env(seq={self.seq}, n={len(self.payloads)})"


def _is_block_env(env: Env) -> bool:
    """One envelope carrying one ItemBlock: the columnar wire format."""
    p = env.payloads
    return len(p) == 1 and type(p[0]) is ItemBlock


def _env_weight(item: Any) -> int:
    """Logical stream items one queued entry carries (for occupancy)."""
    if type(item) is Env:
        n = 0
        for p in item.payloads:
            n += p.count if type(p) is ItemBlock else 1
        return n
    return 1  # EOS / RETIRE sentinels occupy one slot, as on scalar edges


class _ErrorBox(AbortSignal):
    """First-error storage on top of the event-driven abort signal."""

    def __init__(self) -> None:
        super().__init__()
        self._err_lock = threading.Lock()
        self.error: Optional[BaseException] = None

    def fail(self, exc: BaseException) -> None:
        with self._err_lock:
            if self.error is None:
                self.error = exc
        self.set()


class _TokenPool:
    """Counting token gate with event-driven abort; None limit = unlimited
    (units then bind neither ``acquire`` nor ``release``).

    A blocked ``acquire`` parks on the pool's condition and is woken by a
    ``release`` or by the error box failing — never by a poll timeout.
    The one acquirer (the source) raises ``_parked`` under the condition
    before it waits, so a ``release`` notifies only when someone is
    parked and the rest pay no ``notify``.
    """

    def __init__(self, limit: Optional[int], errors: _ErrorBox):
        self.limit = limit
        self._errors = errors
        if limit is not None:
            self._avail = limit
            self._cond = threading.Condition()
            self._parked = False
            errors.register(self._cond)

    def acquire(self) -> None:
        with self._cond:
            while self._avail == 0:
                if self._errors.is_set():
                    raise PipelineAborted()
                self._parked = True
                self._cond.wait()
            self._avail -= 1

    def release(self) -> None:
        with self._cond:
            self._avail += 1
            if self._parked:
                self._parked = False
                self._cond.notify()


class _EosCount:
    """EOS aggregation for one edge: count arrivals, decide the last.

    The lock covers only count-and-decide, never the fan-out puts that
    follow (they can block).  In-process the cells are ``ctypes`` ints
    under a thread lock; the shared-memory binding passes
    ``multiprocessing`` values and lock, so producers in different
    processes — including workers forked before a grow raised the
    producer count — agree on which EOS is the last.
    """

    __slots__ = ("_lock", "_producers", "_seen", "_done")

    def __init__(self, producers: int, lock=None, cell=ctypes.c_int) -> None:
        self._lock = lock if lock is not None else threading.Lock()
        self._producers = cell(producers)
        self._seen = cell(0)
        self._done = cell(0)

    @property
    def done(self) -> bool:
        """EOS delivery has begun: too late to grow or retire."""
        return bool(self._done.value)

    def arrive(self) -> bool:
        """Count one producer's EOS; True for the last one."""
        with self._lock:
            self._seen.value += 1
            if self._seen.value != self._producers.value:
                return False
            self._done.value = 1
            return True

    def add_producer(self) -> bool:
        """Count one more producer-to-come; refused once EOS is decided."""
        with self._lock:
            if self._done.value:
                return False
            self._producers.value += 1
            return True


class Edge:
    """P producers -> C consumers with correct EOS aggregation.

    Backed by one queue per consumer (per-consumer fan-out, fed
    round-robin or by ``placement``) or one shared queue.  In-process
    queues are channel-layer rings — SPSC wherever the spec proves
    single-producer/single-consumer access.  A ``binding`` (the process
    backend's shared-memory framing, see
    :class:`repro.core.executor_process.ShmBinding`) swaps in its own
    queues and EOS counter for edges that cross a process boundary;
    routing, placement, EOS fan-out and live rewiring below are the
    same for both.  When ``tracer`` is set, every completed put/get
    samples the queue's occupancy as a counter event (backpressure
    becomes visible over time).

    Elastic edges (the in/out boundaries of a farm an autonomic
    controller may re-size) additionally support live rewiring:
    :meth:`add_consumer`/:meth:`activate_consumer` and
    :meth:`add_producer` grow the fan-out/fan-in, and
    :meth:`request_retire` shrinks it by queueing a ``RETIRE`` sentinel
    that the *producer* thread injects at its next put — so the
    sentinel lands strictly after every item already routed to the
    retiring slot, and EOS accounting stays exact (``producers`` counts
    total-ever contributors; a retired worker simply contributes its
    EOS early).  Every structural mutation runs in one process (the
    parent, on the process backend).  The executor passes
    ``allow_spsc=False`` for such edges: their shared queues may gain
    producers or consumers mid-run, which would break the SPSC proof
    the static plan made.
    """

    def __init__(self, spec: ChannelSpec, capacity: int, errors: _ErrorBox,
                 blocking: bool = True, tracer=None, clock=None,
                 allow_spsc: bool = True, binding=None):
        self.name = spec.name
        self.consumers = spec.consumers
        self.errors = errors
        #: block-typed edge: envelopes may carry whole ItemBlocks, and
        #: occupancy is reported in logical items (see _env_weight)
        self.columnar = getattr(spec, "columnar", False)
        self._spec = spec
        self._placement = spec.placement
        self._tracer = tracer
        self._clock = clock
        self._capacity = capacity
        self._blocking = blocking
        self._mutable = not allow_spsc
        self._spsc = spec.spsc_queues and allow_spsc
        self._binding = binding
        self._eos = (binding.eos_count(spec.producers) if binding is not None
                     else _EosCount(spec.producers))
        #: guards routing state, retire injection and the EOS fan-out
        self._lock = threading.Lock()
        #: consumer slots excluded from routing (retired, or reserved by
        #: an in-flight grow and not yet activated)
        self._retired: set = set()
        #: RETIRE sentinels awaiting injection by a producer thread
        self._pending_retire: List[int] = []
        self._shared = not spec.per_consumer
        n = 1 if self._shared else spec.consumers
        self._channels = [self._new_channel() for _ in range(n)]
        self._rotation = list(range(n))
        self._rr = itertools.cycle(self._rotation)
        self._tracks = ([f"q:{spec.name}"] if self._shared else
                        [f"q:{spec.name}.{i}" for i in range(n)])
        # A static edge with one queue and nothing to sample hands every
        # put straight to its ring: the instance attribute shadows
        # :meth:`put` until a rewire or a tracer needs the generic path.
        if (not self._mutable and tracer is None and n == 1
                and self._placement is None):
            self.put = self._channels[0].put

    def _new_channel(self):
        weigh = _env_weight if self.columnar else None
        if self._binding is not None:
            return self._binding.channel(self._spec, self._mutable,
                                         self._blocking, weigh)
        return make_channel(self._capacity, self.errors,
                            blocking=self._blocking, spsc=self._spsc,
                            weigh=weigh)

    def bind_tracer(self, tracer, clock) -> None:
        """Install this process's tracer: a worker rebinds every boundary
        edge it inherited, since a forked recorder would swallow events."""
        self._tracer = tracer
        self._clock = clock
        if tracer is not None:
            self.__dict__.pop("put", None)

    # -- live rewiring (autonomic controller) ----------------------------
    def set_blocking(self, blocking: bool) -> bool:
        """Flip every queue's wait discipline; later-grown queues inherit."""
        self._blocking = blocking
        return all([ch.set_blocking(blocking) for ch in self._channels])

    def add_consumer(self) -> Optional[int]:
        """Reserve a consumer slot for a new replica (grow, step one).

        Per-consumer edges get a fresh queue that is *not* yet in the
        routing rotation — call :meth:`activate_consumer` once the
        replica is running, or :meth:`cancel_consumer` to unwind.
        Returns ``None`` once EOS delivery has begun (too late to grow
        this stream).
        """
        with self._lock:
            if self._eos.done:
                return None
            self.__dict__.pop("put", None)
            self.consumers += 1
            if self._shared:
                return self.consumers - 1
            idx = len(self._channels)
            self._channels.append(self._new_channel())
            self._tracks.append(f"q:{self.name}.{idx}")
            self._retired.add(idx)  # reserved: no routing yet
            return idx

    def activate_consumer(self, idx: int) -> None:
        """Open a reserved slot to routing (grow, final step)."""
        with self._lock:
            if self._shared:
                return
            if self._eos.done:
                # EOS raced the grow: the reserved slot was skipped by
                # put_eos, so release its (already running) consumer now.
                self._channels[idx].put(EOS)
                return
            self._retired.discard(idx)
            self._rotation = self._rotation + [idx]
            self._rr = itertools.cycle(self._rotation)

    def cancel_consumer(self, idx: int) -> None:
        """Unwind a reserved slot whose replica never started."""
        with self._lock:
            self.consumers -= 1
            if not self._shared:
                self._retired.add(idx)

    def add_producer(self) -> bool:
        """Count one more producer-to-come (grow of the upstream farm);
        refused once EOS delivery has begun."""
        return self._eos.add_producer()

    def request_retire(self) -> bool:
        """Queue one consumer's retirement (shrink).

        The slot leaves the routing rotation immediately; the sentinel
        itself is injected by the producer thread (see class docstring),
        so nothing is ever stranded behind it.  On shared (on-demand)
        edges the retirement is anonymous — whichever worker pulls the
        sentinel exits.
        """
        with self._lock:
            if self._eos.done:
                return False
            self.__dict__.pop("put", None)
            if self._shared:
                if self.consumers <= 1:
                    return False
                self.consumers -= 1
                self._pending_retire.append(0)
                return True
            if len(self._rotation) <= 1:
                return False
            idx = self._rotation[-1]
            self._rotation = self._rotation[:-1]
            self._rr = itertools.cycle(self._rotation)
            self._retired.add(idx)
            self.consumers -= 1
            self._pending_retire.append(idx)
            return True

    def _drain_retires(self) -> None:
        """Inject queued RETIRE sentinels (caller holds ``_lock``)."""
        pending, self._pending_retire = self._pending_retire, []
        for idx in pending:
            self._channels[idx].put(RETIRE)

    def _sample(self, idx: int) -> None:
        ch = self._channels[idx]
        self._tracer.counter(self._tracks[idx], "occupancy",
                             self._clock.now(),
                             ch.qsize_items() if self.columnar
                             else ch.qsize())

    def qsize_total(self) -> int:
        """Items queued across all of the edge's channels (metrics gauge).

        On columnar edges a queued entry may be a whole ItemBlock; the
        gauge reports logical items either way, so occupancy is
        comparable with the fast path on or off.
        """
        if self.columnar:
            return sum(ch.qsize_items() for ch in self._channels)
        return sum(ch.qsize() for ch in self._channels)

    def _route(self, item: Any) -> int:
        """Destination queue for one item on a per-consumer edge.

        EOS is routed around the placement hook explicitly: the sentinel
        has no sequence number (and must reach *every* consumer anyway,
        which :meth:`put_eos` handles by direct per-channel puts).
        """
        if self._placement is not None and item is not EOS:
            # FastFlow's customized-scheduler hook
            return self._placement(item.seq, self.consumers) % self.consumers
        return next(self._rr)

    # producer side ------------------------------------------------------
    def put(self, item: Any) -> None:
        idx = 0 if self._shared else self._route(item)
        self._channels[idx].put(item)
        if self._pending_retire:
            with self._lock:
                self._drain_retires()
        if self._tracer is not None:
            self._sample(idx)

    def put_eos(self) -> None:
        """Called once per producer; last producer releases the consumers.

        Still-pending RETIRE sentinels are injected first, inside the
        fan-out's critical section, so a retiring slot receives RETIRE
        and is then excluded from EOS delivery — never both.  The fan-out
        runs outside the EOS counter's lock: a producer killed while
        blocked on a full queue here leaves that lock free.
        """
        if not self._eos.arrive():
            return
        with self._lock:
            self._drain_retires()
            if self._shared:
                # one sentinel per consumer on the shared queue
                for _ in range(self.consumers):
                    self._channels[0].put(EOS)
            else:
                for i, ch in enumerate(self._channels):
                    if i not in self._retired:
                        ch.put(EOS)

    # consumer side ------------------------------------------------------
    def getter(self, consumer_idx: int):
        """One consumer's ``get``, bound at unit start: its ring's own
        ``get`` unless a tracer samples occupancy (rewiring appends
        queues, so a consumer's queue never changes)."""
        if self._tracer is not None:
            return functools.partial(self.get, consumer_idx)
        return self._channels[0 if self._shared else consumer_idx].get

    def get(self, consumer_idx: int) -> Any:
        idx = 0 if self._shared else consumer_idx
        item = self._channels[idx].get()
        if self._tracer is not None:
            self._sample(idx)
        return item

    def get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        """Multi-pop: at least one item; EOS only ever arrives alone."""
        idx = 0 if self._shared else consumer_idx
        items = self._channels[idx].get_many(max_n, stop=EOS)
        if self._tracer is not None:
            self._sample(idx)
        return items


def _unpack_blocks(gen):
    """Adapter: flatten a block-emitting source to a scalar item stream."""
    for payload in gen:
        if type(payload) is ItemBlock:
            yield from payload.to_items()
        else:
            yield payload


def _discard(env: Env) -> None:
    """Sink publish when outputs are neither collected nor tokened."""


def _normalize_outputs(result: Any) -> tuple[Any, ...]:
    """Stage return value -> tuple of payloads (None filters, Multi expands)."""
    if result is None:
        return ()
    if isinstance(result, Multi):
        return tuple(result.items)
    return (result,)


class UnitRunner:
    """Executes plan units against a set of edges, in one process.

    Owns everything the unit loops share: the token gate, per-run metric
    and sink-output accumulators and the tracer/clock pair.  The thread
    backend uses a single runner for the whole plan; the process backend
    uses one runner in the parent (source, sink, sequencers, pinned
    stages) and one inside each worker process (the shipped farm-replica
    chains, with a no-op token pool — tokens are parent-side state).
    """

    def __init__(self, config: ExecConfig, errors: _ErrorBox,
                 tokens: _TokenPool, *, tracer=None, clock=None,
                 collect_outputs: Optional[bool] = None, metrics=None):
        self.config = config
        self.errors = errors
        self.tokens = tokens
        #: None on the untraced fast path — all hooks hide behind this
        self.tracer = tracer
        #: live MetricsRegistry, or None — like the tracer, the hot loops
        #: skip all probe work when this is None
        self.metrics_registry = metrics
        self.clock = clock if clock is not None else WallClock()
        self.collect = (config.collect_outputs if collect_outputs is None
                        else collect_outputs)
        #: the plan proved the sink accepts blocks: last-stage kernels may
        #: deliver whole ItemBlocks into the output accumulator
        self.sink_columnar = False
        self._metrics_lock = threading.Lock()
        self.metrics: dict[str, StageMetrics] = {}
        self.outputs: List[Env] = []
        self._output_lock = threading.Lock()
        self.items_emitted = 0
        #: pause gate: cleared parks the source between items, letting a
        #: live-rewire barrier (process backend) drain in-flight work
        self._gate = threading.Event()
        self._gate.set()
        #: the gate's state as a plain attribute: the source reads it per
        #: item, and ``Event.is_set`` would be a Python call each time
        self._paused = False

    # -- live-rewire barrier (process backend) ----------------------------
    def pause(self) -> None:
        """Park the source before its next item (live-rewire barrier)."""
        self._paused = True
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()
        self._paused = False

    def _wait_gate(self) -> None:
        while not self._gate.wait(0.05):
            if self.errors.is_set():
                raise PipelineAborted()

    def merge_metrics(self, local: StageMetrics) -> None:
        with self._metrics_lock:
            m = self.metrics.get(local.name)
            if m is None:
                self.metrics[local.name] = local
            else:
                m.merge(local)

    def _probe(self, kind: str, name: str, replicas: int = 1,
               in_edge: Optional[Edge] = None,
               out_edge: Optional[Edge] = None):
        """Per-unit metrics shard, or None when metrics are off."""
        if self.metrics_registry is None:
            return None
        return self.metrics_registry.unit_probe(
            kind, name, replicas,
            in_edge=in_edge.name if in_edge is not None else None,
            out_edge=out_edge.name if out_edge is not None else None)

    # -- per-unit bindings ------------------------------------------------
    def _timed(self, op, track: str, cat: str, name: str, record,
               tick=None):
        """``op`` itself when nothing observes it, else ``op`` with its
        wait timed: a ``cat``/``name`` span for the tracer, ``record(dt)``
        for the probe.  With ``tick``, the probe times only its 1-in-N
        sampled ops while no tracer is on.  A wait that ends in EOS is
        the stream ending, not backpressure, and is not recorded."""
        tr, clock = self.tracer, self.clock
        if tr is None and record is None:
            return op

        def timed(*args):
            sample = record is not None and (tick is None or tick())
            if tr is None and not sample:
                return op(*args)
            t0 = clock.now()
            out = op(*args)
            t1 = clock.now()
            if t1 - t0 > _MIN_WAIT and (
                    out[0] if type(out) is list else out) is not EOS:
                if tr is not None:
                    tr.span(cat, track, name, t0, t1)
                if sample:
                    record(t1 - t0)
            return out
        return timed

    def _publisher(self, out_edge: Edge, probe, track: str):
        """The unit's put, picked once at unit start: ``out_edge.put`` as
        it reads now (a static edge's ring ``put``, or a test's seam),
        timed while observed."""
        return self._timed(out_edge.put, track, CAT_QUEUE, "put_wait",
                           probe and probe.sampled_put_wait,
                           probe and probe.tick_put)

    # -- thread bodies ----------------------------------------------------
    def source_loop(self, src_spec: SourceSpec, out_edge: Edge) -> None:
        ctx = StageContext(src_spec.name, 0, 1, tracer=self.tracer)
        src = src_spec.factory()
        probe = self._probe("source", src_spec.name, out_edge=out_edge)
        send = self._publisher(out_edge, probe, src_spec.name)
        acquire = (self._timed(self.tokens.acquire, src_spec.name, CAT_TOKEN,
                               "token_wait", probe and probe.token_waited)
                   if self.tokens.limit is not None else None)
        seq = 0
        emits_blocks = getattr(src_spec, "emits_blocks", False)
        # block adapter shim: a block-emitting source feeding a scalar
        # edge unpacks each block into per-item envelopes right here, so
        # the fast path being off (or unproven) is invisible downstream
        blocks_on = emits_blocks and out_edge.columnar
        try:
            src.on_start(ctx)
            gen = src.generate(ctx)
            if emits_blocks and not blocks_on:
                gen = _unpack_blocks(gen)
            for payload in gen:
                if self._paused:
                    self._wait_gate()
                if blocks_on and type(payload) is ItemBlock:
                    payload.seq_start = seq
                    step = payload.count
                else:
                    step = 1
                env = Env(seq, (payload,))
                if acquire is not None:
                    acquire()
                send(env)
                if probe is not None:
                    probe.emitted(step)
                seq += step
            src.on_end(ctx)
        except PipelineAborted:
            raise
        except BaseException as exc:
            # Record the failure before the finally block propagates EOS:
            # downstream units must observe the abort (not a truncated
            # stream) by the time the sentinel reaches them.
            self.errors.fail(exc)
            raise
        finally:
            with self._metrics_lock:
                self.items_emitted = seq
            out_edge.put_eos()

    def stage_loop(self, unit: StageUnit, logic: Stage, in_edge: Edge,
                   out_edge: Optional[Edge]) -> None:
        """Body for one stage worker unit of the plan.

        Fetch, apply and publish are bound once, here, from plan facts
        and the active observers (tracer, probe, multi-pop), so
        the per-item path runs only what this unit needs.
        """
        tr, clock = self.tracer, self.clock
        spec = unit.spec
        track = unit.track
        fused = isinstance(logic, FusedStage)
        if fused:
            # One thread, many observable identities: every constituent
            # of the fused chain keeps its own context, metrics, probe
            # and trace track, so fusion is invisible to observability.
            parts = logic.parts
            part_names = logic.names
            part_tracks = [f"{n}[{unit.replica}]" for n in part_names]
            ctxs = [StageContext(n, unit.replica, unit.replicas, tracer=tr)
                    for n in part_names]
            ctx = ctxs[0]
            for part, pctx in zip(parts, ctxs):
                part.on_start(pctx)
            kernel = None
        else:
            ctx = StageContext(spec.name, unit.replica, unit.replicas,
                               tracer=tr)
            logic.on_start(ctx)
            kernel = get_kernel(spec, logic)
        rob = SimpleReorderBuffer() if unit.reorder_input else None
        # A unit inside a replicated segment keeps the upstream sequence
        # number so the downstream reorder point can restore order; a
        # serial stage renumbers so its own output edge always carries a
        # contiguous 0..n sequence.
        keep_seq = unit.keep_seq
        out_seq = 0
        # Columnar typing, as the plan proved it: ItemBlock envelopes may
        # arrive on the in edge, and may be emitted on the out edge (or
        # into the sink when the whole tail of the plan is columnar).
        in_blocks = in_edge.columnar
        emit_blocks = (out_edge.columnar if out_edge is not None
                       else self.sink_columnar)
        tail: List[Env] = []  # on_end outputs from upstream replicas
        if fused:
            last = len(parts) - 1
            part_probes = [
                self._probe("stage", n, unit.replicas,
                            in_edge=in_edge if i == 0 else None,
                            out_edge=out_edge if i == last else None)
                for i, n in enumerate(part_names)]
            # get-side waits belong to the head part, put-side to the tail
            probe, put_probe = part_probes[0], part_probes[-1]
            part_metrics = [StageMetrics(name=n, replicas=unit.replicas)
                            for n in part_names]
        else:
            probe = self._probe("stage", unit.metric_name, unit.replicas,
                                in_edge=in_edge, out_edge=out_edge)
            put_probe = probe
        # Per-thread accumulation: service metrics and sink outputs are
        # gathered locally and merged once at EOS, so the hot loop never
        # touches the shared locks.
        metrics = StageMetrics(name=unit.metric_name, replicas=unit.replicas)
        n_in = n_out = 0
        busy, smin, smax = 0.0, math.inf, 0.0
        sink: List[Env] = []
        collect = self.collect
        release = self.tokens.release if self.tokens.limit is not None else None
        if out_edge is not None:
            publish = self._publisher(out_edge, put_probe, track)
        elif release is None:
            publish = sink.append if collect else _discard
        else:
            # Last stage: collect outputs and release the token.
            def publish(env: Env) -> None:
                if collect:
                    sink.append(env)
                if env.tokened:
                    release()

        inbox: deque = deque()  # multi-pop: envelopes fetched, not yet handled
        if self.config.batch_size > 1:
            # multi-pop is already 1-in-batch: timed on every pull
            get_many = self._timed(
                functools.partial(in_edge.get_many, unit.consumer_index,
                                  self.config.batch_size),
                track, CAT_QUEUE, "get_wait", probe and probe.get_waited)

            def fetch() -> Any:
                if not inbox:
                    inbox.extend(get_many())
                return inbox.popleft()
        else:
            fetch = self._timed(in_edge.getter(unit.consumer_index), track,
                                CAT_QUEUE, "get_wait",
                                probe and probe.sampled_get_wait,
                                probe and probe.tick_get)

        if fused:
            def run_parts(payloads: Sequence[Any], start: int,
                          seq: int) -> Sequence[Any]:
                # the fused chain in one loop iteration: no channel hop,
                # but per-part timing/metrics/spans as if unfused
                for i in range(start, len(parts)):
                    part, pctx = parts[i], ctxs[i]
                    t0 = time.perf_counter()
                    outs: List[Any] = []
                    for payload in payloads:
                        outs.extend(
                            _normalize_outputs(part.process(payload, pctx)))
                    service = time.perf_counter() - t0
                    part_metrics[i].record(service, len(outs))
                    if part_probes[i] is not None:
                        part_probes[i].record(service, len(outs))
                    if tr is not None:
                        end = clock.now()
                        tr.span(CAT_STAGE, part_tracks[i], part_names[i],
                                end - service, end, args={"seq": seq})
                    payloads = outs
                    if not payloads:
                        break  # filtered mid-chain: nothing to hand on
                return payloads

            def handle(env: Env) -> None:
                nonlocal out_seq
                outs = run_parts(env.payloads, 0, env.seq)
                if outs:
                    new_env = Env(env.seq if keep_seq else out_seq,
                                  tuple(outs), tokened=env.tokened)
                    out_seq += 1
                    publish(new_env)
                elif unit.forward_empty:
                    publish(Env(env.seq, (), tokened=env.tokened))
                elif release is not None and env.tokened:
                    release()
        elif kernel is not None:
            blocks = kernel.blocks
            # Scalar inputs may be re-packed into a fresh block only at a
            # renumbering stage: a keep_seq unit sees round-robin (gapped)
            # sequence numbers, which can't form a contiguous range.
            pack_out = emit_blocks and not keep_seq

            def _kernel_check(n_out: int, n_in: int) -> None:
                if n_out != n_in:
                    raise RuntimeError(
                        f"stage {spec.name!r}: batch kernel returned "
                        f"{n_out} outputs for {n_in} inputs "
                        "(vectorized stages are strict 1:1 maps)")

            def _record_block(service: float, n: int, seq: int,
                              batched: int) -> None:
                metrics.record_batch(service, n, n)
                if probe is not None:
                    probe.record_batch(service, n, n)
                if tr is not None:
                    end = clock.now()
                    tr.span(CAT_STAGE, track, spec.name, end - service, end,
                            args={"seq": seq, "batch": batched})

            def handle_block(env: Env) -> None:
                # Columnar fast path: the envelope carries one ItemBlock
                # whose columns feed the compiled kernel directly; the
                # output columns become the next block with no per-item
                # materialization at the hop.
                nonlocal out_seq
                block = env.payloads[0]
                n = block.count
                t0 = time.perf_counter()
                outs = out_block = None
                if blocks is not None:
                    out_block = blocks.call_block(block)
                if out_block is None:
                    # shim: unmappable columns (or an item-level kernel)
                    # materialize, compute, and re-pack when type-faithful
                    items = block.to_items()
                    outs = kernel(logic, items, ctx)
                    _kernel_check(len(outs), n)
                    if emit_blocks:
                        out_block = ItemBlock.try_from_items(
                            outs, key=block.key)
                service = time.perf_counter() - t0
                _record_block(service, n, env.seq, 1)
                base = block.seq_start if keep_seq else out_seq
                if out_block is not None and emit_blocks:
                    out_block.seq_start = base
                    publish(Env(base, (out_block,), tokened=env.tokened))
                    out_seq += n
                    return
                if outs is None:
                    outs = out_block.to_items()
                # scalar out edge: unpack; a keep_seq unit preserves the
                # block's item-granular range so reorder points downstream
                # still see the exact sequence tiling
                if keep_seq:
                    for i, o in enumerate(outs):
                        publish(Env(base + i, (o,), tokened=env.tokened))
                    out_seq += n
                else:
                    for o in outs:
                        publish(Env(out_seq, (o,), tokened=env.tokened))
                        out_seq += 1

            def handle_kernel(env: Env, batch: List[Env]) -> None:
                nonlocal out_seq
                flat: List[Any] = []
                for e in batch:
                    flat.extend(e.payloads)
                pack = pack_out and all(e.tokened for e in batch)
                t0 = time.perf_counter()
                outs = out_block = None
                if pack and blocks is not None:
                    out_block = blocks.call_items_block(flat)
                if out_block is None:
                    outs = kernel(logic, flat, ctx)
                    _kernel_check(len(outs), len(flat))
                    if pack:
                        out_block = ItemBlock.try_from_items(outs)
                service = time.perf_counter() - t0
                if out_block is not None:
                    # scalar->block adapter: this stage renumbers, so the
                    # batch packs into one contiguous-range block envelope
                    n = len(flat)
                    _record_block(service, n, env.seq, len(batch))
                    out_block.seq_start = out_seq
                    publish(Env(out_seq, (out_block,), tokened=True))
                    out_seq += n
                    return
                if tr is not None:
                    end = clock.now()
                    tr.span(CAT_STAGE, track, spec.name, end - service, end,
                            args={"seq": env.seq, "batch": len(batch)})
                per = service / len(batch)
                ofs = 0
                for e in batch:
                    n = len(e.payloads)
                    eouts = tuple(outs[ofs:ofs + n])
                    ofs += n
                    metrics.record(per, n)
                    if probe is not None:
                        probe.record(per, n)
                    publish(Env(e.seq if keep_seq else out_seq, eouts,
                             tokened=e.tokened))
                    out_seq += 1

            if rob is None:
                if in_blocks:
                    def handle(env: Env) -> None:
                        # mixed streams are legal on columnar edges:
                        # blocks go one-per-call, scalar runs batch up
                        if _is_block_env(env):
                            handle_block(env)
                            return
                        batch = [env]
                        while inbox and isinstance(inbox[0], Env) \
                                and inbox[0].payloads \
                                and not _is_block_env(inbox[0]):
                            batch.append(inbox.popleft())
                        handle_kernel(env, batch)
                else:
                    def handle(env: Env) -> None:
                        # one kernel call per get_many batch: drain whatever
                        # envelopes the multi-pop already fetched
                        batch = [env]
                        while inbox and isinstance(inbox[0], Env) \
                                and inbox[0].payloads:
                            batch.append(inbox.popleft())
                        handle_kernel(env, batch)
            else:
                def handle(env: Env) -> None:
                    # reorder point: envelopes arrive one by one in order
                    if in_blocks and _is_block_env(env):
                        handle_block(env)
                    else:
                        handle_kernel(env, [env])
        else:
            process, perf_counter = logic.process, time.perf_counter
            observe = None
            if probe is not None or tr is not None:
                def observe(service: float, n: int, seq: int) -> None:
                    if probe is not None:
                        # piggybacks on the apply's perf_counter pair
                        probe.record(service, n)
                    if tr is not None:
                        end = clock.now()
                        tr.span(CAT_STAGE, track, spec.name, end - service,
                                end, args={"seq": seq})

            def scalar_handle(env: Env) -> None:
                nonlocal out_seq, n_in, n_out, busy, smin, smax
                t0 = perf_counter()
                p = env.payloads
                if len(p) == 1:
                    r = process(p[0], ctx)
                    outs = (() if r is None else
                            r.items if type(r) is Multi else (r,))
                else:
                    outs = ()
                    for payload in p:
                        outs += _normalize_outputs(process(payload, ctx))
                service = perf_counter() - t0
                n = len(outs)
                n_in += 1
                n_out += n
                busy += service
                if service < smin:
                    smin = service
                if service > smax:
                    smax = service
                if observe is not None:
                    observe(service, n, env.seq)
                if n:
                    publish(Env(env.seq if keep_seq else out_seq, outs,
                                tokened=env.tokened))
                    out_seq += 1
                elif unit.forward_empty:
                    # Filtered in an ordered replicated segment: forward an
                    # empty envelope so the downstream reorder point does not
                    # stall on this seq.
                    publish(Env(env.seq, (), tokened=env.tokened))
                elif release is not None and env.tokened:
                    release()

            if in_blocks and getattr(spec, "accepts_blocks", False):
                def handle(env: Env) -> None:
                    # block-aware stage (accepts_blocks): the whole block
                    # is one process() call, metrics count its items
                    nonlocal out_seq
                    if not _is_block_env(env):
                        scalar_handle(env)
                        return
                    block = env.payloads[0]
                    t0 = time.perf_counter()
                    outs = _normalize_outputs(process(block, ctx))
                    service = time.perf_counter() - t0
                    metrics.record_batch(service, block.count, len(outs))
                    if probe is not None:
                        probe.record_batch(service, block.count, len(outs))
                    if tr is not None:
                        end = clock.now()
                        tr.span(CAT_STAGE, track, spec.name, end - service,
                                end, args={"seq": env.seq})
                    if outs:
                        new_env = Env(env.seq if keep_seq else out_seq,
                                      outs, tokened=env.tokened)
                        out_seq += 1
                        publish(new_env)
                    elif unit.forward_empty:
                        publish(Env(env.seq, (), tokened=env.tokened))
                    elif release is not None and env.tokened:
                        release()
            else:
                handle = scalar_handle

        retiring = False
        try:
            while True:
                if retiring and not inbox:
                    break
                item = fetch()
                if item is EOS:
                    break
                if item is RETIRE:
                    # Elastic shrink: finish whatever this worker already
                    # pulled, then exit early.  The finally's put_eos
                    # keeps the out edge balanced — ``producers`` counts
                    # total-ever contributors, and this one's EOS simply
                    # arrives before stream end.
                    retiring = True
                    continue
                env: Env = item
                if rob is None:
                    if not env.payloads:
                        # Skip-marker travelling through a worker chain:
                        # pass it along untouched (no metrics, no span).
                        if keep_seq:
                            publish(env)
                        elif release is not None and env.tokened:
                            release()
                        continue
                    handle(env)
                else:
                    if not env.tokened:
                        tail.append(env)  # upstream on_end output: after all items
                        continue
                    w = (env.payloads[0].count
                         if in_blocks and _is_block_env(env) else 1)
                    for ordered_env in rob.push_range(env.seq, w, env):
                        if not ordered_env.payloads:
                            # skip-marker from a filtering farm replica
                            if release is not None and ordered_env.tokened:
                                release()
                            continue
                        handle(ordered_env)
            if rob is not None and rob.pending:
                raise RuntimeError(
                    f"stage {spec.name!r}: {rob.pending} envelopes stuck in "
                    "reorder buffer at EOS (missing sequence numbers)"
                )
            for env in tail:
                handle(env)
            if fused:
                # on_end cascade: part i's finals flow through parts
                # i+1.. (with per-part accounting) before those parts'
                # own on_end — exactly the unfused ordering.
                for i, part in enumerate(parts):
                    finals = _normalize_outputs(part.on_end(ctxs[i]))
                    if not finals:
                        continue
                    outs = run_parts(finals, i + 1, -1)
                    if outs:
                        publish(Env(-1, tuple(outs), tokened=False))
            else:
                final = _normalize_outputs(logic.on_end(ctx))
                if final:
                    publish(Env(-1, final, tokened=False))
        except PipelineAborted:
            raise
        except BaseException as exc:
            # Fail the box before the finally block sends EOS, so the
            # abort outruns the truncated stream (a reorder point fed a
            # gapped sequence must see the root cause, not invent one).
            self.errors.fail(exc)
            raise
        finally:
            if fused:
                for m in part_metrics:
                    if m.items_in:
                        self.merge_metrics(m)
            else:
                if n_in:
                    metrics.merge(StageMetrics(
                        metrics.name, metrics.replicas, n_in, n_out, busy,
                        smin, smax))
                if metrics.items_in:
                    # a replica that saw no envelopes contributes no entry,
                    # matching the simulator's lazy metric creation
                    self.merge_metrics(metrics)
            if sink:
                with self._output_lock:
                    self.outputs.extend(sink)
            if out_edge is not None:
                out_edge.put_eos()

    def sequencer_loop(self, unit: SequencerUnit, in_edge: Edge,
                       out_edge: Edge) -> None:
        """Reorder (if needed) and re-number between two replicated segments."""
        tr, clock = self.tracer, self.clock
        track = unit.track
        probe = self._probe("sequencer", unit.track,
                            in_edge=in_edge, out_edge=out_edge)
        rob = SimpleReorderBuffer() if unit.ordered else None
        out_seq = 0
        tail: List[Env] = []
        held: dict[int, float] = {}  # seq -> arrival time in the reorder buffer

        def pull() -> Any:
            if probe is not None and probe.tick_get():
                t0 = clock.now()
                item = in_edge.get(0)
                if item is not EOS:
                    dt = clock.now() - t0
                    if dt > _MIN_WAIT:
                        probe.sampled_get_wait(dt)
                return item
            return in_edge.get(0)

        in_blocks = in_edge.columnar
        out_blocks = out_edge.columnar

        def send(env: Env, items: int = 1) -> None:
            if probe is not None:
                if probe.tick_put():
                    t0 = clock.now()
                    out_edge.put(env)
                    dt = clock.now() - t0
                    if dt > _MIN_WAIT:
                        probe.sampled_put_wait(dt)
                else:
                    out_edge.put(env)
                probe.passed(items)
            else:
                out_edge.put(env)

        def forward(env: Env) -> None:
            # Renumber one envelope onto the output sequence.  A block
            # advances the counter by its whole range; when the out edge
            # is scalar the block is unpacked here (block->scalar shim),
            # so the consumer side of a columnar segment never changes.
            nonlocal out_seq
            p = env.payloads
            if in_blocks and len(p) == 1 and type(p[0]) is ItemBlock:
                block = p[0]
                if out_blocks:
                    block.seq_start = out_seq
                    send(Env(out_seq, p, env.tokened), block.count)
                    out_seq += block.count
                else:
                    for item in block.to_items():
                        send(Env(out_seq, (item,), env.tokened))
                        out_seq += 1
                return
            send(Env(out_seq, p, env.tokened))
            out_seq += 1

        try:
            while True:
                item = pull()
                if item is EOS:
                    break
                env: Env = item
                if rob is None:
                    forward(env)
                elif not env.tokened:
                    tail.append(env)
                else:
                    if tr is not None and env.seq not in held:
                        held[env.seq] = clock.now()
                    w = (env.payloads[0].count
                         if in_blocks and _is_block_env(env) else 1)
                    for ordered in rob.push_range(env.seq, w, env):
                        forward(ordered)
                        if tr is not None:
                            t_in = held.pop(ordered.seq, None)
                            now = clock.now()
                            if t_in is not None and now - t_in > _MIN_WAIT:
                                tr.span(CAT_COLLECTOR, track, "reorder_hold",
                                        t_in, now, args={"seq": ordered.seq})
                    if tr is not None:
                        # out-of-order arrivals held back, over time
                        tr.counter(track, "rob_pending", clock.now(), rob.pending)
            for env in tail:
                send(Env(out_seq, env.payloads, env.tokened))
                out_seq += 1
        except PipelineAborted:
            raise
        except BaseException as exc:
            self.errors.fail(exc)  # before the finally's EOS, as above
            raise
        finally:
            out_edge.put_eos()


def _spawn(threads: List[threading.Thread], fn, *args, name: str,
           tracer, errors: _ErrorBox) -> None:
    """Queue a daemon thread that funnels any failure into the box."""

    def body() -> None:
        try:
            if tracer is not None:
                # context vars don't cross thread boundaries; re-install
                # the tracer for ambient consumers (GPU device model,
                # user stage code)
                with use_config(tracer=tracer):
                    fn(*args)
            else:
                fn(*args)
        except PipelineAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must capture all
            errors.fail(exc)

    threads.append(threading.Thread(target=body, name=name, daemon=True))


def _mutable_edges(plan: ExecutionPlan, policy) -> set:
    """Edges a controller may rewire mid-run (elastic farm boundaries):
    they may gain producers or consumers, which breaks the static plan's
    SPSC proof for their queues."""
    if policy is None:
        return set()
    return {name for g in plan.elastic.values()
            for name in (g.in_channel, g.out_channel) if name is not None}


class _ElasticState:
    """Live bookkeeping for one elastic farm segment."""

    __slots__ = ("group", "replicas", "next_r", "lo", "hi")

    def __init__(self, group: ElasticGroup, policy) -> None:
        self.group = group
        self.replicas = group.replicas
        #: monotonic replica-index counter — retired indices never reused
        self.next_r = group.replicas
        self.lo, self.hi = group.resolve_bounds(policy.min_replicas,
                                                policy.max_replicas)


class _NativeActuator:
    """Backend half of the control loop for the thread executor.

    Grows a farm by cloning its replica chain from the plan
    (:func:`~repro.core.plan.clone_replica_units`) and starting it —
    here: fresh private hop edges and live threads; the process backend
    overrides only :meth:`_start_replica` to fork instead.  Shrinks by
    queueing a RETIRE on the farm's input edge.  The executor's join
    loop picks up appended threads; :meth:`close` refuses further
    scaling once the first join pass completes, and the executor joins
    once more to catch any grow that raced it.
    """

    def __init__(self, executor: "NativeExecutor", edges: Dict[str, Edge],
                 runner: UnitRunner, policy) -> None:
        self._ex = executor
        self._edges = edges
        self._runner = runner
        self._policy = policy
        self._lock = threading.Lock()
        self._closed = False
        self._groups = {name: _ElasticState(g, policy)
                        for name, g in executor.plan.elastic.items()}
        self._blocking: Dict[str, bool] = {
            name: executor.config.blocking for name in edges}

    def close(self) -> None:
        with self._lock:
            self._closed = True

    # -- Actuator protocol -----------------------------------------------
    def stage_handles(self) -> Dict[str, StageHandle]:
        with self._lock:
            return {
                name: StageHandle(name=name, replicas=st.replicas,
                                  min_replicas=st.lo, max_replicas=st.hi,
                                  in_edge=st.group.in_channel)
                for name, st in self._groups.items()
            }

    def scale(self, stage: str, delta: int) -> int:
        with self._lock:
            st = self._groups.get(stage)
            if st is None or self._closed or delta == 0:
                return 0
            applied = 0
            if delta > 0:
                for _ in range(min(delta, st.hi - st.replicas)):
                    if not self._grow(st):
                        break
                    applied += 1
            else:
                for _ in range(min(-delta, st.replicas - st.lo)):
                    if not self._shrink(st):
                        break
                    applied -= 1
            return applied

    def edge_blocking(self) -> Dict[str, bool]:
        with self._lock:
            return dict(self._blocking)

    def set_blocking(self, edge: str, blocking: bool) -> bool:
        with self._lock:
            e = self._edges.get(edge)
            if e is None:
                return False
            ok = e.set_blocking(blocking)
            if ok:
                self._blocking[edge] = blocking
            return ok

    # -- internals (called with the lock held) ---------------------------
    def _grow(self, st: _ElasticState) -> bool:
        """Reserve the new replica's slots, start it, then open routing.

        A refused reservation (the stream is already ending) unwinds
        before anything starts.  If starting fails, the producer count
        cannot be unwound (a replica may already have aggregated EOS
        against it), so the failed replica's EOS is contributed on its
        behalf instead.
        """
        g = st.group
        in_edge = self._edges[g.in_channel]
        out_edge = self._edges[g.out_channel] if g.out_channel else None
        slot = in_edge.add_consumer()
        if slot is None:
            return False
        if out_edge is not None and not out_edge.add_producer():
            in_edge.cancel_consumer(slot)
            return False
        r = st.next_r
        st.next_r += 1
        units, hop_specs = clone_replica_units(g, r, st.replicas + 1, slot)
        try:
            self._start_replica(g, r, units, hop_specs)
        except Exception:
            in_edge.cancel_consumer(slot)
            if out_edge is not None:
                out_edge.put_eos()
            raise
        in_edge.activate_consumer(slot)
        st.replicas += 1
        return True

    def _start_replica(self, g: ElasticGroup, r: int,
                       units: List[StageUnit],
                       hop_specs: List[ChannelSpec]) -> None:
        """Run replica ``r`` of farm ``g``: private hop edges, threads."""
        ex = self._ex
        cfg = ex.config
        for cs in hop_specs:
            edge = Edge(cs, cfg.queue_capacity, ex._errors,
                        blocking=cfg.blocking, tracer=ex._tracer,
                        clock=ex._clock)
            self._edges[cs.name] = edge
            self._blocking[cs.name] = cfg.blocking
            if self._runner.metrics_registry is not None:
                self._runner.metrics_registry.edge_gauge(
                    cs.name, edge.qsize_total)
        new_threads: List[threading.Thread] = []
        for unit in units:
            logic = unit.spec.factory()
            uo = self._edges[unit.out_channel] if unit.out_channel else None
            ex._spawn(new_threads, ex._stage_loop, unit, logic,
                      self._edges[unit.in_channel], uo, name=unit.track)
        ex._threads.extend(new_threads)
        for t in new_threads:
            t.start()

    def _shrink(self, st: _ElasticState) -> bool:
        if not self._edges[st.group.in_channel].request_retire():
            return False
        st.replicas -= 1
        return True


class NativeExecutor:
    def __init__(self, graph: PipelineGraph, config: ExecConfig):
        self.graph = graph
        self.config = config = config.resolved()
        self.plan: ExecutionPlan = build_plan(graph, config)
        self._errors = _ErrorBox()
        self._tokens = _TokenPool(config.max_tokens, self._errors)
        #: None on the untraced fast path — all hooks hide behind this
        self._tracer = config.tracer if config.tracer.enabled else None
        self._clock = WallClock()  # re-zeroed at run start

    def _spawn(self, threads: List[threading.Thread], fn, *args,
               name: str) -> None:
        _spawn(threads, fn, *args, name=name, tracer=self._tracer,
               errors=self._errors)

    def _stage_loop(self, unit: StageUnit, logic: Stage, in_edge: Edge,
                    out_edge: Optional[Edge]) -> None:
        """Patchable seam over the run's :class:`UnitRunner` stage body
        (fault-injection tests wrap it to corrupt the stream)."""
        self._runner.stage_loop(unit, logic, in_edge, out_edge)

    def _build_result(self, runner: UnitRunner,
                      makespan: float) -> RunResult:
        """Raise the run's error or assemble the RunResult (shared by
        the thread and process backends)."""
        if self._errors.error is not None:
            raise self._errors.error

        # Deliver sink outputs: ordered by envelope seq if the last segment
        # is replicated+ordered, else in arrival order; on_end extras last.
        envs = runner.outputs
        ordered_out: List[Any] = []

        def deliver(e: Env) -> None:
            # columnar tail: a sink envelope may hold a whole ItemBlock
            # (its seq is the block's range start, so range-sorted
            # streams interleave correctly with scalar envelopes)
            for p in e.payloads:
                if type(p) is ItemBlock:
                    ordered_out.extend(p.to_items())
                else:
                    ordered_out.append(p)

        if self.plan.sort_output:
            keyed = sorted((e for e in envs if e.tokened), key=lambda e: e.seq)
            extras = [e for e in envs if not e.tokened]
            for e in keyed + extras:
                deliver(e)
        else:
            for e in envs:
                deliver(e)

        result = RunResult(
            makespan=makespan,
            outputs=ordered_out,
            stage_metrics=runner.metrics,
            mode="native",
            items_emitted=runner.items_emitted,
        )
        if self.plan.opt is not None:
            result.details["opt"] = self.plan.opt.as_dict()
        return result

    # -- orchestration -----------------------------------------------------
    def run(self) -> RunResult:
        plan = self.plan
        cfg = self.config
        tracer = self._tracer
        threads: List[threading.Thread] = []
        self._threads = threads

        if tracer is not None:
            self._clock = WallClock()  # zero the run's time axis
            tracer.begin_run(plan.graph_name, "native", self._clock)

        telemetry = LiveTelemetry.from_config(cfg, self._clock)
        registry = telemetry.registry if telemetry is not None else None
        runner = self._runner = UnitRunner(cfg, self._errors, self._tokens,
                                           tracer=tracer, clock=self._clock,
                                           metrics=registry)
        runner.sink_columnar = plan.sink_columnar

        policy = cfg.policy
        mutable = _mutable_edges(plan, policy)
        edges = {
            cs.name: Edge(cs, cfg.queue_capacity, self._errors,
                          blocking=cfg.blocking, tracer=tracer,
                          clock=self._clock,
                          allow_spsc=cs.name not in mutable)
            for cs in plan.channels.values()
        }
        if registry is not None:
            for name, edge in edges.items():
                registry.edge_gauge(name, edge.qsize_total)

        controller = actuator = None
        if policy is not None and telemetry is not None:
            actuator = _NativeActuator(self, edges, runner, policy)
            controller = Controller(policy, actuator,
                                    registry=telemetry.registry,
                                    tracer=tracer)
            telemetry.registry.subscribe(controller.on_snapshot)

        self._spawn(threads, runner.source_loop, plan.source.spec,
                    edges[plan.source.out_channel], name="source")
        for squ in plan.sequencers:
            self._spawn(threads, runner.sequencer_loop, squ,
                        edges[squ.in_channel], edges[squ.out_channel],
                        name=squ.track)
        for unit in plan.stages:
            # Instantiate stage logic here, in the orchestration thread:
            # factories may be stateful (FastFlow worker vectors, pipeline
            # workers) and must be called in deterministic plan order.
            logic = unit.spec.factory()
            out_edge = edges[unit.out_channel] if unit.out_channel else None
            self._spawn(threads, self._stage_loop, unit, logic,
                        edges[unit.in_channel], out_edge, name=unit.track)

        telemetry_summary = None
        if telemetry is not None:
            telemetry.start()
        try:
            t_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if actuator is not None:
                # refuse further scaling, then catch any grow whose
                # threads were appended while the first pass finished
                actuator.close()
                for t in threads:
                    t.join()
            makespan = time.perf_counter() - t_start
        finally:
            if controller is not None:
                telemetry.registry.unsubscribe(controller.on_snapshot)
            if telemetry is not None:
                telemetry_summary = telemetry.stop()
        if tracer is not None:
            tracer.end_run(makespan)

        result = self._build_result(runner, makespan)
        if telemetry_summary is not None:
            result.details["telemetry"] = telemetry_summary
        if controller is not None:
            result.details["controller"] = controller.summary()
        return result
