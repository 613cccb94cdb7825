"""Process-parallel executor: farm replicas on real cores, not one GIL.

Selected by ``ExecConfig(workers="process")``.  The plan is unchanged —
this executor runs the *same* :class:`~repro.core.plan.ExecutionPlan` as
the thread backend, but hosts every process-eligible placement group
(one farm replica's whole worker chain, see
:func:`~repro.core.plan.plan_process_placement`) in its own forked
worker process.  The source, sink, sequencers and pinned stages stay in
the parent, exactly where the thread backend runs them.

Every edge is the thread backend's :class:`Edge`.  Parent-local edges
and a shipped chain's private hops (rebuilt inside its worker) keep
in-process rings; boundary edges get the :class:`ShmBinding`, which
frames envelopes onto :class:`~repro.core.channel.ShmChannel` byte
rings and counts EOS in shared memory.

Semantics preserved against the thread backend:

* **units and loops** — workers execute the unmodified
  :class:`~repro.core.executor_native.UnitRunner` loop bodies, so
  ordering, sequence numbering and EOS aggregation are defined once;
* **tokens** — the token pool is parent-side state; worker processes
  never touch it.  Under a token gate shipped units run with
  ``forward_empty`` so filtered items flow back as empty envelopes and
  release their token in the parent;
* **metrics and traces** — each worker accumulates its own
  :class:`StageMetrics` and (when tracing) a child-local
  :class:`~repro.obs.tracer.SpanRecorder` whose clock shares the
  parent's origin (``perf_counter`` is system-wide monotonic); both are
  shipped once at EOS over the result queue and merged, so ``--trace``
  output is backend-invariant; boundary shm edges additionally sample
  queue-occupancy counter events from the ring item counters, so the
  ``q:{name}`` occupancy tracks match the thread backend's;
* **live telemetry** — when metrics are on, each worker runs its own
  :class:`~repro.obs.metrics.MetricsRegistry` and ships cumulative
  counter payloads every sampler interval over a dedicated per-group
  :class:`~repro.core.channel.ShmChannel`; the parent folds them in via
  ``apply_remote`` so ``workers="process"`` publishes the same live
  snapshots as the thread backend;
* **failures** — a :class:`ShmAbortFlag` byte mirrors the parent's
  event-driven error box across the boundary: any side's failure flips
  it, shm waiters poll it on their slow path, and a per-worker watchdog
  thread folds it into the worker's local abort signal; the parent's
  :class:`_Reaper` owns worker lifetime.

Stages cross the boundary by pickling: a picklable factory ships as-is
(the worker constructs lazily); an unpicklable factory (a front-end's
closure, typically) is called parent-side in plan order and the
resulting *instance* ships instead.  When neither pickles,
:class:`UnpicklableStageError` names the stage *before* any process is
spawned.  Plans with no eligible group —
or platforms without the ``fork`` start method — fall back to the
thread backend silently.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.control.controller import Controller
from repro.core.channel import ShmAbortFlag, ShmChannel
from repro.core.config import ExecConfig
from repro.core.executor_native import (
    Edge,
    NativeExecutor,
    PipelineAborted,
    UnitRunner,
    _EosCount,
    _ErrorBox,
    _NativeActuator,
    _TokenPool,
    _mutable_edges,
    _spawn,
)
from repro.core.graph import PipelineGraph
from repro.core.metrics import RunResult, StageMetrics
from repro.core.plan import (
    ChannelSpec,
    ProcessPlacement,
    StageUnit,
    plan_process_placement,
)
from repro.core.stage import InstanceFactory, UnpicklableStageError
from repro.obs.clock import WallClock
from repro.obs.metrics import LiveTelemetry, MetricsRegistry
from repro.obs.tracer import SpanRecorder

#: byte capacity of one shared-memory ring (item capacity is then
#: data-dependent; backpressure still bounds memory per edge)
_SHM_RING_BYTES = 1 << 20

#: byte capacity of the per-group telemetry delta channel (payloads are
#: a few KB of pickled cumulative counters; the parent drains eagerly)
_TELE_RING_BYTES = 1 << 16

#: worker watchdog / parent reaper poll period (seconds); bounds how
#: long a cross-process abort takes to reach threads parked in-process
_POLL = 0.02

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class _ProcErrorBox(_ErrorBox):
    """Parent error box that mirrors failures into the shared abort byte.

    A worker's exception only reaches the parent when its report is
    drained at the end of the run, long after the abort flag unwound the
    parent's own threads — so a local error recorded while the flag was
    already set is *consequential* (EOS-starved reorder buffers and the
    like) and is outranked by the worker's root cause
    (:meth:`fail_remote`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.flag: Optional[ShmAbortFlag] = None
        self._provisional = False

    def fail(self, exc: BaseException) -> None:
        with self._err_lock:
            if self.error is None:
                self.error = exc
                self._provisional = (self.flag is not None
                                     and self.flag.is_set())
        self.set()

    def fail_remote(self, exc: BaseException) -> None:
        """Record a worker's own exception; outranks consequential errors."""
        with self._err_lock:
            if self.error is None or self._provisional:
                self.error = exc
                self._provisional = False
        self.set()

    def set(self) -> None:
        if self.flag is not None:
            self.flag.set()
        super().set()


class _Frames:
    """One boundary queue: envelopes framed onto a :class:`ShmChannel`.

    ``put`` writes a one-envelope frame.  Frames use the protocol-5
    out-of-band format (:meth:`ShmChannel.put_obj`): an ItemBlock's numpy
    columns are gathered straight into the ring.  A read unpacks a whole
    frame into this process's inbox — each forked copy owns its deque,
    and a queue has one reading process — and ``get_many`` keeps the
    in-process contract that its ``stop`` sentinel arrives alone.  On a
    ring with one consumer (``exclusive``), ``get_many`` also takes the
    frames already in the ring, up to ``max_n``, without waiting — the
    in-process multi-pop's "drain what is there".  A shared ring reads
    one frame per call: a sibling could take the frame between the
    check and the read, which would then block with items in hand.
    """

    __slots__ = ("ring", "_weigh", "_inbox", "_exclusive")

    def __init__(self, ring: ShmChannel, weigh=None,
                 exclusive: bool = True) -> None:
        self.ring = ring
        #: columnar edges count logical items per frame, so the shm
        #: occupancy gauges stay comparable with the fast path off
        self._weigh = weigh
        self._inbox: deque = deque()
        self._exclusive = exclusive

    def put(self, item: Any) -> None:
        self.ring.put_obj([item], 1 if self._weigh is None
                          else self._weigh(item))

    def get(self) -> Any:
        if not self._inbox:
            self._inbox.extend(self.ring.get_obj())
        return self._inbox.popleft()

    def get_many(self, max_n: int, stop: Any) -> List[Any]:
        inbox, ring = self._inbox, self.ring
        if not inbox:
            inbox.extend(ring.get_obj())
        if self._exclusive:
            while (len(inbox) < max_n and inbox[-1] is not stop
                   and ring.qsize_bytes()):
                inbox.extend(ring.get_obj())
        out: List[Any] = []
        while inbox and len(out) < max_n:
            if inbox[0] is stop:
                if not out:
                    out.append(inbox.popleft())
                break
            out.append(inbox.popleft())
        return out

    def qsize(self) -> int:
        """Envelopes (logical items, when columnar) in the ring."""
        return self.ring.qsize_items()

    qsize_items = qsize

    def set_blocking(self, blocking: bool) -> bool:
        """Retunes only the calling process's end (see ShmChannel)."""
        return self.ring.set_blocking(blocking)


class ShmBinding:
    """Shared-memory binding for the edges that cross a process boundary.

    Built by the parent before forking; every worker inherits the edges
    bound to it.  Supplies the edge's queues — one SPSC ring per
    consumer, or one shared ring with an inherited
    ``multiprocessing.Lock`` on each contended side — and an EOS counter
    backed by ``multiprocessing`` values, so producers in different
    processes aggregate one EOS.  Owns the rings' lifetime.
    """

    def __init__(self, flag: ShmAbortFlag, mp_ctx) -> None:
        self._flag = flag
        self._mp = mp_ctx
        self._rings: List[ShmChannel] = []

    def channel(self, spec: ChannelSpec, mutable: bool, blocking: bool,
                weigh) -> _Frames:
        # A mutable (elastic) shared ring may gain a producer or consumer
        # process mid-run, so it needs both locks even when the static
        # plan says one side is uncontended.
        shared = not spec.per_consumer
        plock = clock = None
        if shared and (spec.producers > 1 or mutable):
            plock = self._mp.Lock()
        if shared and (spec.consumers > 1 or mutable):
            clock = self._mp.Lock()
        ring = ShmChannel(_SHM_RING_BYTES, self._flag, blocking,
                          producer_lock=plock, consumer_lock=clock)
        self._rings.append(ring)
        return _Frames(ring, weigh, exclusive=clock is None)

    def eos_count(self, producers: int) -> _EosCount:
        mp = self._mp
        return _EosCount(producers, mp.Lock(),
                         lambda v: mp.Value("i", v, lock=False))

    def destroy(self) -> None:
        for ring in self._rings:
            ring.close()
            ring.unlink()


def _portable_exc(exc: BaseException) -> BaseException:
    """An exception safe to send over the result queue."""
    try:
        pickle.dumps(exc, _PICKLE_PROTO)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(group: str, units_blob: bytes,
                 local_specs: Dict[str, ChannelSpec],
                 boundary: Dict[str, Edge], cfg: ExecConfig,
                 flag: ShmAbortFlag, result_q, trace: bool,
                 clock_origin: float, tele: Optional[tuple] = None) -> None:
    """Worker-process entry: run one placement group's chain to EOS.

    Everything arrives through fork inheritance except the units
    themselves, which are shipped pickled (so by-name registry factories
    resolve in the worker and shipping is start-method independent).

    ``tele`` is ``(shm_channel, interval, wait_sample)`` when live
    metrics are on: the worker keeps its *own* local
    :class:`~repro.obs.metrics.MetricsRegistry` (the parent's forked
    copy is a dead snapshot) and a shipper thread sends its cumulative
    ``export_state`` payload over the dedicated shm channel every
    interval, plus one final ``eos``-marked payload after the chain
    drains.  Cumulative payloads make the protocol lossless under
    skipped windows: the parent only ever keeps the latest.
    """
    # Flag-connected box: a failure here flips the shared abort byte
    # *before* the failing loop's finally block propagates EOS, so the
    # parent observes the abort ahead of the truncated stream.
    errors = _ProcErrorBox()
    errors.flag = flag
    tracer: Optional[SpanRecorder] = None
    metrics: Dict[str, StageMetrics] = {}
    trace_payload: Any = None
    try:
        units: List[StageUnit] = pickle.loads(units_blob)
        clock = WallClock()
        clock.origin = clock_origin  # share the parent's time axis
        if trace:
            tracer = SpanRecorder()
            tracer.begin_run(group, "native", clock)
        local_reg: Optional[MetricsRegistry] = None
        if tele is not None:
            tele_ch, tele_interval, wait_sample = tele
            local_reg = MetricsRegistry(wait_sample=wait_sample)
        # Tokens are parent-side state: the worker's pool is a no-op.
        runner = UnitRunner(cfg, errors, _TokenPool(None, errors),
                            tracer=tracer, clock=clock,
                            collect_outputs=False, metrics=local_reg)
        edges: Dict[str, Any] = {
            name: Edge(spec, cfg.queue_capacity, errors,
                       blocking=cfg.blocking, tracer=tracer, clock=clock)
            for name, spec in local_specs.items()
        }
        # Boundary edges carry the parent's forked tracer binding; swap
        # in this process's own (or None) so events land where they are
        # shipped from.
        for edge in boundary.values():
            edge.bind_tracer(tracer, clock)
        edges.update(boundary)
        if local_reg is not None:
            for name in local_specs:
                local_reg.edge_gauge(name, edges[name].qsize_total)

        ship_stop: Optional[threading.Event] = None
        ship_thread: Optional[threading.Thread] = None
        if tele is not None:
            ship_stop = threading.Event()

            def ship(final: bool) -> None:
                payload = local_reg.export_state()
                payload["eos"] = final
                tele_ch.put_bytes(pickle.dumps(payload, _PICKLE_PROTO))

            def shipper() -> None:
                while not ship_stop.wait(tele_interval):
                    try:
                        ship(False)
                    except Exception:
                        return

            ship_thread = threading.Thread(target=shipper,
                                           name="metrics-shipper", daemon=True)
            ship_thread.start()

        stop = threading.Event()

        def watch() -> None:
            # Fold the cross-process abort byte into the local signal so
            # threads parked on in-worker rings wake up too.
            while not stop.is_set():
                if flag.is_set():
                    errors.set()
                    return
                time.sleep(_POLL)

        threading.Thread(target=watch, daemon=True).start()

        threads: List[threading.Thread] = []
        for unit in units:
            _spawn(threads, runner.stage_loop, unit, unit.spec.factory(),
                   edges[unit.in_channel], edges[unit.out_channel],
                   name=unit.track, tracer=tracer, errors=errors)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        if ship_stop is not None:
            ship_stop.set()
            ship_thread.join(timeout=5.0)
            try:
                ship(True)  # final cumulative payload, eos-marked
            except Exception:
                pass
        metrics = runner.metrics
        if tracer is not None:
            trace_payload = (tracer.spans, tracer.counters, tracer.instants)
    except BaseException as exc:  # noqa: BLE001 - report, never hang the parent
        errors.fail(exc)
    if errors.error is not None:
        flag.set()
        result_q.put(("err", group, _portable_exc(errors.error)))
    else:
        result_q.put(("ok", group, metrics, trace_payload))


class _Reaper:
    """Owns every wait, join and exit-code read of one run's workers.

    One monitor thread blocks on the workers' sentinels plus a wake-up
    pipe, so a clean exit is reaped at once and a worker that dies
    without reporting (kill -9, interpreter crash) fails the run with
    its exit code.  Nothing else polls or joins a worker: two threads
    reaping one pid race (the loser reads ECHILD as "still running"),
    and ``Process.start`` polls every live child — so forks go through
    :meth:`start`, serialized against the monitor by one lock.  The
    monitor also mirrors a worker-raised abort flag into the parent's
    error box, waking parent threads parked on in-process channels.
    """

    def __init__(self, errors: _ProcErrorBox, flag: ShmAbortFlag) -> None:
        self._errors = errors
        self._flag = flag
        self._lock = threading.Lock()
        self._procs: List[Any] = []
        #: exit code per reaped worker
        self.exits: Dict[Any, int] = {}
        self._final = False
        self._wake_r, self._wake_w = os.pipe()
        self._thread = threading.Thread(target=self._monitor,
                                        name="reaper", daemon=True)
        self._thread.start()

    def start(self, proc) -> None:
        with self._lock:
            proc.start()
            self._procs.append(proc)
        os.write(self._wake_w, b"\0")

    def live(self) -> List[Any]:
        with self._lock:
            return [p for p in self._procs if p not in self.exits]

    def _monitor(self) -> None:
        while True:
            live = self.live()
            if self._final and not live:
                return
            ready = mp_connection.wait(
                [p.sentinel for p in live] + [self._wake_r], timeout=_POLL)
            if self._wake_r in ready:
                os.read(self._wake_r, 4096)
            with self._lock:
                for p in live:
                    if p.sentinel in ready:
                        p.join()  # the sentinel fired: exit is immediate
                        self.exits[p] = p.exitcode
                        if p.exitcode != 0:
                            self._errors.fail(RuntimeError(
                                f"worker process {p.name!r} died with "
                                f"exit code {p.exitcode}"))
            if self._flag.is_set() and not self._errors.is_set():
                # a worker failed: its exception arrives over the result
                # queue; meanwhile unwind the parent's own threads
                self._errors.set()

    def finish(self, timeout: float) -> bool:
        """Refuse further forks; wait until every worker is reaped."""
        with self._lock:
            self._final = True
        os.write(self._wake_w, b"\0")
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self) -> None:
        """Terminate and reap whatever is still running; free the pipe."""
        if not self.finish(0.0):
            for p in self.live():
                p.terminate()
            self.finish(5.0)
        os.close(self._wake_r)
        os.close(self._wake_w)


class _ProcActuator(_NativeActuator):
    """Control-loop backend for the process executor.

    Same decision surface, reservation protocol and shrink as the thread
    actuator; only starting a grown replica differs: the cloned chain is
    pickled and a fresh worker process is forked, wired to the existing
    boundary rings, while the parent source is paused — the drain →
    re-plan → resume discipline, with the drain reduced to the boundary
    rings' own FIFO order (a RETIRE or a new slot activation is strictly
    ordered behind every frame already written, so emptying the rings
    first is unnecessary).  A retiring worker's early EOS crosses the
    boundary through the shared-memory EOS counter.

    Only farms whose every replica actually shipped (and whose boundary
    edges are shm rings) are scalable here; blocking retuning
    applies to the parent-held ends of every edge.
    """

    def __init__(self, executor: "ProcessExecutor", edges: Dict[str, Edge],
                 runner: UnitRunner, policy) -> None:
        super().__init__(executor, edges, runner, policy)
        placement = executor.placement
        boundary = set(placement.boundary_channels)
        self._groups = {
            name: st for name, st in self._groups.items()
            if (all(f"{name}#{r}" in placement.groups
                    for r in range(st.group.replicas))
                and st.group.in_channel in boundary
                and st.group.out_channel in boundary)
        }

    def _start_replica(self, g, r: int, units: List[StageUnit],
                       hop_specs: List[ChannelSpec]) -> None:
        group = f"{g.name}#{r}"
        ex = self._ex
        self._runner.pause()  # hold new items while the farm is re-planned
        try:
            blob = ex._pickle_group(group, units,
                                    ex._materialize_factories(units))
            local_specs = {cs.name: cs for cs in hop_specs}
            boundary = {g.in_channel: self._edges[g.in_channel],
                        g.out_channel: self._edges[g.out_channel]}
            ex._fork_replica(group, blob, local_specs, boundary)
        finally:
            self._runner.resume()


class ProcessExecutor(NativeExecutor):
    """Drives a plan with process-eligible groups on worker processes.

    Subclasses the thread executor: the parent side *is* a thread-backend
    run over the parent-resident units, with boundary edges swapped for
    shm bridges.  Plans with nothing to ship (or platforms without
    ``fork``) delegate to the inherited :meth:`NativeExecutor.run`.
    """

    def __init__(self, graph: PipelineGraph, config: ExecConfig):
        super().__init__(graph, config)
        # Re-bind the abort path through the shared flag mirror.
        self._errors = _ProcErrorBox()
        self._tokens = _TokenPool(config.max_tokens, self._errors)
        self.placement: ProcessPlacement = plan_process_placement(self.plan)

    # -- shipping ---------------------------------------------------------
    def _materialize_factories(
            self, units: Optional[List[StageUnit]] = None) -> Dict[int, Any]:
        """Parent-side instances for shipped units whose factory won't pickle.

        Front-end lowerings (FastFlow worker vectors, TBB filters) build
        stage factories as closures — inherently unpicklable, and for the
        stateful ones (a farm's memoizing worker supply) a pickled copy
        would restart its internal counter in every worker.  So when a
        shipped spec's *factory* does not pickle, call it here in plan
        order — exactly when and where the thread backend would — and
        ship the resulting instance instead (it crosses the boundary via
        :class:`InstanceFactory` whenever the instance itself pickles).
        Factories that do pickle keep constructing lazily in the worker.
        ``units`` defaults to every shipped unit of the plan; a grow
        passes its freshly cloned chain.
        """
        if units is None:
            shipped = {id(u) for group in self.placement.groups.values()
                       for u in group}
            units = [u for u in self.plan.stages if id(u) in shipped]
        factory_ok: Dict[int, bool] = {}
        instances: Dict[int, Any] = {}
        for unit in units:
            spec = unit.spec
            ok = factory_ok.get(id(spec))
            if ok is None:
                try:
                    pickle.dumps(spec.factory, _PICKLE_PROTO)
                    ok = True
                except Exception:
                    ok = False
                factory_ok[id(spec)] = ok
            if not ok:
                instances[id(unit)] = spec.factory()
        return instances

    def _shipped_units(self, units: List[StageUnit],
                       materialized: Dict[int, Any]) -> List[StageUnit]:
        shipped = []
        for u in units:
            spec = u.spec
            if id(u) in materialized:
                spec = replace(spec,
                               factory=InstanceFactory(materialized[id(u)]))
            if spec.placement is not None:
                # The placement hook runs producer-side (in the parent);
                # strip it so an unpicklable hook can't block shipping.
                spec = replace(spec, placement=None)
            # Under a token gate a worker-side filter must not swallow
            # its token (the pool lives in the parent): forward an empty
            # envelope instead, which the parent sink releases.
            forward_empty = u.forward_empty or (
                self.config.max_tokens is not None)
            shipped.append(replace(u, spec=spec,
                                   forward_empty=forward_empty))
        return shipped

    def _pickle_group(self, group: str, units: List[StageUnit],
                      materialized: Dict[int, Any]) -> bytes:
        shipped = self._shipped_units(units, materialized)
        try:
            return pickle.dumps(shipped, _PICKLE_PROTO)
        except Exception as exc:
            for su in shipped:
                try:
                    pickle.dumps(su, _PICKLE_PROTO)
                except Exception as unit_exc:
                    raise UnpicklableStageError(
                        f"stage {su.spec.name!r} cannot be shipped to a "
                        f"worker process under workers='process': {unit_exc}. "
                        "Use a module-level class/function factory, register "
                        "it via repro.core.stage.registered, or pin it to "
                        "the parent with StageSpec(..., pinned=True)."
                    ) from unit_exc
            raise UnpicklableStageError(
                f"placement group {group!r} cannot be shipped to a worker "
                f"process: {exc}"
            ) from exc

    def _drain_tele(self, group: str, ch: ShmChannel) -> None:
        """Fold one worker's cumulative telemetry payloads into the
        parent registry as they arrive (thread body, one per worker)."""
        while True:
            try:
                payload = pickle.loads(ch.get_bytes())
            except PipelineAborted:
                return
            self._registry.apply_remote(group, payload)
            if payload.get("eos"):
                return

    def _fork_replica(self, group: str, blob: bytes,
                      local_specs: Dict[str, ChannelSpec],
                      boundary: Dict[str, Edge]) -> None:
        """Fork one worker process for a placement group.

        Used for the plan's groups at run start and for every grown farm
        replica: the new process inherits the *current* boundary edges
        (including any ring reserved for it moments ago) through fork,
        and its results and telemetry flow through the same queues, so
        the merge loop and drain threads need no special case — the
        reaper just watches one more worker.
        """
        tele = None
        if self._live_telemetry is not None:
            ch = ShmChannel(_TELE_RING_BYTES, self._flag, blocking=True)
            self._tele_chs[group] = ch
            tele = (ch, self._live_telemetry.interval,
                    self._registry.wait_sample)
            dt = threading.Thread(target=self._drain_tele, args=(group, ch),
                                  name=f"metrics-drain-{group}", daemon=True)
            self._drain_threads.append(dt)
            dt.start()
        p = self._mp_ctx.Process(
            target=_worker_main,
            args=(group, blob, local_specs, boundary, self.config,
                  self._flag, self._result_q, self._tracer is not None,
                  self._clock.origin, tele),
            name=f"repro-{group}", daemon=True)
        self._reaper.start(p)

    # -- orchestration ----------------------------------------------------
    def run(self) -> RunResult:
        placement = self.placement
        if (not placement.any_eligible
                or "fork" not in multiprocessing.get_all_start_methods()):
            return super().run()

        plan, cfg = self.plan, self.config
        mp_ctx = multiprocessing.get_context("fork")

        # Fail fast on unpicklable stages, before any resource exists.
        materialized = self._materialize_factories()
        blobs = {g: self._pickle_group(g, units, materialized)
                 for g, units in placement.groups.items()}

        tracer = self._tracer
        if tracer is not None:
            self._clock = WallClock()
            tracer.begin_run(plan.graph_name, "native", self._clock)
        telemetry = LiveTelemetry.from_config(cfg, self._clock)
        registry = telemetry.registry if telemetry is not None else None
        runner = self._runner = UnitRunner(cfg, self._errors, self._tokens,
                                           tracer=tracer, clock=self._clock,
                                           metrics=registry)
        runner.sink_columnar = plan.sink_columnar

        flag = ShmAbortFlag()
        self._errors.flag = flag
        result_q = mp_ctx.Queue()
        binding = ShmBinding(flag, mp_ctx)
        tele_chs: Dict[str, ShmChannel] = {}
        drain_threads: List[threading.Thread] = []
        telemetry_summary: Optional[Dict[str, Any]] = None
        controller = actuator = reaper = None
        # spawn context for controller-driven replica forks
        self._mp_ctx, self._flag, self._result_q = mp_ctx, flag, result_q
        self._tele_chs = tele_chs
        self._registry, self._live_telemetry = registry, telemetry
        self._drain_threads = drain_threads
        policy = cfg.policy
        mutable = _mutable_edges(plan, policy)
        boundary_names = set(placement.boundary_channels)
        try:
            # parent-local edges keep in-process rings; boundary edges
            # bind to shared memory and are inherited by the workers
            edges: Dict[str, Edge] = {
                name: Edge(plan.channels[name], cfg.queue_capacity,
                           self._errors, blocking=cfg.blocking,
                           tracer=tracer, clock=self._clock,
                           allow_spsc=name not in mutable,
                           binding=binding if name in boundary_names
                           else None)
                for name in (*placement.parent_channels,
                             *placement.boundary_channels)
            }
            if registry is not None:
                # one gauge per edge visible from the parent: in-process
                # rings and shm boundary rings alike (worker-local edges
                # arrive through the shipped payloads)
                for name, edge in edges.items():
                    registry.edge_gauge(name, edge.qsize_total)

            if policy is not None and telemetry is not None:
                actuator = _ProcActuator(self, edges, runner, policy)
                controller = Controller(policy, actuator,
                                        registry=telemetry.registry,
                                        tracer=tracer)
                telemetry.registry.subscribe(controller.on_snapshot)

            threads: List[threading.Thread] = []
            self._spawn(threads, runner.source_loop, plan.source.spec,
                        edges[plan.source.out_channel], name="source")
            for squ in plan.sequencers:
                self._spawn(threads, runner.sequencer_loop, squ,
                            edges[squ.in_channel], edges[squ.out_channel],
                            name=squ.track)
            for unit in placement.parent_stages:
                logic = unit.spec.factory()
                out_edge = edges[unit.out_channel] if unit.out_channel else None
                self._spawn(threads, self._stage_loop, unit, logic,
                            edges[unit.in_channel], out_edge, name=unit.track)

            reaper = self._reaper = _Reaper(self._errors, flag)
            if telemetry is not None:
                telemetry.start()
            t_start = time.perf_counter()
            for group, units in placement.groups.items():
                local_specs = {
                    name: plan.channels[name]
                    for name, owner in placement.local_channels.items()
                    if owner == group
                }
                boundary = {name: edges[name]
                            for u in units
                            for name in (u.in_channel, u.out_channel)
                            if name in boundary_names}
                self._fork_replica(group, blobs[group], local_specs,
                                   boundary)
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if actuator is not None:
                # the stream is over; refuse further scaling so no fork
                # races the reaper's final pass
                actuator.close()
            if not reaper.finish(30.0):
                for p in reaper.live():  # pragma: no cover - stuck worker
                    self._errors.fail(RuntimeError(
                        f"worker process {p.name!r} failed to exit"))
                    p.terminate()
                reaper.finish(5.0)
            makespan = time.perf_counter() - t_start
            # Close telemetry before building the result: drains exit on
            # the workers' eos payloads (or the abort flag); the final
            # sampler tick then folds the last shipped state in.
            for dt in drain_threads:
                dt.join(timeout=5.0)
            if telemetry is not None:
                if controller is not None:
                    telemetry.registry.unsubscribe(controller.on_snapshot)
                telemetry_summary = telemetry.stop()

            # Merge the workers' reports: metrics always, traces when on.
            # A worker that exited cleanly has flushed its report; one
            # that died already failed the run and may never report.
            clean = sum(1 for code in reaper.exits.values() if code == 0)
            for _ in range(clean):
                try:
                    msg = result_q.get(timeout=5.0)
                except Exception:  # pragma: no cover - lost report
                    self._errors.fail(RuntimeError(
                        "a worker process exited without reporting"))
                    break
                if msg[0] == "err":
                    self._errors.fail_remote(msg[2])
                    continue
                _tag, _group, worker_metrics, trace_payload = msg
                for m in worker_metrics.values():
                    runner.merge_metrics(m)
                if tracer is not None and trace_payload is not None:
                    spans, counters, instants = trace_payload
                    for s in spans:
                        tracer.span(s.cat, s.track, s.name, s.start, s.end,
                                    s.args)
                    for c in counters:
                        tracer.counter(c.track, c.name, c.t, c.value)
                    for i in instants:
                        tracer.instant(i.track, i.name, i.t, i.args)

            if tracer is not None:
                tracer.end_run(makespan)

            result = self._build_result(runner, makespan)
            result.details["workers"] = "process"
            result.details["process_groups"] = sorted(placement.groups)
            if telemetry_summary is not None:
                result.details["telemetry"] = telemetry_summary
            if controller is not None:
                result.details["controller"] = controller.summary()
            return result
        finally:
            if telemetry is not None and telemetry_summary is None:
                # error path: the normal-path stop above never ran
                if controller is not None:
                    telemetry.registry.unsubscribe(controller.on_snapshot)
                telemetry.stop()
            if reaper is not None:
                reaper.close()
            self._errors.flag = None
            binding.destroy()
            for ch in tele_chs.values():
                ch.close()
                ch.unlink()
            result_q.close()
            flag.close()
            flag.unlink()
