"""Simulated executor: the same pipeline semantics on virtual time.

Runs the same :class:`~repro.core.plan.ExecutionPlan` as the native
executor — one engine process per plan unit, one :class:`SimEdge` per
channel spec — so topology, sequence numbering, ordering, token
accounting and EOS handling mirror :mod:`repro.core.executor_native`
exactly; integration tests assert the two executors produce identical
output streams and structurally identical traces.  The difference is
*when*: each unit is a generator process on the discrete-event engine; a
stage invocation runs functionally at dispatch time while a
:class:`~repro.sim.context.WorkCursor` accumulates the virtual cost
(named CPU work charged by the stage's cost model plus GPU waits), and
the process then sleeps for that long.

Per-hop costs: every queue push/pop charges the machine's ``queue_op_s``;
blocking (non-spinning) queues add a wake-up latency on hand-offs that
actually had to wait, matching FastFlow's blocking vs non-blocking modes.
``ExecConfig.batch_size`` (the native consumers' multi-pop width) is a
native-transport knob only: the simulator keeps per-envelope hand-off
semantics (and costs) unchanged, so a batched native run and a simulated
run still produce identical streams.
The same holds for columnar block transport (``ExecConfig.columnar``):
the simulator unpacks block-emitting sources to per-item envelopes and
never forms :class:`~repro.core.items.ItemBlock` payloads, so a columnar
native run and a simulated run agree on outputs, logical item counts and
sequence numbering even though the native transport moves whole blocks.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence

from repro.control.controller import Controller, StageHandle
from repro.core.config import ExecConfig, use_config
from repro.core.executor_native import (
    Env,
    _ElasticState,
    _normalize_outputs,
    _unpack_blocks,
)
from repro.core.graph import PipelineGraph
from repro.core.items import EOS, RETIRE
from repro.core.metrics import RunResult, StageMetrics
from repro.core.opt import FusedStage, get_kernel
from repro.core.ordering import SimpleReorderBuffer
from repro.core.plan import (
    ExecutionPlan,
    SequencerUnit,
    StageUnit,
    build_plan,
    clone_replica_units,
)
from repro.core.stage import Stage, StageContext
from repro.obs.clock import SimClock
from repro.obs.metrics import LiveTelemetry
from repro.obs.tracer import (
    CAT_QUEUE,
    CAT_STAGE,
    CAT_TOKEN,
)
from repro.sim.context import WorkCursor, use_cursor
from repro.sim.engine import Engine, Store

#: extra hand-off latency when a blocking queue's consumer had to sleep
_BLOCKING_WAKE_S = 2.0e-6


class SimEdge:
    """P producers -> C consumers over engine stores, with EOS counting.

    When ``tracer`` is set, every put/get samples the store's occupancy
    at the engine's virtual now — never perturbing virtual time itself.

    Supports the same live rewiring as the native
    :class:`~repro.core.executor_native.Edge` — grow/retire consumers,
    add producers, flip the (modeled) wait discipline per edge — but
    with none of the locking: every controller action runs synchronously
    inside the event loop (the sim samples telemetry manually from the
    unit processes), so plain mutation is already atomic.
    """

    def __init__(self, engine: Engine, producers: int, consumers: int,
                 capacity: int, per_consumer_queues: bool, name: str = "",
                 placement=None, tracer=None, blocking: bool = True):
        self.engine = engine
        self.name = name
        self.producers = producers
        self.consumers = consumers
        #: modeled wait discipline (adds wake-up latency on waited pops);
        #: per-edge so the controller can retune it live
        self.blocking = blocking
        self._capacity = capacity
        self._eos_seen = 0
        self._eos_done = False
        self._placement = placement
        self._tracer = tracer
        self._retired: set = set()
        if per_consumer_queues:
            self._stores = [engine.store(capacity, name=f"{name}.{i}")
                            for i in range(consumers)]
            self._rr = 0
            self._active = list(range(consumers))
            self._shared = False
            self._tracks = [f"q:{name}.{i}" for i in range(consumers)]
        else:
            self._stores = [engine.store(capacity, name=name)]
            self._shared = True
            self._tracks = [f"q:{name}"]

    # -- live rewiring (autonomic controller) ----------------------------
    def set_blocking(self, blocking: bool) -> bool:
        self.blocking = blocking
        return True

    def add_consumer(self) -> Optional[int]:
        """New consumer slot, immediately routable (grow)."""
        if self._eos_done:
            return None
        if self._shared:
            self.consumers += 1
            return self.consumers - 1
        idx = len(self._stores)
        self._stores.append(self.engine.store(self._capacity,
                                              name=f"{self.name}.{idx}"))
        self._tracks.append(f"q:{self.name}.{idx}")
        self._active.append(idx)
        self.consumers += 1
        return idx

    def cancel_consumer(self, idx: int) -> None:
        self.consumers -= 1
        if not self._shared:
            self._retired.add(idx)
            if idx in self._active:
                self._active.remove(idx)

    def add_producer(self) -> bool:
        if self._eos_done:
            return False
        self.producers += 1
        return True

    def request_retire(self) -> bool:
        """Retire one consumer by queueing RETIRE behind in-flight items.

        The ignored put event is safe: a full store parks the sentinel
        in the store's FIFO putter queue, behind any producer puts
        already waiting, so it still arrives after every routed item.
        """
        if self._eos_done:
            return False
        if self._shared:
            if self.consumers <= 1:
                return False
            self.consumers -= 1
            self._stores[0].put(RETIRE)
            return True
        if len(self._active) <= 1:
            return False
        idx = self._active.pop()
        self._retired.add(idx)
        self.consumers -= 1
        self._stores[idx].put(RETIRE)
        return True

    def _sample(self, idx: int) -> None:
        self._tracer.counter(self._tracks[idx], "occupancy",
                             self.engine.now, len(self._stores[idx].items))

    def qsize_total(self) -> int:
        """Items queued across the edge's stores (metrics gauge)."""
        return sum(len(s.items) for s in self._stores)

    def put(self, item: Any):
        """Returns a SimEvent to yield on (completes when space exists)."""
        if self._shared:
            idx = 0
        elif self._placement is not None:
            idx = self._placement(item.seq, self.consumers) % self.consumers
        else:
            idx = self._active[self._rr % len(self._active)]
            self._rr += 1
        ev = self._stores[idx].put(item)
        if self._tracer is not None:
            self._sample(idx)
        return ev

    def put_eos(self):
        """Generator: call as ``yield from edge.put_eos()``."""
        self._eos_seen += 1
        if self._eos_seen != self.producers:
            return
        self._eos_done = True
        if self._shared:
            for _ in range(self.consumers):
                yield self._stores[0].put(EOS)
        else:
            for i in range(len(self._stores)):
                if i not in self._retired:
                    yield self._stores[i].put(EOS)

    def get(self, consumer_idx: int):
        idx = 0 if self._shared else consumer_idx
        ev = self._stores[idx].get()
        if self._tracer is not None:
            self._sample(idx)
        return ev


class _SimActuator:
    """Backend half of the control loop for the simulated executor.

    Runs synchronously inside the event loop (the controller is invoked
    from a unit process's manual telemetry tick), so no locking: a grow
    creates stores and spawns replica processes directly — the engine
    self-schedules a new process's first step via ``call_soon``.
    """

    def __init__(self, executor: "SimExecutor",
                 edges: dict, policy) -> None:
        self._ex = executor
        self._edges = edges
        self._policy = policy
        self._groups = {name: _ElasticState(g, policy)
                        for name, g in executor.plan.elastic.items()}
        self._blocking = {name: executor.config.blocking for name in edges}

    # -- Actuator protocol -----------------------------------------------
    def stage_handles(self) -> dict:
        return {
            name: StageHandle(name=name, replicas=st.replicas,
                              min_replicas=st.lo, max_replicas=st.hi,
                              in_edge=st.group.in_channel)
            for name, st in self._groups.items()
        }

    def scale(self, stage: str, delta: int) -> int:
        st = self._groups.get(stage)
        if st is None or delta == 0:
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

    def edge_blocking(self) -> dict:
        return dict(self._blocking)

    def set_blocking(self, edge: str, blocking: bool) -> bool:
        e = self._edges.get(edge)
        if e is None:
            return False
        ok = e.set_blocking(blocking)
        if ok:
            self._blocking[edge] = blocking
        return ok

    # -- internals -------------------------------------------------------
    def _grow(self, st: _ElasticState) -> bool:
        g = st.group
        ex = self._ex
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
        for cs in hop_specs:
            edge = SimEdge(ex.engine, cs.producers, cs.consumers,
                           ex.config.queue_capacity, cs.per_consumer,
                           name=cs.name, tracer=ex._tracer,
                           blocking=ex.config.blocking)
            self._edges[cs.name] = edge
            self._blocking[cs.name] = ex.config.blocking
            if ex._telemetry is not None:
                ex._telemetry.registry.edge_gauge(cs.name, edge.qsize_total)
        for unit in units:
            logic = unit.spec.factory()
            uo = self._edges[unit.out_channel] if unit.out_channel else None
            ex._procs.append(ex.engine.process(
                ex._stage_proc(unit, logic, self._edges[unit.in_channel], uo),
                name=unit.track))
        st.replicas += 1
        return True

    def _shrink(self, st: _ElasticState) -> bool:
        if not self._edges[st.group.in_channel].request_retire():
            return False
        st.replicas -= 1
        return True


class SimExecutor:
    def __init__(self, graph: PipelineGraph, config: ExecConfig):
        self.graph = graph
        self.config = config = config.resolved()
        self.plan: ExecutionPlan = build_plan(graph, config)
        self.engine = Engine()
        self._metrics: dict[str, StageMetrics] = {}
        self._outputs: List[Env] = []
        self._items_emitted = 0
        machine = config.machine
        # The plan counts every unit — source, stage replicas (farm
        # workers times their chain length) and implicit sequencers — so
        # simulated oversubscription sees the real thread pressure.
        self._threads = self.plan.total_threads
        self._oversub = machine.cpu.oversubscription_factor(self._threads)
        self._queue_op = machine.cpu.queue_op_s * self._oversub
        #: None on the untraced fast path — all hooks hide behind this
        self._tracer = config.tracer if config.tracer.enabled else None
        #: manual-mode LiveTelemetry, installed by run() (the sampler is
        #: ticked from the unit loops: a wall-clock thread cannot follow
        #: virtual time)
        self._telemetry: Optional[LiveTelemetry] = None
        self._tokens: Optional[Store] = None
        if config.max_tokens is not None:
            self._tokens = self.engine.store(capacity=None, name="tokens")
            for i in range(config.max_tokens):
                self._tokens.items.append(object())

    # -- bookkeeping ----------------------------------------------------
    def _probe_for(self, kind: str, name: str, replicas: int = 1,
                   in_edge: Optional[str] = None,
                   out_edge: Optional[str] = None):
        """Metrics shard for one unit process, or None when metrics are off.

        Called from the generator bodies (they first execute inside
        ``engine.run()``, after :meth:`run` installed the telemetry).
        """
        if self._telemetry is None:
            return None
        return self._telemetry.registry.unit_probe(
            kind, name, replicas, in_edge=in_edge, out_edge=out_edge)

    def _maybe_tick(self) -> None:
        if self._telemetry is not None:
            self._telemetry.maybe_tick()

    def _record(self, name: str, replicas: int, service: float, emitted: int) -> None:
        m = self._metrics.get(name)
        if m is None:
            m = StageMetrics(name=name, replicas=replicas)
            self._metrics[name] = m
        m.record(service, emitted)

    def _make_cursor(self, thread_id: Optional[str] = None) -> WorkCursor:
        return WorkCursor(self.engine.now, cpu_spec=self.config.machine.cpu,
                          oversubscription=self._oversub, thread_id=thread_id)

    def _hop_cost(self, get_event, edge: SimEdge) -> float:
        """Virtual cost of one queue pop, given its completion event."""
        cost = self._queue_op
        if edge.blocking and not get_event.triggered:
            cost += _BLOCKING_WAKE_S
        return cost

    # -- process bodies ---------------------------------------------------
    def _source_proc(self, out_edge: SimEdge):
        src_spec = self.plan.source.spec
        tid = src_spec.name
        tr = self._tracer
        engine = self.engine
        ctx_cursor = self._make_cursor(tid)
        ctx = StageContext(src_spec.name, 0, 1, cursor=ctx_cursor,
                           machine=self.config.machine, tracer=tr)
        src = src_spec.factory()
        probe = self._probe_for("source", src_spec.name,
                                out_edge=self.plan.source.out_channel)
        seq = 0
        with use_cursor(ctx_cursor):
            src.on_start(ctx)
        source_iter = self._iterate_source(src, ctx)
        if getattr(src_spec, "emits_blocks", False):
            # per-item hand-off semantics: blocks are a native-transport
            # packaging, so the simulator unrolls them at the source
            source_iter = _unpack_blocks(source_iter)
        for payload in source_iter:
            if self._tokens is not None:
                t0 = engine.now
                yield self._tokens.get()
                if engine.now > t0:
                    if tr is not None:
                        tr.span(CAT_TOKEN, tid, "token_wait", t0, engine.now)
                    if probe is not None:
                        probe.token_waited(engine.now - t0)
            ctx_cursor = ctx.cursor  # refreshed by _iterate_source
            if ctx_cursor.elapsed > 0:
                yield self.engine.timeout(ctx_cursor.elapsed)
                # a block's generation cost is charged once, on its first
                # unpacked item — later items see a zeroed cursor
                ctx.cursor = self._make_cursor(tid)
            t0 = engine.now
            yield out_edge.put(Env(seq, (payload,)))
            if engine.now > t0:
                if tr is not None:
                    tr.span(CAT_QUEUE, tid, "put_wait", t0, engine.now)
                if probe is not None:
                    probe.put_waited(engine.now - t0)
            yield self.engine.timeout(self._queue_op)
            seq += 1
            if probe is not None:
                probe.emitted()
                self._maybe_tick()
        cursor = self._make_cursor(tid)
        ctx.cursor = cursor
        with use_cursor(cursor):
            src.on_end(ctx)
        if cursor.elapsed > 0:
            yield self.engine.timeout(cursor.elapsed)
        self._items_emitted = seq
        yield from out_edge.put_eos()

    def _iterate_source(self, src, ctx):
        """Drive src.generate one item at a time, each under a fresh cursor."""
        tid = ctx.cursor.thread_id
        with use_cursor(ctx.cursor):
            it = iter(src.generate(ctx))
        while True:
            cursor = self._make_cursor(tid)
            ctx.cursor = cursor
            with use_cursor(cursor):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    def _stage_proc(self, unit: StageUnit, logic: Stage, in_edge: SimEdge,
                    out_edge: Optional[SimEdge]):
        spec = unit.spec
        tid = unit.track
        tr = self._tracer
        engine = self.engine
        fused = isinstance(logic, FusedStage)
        if fused:
            # One engine process, one observable identity per original
            # stage: each part charges its own cursor and records under
            # its own metric name / trace track.
            parts = logic.parts
            part_names = logic.names
            part_tracks = [f"{n}[{unit.replica}]" for n in part_names]
            ctxs = [StageContext(n, unit.replica, unit.replicas,
                                 machine=self.config.machine, tracer=tr)
                    for n in part_names]
            ctx = ctxs[0]
            start_elapsed = 0.0
            for i, part in enumerate(parts):
                cur = self._make_cursor(part_tracks[i])
                ctxs[i].cursor = cur
                with use_cursor(cur):
                    part.on_start(ctxs[i])
                start_elapsed += cur.elapsed
            if start_elapsed > 0:
                yield self.engine.timeout(start_elapsed)
            kernel = None
        else:
            cursor0 = self._make_cursor(tid)
            ctx = StageContext(spec.name, unit.replica, unit.replicas,
                               cursor=cursor0, machine=self.config.machine,
                               tracer=tr)
            with use_cursor(cursor0):
                logic.on_start(ctx)
            if cursor0.elapsed > 0:
                yield self.engine.timeout(cursor0.elapsed)
            kernel = get_kernel(spec, logic)
        rob = SimpleReorderBuffer() if unit.reorder_input else None
        keep_seq = unit.keep_seq
        out_seq = 0
        tail: List[Env] = []
        if fused:
            last = len(parts) - 1
            part_probes = [
                self._probe_for("stage", n, unit.replicas,
                                in_edge=unit.in_channel if i == 0 else None,
                                out_edge=unit.out_channel if i == last
                                else None)
                for i, n in enumerate(part_names)]
            probe = part_probes[0]
        else:
            probe = self._probe_for("stage", unit.metric_name, unit.replicas,
                                    in_edge=unit.in_channel,
                                    out_edge=unit.out_channel)

        def run_stage(env: Env) -> tuple[list, Optional[Env]]:
            # -> ([(track, name, service)], out_env): per-part segments so
            # the caller can emit back-to-back spans after one timeout
            nonlocal out_seq
            segments: List[tuple] = []
            outs: List[Any] = []
            if fused:
                payloads: Sequence[Any] = env.payloads
                for i, part in enumerate(parts):
                    cur = self._make_cursor(part_tracks[i])
                    ctxs[i].cursor = cur
                    outs = []
                    with use_cursor(cur):
                        for payload in payloads:
                            outs.extend(
                                _normalize_outputs(
                                    part.process(payload, ctxs[i])))
                    service = cur.elapsed
                    self._record(part_names[i], unit.replicas, service,
                                 len(outs))
                    if part_probes[i] is not None:
                        part_probes[i].record(service, len(outs))
                    segments.append((part_tracks[i], part_names[i], service))
                    payloads = outs
                    if not payloads:
                        break
            else:
                cursor = self._make_cursor(tid)
                ctx.cursor = cursor
                with use_cursor(cursor):
                    if kernel is not None:
                        outs = list(kernel(logic, list(env.payloads), ctx))
                        if len(outs) != len(env.payloads):
                            raise RuntimeError(
                                f"stage {spec.name!r}: batch kernel returned "
                                f"{len(outs)} outputs for "
                                f"{len(env.payloads)} inputs (vectorized "
                                "stages are strict 1:1 maps)")
                    else:
                        for payload in env.payloads:
                            outs.extend(
                                _normalize_outputs(logic.process(payload, ctx)))
                service = cursor.elapsed
                self._record(unit.metric_name, unit.replicas, service, len(outs))
                if probe is not None:
                    probe.record(service, len(outs))
                segments.append((tid, spec.name, service))
            if outs:
                ne = Env(env.seq if keep_seq else out_seq, tuple(outs),
                         tokened=env.tokened)
                out_seq += 1
                return segments, ne
            if unit.forward_empty:
                return segments, Env(env.seq, (), tokened=env.tokened)
            return segments, None

        def emit(env: Env):
            if out_edge is not None:
                t0 = engine.now
                yield out_edge.put(env)
                if engine.now > t0:
                    if tr is not None:
                        tr.span(CAT_QUEUE, tid, "put_wait", t0, engine.now)
                    if probe is not None:
                        probe.put_waited(engine.now - t0)
                yield self.engine.timeout(self._queue_op)
            else:
                if self.config.collect_outputs:
                    self._outputs.append(env)
                if env.tokened and self._tokens is not None:
                    yield self._tokens.put(object())

        def release_token():
            if self._tokens is not None:
                yield self._tokens.put(object())

        while True:
            gev = in_edge.get(unit.consumer_index)
            t_wait = engine.now
            item = yield gev
            if engine.now > t_wait and item is not EOS:
                if tr is not None:
                    tr.span(CAT_QUEUE, tid, "get_wait", t_wait, engine.now)
                if probe is not None:
                    probe.get_waited(engine.now - t_wait)
            if item is EOS or item is RETIRE:
                # RETIRE (elastic shrink) exits exactly like EOS — the
                # fallthrough's put_eos contributes this worker's EOS
                # early, which the out edge's total-ever producer count
                # absorbs without imbalance.
                break
            if probe is not None:
                self._maybe_tick()
            yield self.engine.timeout(self._hop_cost(gev, in_edge))
            env: Env = item
            pending: List[Env] = []
            if rob is None:
                if not env.payloads:
                    # Skip-marker travelling through a worker chain: pass
                    # it along untouched (no service, no metrics).
                    if keep_seq:
                        yield from emit(env)
                    elif env.tokened:
                        yield from release_token()
                    continue
                pending.append(env)
            elif not env.tokened:
                tail.append(env)
                continue
            else:
                for e in rob.push(env.seq, env):
                    pending.append(e)
            for e in pending:
                if rob is not None and not e.payloads:
                    if e.tokened:
                        yield from release_token()
                    continue
                segments, ne = run_stage(e)
                total = sum(s[2] for s in segments)
                if total > 0:
                    yield self.engine.timeout(total)
                if tr is not None:
                    t = engine.now - total
                    for strack, sname, svc in segments:
                        tr.span(CAT_STAGE, strack, sname, t, t + svc,
                                args={"seq": e.seq})
                        t += svc
                if ne is not None:
                    yield from emit(ne)
                elif e.tokened:
                    yield from release_token()
        if rob is not None and rob.pending:
            raise RuntimeError(
                f"stage {spec.name!r}: {rob.pending} envelopes stuck in "
                "reorder buffer at EOS"
            )
        for env in tail:
            segments, ne = run_stage(env)
            total = sum(s[2] for s in segments)
            if total > 0:
                yield self.engine.timeout(total)
            if tr is not None:
                t = engine.now - total
                for strack, sname, svc in segments:
                    tr.span(CAT_STAGE, strack, sname, t, t + svc,
                            args={"seq": env.seq})
                    t += svc
            if ne is not None:
                yield from emit(ne)
        if fused:
            # on_end cascade: part i's finals flow through parts i+1..
            # (with per-part charging) before those parts' own on_end.
            for i, part in enumerate(parts):
                cur = self._make_cursor(part_tracks[i])
                ctxs[i].cursor = cur
                with use_cursor(cur):
                    finals = _normalize_outputs(part.on_end(ctxs[i]))
                if cur.elapsed > 0:
                    yield self.engine.timeout(cur.elapsed)
                if not finals:
                    continue
                payloads: List[Any] = list(finals)
                for j in range(i + 1, len(parts)):
                    cur = self._make_cursor(part_tracks[j])
                    ctxs[j].cursor = cur
                    outs: List[Any] = []
                    with use_cursor(cur):
                        for payload in payloads:
                            outs.extend(_normalize_outputs(
                                parts[j].process(payload, ctxs[j])))
                    svc = cur.elapsed
                    self._record(part_names[j], unit.replicas, svc, len(outs))
                    if part_probes[j] is not None:
                        part_probes[j].record(svc, len(outs))
                    if svc > 0:
                        yield self.engine.timeout(svc)
                    if tr is not None:
                        tr.span(CAT_STAGE, part_tracks[j], part_names[j],
                                engine.now - svc, engine.now,
                                args={"seq": -1})
                    payloads = outs
                    if not payloads:
                        break
                if payloads:
                    yield from emit(Env(-1, tuple(payloads), tokened=False))
        else:
            cursor = self._make_cursor(tid)
            ctx.cursor = cursor
            with use_cursor(cursor):
                final = _normalize_outputs(logic.on_end(ctx))
            if cursor.elapsed > 0:
                yield self.engine.timeout(cursor.elapsed)
            if final:
                yield from emit(Env(-1, final, tokened=False))
        if out_edge is not None:
            yield from out_edge.put_eos()

    def _sequencer_proc(self, unit: SequencerUnit, in_edge: SimEdge,
                        out_edge: SimEdge):
        tr = self._tracer
        track = unit.track
        probe = self._probe_for("sequencer", unit.track,
                                in_edge=unit.in_channel,
                                out_edge=unit.out_channel)
        rob = SimpleReorderBuffer() if unit.ordered else None
        out_seq = 0
        tail: List[Env] = []
        while True:
            gev = in_edge.get(0)
            item = yield gev
            if item is EOS:
                break
            yield self.engine.timeout(self._hop_cost(gev, in_edge))
            env: Env = item
            if rob is None:
                yield out_edge.put(Env(out_seq, env.payloads, env.tokened))
                yield self.engine.timeout(self._queue_op)
                out_seq += 1
                if probe is not None:
                    probe.passed()
            elif not env.tokened:
                tail.append(env)
            else:
                for ordered in rob.push(env.seq, env):
                    yield out_edge.put(Env(out_seq, ordered.payloads, ordered.tokened))
                    yield self.engine.timeout(self._queue_op)
                    out_seq += 1
                    if probe is not None:
                        probe.passed()
                if tr is not None:
                    tr.counter(track, "rob_pending", self.engine.now, rob.pending)
        for env in tail:
            yield out_edge.put(Env(out_seq, env.payloads, env.tokened))
            out_seq += 1
            if probe is not None:
                probe.passed()
        yield from out_edge.put_eos()

    # -- orchestration -----------------------------------------------------
    def run(self) -> RunResult:
        plan = self.plan
        engine = self.engine
        cap = self.config.queue_capacity
        tracer = self._tracer

        edges = {
            cs.name: SimEdge(engine, cs.producers, cs.consumers, cap,
                             cs.per_consumer, name=cs.name,
                             placement=cs.placement, tracer=tracer,
                             blocking=self.config.blocking)
            for cs in plan.channels.values()
        }

        procs = [engine.process(self._source_proc(edges[plan.source.out_channel]),
                                name="source")]
        self._procs = procs
        for squ in plan.sequencers:
            procs.append(engine.process(
                self._sequencer_proc(squ, edges[squ.in_channel],
                                     edges[squ.out_channel]),
                name="sequencer"))
        for unit in plan.stages:
            # Instantiate stage logic here, in deterministic plan order:
            # factories may be stateful (FastFlow worker vectors, pipeline
            # workers) and the native executor calls them in the same order.
            logic = unit.spec.factory()
            out_edge = edges[unit.out_channel] if unit.out_channel else None
            procs.append(engine.process(
                self._stage_proc(unit, logic, edges[unit.in_channel], out_edge),
                name=unit.track))

        # Manual-mode telemetry: windows are cut from the unit processes
        # via maybe_tick() because virtual time only advances inside
        # engine.run() — a wall-clock sampler thread would observe it
        # standing still.
        telemetry = LiveTelemetry.from_config(
            self.config, SimClock(lambda: engine.now), manual=True)
        self._telemetry = telemetry
        if telemetry is not None:
            for name, edge in edges.items():
                telemetry.registry.edge_gauge(name, edge.qsize_total)
            telemetry.start()

        controller = None
        policy = self.config.policy
        if policy is not None and telemetry is not None:
            actuator = _SimActuator(self, edges, policy)
            controller = Controller(policy, actuator,
                                    registry=telemetry.registry,
                                    tracer=tracer)
            telemetry.registry.subscribe(controller.on_snapshot)

        wall0 = time.perf_counter()
        if tracer is not None:
            # the SimClock reads engine.now
            tracer.begin_run(plan.graph_name, "simulated",
                             SimClock(lambda: engine.now))
        # The run's tracer is the ambient one while the engine runs, so
        # device models and user code deep in the call stack emit into it.
        with use_config(tracer=self.config.tracer):
            engine.run()
        if tracer is not None:
            tracer.end_run(engine.now)
        wall = time.perf_counter() - wall0
        telemetry_summary = None
        if controller is not None:
            telemetry.registry.unsubscribe(controller.on_snapshot)
        if telemetry is not None:
            telemetry_summary = telemetry.stop()
            self._telemetry = None
        for p in procs:
            if p.triggered:
                p.value  # re-raise stage exceptions
        for p in procs:
            if not p.triggered:
                raise RuntimeError(f"simulated pipeline deadlocked in {p.name!r}")

        envs = self._outputs
        ordered_out: List[Any] = []
        if plan.sort_output:
            keyed = sorted((e for e in envs if e.tokened), key=lambda e: e.seq)
            extras = [e for e in envs if not e.tokened]
            for e in keyed + extras:
                ordered_out.extend(e.payloads)
        else:
            for e in envs:
                ordered_out.extend(e.payloads)

        details = {"wall_seconds": wall, "threads": self._threads,
                   "oversubscription": self._oversub}
        if self.plan.opt is not None:
            details["opt"] = self.plan.opt.as_dict()
        if telemetry_summary is not None:
            details["telemetry"] = telemetry_summary
        if controller is not None:
            details["controller"] = controller.summary()

        return RunResult(
            makespan=engine.now,
            outputs=ordered_out,
            stage_metrics=self._metrics,
            mode="simulated",
            items_emitted=self._items_emitted,
            details=details,
        )
