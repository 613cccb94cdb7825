"""Layer probes: single-threaded timed calls into public functions.

Each probe times a fixed amount of work in one layer and is reported as
the median of its repetitions (5; 1 under ``--quick``).  They run in the traced pass only
and have no regression bound: they say *where* an end-to-end change
comes from, not whether there was one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from harness import Stopwatch, median, pc
from workloads import REPLICAS, Workload, dbl, inc, retry_false_exit

from repro.core.channel import (AbortSignal, MpmcChannel, ShmChannel,
                                SpscChannel)
from repro.core.config import ExecConfig, ExecMode
from repro.core.graph import Farm, Pipe, StageSpec, linear_graph
from repro.core.items import Envelope, ItemBlock
from repro.core.opt import clear_kernel_cache, optimize
from repro.core.opt.bodycomp import compile_body
from repro.core.ordering import SimpleReorderBuffer
from repro.core.plan import build_plan, plan_process_placement
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource

BLOCK = 1024


def _timed(fn: Callable[[], Any]) -> float:
    t0 = pc()
    fn()
    return pc() - t0


class Probe:
    """Times fixed work ``reps`` times and reports the median."""

    def __init__(self, reps: int) -> None:
        self.reps = reps

    def seconds(self, fn: Callable[[], Any]) -> float:
        return median([_timed(fn) for _ in range(self.reps)])

    def per_op_ns(self, loop: Callable[[int], None], ops: int) -> float:
        return self.seconds(lambda: loop(ops)) / ops * 1e9

    def ms(self, fn: Callable[[], Any], calls: int) -> float:
        """ms per call of ``fn``, ``calls`` calls per repetition."""
        def loop() -> None:
            for _ in range(calls):
                fn()
        return self.seconds(loop) / calls * 1e3


# -- channel ----------------------------------------------------------------

def _putget(channel) -> Callable[[int], None]:
    def loop(n: int) -> None:
        put, get = channel.put, channel.get
        for i in range(n):
            put(i)
            get()
    return loop


def _spsc_many(n: int) -> None:
    ch = SpscChannel(512, AbortSignal())
    batch = list(range(64))
    for _ in range(n // 64):
        ch.put_many(batch)
        ch.get_many(64)


def _shm(payload: Any, items: int) -> Callable[[int], None]:
    def loop(n: int) -> None:
        ch = ShmChannel(1 << 20, None)
        try:
            for _ in range(n):
                ch.put_obj(payload, items)
                ch.get_obj()
        finally:
            ch.close()
            ch.unlink()
    return loop


# -- ordering ---------------------------------------------------------------

def _rob_push(n: int) -> None:
    # two replicas finish out of order: every pair arrives swapped
    rob = SimpleReorderBuffer()
    for seq in range(0, n, 2):
        for _ in rob.push(seq + 1, None):
            pass
        for _ in rob.push(seq, None):
            pass


def _rob_push_range(n: int) -> None:
    rob = SimpleReorderBuffer()
    for seq in range(0, n * BLOCK, 2 * BLOCK):
        for _ in rob.push_range(seq + BLOCK, BLOCK, None):
            pass
        for _ in rob.push_range(seq, BLOCK, None):
            pass


# -- front ends ---------------------------------------------------------------

def _spar_body(n, sink, replicas):
    # module-level: the SPar compiler reads this function's source
    from repro.spar import Input, Output, Replicate, Stage, ToStream

    with ToStream(Input('n', 'sink', 'replicas')):
        for i in range(n):
            with Stage(Input('i'), Output('v'), Replicate('replicas')):
                v = i + 1
            with Stage(Input('v')):
                sink.append(v)


def _fastflow_lower() -> None:
    from repro.fastflow import EOS, ff_node, ff_ofarm, ff_pipeline

    class Emit(ff_node):
        def svc(self, _):
            return EOS

    class Inc(ff_node):
        def svc(self, x):
            return x + 1

    ff_pipeline(Emit(), ff_ofarm(Inc, replicas=REPLICAS), Inc()).to_graph()


# -- graphs -------------------------------------------------------------------

def _hop_graph(n: int):
    return linear_graph(
        IterSource(range(n)),
        Farm(Pipe(StageSpec(FunctionStage(inc), "inc"),
                  StageSpec(FunctionStage(dbl), "dbl")),
             replicas=REPLICAS, ordered=True),
        StageSpec(FunctionStage(dbl), "sink"))


def _hop_wall(n: int, **attach: Any) -> float:
    with Stopwatch() as sw:
        execute(_hop_graph(n), ExecConfig(collect_outputs=False, **attach))
    return sw.wall


def _obs_overheads(n: int = 30_000) -> Dict[str, float]:
    """One hop_scalar-shaped round with a MetricsRegistry / SpanRecorder
    attached against the mean of the plain rounds run before and after."""
    from repro.obs import MetricsRegistry, SpanRecorder

    _hop_wall(n // 4)
    before = _hop_wall(n)
    metrics = _hop_wall(n, metrics_registry=MetricsRegistry())
    tracer = _hop_wall(n, tracer=SpanRecorder())
    plain = (before + _hop_wall(n)) / 2
    return {"obs.metrics_on_overhead_frac": metrics / plain - 1,
            "obs.tracer_on_overhead_frac": tracer / plain - 1}


def probe_layers(workload: Workload, reps: int = 5) -> Dict[str, float]:
    """Every layer probe; ``workload`` supplies the graph the plan and
    optimizer probes lower."""
    from repro.apps.mandelbrot.pixelstream import pixel_stat
    from repro.spar import parallelize

    probe = Probe(reps)
    _per_op_ns, _ms = probe.per_op_ns, probe.ms
    out: Dict[str, float] = {}
    abort = AbortSignal()
    out["channel.spsc_putget_ns"] = _per_op_ns(
        _putget(SpscChannel(512, abort)), 100_000)
    out["channel.spsc_many_ns_item"] = _per_op_ns(_spsc_many, 64 * 4000)
    out["channel.mpmc_putget_ns"] = _per_op_ns(
        _putget(MpmcChannel(512, abort)), 50_000)

    envelopes = [Envelope(i, 0, i) for i in range(64)]
    out["channel.shm_scalar_ns_item"] = _per_op_ns(
        _shm(envelopes, 64), 1500) / 64
    counts = np.arange(BLOCK, dtype=np.int64) % 201
    niter = np.full(BLOCK, 200, dtype=np.int64)
    block = ItemBlock((counts, niter), layout="tuple")
    frame_bytes = counts.nbytes + niter.nbytes
    # bytes per ns is GB/s
    out["channel.shm_block_gb_s"] = frame_bytes / _per_op_ns(
        _shm(block, BLOCK), 3000)

    out["ordering.push_ns"] = _per_op_ns(_rob_push, 100_000)
    out["ordering.push_range_ns_item"] = _per_op_ns(
        _rob_push_range, 50_000) / BLOCK

    items = block.to_items()
    out["items.pack_ns_item"] = _per_op_ns(
        lambda n: [ItemBlock.try_from_items(items) for _ in range(n)],
        100) / BLOCK
    out["items.unpack_ns_item"] = _per_op_ns(
        lambda n: [block.to_items() for _ in range(n)], 1000) / BLOCK

    def cold_compile() -> None:
        clear_kernel_cache()
        compile_body(pixel_stat, kind="function")

    out["opt.bodycomp_compile_ms"] = _ms(cold_compile, 20)
    kernel = compile_body(pixel_stat, kind="function")
    out["opt.kernel_ns_item"] = _per_op_ns(
        lambda n: [kernel.call_block(block) for _ in range(n)], 2000) / BLOCK
    scalar = FunctionStage(pixel_stat).process
    out["opt.scalar_call_ns_item"] = _per_op_ns(
        lambda n: [scalar(item, None) for item in items * (n // BLOCK)],
        40 * BLOCK)

    graph = workload.probe_graph()
    elements = graph.flattened()
    optimize(elements)  # warm: compile time is its own probe
    out["opt.optimize_ms"] = _ms(lambda: optimize(elements), 100)
    out["plan.build_ms"] = _ms(lambda: build_plan(graph, workload.config), 50)
    plan = build_plan(graph, workload.config)
    out["plan.placement_ms"] = _ms(lambda: plan_process_placement(plan), 500)

    thread = ExecConfig(collect_outputs=False)
    out["executor_native.spawn_join_ms"] = _ms(
        lambda: execute(_hop_graph(0), thread), 40)
    process = thread.replace(workers="process")
    out["executor_process.spawn_join_ms"] = _ms(
        lambda: retry_false_exit(lambda: execute(_hop_graph(0), process),
                                 workload.false_exits), 3)
    sim = ExecConfig(mode=ExecMode.SIMULATED, collect_outputs=False)
    n_sim = 4000
    out["executor_sim.items_s"] = n_sim / probe.seconds(
        lambda: execute(_hop_graph(n_sim), sim))

    out["spar.compile_ms"] = _ms(lambda: parallelize(_spar_body), 10)
    out["fastflow.lower_ms"] = _ms(_fastflow_lower, 100)
    out.update(_obs_overheads())
    return out

