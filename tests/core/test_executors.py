"""Behavioural tests for both executors, run over the same scenarios.

Every scenario is executed natively (real threads) and simulated
(virtual time); the output streams must be identical — that equivalence
is the load-bearing guarantee letting the benchmark harness trust the
simulated figures.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExecConfig, ExecMode, Scheduling
from repro.core.graph import Farm, Pipe, StageSpec, linear_graph
from repro.core.items import Multi
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Source, Stage

MODES = [ExecMode.NATIVE, ExecMode.SIMULATED]


def both_modes(graph_factory, **cfg_kwargs):
    outs = []
    for mode in MODES:
        g = graph_factory()
        r = execute(g, ExecConfig(mode=mode, **cfg_kwargs))
        outs.append(r.outputs)
    assert outs[0] == outs[1], "native and simulated outputs diverge"
    return outs[0]


class _Square(Stage):
    def process(self, item, ctx):
        return item * item


class _OddFilter(Stage):
    def process(self, item, ctx):
        return item if item % 2 else None


class _Expander(Stage):
    def process(self, item, ctx):
        return Multi([item] * (item % 3))  # 0, 1 or 2 copies


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("replicas", [1, 3])
def test_identity_pipeline(mode, replicas):
    g = linear_graph(IterSource(range(50)), StageSpec(_Square, "sq", replicas=replicas))
    r = execute(g, ExecConfig(mode=mode))
    assert r.outputs == [i * i for i in range(50)]
    assert r.items_emitted == 50


def test_multi_stage_chain_equivalence():
    def build():
        return linear_graph(
            IterSource(range(40)),
            StageSpec(_Square, "sq", replicas=4),
            StageSpec(_OddFilter, "odd", replicas=2),
            StageSpec(FunctionStage(lambda x: -x), "neg"),
        )

    out = both_modes(build, max_tokens=8, queue_capacity=4)
    assert out == [-(i * i) for i in range(40) if (i * i) % 2]


def test_expander_multi_outputs_stay_ordered():
    def build():
        return linear_graph(
            IterSource(range(30)),
            StageSpec(_Expander, "expand", replicas=5),
            StageSpec(FunctionStage(lambda x: x), "sink"),
        )

    expected = [i for i in range(30) for _ in range(i % 3)]
    assert both_modes(build) == expected


@pytest.mark.parametrize("mode", MODES)
def test_unordered_farm_delivers_all_items(mode):
    g = linear_graph(
        IterSource(range(64)),
        StageSpec(_Square, "sq", replicas=4, ordered=False),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    r = execute(g, ExecConfig(mode=mode))
    assert sorted(r.outputs) == sorted(i * i for i in range(64))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sched", [Scheduling.ROUND_ROBIN, Scheduling.ON_DEMAND])
def test_scheduling_policies_preserve_results(mode, sched):
    g = linear_graph(
        IterSource(range(40)),
        StageSpec(_Square, "sq", replicas=3),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    r = execute(g, ExecConfig(mode=mode, scheduling=sched))
    assert r.outputs == [i * i for i in range(40)]


@pytest.mark.parametrize("mode", MODES)
def test_farm_to_farm_needs_sequencer(mode):
    g = linear_graph(
        IterSource(range(48)),
        StageSpec(_Square, "a", replicas=3),
        StageSpec(FunctionStage(lambda x: x + 1), "b", replicas=2),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    r = execute(g, ExecConfig(mode=mode, max_tokens=16))
    assert r.outputs == [i * i + 1 for i in range(48)]


@pytest.mark.parametrize("mode", MODES)
def test_last_stage_replicated_ordered(mode):
    g = linear_graph(
        IterSource(range(32)),
        StageSpec(_Square, "sq", replicas=4),
    )
    r = execute(g, ExecConfig(mode=mode))
    assert r.outputs == [i * i for i in range(32)]


@pytest.mark.parametrize("mode", MODES)
def test_stage_exception_propagates(mode):
    class Boom(Stage):
        def process(self, item, ctx):
            if item == 13:
                raise RuntimeError("unlucky")
            return item

    g = linear_graph(IterSource(range(100)), StageSpec(Boom, "boom", replicas=3))
    with pytest.raises(RuntimeError, match="unlucky"):
        execute(g, ExecConfig(mode=mode, queue_capacity=4))


@pytest.mark.parametrize("mode", MODES)
def test_source_exception_propagates(mode):
    class BadSource(Source):
        def generate(self, ctx):
            yield 1
            raise ValueError("source died")

    g = linear_graph(BadSource(), StageSpec(_Square, "sq"))
    with pytest.raises(ValueError, match="source died"):
        execute(g, ExecConfig(mode=mode))


@pytest.mark.parametrize("mode", MODES)
def test_on_start_on_end_called_per_replica(mode):
    lock = threading.Lock()
    events = []

    class Hooked(Stage):
        def on_start(self, ctx):
            with lock:
                events.append(("start", ctx.replica))

        def process(self, item, ctx):
            return item

        def on_end(self, ctx):
            with lock:
                events.append(("end", ctx.replica))
            return None

    g = linear_graph(IterSource(range(10)), StageSpec(Hooked, "h", replicas=3),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    execute(g, ExecConfig(mode=mode))
    assert sorted(e for e in events if e[0] == "start") == [("start", i) for i in range(3)]
    assert sorted(e for e in events if e[0] == "end") == [("end", i) for i in range(3)]


@pytest.mark.parametrize("mode", MODES)
def test_on_end_outputs_flow_downstream(mode):
    class Summer(Stage):
        def __init__(self):
            self.total = 0

        def process(self, item, ctx):
            self.total += item
            return None  # consume everything

        def on_end(self, ctx):
            return ("sum", self.total)

    g = linear_graph(IterSource(range(10)), StageSpec(Summer, "sum"),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=mode))
    assert r.outputs == [("sum", 45)]


# -- nested farms (farm-of-pipelines) ----------------------------------------

def _fop(replicas=3, ordered=True, tail_serial=True):
    """source -> Farm(square -> neg) -> [sink]"""
    worker = Pipe(StageSpec(_Square, "sq"),
                  StageSpec(FunctionStage(lambda x: -x), "neg"))
    stages = [Farm(worker, replicas=replicas, ordered=ordered)]
    if tail_serial:
        stages.append(StageSpec(FunctionStage(lambda x: x), "sink"))
    return linear_graph(IterSource(range(40)), *stages)


def test_farm_of_pipelines_ordered_equivalence():
    out = both_modes(lambda: _fop(), max_tokens=8, queue_capacity=4)
    assert out == [-(i * i) for i in range(40)]


def test_farm_of_pipelines_as_last_segment():
    out = both_modes(lambda: _fop(tail_serial=False))
    assert out == [-(i * i) for i in range(40)]


@pytest.mark.parametrize("mode", MODES)
def test_farm_of_pipelines_unordered_delivers_all(mode):
    r = execute(_fop(ordered=False), ExecConfig(mode=mode))
    assert sorted(r.outputs) == sorted(-(i * i) for i in range(40))


def test_filter_inside_worker_chain_keeps_order():
    # A None return deep inside an ordered farm's chain must leave a
    # skip-marker that traverses the rest of the chain, or the reorder
    # point downstream stalls.
    def build():
        worker = Pipe(StageSpec(_OddFilter, "odd"),
                      StageSpec(FunctionStage(lambda x: x * 10), "x10"))
        return linear_graph(IterSource(range(30)),
                            Farm(worker, replicas=4),
                            StageSpec(FunctionStage(lambda x: x), "sink"))

    out = both_modes(build, max_tokens=6)
    assert out == [i * 10 for i in range(30) if i % 2]


def test_expander_inside_worker_chain():
    def build():
        worker = Pipe(StageSpec(_Expander, "expand"),
                      StageSpec(FunctionStage(lambda x: x + 100), "add"))
        return linear_graph(IterSource(range(24)),
                            Farm(worker, replicas=3),
                            StageSpec(FunctionStage(lambda x: x), "sink"))

    expected = [i + 100 for i in range(24) for _ in range(i % 3)]
    assert both_modes(build) == expected


def test_farm_of_pipelines_feeding_a_farm():
    # chain farm -> plain farm: the implicit sequencer merges the chain
    # tails and renumbers before the next fan-out.
    def build():
        worker = Pipe(StageSpec(_Square, "sq"),
                      StageSpec(FunctionStage(lambda x: x + 1), "inc"))
        return linear_graph(IterSource(range(36)),
                            Farm(worker, replicas=3),
                            StageSpec(FunctionStage(lambda x: -x), "neg",
                                      replicas=2),
                            StageSpec(FunctionStage(lambda x: x), "sink"))

    out = both_modes(build, max_tokens=12)
    assert out == [-(i * i + 1) for i in range(36)]


@pytest.mark.parametrize("mode", MODES)
def test_worker_chain_stage_exception_propagates(mode):
    class Boom(Stage):
        def process(self, item, ctx):
            if item == 7:
                raise RuntimeError("chain boom")
            return item

    worker = Pipe(StageSpec(FunctionStage(lambda x: x), "head"),
                  StageSpec(Boom, "boom"))
    g = linear_graph(IterSource(range(20)), Farm(worker, replicas=2),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    with pytest.raises(RuntimeError, match="chain boom"):
        execute(g, ExecConfig(mode=mode, queue_capacity=4))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-100, 100), max_size=40),
       st.integers(1, 4), st.integers(1, 6))
def test_property_farm_of_pipelines_order_preserving(items, replicas, tokens):
    worker = Pipe(StageSpec(_Square, "sq"),
                  StageSpec(FunctionStage(lambda x: x - 1), "dec"))
    g = linear_graph(IterSource(list(items)), Farm(worker, replicas=replicas),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.SIMULATED, max_tokens=tokens))
    assert r.outputs == [i * i - 1 for i in items]


def test_token_limit_bounds_in_flight():
    """With max_tokens=1 the pipeline processes strictly one item at a
    time; a replica-count witness proves no concurrency happened."""
    active = []
    peak = []
    lock = threading.Lock()

    class Probe(Stage):
        def process(self, item, ctx):
            with lock:
                active.append(item)
                peak.append(len(active))
            import time

            time.sleep(0.001)
            with lock:
                active.remove(item)
            return item

    g = linear_graph(IterSource(range(20)), StageSpec(Probe, "p", replicas=4),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.NATIVE, max_tokens=1))
    assert r.outputs == list(range(20))
    assert max(peak) == 1


def test_simulated_makespan_scales_with_replicas():
    class Costly(Stage):
        def process(self, item, ctx):
            ctx.charge("generic_op", 1_000_000)  # 1 ms at 1e9 ops/s
            return item

    def run_with(replicas):
        g = linear_graph(IterSource(range(64)),
                         StageSpec(Costly, "c", replicas=replicas),
                         StageSpec(FunctionStage(lambda x: x), "sink"))
        return execute(g, ExecConfig(mode=ExecMode.SIMULATED)).makespan

    t1, t8 = run_with(1), run_with(8)
    assert t1 / t8 == pytest.approx(8.0, rel=0.15)


def test_simulated_run_is_deterministic():
    class Costly(Stage):
        def process(self, item, ctx):
            ctx.charge("generic_op", 1000 * (item % 7))
            return item

    def once():
        g = linear_graph(IterSource(range(100)),
                         StageSpec(Costly, "c", replicas=5),
                         StageSpec(FunctionStage(lambda x: x), "sink"))
        return execute(g, ExecConfig(mode=ExecMode.SIMULATED)).makespan

    assert once() == once()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-1000, 1000), max_size=60),
       st.integers(1, 5), st.integers(1, 8))
def test_property_pipeline_is_order_preserving_map(items, replicas, tokens):
    g = linear_graph(
        IterSource(list(items)),
        StageSpec(_Square, "sq", replicas=replicas),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    r = execute(g, ExecConfig(mode=ExecMode.SIMULATED, max_tokens=tokens))
    assert r.outputs == [i * i for i in items]


# -- channel-layer knobs: spin discipline, batching, backends ----------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cfg_kwargs", [
    dict(blocking=False),
    dict(batch_size=8),
    dict(blocking=False, batch_size=8),
    dict(batch_size=8, max_tokens=6),
])
def test_channel_knobs_preserve_semantics(mode, cfg_kwargs):
    """Spin mode and batched hand-off (also under a token gate) are
    transport choices: outputs and ordering are identical on both
    executors (the simulator ignores them entirely)."""
    g = linear_graph(
        IterSource(range(60)),
        StageSpec(_Square, "sq", replicas=3),
        StageSpec(_OddFilter, "odd"),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    r = execute(g, ExecConfig(mode=mode, queue_capacity=4, **cfg_kwargs))
    assert r.outputs == [i * i for i in range(60) if (i * i) % 2]
    assert r.items_emitted == 60


def test_channel_knobs_farm_of_pipelines_equivalence():
    def build():
        return _fop()

    out = both_modes(build, blocking=False, batch_size=4, queue_capacity=3)
    assert out == [-(i * i) for i in range(40)]


def test_token_limit_exact_with_batching():
    """Batching is consumer-side only (no producer ever holds an
    envelope back), and the token bound stays exact with multi-pop on."""
    active = []
    peak = []
    lock = threading.Lock()

    class Probe(Stage):
        def process(self, item, ctx):
            with lock:
                active.append(item)
                peak.append(len(active))
            with lock:
                active.remove(item)
            return item

    g = linear_graph(IterSource(range(40)), StageSpec(Probe, "p", replicas=4),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.NATIVE, max_tokens=2,
                              batch_size=8))
    assert r.outputs == list(range(40))
    assert max(peak) <= 2


def _inc(x):
    return x + 1


def _widths(items):
    # each output is the width of the kernel call that produced it
    return [len(items)] * len(items)


_WORKERS = [
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="process backend requires the fork start method")),
]


@pytest.mark.parametrize("workers", _WORKERS)
@pytest.mark.parametrize("batch_size", [1, 16])
def test_feedback_gated_source_never_starves(workers, batch_size):
    """A source that takes one of 4 permits per item, returned by the
    sink, must never wait on an envelope some producer holds back: every
    item it sends reaches the sink, whatever the multi-pop width."""
    permits = threading.Semaphore(4)

    def gated():
        for i in range(200):
            if not permits.acquire(timeout=2):
                raise RuntimeError(f"permit timed out at item {i}")
            yield i

    def release(x):
        permits.release()
        return x

    g = linear_graph(IterSource(gated),
                     Farm(StageSpec(FunctionStage(_inc), "inc"), replicas=2,
                          ordered=True),
                     StageSpec(FunctionStage(release), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.NATIVE, workers=workers,
                              batch_size=batch_size))
    assert r.outputs == [i + 1 for i in range(200)]


@pytest.mark.parametrize("workers", _WORKERS)
def test_worker_kernel_sees_multi_pop_batches(workers):
    """A replica's batch kernel is called on what one multi-pop drained:
    wider than one item on both backends, never wider than batch_size."""
    g = linear_graph(IterSource(range(400)),
                     Farm(StageSpec(FunctionStage(_inc), "w",
                                    vectorized=_widths), replicas=2),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.NATIVE, workers=workers,
                              batch_size=8))
    assert len(r.outputs) == 400
    assert 1 < max(r.outputs) <= 8


@pytest.mark.parametrize("blocking", [True, False])
def test_stage_exception_propagates_in_spin_and_batch(blocking):
    class Boom(Stage):
        def process(self, item, ctx):
            if item == 13:
                raise RuntimeError("unlucky")
            return item

    g = linear_graph(IterSource(range(100)), StageSpec(Boom, "boom", replicas=3))
    with pytest.raises(RuntimeError, match="unlucky"):
        execute(g, ExecConfig(mode=ExecMode.NATIVE, queue_capacity=4,
                              blocking=blocking, batch_size=4))


def test_metrics_recorded_per_stage():
    g = linear_graph(IterSource(range(25)), StageSpec(_Square, "sq", replicas=2),
                     StageSpec(FunctionStage(lambda x: x), "sink"))
    r = execute(g, ExecConfig(mode=ExecMode.SIMULATED))
    m = r.stage_metrics["sq"]
    assert m.items_in == 25 and m.items_out == 25
    assert r.stage_metrics["sink"].items_in == 25
    assert r.bottleneck() in r.stage_metrics
