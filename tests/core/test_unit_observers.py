"""Observers still observe when units bind their hot path at start.

A stage unit picks its fetch, apply and publish once, from plan facts
and the active observers; these runs check that each observed variant
is the one bound.  Under a tracer and, separately, a live metrics
registry, a scalar unit, a fused unit and a columnar kernel unit must
report their items, busy time, stage spans and queue-wait spans, and
the kernel unit's block calls must reach ``UnitProbe.record_batch``.
Slow neighbours make the waits real: a fast feeder stage or source
starves the unit at first (get wait), a slower drain backs it up (put
wait).
"""

import time
from collections import Counter

import pytest

from repro.core.config import ExecConfig
from repro.core.graph import StageSpec, linear_graph
from repro.core.items import ItemBlock
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Source
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import CAT_QUEUE, CAT_STAGE, SpanRecorder

np = pytest.importorskip("numpy")

N = 16
BLOCK = 4


def _inc(x):
    return x + 1


def _dbl(x):
    return x * 2


def _shift(x):
    return x * 3 + 1


def _feed(x):
    time.sleep(0.0005)
    return x


def _drain(x):
    time.sleep(0.002)
    return x


class _Blocks(Source):
    emits_blocks = True

    def generate(self, ctx):
        for start in range(0, N, BLOCK):
            time.sleep(0.001)
            yield ItemBlock((np.arange(start, start + BLOCK,
                                       dtype=np.int64),))


def _scalar():
    return linear_graph(IterSource(range(N)),
                        StageSpec(FunctionStage(_feed), "feed"),
                        StageSpec(FunctionStage(_inc), "inc"),
                        StageSpec(FunctionStage(_drain), "drain")), ["inc"], N


def _fused():
    return linear_graph(IterSource(range(N)),
                        StageSpec(FunctionStage(_feed), "feed"),
                        StageSpec(FunctionStage(_inc), "inc", fusible=True),
                        StageSpec(FunctionStage(_dbl), "dbl", fusible=True),
                        StageSpec(FunctionStage(_drain), "drain")), \
        ["inc", "dbl"], N


def _kernel():
    return linear_graph(_Blocks(),
                        StageSpec(FunctionStage(_shift), "shift",
                                  vectorized="auto"),
                        StageSpec(FunctionStage(_drain), "drain")), \
        ["shift"], N // BLOCK


UNITS = [pytest.param(_scalar, id="scalar"), pytest.param(_fused, id="fused"),
         pytest.param(_kernel, id="kernel")]


def _check_plan(result, build):
    opt = result.details["opt"]
    if build is _fused:
        assert opt["stages_fused"] == 2
    if build is _kernel:
        assert opt["bodycomp"]["shift"] == "compiled"
        assert opt["columnar"]["shift"] == "columnar"


@pytest.mark.parametrize("build", UNITS)
def test_traced_units_report_items_busy_and_waits(build):
    graph, names, calls = build()
    rec = SpanRecorder()
    result = execute(graph, ExecConfig(tracer=rec, queue_capacity=2))
    _check_plan(result, build)
    stage_spans = Counter(s.name for s in rec.spans_by_cat(CAT_STAGE))
    for name in names:
        m = result.stage_metrics[name]
        assert (m.items_in, m.items_out) == (N, N)
        assert m.busy_time > 0
        assert stage_spans[name] == calls
    waits = {(s.track, s.name) for s in rec.spans_by_cat(CAT_QUEUE)}
    track = f"{names[0]}[0]"
    assert (track, "get_wait") in waits
    assert (track, "put_wait") in waits


@pytest.mark.parametrize("build", UNITS)
def test_metered_units_report_items_busy_and_histogram(build):
    graph, names, _ = build()
    reg = MetricsRegistry()
    result = execute(graph, ExecConfig(metrics_registry=reg,
                                       metrics_interval=0.01,
                                       queue_capacity=2))
    _check_plan(result, build)
    units, _ = reg.collect()
    assert units["source"]["items_out"] == N
    for name in names:
        u = units[name]
        assert (u["items_in"], u["items_out"]) == (N, N)
        assert u["busy"] > 0
        assert sum(u["hist"]) == N
        assert result.stage_metrics[name].items_in == N
    assert result.details["telemetry"]["snapshots"] >= 1
