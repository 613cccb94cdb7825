"""Columnar block transport: typing, equivalence and transport identity.

The guarantee under test: for any graph, running with the columnar fast
path on and off produces identical outputs, identical logical item
counts in the metrics, and identical stage trace structure — on the
thread, process and sim backends alike.  Blocks may only change *how*
items move, never what the run looks like from outside.
"""

import multiprocessing
import pickle

import pytest

from repro.core.config import ExecConfig, use_config
from repro.core.graph import Farm, Pipe, StageSpec, linear_graph
from repro.core.items import ItemBlock, payload_items
from repro.core.plan import build_plan
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Source, Stage
from repro.obs.tracer import CAT_STAGE, SpanRecorder

np = pytest.importorskip("numpy")

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = [
    pytest.param({"mode": "native", "workers": "thread"}, id="thread"),
    pytest.param({"mode": "native", "workers": "process"}, id="process",
                 marks=pytest.mark.skipif(
                     not HAS_FORK,
                     reason="process backend requires fork")),
    pytest.param({"mode": "simulated"}, id="sim"),
]

N = 120
BLOCK = 16


# ---------------------------------------------------------------------------
# ItemBlock unit behaviour


def test_item_block_scalar_layout_round_trip():
    b = ItemBlock((np.arange(4, dtype=np.int64),), seq_start=7)
    assert b.layout == "scalar" and b.count == 4 and len(b) == 4
    items = b.to_items()
    assert items == [0, 1, 2, 3]
    assert all(type(i) is int for i in items)


def test_item_block_tuple_layout_round_trip():
    b = ItemBlock((np.asarray([1, 2]), np.asarray([0.5, 1.5])))
    assert b.layout == "tuple"
    assert b.to_items() == [(1, 0.5), (2, 1.5)]
    assert all(type(a) is int and type(x) is float
               for a, x in b.to_items())


def test_item_block_from_items_scalar_and_tuple():
    ints = [3, 1, 4, 1, 5]
    b = ItemBlock.from_items(ints, seq_start=10)
    assert b.seq_start == 10 and b.to_items() == ints

    tuples = [(1, 2.0), (3, 4.0)]
    bt = ItemBlock.from_items(tuples)
    assert bt.layout == "tuple" and bt.to_items() == tuples


@pytest.mark.parametrize("items", [
    [],                       # nothing to type
    [1, 2.0],                 # mixed int/float would coerce
    ["a", "b"],               # object dtype
    [(1,), (1, 2)],           # ragged tuples
    [(1, "x")],               # non-scalar column
    [1, (1, 2)],              # mixed scalar/tuple
    [2 ** 80, 1],             # overflows int64
], ids=["empty", "mixed-num", "objects", "ragged", "obj-col",
        "mixed-shape", "overflow"])
def test_item_block_try_from_items_rejects(items):
    assert ItemBlock.try_from_items(items) is None


def test_item_block_pickles_with_out_of_band_buffers():
    b = ItemBlock((np.arange(8, dtype=np.float64),), seq_start=3,
                  key=np.zeros(8, dtype=np.int64))
    bufs = []
    data = pickle.dumps(b, protocol=5, buffer_callback=bufs.append)
    assert bufs, "numpy columns should pickle out of band"
    back = pickle.loads(data, buffers=[v.raw() for v in bufs])
    assert back.seq_start == 3 and back.to_items() == b.to_items()
    assert np.array_equal(back.key, b.key)


def test_payload_items_weighs_blocks():
    assert payload_items(ItemBlock((np.arange(5),))) == 5
    assert payload_items(("not", "a", "block")) == 1


def test_use_columnar_scopes_ambient_default():
    assert ExecConfig().resolved().columnar is True
    with use_config(columnar=False):
        assert ExecConfig(columnar=None).resolved().columnar is False
    assert ExecConfig().resolved().columnar is True
    assert ExecConfig(columnar=False).resolved().columnar is False
    with use_config(columnar=False):
        # an explicit config wins over the ambient scope
        assert ExecConfig(columnar=True).resolved().columnar is True


# ---------------------------------------------------------------------------
# workload graphs (module-level so specs pickle across the fork boundary)


class _IntBlockSource(Source):
    emits_blocks = True

    def __init__(self, n: int, block: int = BLOCK):
        self._n, self._block = n, block

    def generate(self, ctx):
        for start in range(0, self._n, self._block):
            stop = min(start + self._block, self._n)
            yield ItemBlock((np.arange(start, stop, dtype=np.int64),))


def _shift(x):
    return x * 3 + 1


def _scale(y):
    return y * 2 - 5


class _Sink(Stage):
    def process(self, item, ctx):
        return item


def _block_source_farm():
    """Block source feeding an ordered compiled farm: the pixelstream
    shape.  Every edge of the chain should type columnar."""
    return linear_graph(
        _IntBlockSource(N),
        Farm(StageSpec(FunctionStage(_shift), "shift", vectorized="auto"),
             replicas=3, ordered=True, name="farm"),
    )


def _compiled_chain_farm():
    """Block source into a farm-of-pipelines of two compiled stages:
    consecutive kernels must hand columns directly to each other."""
    return linear_graph(
        _IntBlockSource(N),
        Farm(Pipe(StageSpec(FunctionStage(_shift), "shift",
                            vectorized="auto"),
                  StageSpec(FunctionStage(_scale), "scale",
                            vectorized="auto")),
             replicas=2, ordered=True, name="farm"),
        StageSpec(_Sink, "sink"),
    )


def _renumbering_pack_farm():
    """Scalar source into an *unordered* compiled farm: the workers
    renumber, so the kernel may pack scalar inputs into fresh blocks."""
    return linear_graph(
        IterSource(range(N)),
        Farm(StageSpec(FunctionStage(_shift), "shift", vectorized="auto"),
             replicas=2, ordered=False, name="farm"),
        StageSpec(_Sink, "sink"),
    )


GRAPHS = [
    pytest.param(_block_source_farm, id="block-source-farm"),
    pytest.param(_compiled_chain_farm, id="farm-of-pipelines"),
    pytest.param(_renumbering_pack_farm, id="renumbering-pack"),
]


# ---------------------------------------------------------------------------
# plan typing: which edges prove columnar, and why the rest do not


def _dispositions(graph, **cfg_kwargs):
    cfg = ExecConfig(optimize=True, **cfg_kwargs)
    plan = build_plan(graph, cfg)
    return plan, dict(plan.columnar)


def test_plan_types_block_source_chain_columnar():
    plan, disp = _dispositions(_compiled_chain_farm(), columnar=True)
    columnar = [n for n, d in disp.items() if d == "columnar"]
    assert len(columnar) >= 3, disp  # source->shift, shift->scale, ->seq
    assert plan.sink_columnar


def test_plan_scalar_consumer_blocks_edge():
    g = linear_graph(
        _IntBlockSource(N),
        StageSpec(_Sink, "sink"),  # plain scalar stage: not block-capable
    )
    _, disp = _dispositions(g, columnar=True)
    assert set(disp.values()) == {"scalar"}, disp


def test_plan_disabled_gate_records_capable_edges():
    _, disp = _dispositions(_compiled_chain_farm(), columnar=False)
    assert "columnar" not in disp.values()
    assert "disabled" in disp.values(), disp


def test_plan_token_gate():
    _, disp = _dispositions(_compiled_chain_farm(), columnar=True,
                            max_tokens=8)
    assert "columnar" not in disp.values()
    assert "token-gate" in disp.values(), disp


def test_plan_elastic_edges_stay_scalar_under_policy():
    from repro.control import TuningPolicy

    g = linear_graph(
        _IntBlockSource(N),
        Farm(StageSpec(FunctionStage(_shift), "shift", vectorized="auto"),
             replicas=1, max_replicas=3, ordered=True, name="farm"),
    )
    policy = TuningPolicy(window=0.05, max_replicas=3)
    _, disp = _dispositions(g, columnar=True, policy=policy)
    assert "elastic" in disp.values(), disp
    # without the policy the same edges type columnar
    _, disp_off = _dispositions(g, columnar=True)
    assert "columnar" in disp_off.values(), disp_off


def test_plan_unoptimized_run_has_no_kernels_to_type():
    plan = build_plan(_renumbering_pack_farm(), ExecConfig(optimize=False))
    assert "columnar" not in set(plan.columnar.values())


# ---------------------------------------------------------------------------
# cross-backend equivalence: columnar on vs off is observably identical


def _observed(graph_fn, columnar, backend):
    rec = SpanRecorder()
    cfg = ExecConfig(optimize=True, batch_size=8, columnar=columnar,
                     tracer=rec, **backend)
    result = execute(graph_fn(), cfg)
    tracks = {s.track for s in rec.spans_by_cat(CAT_STAGE)}
    return result, tracks


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("graph_fn", GRAPHS)
def test_columnar_run_is_observably_identical(graph_fn, backend):
    on, on_tracks = _observed(graph_fn, True, backend)
    off, off_tracks = _observed(graph_fn, False, backend)

    ordered = graph_fn is not _renumbering_pack_farm
    if ordered:
        assert on.outputs == off.outputs
    else:
        assert sorted(on.outputs) == sorted(off.outputs)
    assert on.items_emitted == off.items_emitted == N
    assert on_tracks == off_tracks
    assert sorted(on.stage_metrics) == sorted(off.stage_metrics)
    # metrics count logical items, not blocks, on both paths
    for name, m in off.stage_metrics.items():
        assert on.stage_metrics[name].items_in == m.items_in, name


@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_elastic_growth_run_equivalent(backend):
    """An elastic farm under an active policy: the columnar pass gates
    the rewireable edges, and the run's outputs still match the
    transport-off leg exactly."""
    from repro.control import TuningPolicy

    def graph():
        return linear_graph(
            _IntBlockSource(N),
            Farm(StageSpec(FunctionStage(_shift), "shift",
                           vectorized="auto"),
                 replicas=1, max_replicas=3, ordered=True, name="farm"),
        )

    policy = TuningPolicy(window=0.05, hysteresis_windows=1,
                          cooldown_windows=1, max_replicas=3)
    outs = {}
    for columnar in (True, False):
        cfg = ExecConfig(optimize=True, batch_size=8, columnar=columnar,
                         policy=policy, **backend)
        result = execute(graph(), cfg)
        assert result.items_emitted == N
        outs[columnar] = result.outputs
    assert outs[True] == outs[False] == [_shift(i) for i in range(N)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_report_dispositions_surface(backend):
    on, _ = _observed(_compiled_chain_farm, True, backend)
    report = on.details["opt"]
    edges = [n for n, d in report["columnar"].items() if d == "columnar"]
    assert edges, report["columnar"]


def test_columnar_outputs_expand_blocks_in_order():
    result = execute(_block_source_farm(),
                     ExecConfig(optimize=True, columnar=True))
    assert result.outputs == [_shift(i) for i in range(N)]


def test_ambient_default_governs_unset_config():
    with use_config(columnar=False):
        result = execute(_compiled_chain_farm(),
                         ExecConfig(optimize=True))
        disp = result.details["opt"]["columnar"]
        assert "disabled" in disp.values(), disp
