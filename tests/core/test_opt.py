"""The graph optimizer: fusion legality, vectorization, the kernel cache.

The optimizer's contract is "lowering only, never semantics": these
tests pin down when fusion is allowed (hints, cost model, escape
hatches, elasticity boundaries), what the rewritten plan looks like
(naming, metric/trace identity, channel count), and that the keyed
kernel cache compiles once per kernel — not once per batch size.
"""

import pytest

import repro
from repro.core.config import ExecConfig, use_config
from repro.core.graph import Farm, GraphError, Pipe, StageSpec, linear_graph
from repro.core.opt import (
    FUSE_COST_THRESHOLD,
    FusedFactory,
    FusedStage,
    clear_kernel_cache,
    collect_reports,
    get_kernel,
    kernel_cache_stats,
    optimize,
)
from repro.core.plan import build_plan
from repro.core.stage import FunctionStage, IterSource, Stage
from repro.control import TuningPolicy


def _fn(name, **kw):
    return StageSpec(FunctionStage(lambda x: x), name, **kw)


def _graph(*stages, n=10):
    return linear_graph(IterSource(range(n)), *stages)


def _plan(*stages, n=10, **cfg):
    return build_plan(_graph(*stages, n=n), ExecConfig(**cfg))


# -- fusion legality ----------------------------------------------------


def test_fusible_chain_collapses_to_one_unit():
    plan = _plan(_fn("a", fusible=True), _fn("b", fusible=True),
                 _fn("c", fusible=True))
    assert [u.spec.name for u in plan.stages] == ["a"]
    assert plan.stages[0].spec.fused_from != ()
    assert isinstance(plan.stages[0].spec.factory, FusedFactory)
    assert plan.opt.stages_fused == 3
    assert plan.opt.channels_deleted == 2


def test_unhinted_stages_stay_unfused():
    plan = _plan(_fn("a"), _fn("b"), _fn("c"))
    assert [u.spec.name for u in plan.stages] == ["a", "b", "c"]
    assert plan.opt is not None and plan.opt.stages_fused == 0


def test_cost_at_threshold_fuses_cost_above_does_not():
    cheap = _plan(_fn("a", cost=FUSE_COST_THRESHOLD),
                  _fn("b", cost=FUSE_COST_THRESHOLD))
    assert len(cheap.stages) == 1
    heavy = _plan(_fn("a", cost=FUSE_COST_THRESHOLD * 2),
                  _fn("b", cost=FUSE_COST_THRESHOLD * 2))
    assert len(heavy.stages) == 2


def test_no_fuse_and_fusible_false_block_fusion():
    plan = _plan(_fn("a", fusible=True), _fn("b", no_fuse=True),
                 _fn("c", fusible=True))
    assert [u.spec.name for u in plan.stages] == ["a", "b", "c"]
    plan = _plan(_fn("a", fusible=True), _fn("b", fusible=False),
                 _fn("c", fusible=True))
    assert [u.spec.name for u in plan.stages] == ["a", "b", "c"]


def test_fusion_breaks_at_ineligible_stage_but_fuses_around_it():
    plan = _plan(_fn("a", fusible=True), _fn("b", fusible=True),
                 _fn("mid"), _fn("c", fusible=True), _fn("d", fusible=True))
    assert [u.spec.name for u in plan.stages] == ["a", "mid", "c"]
    assert plan.opt.stages_fused == 4
    assert [g["into"] for g in plan.opt.fused] == ["a", "c"]


def test_replicated_and_elastic_serial_stages_never_fuse():
    plan = _plan(_fn("a", fusible=True), _fn("b", fusible=True, replicas=2),
                 _fn("c", fusible=True))
    assert "b" in {u.spec.name for u in plan.stages}
    assert all(u.spec.fused_from == () for u in plan.stages)
    # max_replicas > 1 means the controller may grow it mid-run: fusing
    # it away would silently discard that (the ElasticGroup boundary).
    plan = _plan(_fn("a", fusible=True),
                 _fn("b", fusible=True, max_replicas=4),
                 _fn("c", fusible=True))
    assert {u.spec.name for u in plan.stages} == {"a", "b", "c"}
    assert "b" in plan.elastic


def test_farm_worker_chain_fuses_replica_locally():
    g = _graph(Farm(Pipe(_fn("w1", fusible=True), _fn("w2", fusible=True),
                         _fn("w3", fusible=True)),
                    replicas=3, name="farm"),
               _fn("sink"))
    plan = build_plan(g)
    farm_units = [u for u in plan.stages if u.spec.name == "w1"]
    assert len(farm_units) == 3  # one fused unit per replica
    assert all(u.spec.fused_from != () for u in farm_units)
    assert plan.opt.stages_fused == 3
    assert plan.opt.channels_deleted == 2 * 3  # two hops gone per replica
    # the elastic group (if any) sees the fused chain, not the original
    assert plan.elastic["w1"].chain[0].fused_from != ()


def test_growable_farm_keeps_farm_structure_and_fuses_inside():
    g = _graph(Farm(Pipe(_fn("w1", fusible=True), _fn("w2", fusible=True)),
                    replicas=1, max_replicas=4, name="farm"),
               _fn("sink"))
    plan = build_plan(g)
    assert "w1" in plan.elastic
    assert plan.elastic["w1"].max_replicas == 4
    assert len(plan.elastic["w1"].chain) == 1  # fused inside the farm


def test_fused_plan_preserves_metric_and_track_identity():
    opt = _plan(_fn("a", fusible=True), _fn("b", fusible=True), _fn("sink"))
    ref = _plan(_fn("a", fusible=True), _fn("b", fusible=True), _fn("sink"),
                optimize=False)
    assert opt.metric_replicas() == ref.metric_replicas()
    assert sorted(opt.tracks) == sorted(ref.tracks)
    assert opt.total_threads == ref.total_threads - 1  # one thread saved


def test_optimize_off_switch_and_ambient_default():
    stages = lambda: (_fn("a", fusible=True), _fn("b", fusible=True))  # noqa: E731
    assert len(_plan(*stages()).stages) == 1
    assert len(_plan(*stages(), optimize=False).stages) == 2
    with use_config(optimize=False):
        assert len(_plan(*stages()).stages) == 2
        # explicit config wins over the ambient default
        assert len(_plan(*stages(), optimize=True).stages) == 1


def test_collector_receives_every_report():
    reports = []
    with collect_reports(reports):
        _plan(_fn("a", fusible=True), _fn("b", fusible=True))
        _plan(_fn("c"))
    assert len(reports) == 2
    assert reports[0].stages_fused == 2 and reports[1].stages_fused == 0


def test_optimize_does_not_mutate_the_input_graph():
    a, b = _fn("a", fusible=True), _fn("b", fusible=True)
    out, report = optimize([a, b])
    assert report.stages_fused == 2
    assert a.fused_from == () and b.fused_from == ()
    g = _graph(a, b)
    assert len(build_plan(g, ExecConfig(optimize=False)).stages) == 2


def test_fused_stage_falls_back_to_plain_stage_semantics():
    fs = FusedStage([FunctionStage(lambda x: x + 1),
                     FunctionStage(lambda x: x * 2)], ["a", "b"])
    assert fs.process(3, None) == 8


# -- vectorization and the kernel cache ---------------------------------


class _Tripler(Stage):
    calls = 0

    def process(self, item, ctx):
        return item * 3

    def process_batch(self, items, ctx):
        type(self).calls += 1
        return [i * 3 for i in items]


def test_process_batch_autodetected_on_instance_stages():
    plan = _plan(StageSpec(_Tripler(), "vec"), _fn("sink"))
    assert plan.opt.vectorized == ["vec"]
    assert plan.stages[0].spec.vectorized is True


def test_vectorized_true_without_process_batch_raises_at_run():
    spec = StageSpec(FunctionStage(lambda x: x), "v", vectorized=True)
    with pytest.raises(GraphError, match="process_batch"):
        get_kernel(spec, FunctionStage(lambda x: x))


def test_bad_vectorized_value_rejected():
    with pytest.raises(GraphError, match="vectorized"):
        StageSpec(FunctionStage(lambda x: x), "v", vectorized=3)


def test_callable_kernel_runs_and_batches():
    clear_kernel_cache()
    kern = lambda items: [i + 100 for i in items]  # noqa: E731
    g = _graph(StageSpec(FunctionStage(lambda x: x), "k", vectorized=kern),
               _fn("sink"), n=32)
    r = repro.run(g, mode="native", batch_size=8)
    assert r.outputs == [i + 100 for i in range(32)]
    assert r.details["opt"]["vectorized"] == ["k"]


def test_kernel_cache_compiles_once_across_runs_and_batch_sizes():
    clear_kernel_cache()
    _Tripler.calls = 0

    def g():
        return _graph(StageSpec(_Tripler(), "vec"), _fn("sink"), n=24)

    for batch in (1, 4, 16):
        r = repro.run(g(), mode="native", batch_size=batch)
        assert r.outputs == [i * 3 for i in range(24)]
    stats = kernel_cache_stats()
    assert stats["misses"] == 1  # compiled exactly once
    assert stats["hits"] >= 2   # later runs / batch retunes only look up
    assert _Tripler.calls > 0   # the batch path actually ran


def test_batch_kernel_must_be_one_to_one():
    clear_kernel_cache()
    bad = lambda items: items[:-1]  # noqa: E731 - drops one output
    g = _graph(StageSpec(FunctionStage(lambda x: x), "k", vectorized=bad),
               _fn("sink"), n=8)
    with pytest.raises(RuntimeError, match="1:1"):
        repro.run(g, mode="native")


def test_vectorized_stage_excluded_from_fusion():
    plan = _plan(_fn("a", fusible=True),
                 StageSpec(_Tripler(), "vec", fusible=True),
                 _fn("c", fusible=True))
    assert {u.spec.name for u in plan.stages} == {"a", "vec", "c"}
    assert plan.opt.vectorized == ["vec"]


# -- regression: elastic-bounded single-replica farms -------------------


def _charged(x):
    from repro.sim.context import charge_cpu_seconds

    charge_cpu_seconds(0.01)
    return x * 2


def test_single_replica_elastic_farm_survives_flattening_and_grows():
    """``Farm(replicas=1, max_replicas>1)`` must stay a farm — the sim
    controller drives it from 1 replica to the bound mid-run."""
    n = 800

    def g():
        return _graph(
            Farm(StageSpec(FunctionStage(_charged), "work"),
                 replicas=1, max_replicas=3, name="work_farm"),
            _fn("sink"), n=n)

    flat = g().flattened()
    assert any(isinstance(el, Farm) for el in flat), \
        "flattened() degenerated an elastic-bounded single-replica farm"

    policy = TuningPolicy(window=0.2, hysteresis_windows=1,
                          cooldown_windows=1)
    r = repro.run(g(), mode="simulated", queue_capacity=8, policy=policy)
    ups = [e for e in r.details["controller"]["events"]
           if e["applied"] and e["action"] == "scale_up"]
    assert ups, "controller never grew the single-replica farm"
    assert ups[-1]["replicas"] > 1
    assert r.outputs == [2 * i for i in range(n)]
