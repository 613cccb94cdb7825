"""The one config overlay: ``use_config`` scopes and ``ExecConfig.resolved``.

Five ``ExecConfig`` fields default to ``None`` ("not set here"); a run
fills them once, from the innermost ``use_config`` scope, else the
built-in default.  These tests pin the scope's key set and nesting, the
explicit-beats-ambient rule, and that stage bodies see the run's tracer
on every backend.
"""

import multiprocessing

import pytest

import repro
from repro.control import TuningPolicy
from repro.core.config import ExecConfig, use_config
from repro.core.graph import Farm, StageSpec, linear_graph
from repro.core.stage import FunctionStage, IterSource, Stage
from repro.obs import NOOP_TRACER, MetricsRegistry, SpanRecorder, current_tracer

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = [
    pytest.param({"mode": "native", "workers": "thread"}, id="thread"),
    pytest.param({"mode": "native", "workers": "process"}, id="process",
                 marks=pytest.mark.skipif(
                     not HAS_FORK, reason="process backend requires fork")),
    pytest.param({"mode": "simulated"}, id="sim"),
]


class _Mark(Stage):
    """Emits one instant per item into whatever tracer is ambient."""

    def process(self, item, ctx):
        current_tracer().instant("user", "mark", args={"item": item})
        return item


def _graph(n=12):
    # the farm ships to worker processes under workers="process"; the
    # sink stays in the parent
    return linear_graph(IterSource(range(n)),
                        Farm(StageSpec(_Mark, "mark"), replicas=2,
                             ordered=True, name="farm"),
                        StageSpec(FunctionStage(lambda x: x), "sink"))


def _marks(rec):
    return sorted(i.args["item"] for i in rec.instants if i.name == "mark")


def test_unknown_key_raises_and_lists_allowed_keys():
    with pytest.raises(ValueError) as info:
        with use_config(queue_capacity=4):
            pass
    msg = str(info.value)
    assert "queue_capacity" in msg
    for key in ("tracer", "metrics_registry", "policy", "optimize",
                "columnar"):
        assert key in msg


def test_scope_values_pass_the_constructor_checks():
    with pytest.raises(ValueError, match="columnar must be a bool"):
        with use_config(columnar="no"):
            pass
    with pytest.raises(ValueError, match="tracer must be"):
        with use_config(tracer=5):
            pass
    assert ExecConfig().resolved().columnar is True


def test_nested_scopes_merge_and_restore():
    rec, pol = SpanRecorder(), TuningPolicy(window=0.2)
    with use_config(tracer=rec, optimize=False):
        with use_config(policy=pol, optimize=True, columnar=None):
            cfg = ExecConfig().resolved()
            assert (cfg.tracer, cfg.policy, cfg.optimize) == (rec, pol, True)
            assert current_tracer() is rec
        cfg = ExecConfig().resolved()
        assert (cfg.policy, cfg.optimize) == (None, False)
    assert current_tracer() is NOOP_TRACER


def test_scope_restores_on_exception():
    with pytest.raises(RuntimeError):
        with use_config(columnar=False):
            with use_config(tracer=SpanRecorder()):
                raise RuntimeError("boom")
    cfg = ExecConfig().resolved()
    assert cfg.columnar is True and cfg.tracer is NOOP_TRACER


def test_explicit_field_beats_the_ambient_one():
    a, b = SpanRecorder(), SpanRecorder()
    with use_config(tracer=b):
        repro.run(_graph(), tracer=a)
        repro.run(_graph(), mode="simulated", tracer=a)
    assert _marks(a) == sorted(2 * list(range(12)))
    assert b.runs == [] and b.instants == []


def test_resolved_is_idempotent():
    reg = MetricsRegistry()
    with use_config(metrics_registry=reg, optimize=False):
        once = ExecConfig(columnar=False).resolved()
    assert once.resolved() is once
    assert (once.metrics_registry, once.optimize, once.columnar,
            once.tracer, once.policy) == (reg, False, False, NOOP_TRACER,
                                          None)


def test_resolved_config_keeps_its_values_after_the_scope():
    rec, pol = SpanRecorder(), TuningPolicy(window=0.2)
    with use_config(tracer=rec, policy=pol, columnar=False):
        cfg = ExecConfig().resolved()
    assert (cfg.tracer, cfg.policy, cfg.columnar) == (rec, pol, False)
    # a later resolve outside the scope does not re-read the overlay
    assert cfg.resolved().policy is pol
    # ...while a fresh copy is unresolved again
    assert cfg.replace(policy=None).resolved().policy is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_stage_body_sees_the_run_tracer(backend):
    rec = SpanRecorder()
    result = repro.run(_graph(), tracer=rec, **backend)
    assert result.outputs == list(range(12))
    assert _marks(rec) == list(range(12))


@pytest.mark.parametrize("backend", BACKENDS)
def test_stage_body_sees_the_ambient_tracer(backend):
    rec = SpanRecorder()
    with use_config(tracer=rec):
        repro.run(_graph(), **backend)
    assert _marks(rec) == list(range(12))
