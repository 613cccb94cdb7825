"""The API split: static ExecConfig vs live TuningPolicy.

Covers the single normalization path, the policy's own validation,
and the ``repro.run(..., policy=)`` / ambient ``use_config(policy=)``
surfaces.
"""

import pytest

import repro
from repro.control import TuningPolicy
from repro.core.config import (
    ExecConfig,
    ExecMode,
    Scheduling,
    WorkerBackend,
    use_config,
)
from repro.core.graph import StageSpec, linear_graph
from repro.core.stage import FunctionStage, IterSource


def _graph():
    return linear_graph(
        IterSource(range(20)),
        StageSpec(FunctionStage(lambda x: x + 1), "s", replicas=2),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )


# -- one normalization path ------------------------------------------------

def test_enum_knobs_coerce_from_strings():
    cfg = ExecConfig(mode="native", scheduling="ondemand",
                     workers="process")
    assert cfg.mode is ExecMode.NATIVE
    assert cfg.scheduling is Scheduling.ON_DEMAND
    assert cfg.workers is WorkerBackend.PROCESS


def test_enum_knobs_accept_enums_and_mixed_case():
    cfg = ExecConfig(mode=ExecMode.SIMULATED, workers="Thread")
    assert cfg.mode is ExecMode.SIMULATED
    assert cfg.workers is WorkerBackend.THREAD


def test_str_mixin_comparisons_keep_working():
    cfg = ExecConfig(workers="process")
    assert cfg.workers == "process"
    assert cfg.workers != "thread"


def test_blocking_accepts_discipline_names():
    assert ExecConfig(blocking="spin").blocking is False
    assert ExecConfig(blocking="blocking").blocking is True
    assert ExecConfig(blocking=False).blocking is False


@pytest.mark.parametrize("kw,match", [
    ({"mode": "warp"}, "unknown execution mode"),
    ({"workers": "fiber"}, "unknown workers backend"),
    ({"queue_capacity": 0}, "queue_capacity"),
    ({"scheduling": "lifo"}, "unknown scheduling"),
    ({"blocking": "maybe"}, "unknown blocking"),
    ({"optimize": "false"}, "optimize must be a bool"),
    ({"columnar": "off"}, "columnar must be a bool"),
    ({"columnar": 1}, "columnar must be a bool"),
    ({"collect_outputs": None}, "collect_outputs must be a bool"),
    ({"tracer": 5}, "tracer must be a repro.obs.Tracer"),
    ({"metrics_registry": object()},
     "metrics_registry must be a repro.obs.MetricsRegistry"),
])
def test_bad_knob_values_fail_with_one_error_shape(kw, match):
    with pytest.raises(ValueError, match=match):
        ExecConfig(**kw)


def test_replace_revalidates():
    cfg = ExecConfig(workers="thread")
    assert cfg.replace(workers="process").workers is WorkerBackend.PROCESS
    with pytest.raises(ValueError, match="unknown workers backend"):
        cfg.replace(workers="quantum")


def test_policy_field_must_be_a_tuning_policy():
    with pytest.raises(ValueError, match="TuningPolicy"):
        ExecConfig(policy={"max_replicas": 4})


# -- the dynamic knobs have one home each --------------------------------

def test_policy_carries_no_transport_knobs():
    """``blocking``/``batch_size`` live on ExecConfig only: no second,
    conflicting spelling on the policy, and no live batch lever —
    ``batch_size`` is a fixed multi-pop width."""
    for field in ({"blocking": "spin"}, {"batch_size": 8},
                  {"tune_batch": True}, {"min_batch": 1}, {"max_batch": 64},
                  {"batch_service_ceiling": 1e-4}):
        with pytest.raises(TypeError):
            TuningPolicy(**field)


def test_policy_does_not_touch_config_knobs():
    cfg = ExecConfig(blocking="spin", batch_size=4,
                     policy=TuningPolicy(max_replicas=4))
    assert cfg.blocking is False
    assert cfg.batch_size == 4


# -- run(policy=) and the ambient policy -----------------------------------

def test_run_accepts_policy_kwarg():
    pol = TuningPolicy(window=0.2, hysteresis_windows=1, cooldown_windows=1)
    r = repro.run(_graph(), mode="simulated", policy=pol)
    assert r.outputs == [x + 1 for x in range(20)]
    assert "controller" in r.details


def test_ambient_policy_via_use_policy():
    pol = TuningPolicy(window=0.2)
    assert ExecConfig().resolved().policy is None
    with use_config(policy=pol):
        assert ExecConfig().resolved().policy is pol
        r = repro.run(_graph(), mode="simulated")
        assert "controller" in r.details
    assert ExecConfig().resolved().policy is None
    r = repro.run(_graph(), mode="simulated")
    assert "controller" not in r.details
