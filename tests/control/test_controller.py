"""Controller decision core on synthetic snapshots (no executor).

The decide/actuate split makes the controller a pure function of
snapshots plus streak state, so hysteresis, cooldown, bounds and
dead-lever behaviour are all assertable with a fake actuator.
"""

from typing import Dict

import pytest

from repro.control import TuningPolicy
from repro.control.controller import Controller, StageHandle
from repro.obs.snapshot import (
    BALANCED,
    CONSUMER_LIMITED,
    PRODUCER_LIMITED,
    EdgeWindow,
    StageWindow,
    TelemetrySnapshot,
)


class FakeActuator:
    """Scriptable Actuator: records calls, honors bounds."""

    def __init__(self, replicas: int = 2, lo: int = 1, hi: int = 8):
        self.replicas = replicas
        self.lo, self.hi = lo, hi
        self.blocking: Dict[str, bool] = {"work": True}
        self.calls = []
        self.refuse_scale = False

    def stage_handles(self):
        return {"work": StageHandle("work", self.replicas, self.lo,
                                    self.hi, in_edge="work")}

    def scale(self, stage, delta):
        self.calls.append(("scale", stage, delta))
        if self.refuse_scale:
            return 0
        lo, hi = self.lo, self.hi
        applied = max(lo, min(hi, self.replicas + delta)) - self.replicas
        self.replicas += applied
        return applied

    def edge_blocking(self):
        return dict(self.blocking)

    def set_blocking(self, edge, blocking):
        self.calls.append(("set_blocking", edge, blocking))
        self.blocking[edge] = blocking
        return True


def snap(seq, attr=BALANCED, util=0.5, items=100, throughput=100.0,
         p50=0.001):
    """One synthetic window for the single-farm topology."""
    return TelemetrySnapshot(
        seq=seq, t_start=float(seq - 1), t_end=float(seq),
        stages={
            "work": StageWindow(
                name="work", kind="stage", replicas=2, items_in=items,
                items_out=items, throughput=throughput, busy_time=util,
                utilization=util, service_p50=p50, service_p95=p50,
                service_p99=p50, in_edge="work", out_edge="sink"),
        },
        edges={
            "work": EdgeWindow(
                name="work", occupancy=4.0, put_wait=0.5, get_wait=0.0,
                put_wait_share=0.5 if attr == CONSUMER_LIMITED else 0.0,
                get_wait_share=0.5 if attr == PRODUCER_LIMITED else 0.0,
                attribution=attr),
        },
        bottleneck="work")


def controller(act, **kw):
    kw.setdefault("hysteresis_windows", 2)
    kw.setdefault("cooldown_windows", 2)
    kw.setdefault("tune_blocking", False)
    return Controller(TuningPolicy(**kw), act)


def feed(ctl, *snaps):
    out = []
    for s in snaps:
        out.extend(ctl.on_snapshot(s))
    return out


def test_scale_up_needs_hysteresis_streak():
    act = FakeActuator(replicas=2)
    ctl = controller(act)
    # one consumer-limited window is not enough
    feed(ctl, snap(1, CONSUMER_LIMITED))
    assert act.replicas == 2
    # the second consecutive one crosses the threshold
    feed(ctl, snap(2, CONSUMER_LIMITED))
    assert act.replicas == 3
    assert ("scale", "work", 1) in act.calls


def test_interrupted_streak_resets():
    act = FakeActuator(replicas=2)
    ctl = controller(act)
    feed(ctl, snap(1, CONSUMER_LIMITED), snap(2, BALANCED),
         snap(3, CONSUMER_LIMITED))
    assert act.replicas == 2  # never two in a row


def test_cooldown_blocks_back_to_back_actions():
    act = FakeActuator(replicas=2)
    ctl = controller(act)
    feed(ctl, snap(1, CONSUMER_LIMITED), snap(2, CONSUMER_LIMITED))
    assert act.replicas == 3
    # cooldown_windows=2: windows 3-4 are sat out even though the
    # signal persists (streaks rebuild during them, but no action fires)
    feed(ctl, snap(3, CONSUMER_LIMITED), snap(4, CONSUMER_LIMITED))
    assert act.replicas == 3
    feed(ctl, snap(5, CONSUMER_LIMITED))
    assert act.replicas == 4


def test_no_flap_across_adjacent_windows():
    """An alternating signal never triggers two opposing actions."""
    act = FakeActuator(replicas=4)
    ctl = controller(act)
    feed(ctl, *[snap(i, CONSUMER_LIMITED if i % 2 else PRODUCER_LIMITED,
                     util=0.9 if i % 2 else 0.1)
                for i in range(1, 11)])
    assert act.replicas == 4
    assert not [c for c in act.calls if c[0] == "scale"]


def test_scale_up_respects_max_bound():
    act = FakeActuator(replicas=8, hi=8)
    ctl = controller(act)
    feed(ctl, *[snap(i, CONSUMER_LIMITED) for i in range(1, 7)])
    assert act.replicas == 8
    assert not [c for c in act.calls if c[0] == "scale"]


def test_scale_down_on_idle_and_min_bound():
    act = FakeActuator(replicas=2, lo=1)
    ctl = controller(act, low_utilization=0.25)
    idle = [snap(i, PRODUCER_LIMITED, util=0.05, items=3, throughput=3.0)
            for i in range(1, 3)]
    feed(ctl, *idle)
    assert act.replicas == 1
    # at the floor the signal is ignored
    feed(ctl, *[snap(i, PRODUCER_LIMITED, util=0.05, items=3,
                     throughput=3.0) for i in range(3, 9)])
    assert act.replicas == 1


def test_empty_tail_windows_do_not_shrink():
    """A stream winding down (no items, no starvation signal) is neutral."""
    act = FakeActuator(replicas=4)
    ctl = controller(act, low_utilization=0.25)
    feed(ctl, *[snap(i, BALANCED, util=0.0, items=0, throughput=0.0)
                for i in range(1, 7)])
    assert act.replicas == 4


def test_refused_scale_is_not_applied():
    act = FakeActuator(replicas=2)
    act.refuse_scale = True
    ctl = controller(act)
    events = feed(ctl, snap(1, CONSUMER_LIMITED), snap(2, CONSUMER_LIMITED))
    assert [e for e in events if e.action == "scale_up"]
    assert not [e for e in events if e.applied]


def test_raising_actuator_disables_the_lever():
    class Exploding(FakeActuator):
        def scale(self, stage, delta):
            raise RuntimeError("boom")

    act = Exploding(replicas=2)
    ctl = controller(act)
    events = feed(ctl, *[snap(i, CONSUMER_LIMITED) for i in range(1, 7)])
    failures = [e for e in events if e.action == "scale_up"]
    assert len(failures) == 1 and not failures[0].applied
    assert "replicas" in ctl._dead_levers


def test_blocking_lever_flips_to_spin_on_high_throughput():
    act = FakeActuator(replicas=8, hi=8)  # replicas pinned: lever 2 is next
    ctl = controller(act, tune_blocking=True, spin_throughput=50.0)
    feed(ctl, snap(1, BALANCED, throughput=100.0),
         snap(2, BALANCED, throughput=100.0))
    assert act.blocking["work"] is False
    # and back to blocking only below the asymmetric exit threshold
    feed(ctl, snap(3, BALANCED, throughput=40.0),   # cooldown
         snap(4, BALANCED, throughput=40.0),        # cooldown
         snap(5, BALANCED, throughput=10.0),
         snap(6, BALANCED, throughput=10.0))
    assert act.blocking["work"] is True


def test_summary_counts_windows_and_events():
    act = FakeActuator(replicas=2)
    ctl = controller(act)
    feed(ctl, snap(1, CONSUMER_LIMITED), snap(2, CONSUMER_LIMITED))
    s = ctl.summary()
    assert s["windows"] == 2
    assert s["applied"] == 1
    assert s["events"][0]["action"] == "scale_up"


def test_policy_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        TuningPolicy(min_replicas=0)
    with pytest.raises(ValueError):
        TuningPolicy(min_replicas=4, max_replicas=2)
    with pytest.raises(ValueError):
        TuningPolicy(hysteresis_windows=0)
