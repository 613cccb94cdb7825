"""The autonomic controller: snapshots in, lever actions out.

Closes the loop the obs layer opened: subscribe to
:class:`~repro.obs.snapshot.TelemetrySnapshot` windows, read the
per-edge producer-limited/consumer-limited attribution, and actuate two
levers of the programmer's tuning burden the paper identifies — farm
replica counts and the blocking↔spin wait discipline.  FastFlow's
adaptivity line (TR-10-03) is the precedent: the *runtime* keeps the
pipeline at the knee of the throughput curve.

Decision core (:meth:`Controller.decide`) is a pure function of the
snapshot plus small per-target streak counters, so it unit-tests on
synthetic snapshots with no executor at all.  Stability comes from two
guards:

* **hysteresis** — a signal must persist for ``hysteresis_windows``
  consecutive windows before the controller acts on it;
* **cooldown** — after any applied action the controller sits out
  ``cooldown_windows`` windows (and resets every streak), giving the
  pipeline time to exhibit the new configuration before being judged
  again.

At most one action fires per window (replicas beat blocking), which
keeps cause and effect attributable in the trace.

Actuation goes through a backend-specific :class:`Actuator` (built by
each executor); a lever whose actuation fails is disabled for the rest
of the run rather than retried forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol

from repro.control.policy import TuningPolicy
from repro.obs.snapshot import CONSUMER_LIMITED, PRODUCER_LIMITED, TelemetrySnapshot
from repro.obs.tracer import CAT_CONTROL, Tracer

#: when spinning, flip back to blocking once throughput falls below
#: this fraction of ``policy.spin_throughput`` (asymmetric thresholds
#: are themselves a flap guard)
_SPIN_EXIT_FRACTION = 0.5


@dataclass(frozen=True)
class StageHandle:
    """One elastic farm segment as the actuator exposes it."""

    name: str
    replicas: int        #: current live replica count
    min_replicas: int
    max_replicas: int
    in_edge: str         #: channel name feeding the farm (attribution key)


@dataclass(frozen=True)
class ScaleReplicas:
    stage: str
    delta: int           #: signed; positive grows the farm


@dataclass(frozen=True)
class SetBlocking:
    edge: str
    blocking: bool       #: True = park on a condition, False = spin


Action = Any  # ScaleReplicas | SetBlocking


@dataclass
class ControlEvent:
    """One controller decision, applied or refused — the audit record."""

    seq: int             #: snapshot sequence number that triggered it
    t: float             #: window end time on the run clock
    action: str          #: "scale_up" | "scale_down" | "set_blocking"
    target: str          #: stage or edge name
    value: Any           #: applied delta / new discipline
    applied: bool
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "action": self.action,
                "target": self.target, "value": self.value,
                "applied": self.applied, **self.detail}


class Actuator(Protocol):
    """What a backend must expose for the controller to drive it.

    ``scale`` returns the replica delta actually applied (0 = refused,
    e.g. the edge already saw EOS).  ``set_blocking`` returns False when
    the backend cannot actuate that lever (the controller then disables
    it for the run).
    """

    def stage_handles(self) -> Dict[str, StageHandle]: ...
    def scale(self, stage: str, delta: int) -> int: ...
    def edge_blocking(self) -> Dict[str, bool]: ...
    def set_blocking(self, edge: str, blocking: bool) -> bool: ...


class Controller:
    """Subscribes to a registry's snapshots and drives an actuator."""

    def __init__(self, policy: TuningPolicy, actuator: Actuator,
                 registry: Optional[Any] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.policy = policy
        self.actuator = actuator
        self.registry = registry
        self.tracer = tracer
        self.events: List[ControlEvent] = []
        self.windows_seen = 0
        self._cooldown = 0
        self._up: Dict[str, int] = {}      # stage -> consumer-limited streak
        self._down: Dict[str, int] = {}    # stage -> idle streak
        self._spin: Dict[str, int] = {}    # edge -> wants-spin streak
        self._block: Dict[str, int] = {}   # edge -> wants-blocking streak
        # levers that failed to actuate on this backend, disabled for
        # the rest of the run
        self._dead_levers: set = set()
        self._publish_state()

    # -- wiring ----------------------------------------------------------
    def on_snapshot(self, snap: TelemetrySnapshot) -> List[ControlEvent]:
        """Snapshot subscriber entry point: decide, actuate, record."""
        actions = self.decide(snap)
        applied: List[ControlEvent] = []
        for action in actions:
            ev = self._apply(snap, action)
            self.events.append(ev)
            applied.append(ev)
            if ev.applied:
                self._cooldown = self.policy.cooldown_windows
                self._reset_streaks()
            self._record(ev)
        return applied

    # -- decision core (pure given streak state) -------------------------
    def decide(self, snap: TelemetrySnapshot) -> List[Action]:
        """At most one action for this window, after updating streaks."""
        if snap.window <= 0:
            return []
        self.windows_seen += 1
        handles = self.actuator.stage_handles()
        self._update_replica_streaks(snap, handles)
        blocking = (self.actuator.edge_blocking()
                    if self.policy.tune_blocking
                    and "blocking" not in self._dead_levers else {})
        self._update_blocking_streaks(snap, blocking)
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        need = self.policy.hysteresis_windows
        # 1. replicas (the big lever)
        if self.policy.scale_replicas and "replicas" not in self._dead_levers:
            up = [n for n, s in self._up.items() if s >= need and n in handles]
            if up:
                # strongest streak wins; name breaks ties deterministically
                name = max(up, key=lambda n: (self._up[n], n))
                h = handles[name]
                delta = min(self.policy.scale_step, h.max_replicas - h.replicas)
                if delta > 0:
                    return [ScaleReplicas(name, delta)]
            down = [n for n, s in self._down.items()
                    if s >= need and n in handles]
            if down:
                name = max(down, key=lambda n: (self._down[n], n))
                h = handles[name]
                delta = min(self.policy.scale_step, h.replicas - h.min_replicas)
                if delta > 0:
                    return [ScaleReplicas(name, -delta)]
        # 2. wait discipline
        if blocking:
            spin = [e for e, s in self._spin.items() if s >= need]
            if spin:
                return [SetBlocking(sorted(spin)[0], False)]
            block = [e for e, s in self._block.items() if s >= need]
            if block:
                return [SetBlocking(sorted(block)[0], True)]
        return []

    # -- streak updates --------------------------------------------------
    def _update_replica_streaks(self, snap: TelemetrySnapshot,
                                handles: Dict[str, StageHandle]) -> None:
        for name, h in handles.items():
            sw = snap.stages.get(name)
            ew = snap.edges.get(h.in_edge)
            attr = ew.attribution if ew is not None else None
            # scale up: the farm's input edge says its consumers (the
            # replicas) cannot keep up, and there is headroom
            if attr == CONSUMER_LIMITED and h.replicas < h.max_replicas:
                self._up[name] = self._up.get(name, 0) + 1
            else:
                self._up[name] = 0
            # scale down: replicas idle while their input is *not* the
            # bottleneck — either a starved farm (producer-limited) or a
            # trickle of items leaving utilization low.  A window with
            # no items and no starvation signal (stream winding down) is
            # neutral: it neither grows nor resets the streak.
            busy = sw.utilization if sw is not None else 0.0
            saw_items = sw is not None and sw.items_in > 0
            if (h.replicas > h.min_replicas and attr != CONSUMER_LIMITED
                    and busy <= self.policy.low_utilization
                    and (saw_items or attr == PRODUCER_LIMITED)):
                self._down[name] = self._down.get(name, 0) + 1
            elif saw_items or attr == CONSUMER_LIMITED:
                self._down[name] = 0

    def _update_blocking_streaks(self, snap: TelemetrySnapshot,
                                 blocking: Dict[str, bool]) -> None:
        for edge, is_blocking in blocking.items():
            rate = sum(sw.throughput for sw in snap.stages.values()
                       if sw.in_edge == edge)
            if is_blocking and rate >= self.policy.spin_throughput:
                self._spin[edge] = self._spin.get(edge, 0) + 1
                self._block[edge] = 0
            elif (not is_blocking
                  and rate < self.policy.spin_throughput * _SPIN_EXIT_FRACTION):
                self._block[edge] = self._block.get(edge, 0) + 1
                self._spin[edge] = 0
            else:
                self._spin[edge] = 0
                self._block[edge] = 0

    def _reset_streaks(self) -> None:
        # the topology just changed under every signal; start fresh
        self._up.clear()
        self._down.clear()
        self._spin.clear()
        self._block.clear()

    # -- actuation -------------------------------------------------------
    def _apply(self, snap: TelemetrySnapshot, action: Action) -> ControlEvent:
        t = snap.t_end
        if isinstance(action, ScaleReplicas):
            kind = "scale_up" if action.delta > 0 else "scale_down"
            try:
                got = self.actuator.scale(action.stage, action.delta)
            except Exception as err:  # a failed grow must not kill telemetry
                self._dead_levers.add("replicas")
                return ControlEvent(snap.seq, t, kind, action.stage,
                                    action.delta, False,
                                    {"error": repr(err)})
            handles = self.actuator.stage_handles()
            now = handles[action.stage].replicas if action.stage in handles \
                else None
            return ControlEvent(snap.seq, t, kind, action.stage, got,
                                got != 0, {"replicas": now,
                                           "requested": action.delta})
        if isinstance(action, SetBlocking):
            try:
                ok = self.actuator.set_blocking(action.edge, action.blocking)
            except Exception as err:
                self._dead_levers.add("blocking")
                return ControlEvent(snap.seq, t, "set_blocking", action.edge,
                                    action.blocking, False,
                                    {"error": repr(err)})
            if not ok:
                self._dead_levers.add("blocking")
            return ControlEvent(snap.seq, t, "set_blocking", action.edge,
                                "blocking" if action.blocking else "spin", ok)
        raise TypeError(f"unknown action: {action!r}")  # pragma: no cover

    def _record(self, ev: ControlEvent) -> None:
        if self.registry is not None:
            self.registry.record_control(ev.as_dict())
            self._publish_state()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("controller", f"{ev.action}:{ev.target}",
                                ev.t, args=ev.as_dict())
            # keep the category visible to track_types() queries
            self.tracer.span(CAT_CONTROL, "controller", ev.action,
                             ev.t, ev.t, args=ev.as_dict())

    def _publish_state(self) -> None:
        if self.registry is None:
            return
        try:
            handles = self.actuator.stage_handles()
            self.registry.set_control_state(
                "replicas", {n: h.replicas for n, h in handles.items()})
            self.registry.set_control_state(
                "blocking", dict(self.actuator.edge_blocking()))
        except Exception:
            pass

    # -- result summary --------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        applied = [e for e in self.events if e.applied]
        return {
            "windows": self.windows_seen,
            "decisions": len(self.events),
            "applied": len(applied),
            "events": [e.as_dict() for e in self.events],
        }
