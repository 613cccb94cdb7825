"""Tuning policy: what the autonomic controller may change mid-run.

:class:`~repro.core.config.ExecConfig` keeps the static build knobs
(graph mode, queue capacity, worker backend — anything baked into the
plan, ``batch_size`` included) and the initial value of the transport
knob the controller retunes, ``blocking``.  This policy holds the rest:
which levers the controller may pull (replica bounds, the
blocking↔spin discipline) and the control-loop shape (window,
hysteresis, cooldown).

A policy is immutable; pass one to ``repro.run(..., policy=...)`` or
install it ambiently with ``repro.core.config.use_config(policy=...)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TuningPolicy:
    """What the controller may touch, how far, and how cautiously.

    The two levers (mirroring the tuning burden the paper attributes
    to the programmer):

    * **replicas** — grow a farm on sustained consumer-limited input,
      shrink it when replicas idle, within ``[min_replicas,
      max_replicas]`` (per-Farm bounds on the IR node override these
      global defaults);
    * **blocking** — flip an edge to spin-waiting when its consumer
      sustains ``spin_throughput`` items/s (wake latency dominates), and
      back to blocking when the rate collapses.

    ``hysteresis_windows`` consecutive agreeing windows are required
    before any action, and ``cooldown_windows`` are skipped after one,
    so the loop converges instead of oscillating.
    """

    # -- lever enables and bounds ---------------------------------------
    scale_replicas: bool = True
    min_replicas: int = 1
    max_replicas: int = 8
    scale_step: int = 1            #: replicas added/removed per action
    low_utilization: float = 0.25  #: per-replica busy share => "idle"
    tune_blocking: bool = True
    spin_throughput: float = 2000.0  #: items/s above which spin pays off

    # -- control-loop shape ---------------------------------------------
    #: snapshot window in seconds; None inherits ExecConfig.metrics_interval
    window: Optional[float] = None
    hysteresis_windows: int = 2
    cooldown_windows: int = 2

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1: {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) < min_replicas "
                f"({self.min_replicas})")
        if self.scale_step < 1:
            raise ValueError(f"scale_step must be >= 1: {self.scale_step}")
        if not (0.0 <= self.low_utilization <= 1.0):
            raise ValueError(
                f"low_utilization must be in [0, 1]: {self.low_utilization}")
        if self.window is not None and self.window <= 0:
            raise ValueError(f"window must be positive: {self.window}")
        if self.hysteresis_windows < 1:
            raise ValueError(
                f"hysteresis_windows must be >= 1: {self.hysteresis_windows}")
        if self.cooldown_windows < 0:
            raise ValueError(
                f"cooldown_windows must be >= 0: {self.cooldown_windows}")

    def replace(self, **changes) -> "TuningPolicy":
        """A copy with ``changes`` applied (mirrors ``ExecConfig.replace``)."""
        return dataclasses.replace(self, **changes)
