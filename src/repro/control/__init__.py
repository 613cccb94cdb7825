"""repro.control — autonomic self-tuning of a running pipeline.

The API split puts everything tunable *mid-run* behind
:class:`TuningPolicy` (replica bounds, blocking discipline, control-loop
shape) and keeps :class:`~repro.core.config.ExecConfig` for static
build knobs.  Pass a policy to ``repro.run(..., policy=...)``
or install one ambiently::

    from repro.control import TuningPolicy
    from repro.core.config import use_config

    result = repro.run(pipe, policy=TuningPolicy(max_replicas=8))

    with use_config(policy=TuningPolicy(tune_blocking=False)):
        repro.run(pipe)   # self-tunes without touching the config
"""

from repro.control.controller import (
    Actuator,
    ControlEvent,
    Controller,
    ScaleReplicas,
    SetBlocking,
    StageHandle,
)
from repro.control.policy import TuningPolicy

__all__ = [
    "Actuator",
    "ControlEvent",
    "Controller",
    "ScaleReplicas",
    "SetBlocking",
    "StageHandle",
    "TuningPolicy",
]
