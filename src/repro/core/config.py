"""Execution configuration shared by both executors.

:class:`ExecConfig` holds the **static build knobs** — anything baked
into the plan or the channel wiring before the first item flows (mode,
queue capacity, worker backend, machine model, observability
attachments, ``batch_size``) — plus the *initial* value of the transport
knob the autonomic controller may retune mid-run, ``blocking``.
Everything else the controller may change (replica
bounds, lever enables, control-loop shape) lives on
:class:`repro.control.TuningPolicy`, passed as ``policy=``.

All string→enum coercion and value checking happens in one
normalization pass (:meth:`ExecConfig._normalize`): ``mode``,
``scheduling`` and ``workers`` accept their enum or its string value,
``blocking`` additionally accepts ``"blocking"``/``"spin"``, and the
boolean and object knobs are type-checked.  The worker enum is a
``str`` mixin, so ``cfg.workers == "process"`` style comparisons used
throughout the executors (and user code) are unchanged.

Five fields — ``tracer``, ``metrics_registry``, ``policy``, ``optimize``
and ``columnar`` — default to ``None``, meaning "not set here".  One
rule fills them: :meth:`ExecConfig.resolved` takes the explicit field,
else the innermost :func:`use_config` scope's value, else the built-in
default (optimizer and columnar transport on, the no-op tracer, no
policy, no registry).  Each executor resolves its config once, in its
constructor; everything downstream reads plain fields.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import enum
import functools
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Union

from repro.sim.machine import MachineSpec, PAPER_MACHINE

#: how native worker units are hosted: Python threads (GIL-shared) or
#: real OS processes talking over shared-memory channels
WORKER_BACKENDS = ("thread", "process")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.policy import TuningPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class ExecMode(enum.Enum):
    """How a pipeline graph is driven."""

    NATIVE = "native"        #: real Python threads (functional runs, tests)
    SIMULATED = "simulated"  #: virtual-time discrete-event engine (figures)


class Scheduling(enum.Enum):
    """Farm emitter policy for replicated stages."""

    ROUND_ROBIN = "rr"       #: FastFlow default: per-worker SPSC queues
    ON_DEMAND = "ondemand"   #: shared queue; idle worker takes next item


class WorkerBackend(str, enum.Enum):
    """Native worker hosting (``str`` mixin: compares equal to its value)."""

    THREAD = "thread"
    PROCESS = "process"


assert tuple(b.value for b in WorkerBackend) == WORKER_BACKENDS


def _coerce_enum(value, enum_cls, what: str):
    """One coercion rule for every enum-valued knob."""
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls(value.lower())
        except ValueError:
            pass
    raise ValueError(
        f"unknown {what}: {value!r} "
        f"(expected one of {[m.value for m in enum_cls]})")


def _coerce_blocking(value) -> bool:
    """``True``/``False`` or the discipline names ``"blocking"``/``"spin"``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        s = value.lower()
        if s == "blocking":
            return True
        if s == "spin":
            return False
    raise ValueError(
        f"unknown blocking: {value!r} (expected a bool, 'blocking' or 'spin')")


@dataclass
class ExecConfig:
    """Knobs common to the FastFlow/TBB/SPar lowerings.

    ``max_tokens`` models TBB's ``max_number_of_live_tokens``: the source
    is throttled so at most that many items are in flight; ``None`` means
    no token limit (FastFlow relies on bounded queues instead).

    ``mode`` also accepts the strings ``"native"``/``"simulated"``.
    ``tracer`` attaches a :class:`repro.obs.Tracer` to the run; ``None``
    falls back to the :func:`use_config` tracer, else the no-op one.
    """

    mode: Union[ExecMode, str] = ExecMode.NATIVE
    queue_capacity: int = 512
    max_tokens: Optional[int] = None
    scheduling: Union[Scheduling, str] = Scheduling.ROUND_ROBIN
    #: FastFlow blocking vs non-blocking (spinning) queue mode.  Spinning
    #: costs CPU (real or virtual) but reduces per-item hand-off latency.
    #: Honored by both executors: native channels park on condition
    #: variables or busy-wait accordingly; the simulator charges the
    #: blocking wake-up latency on hand-offs that had to sleep.  Accepts
    #: a bool or ``"blocking"``/``"spin"``.  *Initial* value only when a
    #: :class:`~repro.control.TuningPolicy` tunes the discipline live.
    blocking: Union[bool, str] = True
    #: Consumer-side multi-pop width: a stage drains up to this many
    #: envelopes its queue already holds in one synchronization episode
    #: (producers never hold an envelope back), and a batch kernel sees
    #: what one drain fetched.  1 disables batching.  Native-mode only;
    #: the simulator's hand-off semantics are unchanged.
    batch_size: int = 1
    #: native worker hosting: ``"thread"`` runs every plan unit on a
    #: Python thread (all stages share one GIL); ``"process"`` lowers
    #: process-eligible farm replicas onto OS worker processes connected
    #: through shared-memory ring channels, so compute-bound replicated
    #: stages run on real cores.  Serial sources/sinks/sequencers stay in
    #: the parent either way; the simulator ignores this knob.
    workers: Union[WorkerBackend, str] = WorkerBackend.THREAD
    machine: MachineSpec = field(default_factory=lambda: PAPER_MACHINE)
    #: collect payloads flowing out of the last stage into RunResult.outputs
    collect_outputs: bool = True
    #: observability sink for this run (None = ambient tracer)
    tracer: Optional["Tracer"] = None
    #: live telemetry registry for this run (None = the ambient
    #: :func:`use_config` registry, if any; one is auto-created when
    #: ``metrics_port`` is set or a policy is active).
    #: Reusable across runs: counters are cumulative, windows are diffed
    #: per run.
    metrics_registry: Optional["MetricsRegistry"] = None
    #: serve Prometheus text exposition on
    #: ``http://127.0.0.1:<port>/metrics`` for the duration of the run
    #: (0 = bind an ephemeral port, published on ``registry.http_port``
    #: and ``RunResult.details["telemetry"]["http_port"]``; None = no
    #: endpoint).
    metrics_port: Optional[int] = None
    #: tumbling-window length (seconds — wall or virtual, mode-dependent)
    #: for telemetry snapshots
    metrics_interval: float = 0.25
    #: autonomic-controller policy for this run (None = the ambient
    #: :func:`use_config` policy, if any; no policy = no controller).
    #: See :class:`repro.control.TuningPolicy`.
    policy: Optional["TuningPolicy"] = None
    #: run the graph optimizer (:mod:`repro.core.opt` — stage fusion and
    #: batch vectorization) when lowering this run's plan.  None = the
    #: ambient :func:`use_config` value (the harness's ``--no-opt``),
    #: else on.
    optimize: Optional[bool] = None
    #: move ``ItemBlock`` batches (struct-of-arrays columns) instead of
    #: scalar envelopes on edges the plan proves block-capable at both
    #: ends (compiled/vectorized kernels, block sources, range-aware
    #: sequencers).  None = the ambient :func:`use_config` value (the
    #: harness's ``--no-columnar``), else on.  Requires no
    #: ``max_tokens`` gate; ineligible edges silently stay scalar
    #: (reasons in ``OptReport.columnar``).
    columnar: Optional[bool] = None

    #: set on the copy :meth:`resolved` returns (an instance attribute,
    #: not a field: ``replace`` copies start unresolved again)
    _resolved = False

    def __post_init__(self) -> None:
        self._normalize()

    # -- the one normalization path ---------------------------------------
    _ENUM_KNOBS = (
        ("mode", ExecMode, "execution mode"),
        ("scheduling", Scheduling, "scheduling"),
        ("workers", WorkerBackend, "workers backend"),
    )

    def _normalize(self) -> None:
        for name, enum_cls, what in self._ENUM_KNOBS:
            setattr(self, name, _coerce_enum(getattr(self, name),
                                             enum_cls, what))
        self.blocking = _coerce_blocking(self.blocking)
        for name in ("optimize", "columnar", "collect_outputs"):
            value = getattr(self, name)
            if not (isinstance(value, bool)
                    or (value is None and name != "collect_outputs")):
                raise ValueError(
                    f"{name} must be a bool, got {type(value).__name__}")
        for name, cls, what in _object_knobs():
            value = getattr(self, name)
            if value is not None and not isinstance(value, cls):
                raise ValueError(
                    f"{name} must be a {what}, got {type(value).__name__}")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1 or None")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535] or None")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be > 0")

    def resolved(self) -> "ExecConfig":
        """A copy with every unset overlay field filled, once per run.

        Each ``None`` among the five overlay fields takes the innermost
        :func:`use_config` value, else the built-in default.  The copy
        keeps its values after the scope exits, and resolving it again
        returns it unchanged.
        """
        if self._resolved:
            return self
        from repro.obs.tracer import NOOP_TRACER

        ambient = _OVERLAY.get()
        builtin = {"tracer": NOOP_TRACER, "optimize": True, "columnar": True}
        out = copy.copy(self)  # every value in play is already checked
        for key in _OVERLAY_KEYS:
            if getattr(out, key) is None:
                setattr(out, key, ambient.get(key, builtin.get(key)))
        out._resolved = True
        return out

    def replace(self, **kwargs) -> "ExecConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **kwargs)


@functools.cache
def _object_knobs() -> tuple:
    """(field, required type, its public name) for the object-valued
    knobs; imported on first use (these modules import this one)."""
    from repro.control.policy import TuningPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    return (("tracer", Tracer, "repro.obs.Tracer"),
            ("metrics_registry", MetricsRegistry, "repro.obs.MetricsRegistry"),
            ("policy", TuningPolicy, "repro.control.TuningPolicy"))


#: the fields :func:`use_config` may set: those whose ``None`` default
#: means "not set here"
_OVERLAY_KEYS = ("tracer", "metrics_registry", "policy", "optimize", "columnar")

#: the ambient overlay: the five overlay fields set by the enclosing
#: :func:`use_config` scopes.  Read-only: each scope installs a fresh
#: dict (a plain one, so :func:`repro.obs.current_tracer` stays one
#: ``get`` plus one dict lookup).
_OVERLAY: ContextVar[Mapping[str, Any]] = ContextVar(
    "repro_config_overlay", default={})


@contextlib.contextmanager
def use_config(**overrides: Any) -> Iterator[None]:
    """Set ambient values for unset :class:`ExecConfig` fields in a block.

    Accepts only the five overlay fields; values pass the constructor's
    checks.  A nested scope merges over the enclosing one and restores
    it on exit; ``None`` leaves the enclosing value in place, as it does
    on a config.  Explicit config fields always win.
    """
    unknown = sorted(set(overrides) - set(_OVERLAY_KEYS))
    if unknown:
        raise ValueError(f"use_config got unknown keys {unknown}; "
                         f"allowed: {list(_OVERLAY_KEYS)}")
    checked = ExecConfig(**overrides)
    merged = dict(_OVERLAY.get())
    merged.update((key, getattr(checked, key)) for key in overrides
                  if overrides[key] is not None)
    token = _OVERLAY.set(merged)
    try:
        yield
    finally:
        _OVERLAY.reset(token)
