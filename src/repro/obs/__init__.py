"""``repro.obs`` — the unified observability layer.

One tracing subsystem shared by both executors behind an abstract
:class:`~repro.obs.clock.Clock`: per-item spans (stage service, queue
put/get wait, token gate, GPU kernel and copy-engine busy intervals),
queue-occupancy counters, per-stage/replica latency histograms, and
exporters to raw JSON and Chrome ``trace_event`` format.

Typical use::

    from repro.obs import SpanRecorder, write_chrome_trace
    rec = SpanRecorder()
    result = repro.run(pipeline, mode="simulated", tracer=rec)
    write_chrome_trace(rec, "run.trace.json")   # open in chrome://tracing

Tracing is zero-cost when disabled: the default tracer is
:data:`~repro.obs.tracer.NOOP_TRACER` and every hook sits behind a
hoisted ``enabled`` check.

Alongside the post-hoc tracer sits the **live** telemetry layer
(:mod:`repro.obs.metrics`): lock-free per-unit probes merged every
tumbling window into immutable :class:`TelemetrySnapshot` objects with
per-stage throughput/service quantiles, per-edge occupancy/wait rates
and a derived bottleneck attribution — exposed via subscriber
callbacks, a Prometheus ``/metrics`` endpoint
(:mod:`repro.obs.promhttp`, ``ExecConfig.metrics_port``) and the
harness ``--live`` ticker.
"""

from repro.obs.clock import Clock, SimClock, WallClock
from repro.obs.export import (
    chrome_trace,
    trace_summary,
    write_chrome_trace,
    write_trace_json,
)
from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import (
    LiveTelemetry,
    MetricsRegistry,
    Sampler,
    UnitProbe,
)
from repro.obs.promhttp import (
    MetricsPortError,
    MetricsServer,
    parse_exposition,
    render_exposition,
)
from repro.obs.snapshot import (
    BALANCED,
    CONSUMER_LIMITED,
    PRODUCER_LIMITED,
    EdgeWindow,
    StageWindow,
    TelemetrySnapshot,
)
from repro.obs.tracer import (
    CAT_COLLECTOR,
    CAT_CONTROL,
    CAT_COPY,
    CAT_KERNEL,
    CAT_QUEUE,
    CAT_SPAR,
    CAT_STAGE,
    CAT_TOKEN,
    CAT_USER,
    NOOP_TRACER,
    CounterEvent,
    InstantEvent,
    RunInfo,
    SpanEvent,
    SpanRecorder,
    Tracer,
    current_tracer,
)

__all__ = [
    "Clock",
    "WallClock",
    "SimClock",
    "LatencyHistogram",
    "Tracer",
    "NOOP_TRACER",
    "SpanRecorder",
    "SpanEvent",
    "CounterEvent",
    "InstantEvent",
    "RunInfo",
    "current_tracer",
    "chrome_trace",
    "trace_summary",
    "write_chrome_trace",
    "write_trace_json",
    "CAT_STAGE",
    "CAT_QUEUE",
    "CAT_TOKEN",
    "CAT_COLLECTOR",
    "CAT_CONTROL",
    "CAT_KERNEL",
    "CAT_COPY",
    "CAT_SPAR",
    "CAT_USER",
    "MetricsRegistry",
    "UnitProbe",
    "Sampler",
    "LiveTelemetry",
    "TelemetrySnapshot",
    "StageWindow",
    "EdgeWindow",
    "PRODUCER_LIMITED",
    "CONSUMER_LIMITED",
    "BALANCED",
    "MetricsPortError",
    "MetricsServer",
    "render_exposition",
    "parse_exposition",
]
