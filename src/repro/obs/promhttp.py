"""Prometheus text-exposition endpoint for a live MetricsRegistry.

Stdlib-only (``http.server``): a daemon :class:`MetricsServer` renders
the registry's latest :class:`~repro.obs.snapshot.TelemetrySnapshot` as
Prometheus text exposition format 0.0.4 on ``GET /metrics``.  Opt in
per run via ``ExecConfig.metrics_port`` (0 binds an ephemeral port,
published on ``registry.http_port``), e.g.::

    curl -s http://127.0.0.1:9105/metrics | grep repro_bottleneck

:func:`parse_exposition` is a small validating parser used by the tests
and the CI smoke job to check the format without a prometheus client.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

class MetricsPortError(RuntimeError):
    """``metrics_port`` could not be bound (typically already in use)."""


_METRIC_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+(-?\d+))?$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"})


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def render_exposition(registry: "MetricsRegistry") -> str:
    """Render the latest snapshot (plus cumulative totals) as text 0.0.4."""
    snap = registry.latest
    lines: List[str] = []

    def family(name: str, help_text: str, mtype: str,
               samples: List[Tuple[str, float]]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            body = f"{{{labels}}}" if labels else ""
            lines.append(f"{name}{body} {value!r}")

    def opt_families() -> None:
        # optimizer caches are process-global module state (not per-run),
        # so these families are live even before the first snapshot
        from repro.core.opt import bodycomp_stats, kernel_cache_stats
        cache = kernel_cache_stats()
        family("repro_opt_kernel_cache_hits",
               "Batch-kernel cache lookups served from cache.", "counter",
               [("", float(cache["hits"]))])
        family("repro_opt_kernel_cache_misses",
               "Batch-kernel cache lookups that compiled.", "counter",
               [("", float(cache["misses"]))])
        family("repro_opt_compiled_stages",
               "Distinct scalar bodies derived into batch kernels.",
               "gauge",
               [("", float(bodycomp_stats()["compiled"]))])

    if snap is None:
        family("repro_snapshot_seq", "Telemetry snapshots published.",
               "counter", [("", 0.0)])
        opt_families()
        return "\n".join(lines) + "\n"

    family("repro_snapshot_seq", "Telemetry snapshots published.",
           "counter", [("", float(snap.seq))])
    family("repro_snapshot_window_seconds",
           "Length of the last tumbling window.", "gauge",
           [("", snap.window)])

    stages = sorted(snap.stages.items())
    family("repro_stage_items_in_total",
           "Items consumed by the unit since the registry was created.",
           "counter",
           [(f'stage="{_escape(n)}",kind="{s.kind}"',
             float(s.total_items_in)) for n, s in stages])
    family("repro_stage_items_out_total",
           "Payloads emitted by the unit since the registry was created.",
           "counter",
           [(f'stage="{_escape(n)}",kind="{s.kind}"',
             float(s.total_items_out)) for n, s in stages])
    family("repro_stage_throughput_items_per_second",
           "Items consumed per second over the last window.", "gauge",
           [(f'stage="{_escape(n)}"', s.throughput) for n, s in stages])
    family("repro_stage_utilization_ratio",
           "Busy time per replica per second over the last window.",
           "gauge",
           [(f'stage="{_escape(n)}"', s.utilization) for n, s in stages])
    quantiles: List[Tuple[str, float]] = []
    for n, s in stages:
        for q, v in (("0.5", s.service_p50), ("0.95", s.service_p95),
                     ("0.99", s.service_p99)):
            quantiles.append((f'stage="{_escape(n)}",quantile="{q}"', v))
    family("repro_stage_service_seconds",
           "Windowed service-time quantiles (octave-bucket upper bounds).",
           "summary", quantiles)

    edges = sorted(snap.edges.items())
    family("repro_edge_occupancy",
           "Items queued on the edge at sample time.", "gauge",
           [(f'edge="{_escape(n)}"', e.occupancy) for n, e in edges])
    family("repro_edge_put_wait_seconds",
           "Producer wait on the edge over the last window.", "gauge",
           [(f'edge="{_escape(n)}"', e.put_wait) for n, e in edges])
    family("repro_edge_get_wait_seconds",
           "Consumer wait on the edge over the last window.", "gauge",
           [(f'edge="{_escape(n)}"', e.get_wait) for n, e in edges])
    family("repro_edge_attribution",
           "Backpressure verdict for the edge (1 on the active state).",
           "gauge",
           [(f'edge="{_escape(n)}",state="{e.attribution}"', 1.0)
            for n, e in edges])
    if snap.bottleneck is not None:
        family("repro_bottleneck",
               "Stage with the highest per-replica utilization.", "gauge",
               [(f'stage="{_escape(snap.bottleneck)}"', 1.0)])

    # autonomic-controller levers (populated only when a TuningPolicy
    # is active; every value is the live setting, not the configured one)
    replicas = registry.control_state.get("replicas") or {}
    family("repro_stage_replicas",
           "Live replica count of each elastic farm segment.", "gauge",
           [(f'stage="{_escape(n)}"', float(v))
            for n, v in sorted(replicas.items())])
    blocking = registry.control_state.get("blocking") or {}
    family("repro_edge_blocking",
           "Wait discipline per edge (1 = blocking, 0 = spinning).",
           "gauge",
           [(f'edge="{_escape(n)}"', 1.0 if v else 0.0)
            for n, v in sorted(blocking.items())])
    family("repro_controller_actions_total",
           "Controller actions applied or refused, by kind.", "counter",
           [(f'action="{_escape(a)}"', float(v))
            for a, v in sorted(registry.control_actions_total.items())])
    opt_families()
    return "\n".join(lines) + "\n"


def parse_exposition(text: str,
                     ) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse/validate exposition text; raises ValueError on bad lines.

    Returns metric name -> list of (labels, value) samples.  Checks the
    subset of the 0.0.4 format we emit: HELP/TYPE comment shape, known
    metric types, metric-name/label syntax, float-parsable values.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                    raise ValueError(
                        f"line {lineno}: bad TYPE line: {line!r}")
                typed[parts[2]] = parts[3]
            continue
        m = _METRIC_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, label_body, value_text = m.group(1), m.group(2), m.group(3)
        labels: Dict[str, str] = {}
        if label_body:
            for lm in _LABEL_RE.finditer(label_body):
                labels[lm.group(1)] = (
                    lm.group(2).replace(r"\n", "\n")
                    .replace(r"\"", '"').replace(r"\\", "\\"))
            residue = _LABEL_RE.sub("", label_body).replace(",", "").strip()
            if residue:
                raise ValueError(
                    f"line {lineno}: malformed labels: {label_body!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {value_text!r}") from exc
        samples.setdefault(name, []).append((labels, value))
    for name in samples:
        if name not in typed:
            raise ValueError(f"metric {name!r} has samples but no TYPE line")
    return samples


class MetricsServer:
    """Serves ``/metrics`` for one registry on a daemon thread."""

    def __init__(self, registry: "MetricsRegistry", port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.registry = registry
        self._host = host
        self._want_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port (differs from the request when asking for 0)."""
        return None if self._httpd is None else self._httpd.server_address[1]

    def start(self) -> None:
        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = render_exposition(registry).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # keep run output clean

        try:
            self._httpd = ThreadingHTTPServer((self._host, self._want_port),
                                              Handler)
        except OSError as exc:
            raise MetricsPortError(
                f"cannot bind the metrics endpoint to "
                f"{self._host}:{self._want_port}: {exc.strerror or exc}. "
                f"Pass metrics_port=0 to bind an ephemeral port (the bound "
                f"port is published in RunResult.details['telemetry']"
                f"['http_port'])."
            ) from exc
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="metrics-http", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
