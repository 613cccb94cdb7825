"""Live telemetry: lock-free unit probes, a merging sampler, snapshots.

This layer sits *under* the tracer: where :class:`~repro.obs.tracer`
records every event for post-hoc export, the metrics registry keeps a
handful of cumulative counters per unit that a background sampler turns
into :class:`~repro.obs.snapshot.TelemetrySnapshot` windows while the
pipeline is still running.  Design rules, in FastFlow's lock-free
spirit:

* **Single-writer shards.**  Each unit thread owns a
  :class:`UnitProbe`; all fields are written by that thread only, with
  plain ``+=`` on ints/floats and list-slot increments — atomic enough
  under the GIL for a reader that tolerates a torn *view* (counters are
  monotone, so the sampler's diff is at worst one item stale).  No locks
  on the hot path, ever.
* **Cumulative counters, windowed reader.**  Probes only ever grow;
  tumbling-window semantics live entirely in the :class:`Sampler`,
  which diffs consecutive merged states.  This keeps the writer branch
  count minimal and makes cross-process shipping idempotent (a lost
  delta is healed by the next cumulative payload).
* **Sampled wait timing.**  Timing every channel wait costs two
  ``perf_counter`` calls per op; probes time one op in ``wait_sample``
  (default 4) and scale the observed wait; the benchmark tracks what
  metrics-on costs as the ``obs.metrics_on_overhead_frac`` layer row
  (``bench/run.py``).

The process executor ships child-side registries as pickled cumulative
payloads (:meth:`MetricsRegistry.export_state` →
:meth:`MetricsRegistry.apply_remote`) over a dedicated
:class:`~repro.core.channel.ShmChannel`, so ``workers="process"`` runs
report the same live view as threads.
"""

from __future__ import annotations

import contextlib
import math
import threading
import zlib
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.clock import Clock
from repro.obs.snapshot import (
    EdgeWindow,
    StageWindow,
    TelemetrySnapshot,
    attribute_edge,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ExecConfig

#: histogram geometry: octave (power-of-two) buckets covering ~2^-32 s
#: (sub-ns) .. 2^15 s (~9 h); bucket i holds services in
#: [2^(i-33), 2^(i-32)).
N_BUCKETS = 48
_BUCKET_BIAS = 32

#: default 1-in-N sampling factor for wait timing on the hot path
DEFAULT_WAIT_SAMPLE = 4

#: keep this many recent snapshots on the registry (~1 min at 250 ms)
_HISTORY = 240


def bucket_index(seconds: float) -> int:
    """Octave bucket for a service time, via ``frexp`` (no log call)."""
    if seconds <= 0.0:
        return 0
    i = math.frexp(seconds)[1] + _BUCKET_BIAS
    if i < 0:
        return 0
    if i >= N_BUCKETS:
        return N_BUCKETS - 1
    return i


def bucket_upper(index: int) -> float:
    """Upper bound (seconds) of bucket ``index``."""
    return 2.0 ** (index - _BUCKET_BIAS)


class UnitProbe:
    """Single-writer counter shard for one unit thread.

    Created via :meth:`MetricsRegistry.unit_probe`; the owning thread is
    the only writer.  The sampler reads fields without synchronisation —
    every field is monotone, so stale reads only shift an item between
    adjacent windows.
    """

    __slots__ = ("kind", "name", "replicas", "in_edge", "out_edge",
                 "items_in", "items_out", "busy", "get_wait", "put_wait",
                 "token_wait", "hist", "wait_scale", "_get_n", "_put_n",
                 "_get_gap", "_put_gap", "_rng")

    def __init__(self, kind: str, name: str, replicas: int = 1,
                 in_edge: Optional[str] = None, out_edge: Optional[str] = None,
                 wait_sample: int = DEFAULT_WAIT_SAMPLE) -> None:
        self.kind = kind
        self.name = name
        self.replicas = replicas
        self.in_edge = in_edge
        self.out_edge = out_edge
        self.items_in = 0
        self.items_out = 0
        self.busy = 0.0
        self.get_wait = 0.0
        self.put_wait = 0.0
        self.token_wait = 0.0
        self.hist = [0] * N_BUCKETS
        self.wait_scale = float(max(1, wait_sample))
        # Sampling gaps are drawn from a per-probe LCG (seeded from the
        # unit name, so runs stay reproducible) instead of a fixed
        # period: a fixed 1-in-N tick phase-locks against round-robin
        # fan-out whenever N shares a factor with the consumer count,
        # and then only ever samples the ring that never blocks —
        # reporting zero producer wait on a fully backpressured edge.
        self._rng = zlib.crc32(f"{kind}:{name}".encode()) or 1
        self._get_n = 0
        self._put_n = 0
        self._get_gap = self._next_gap()
        self._put_gap = self._next_gap()

    def _next_gap(self) -> int:
        """Next sampling gap: uniform on [1, 2N-1], mean N."""
        self._rng = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
        span = 2 * int(self.wait_scale) - 1
        return 1 + self._rng % span

    # -- hot path --------------------------------------------------------
    def record(self, service: float, emitted: int,
               _frexp=math.frexp) -> None:
        """One item handled: service seconds and payloads emitted.

        ``bucket_index`` is inlined (with ``frexp`` pre-bound): this runs
        once per item on every metered stage, so one avoided function
        call is worth the duplication.
        """
        self.items_in += 1
        self.items_out += emitted
        self.busy += service
        if service > 0.0:
            i = _frexp(service)[1] + _BUCKET_BIAS
            if i < 0:
                i = 0
            elif i >= N_BUCKETS:
                i = N_BUCKETS - 1
        else:
            i = 0
        self.hist[i] += 1

    def record_batch(self, service: float, count: int, emitted: int,
                     _frexp=math.frexp) -> None:
        """``count`` logical items handled by one batched (block) call.

        O(1) regardless of the block size: the histogram credits every
        item with its mean share of the call, keeping occupancy and rate
        figures identical to the scalar path's per-item accounting.
        """
        if count <= 0:
            return
        self.items_in += count
        self.items_out += emitted
        self.busy += service
        per = service / count
        if per > 0.0:
            i = _frexp(per)[1] + _BUCKET_BIAS
            if i < 0:
                i = 0
            elif i >= N_BUCKETS:
                i = N_BUCKETS - 1
        else:
            i = 0
        self.hist[i] += count

    def emitted(self, n: int = 1) -> None:
        """Source-side: ``n`` payloads pushed downstream."""
        self.items_out += n

    def passed(self, n: int = 1) -> None:
        """Pass-through units (sequencer): count without service time."""
        self.items_in += n
        self.items_out += n

    def tick_get(self) -> bool:
        """True on the 1-in-N-mean get ops whose wait should be timed."""
        n = self._get_n + 1
        if n >= self._get_gap:
            self._get_n = 0
            self._get_gap = self._next_gap()
            return True
        self._get_n = n
        return False

    def tick_put(self) -> bool:
        """True on the 1-in-N-mean put ops whose wait should be timed."""
        n = self._put_n + 1
        if n >= self._put_gap:
            self._put_n = 0
            self._put_gap = self._next_gap()
            return True
        self._put_n = n
        return False

    # sampled adders scale the observed wait back up to estimate the
    # total; the unsampled adders below are for call sites that time
    # every op (multi-pop pulls, the virtual-time sim executor).
    def sampled_get_wait(self, dt: float) -> None:
        self.get_wait += dt * self.wait_scale

    def sampled_put_wait(self, dt: float) -> None:
        self.put_wait += dt * self.wait_scale

    def sampled_token_wait(self, dt: float) -> None:
        self.token_wait += dt * self.wait_scale

    def get_waited(self, dt: float) -> None:
        self.get_wait += dt

    def put_waited(self, dt: float) -> None:
        self.put_wait += dt

    def token_waited(self, dt: float) -> None:
        self.token_wait += dt

    # -- sampler side ----------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Picklable cumulative state (also the cross-process format)."""
        return {
            "kind": self.kind, "name": self.name, "replicas": self.replicas,
            "in_edge": self.in_edge, "out_edge": self.out_edge,
            "items_in": self.items_in, "items_out": self.items_out,
            "busy": self.busy, "get_wait": self.get_wait,
            "put_wait": self.put_wait, "token_wait": self.token_wait,
            "hist": tuple(self.hist),
        }


def _fold_state(units: Dict[str, Dict[str, Any]], st: Dict[str, Any]) -> None:
    """Merge one probe state into the by-name accumulation."""
    u = units.get(st["name"])
    if u is None:
        u = dict(st)
        u["hist"] = list(st["hist"])
        units[st["name"]] = u
        return
    for k in ("items_in", "items_out", "busy", "get_wait", "put_wait",
              "token_wait"):
        u[k] += st[k]
    u["replicas"] = max(u["replicas"], st["replicas"])
    h = u["hist"]
    for i, c in enumerate(st["hist"]):
        if c:
            h[i] += c
    if u.get("in_edge") is None:
        u["in_edge"] = st.get("in_edge")
    if u.get("out_edge") is None:
        u["out_edge"] = st.get("out_edge")


def _hist_quantile(hist: List[int], total: int, q: float) -> float:
    """q-quantile (0..1) upper-bound estimate from an octave histogram."""
    if total <= 0:
        return 0.0
    rank = max(1, math.ceil(total * q))
    seen = 0
    for i, c in enumerate(hist):
        seen += c
        if seen >= rank:
            return bucket_upper(i)
    return bucket_upper(N_BUCKETS - 1)


class MetricsRegistry:
    """Hosts the probes, edge gauges, remote deltas and snapshots.

    Registration and collection take a lock; the per-item hot path never
    touches it (probes are handed out once per unit thread at spawn).
    """

    def __init__(self, wait_sample: int = DEFAULT_WAIT_SAMPLE) -> None:
        self.wait_sample = max(1, int(wait_sample))
        self._lock = threading.Lock()
        self._probes: List[UnitProbe] = []
        self._gauges: Dict[str, Callable[[], float]] = {}
        #: origin key (e.g. process group index) -> latest cumulative payload
        self._remote: Dict[Any, Dict[str, Any]] = {}
        self._subscribers: List[Callable[[TelemetrySnapshot], None]] = []
        self.latest: Optional[TelemetrySnapshot] = None
        self.history: deque = deque(maxlen=_HISTORY)
        #: bound HTTP port while a MetricsServer is serving this registry
        self.http_port: Optional[int] = None
        #: autonomic-controller feed: recent actions + live lever values
        #: (``replicas``/``blocking``/``batch``), rendered as Prometheus
        #: gauges by :mod:`repro.obs.promhttp` and drained by the harness
        #: ``--live`` ticker
        self.control_events: deque = deque(maxlen=_HISTORY)
        self.control_state: Dict[str, Any] = {}
        self.control_actions_total: Dict[str, int] = {}

    def record_control(self, event: Dict[str, Any]) -> None:
        """Record one controller action (called from the sampler thread)."""
        with self._lock:
            self.control_events.append(event)
            action = str(event.get("action", "unknown"))
            self.control_actions_total[action] = (
                self.control_actions_total.get(action, 0) + 1)

    def set_control_state(self, key: str, value: Any) -> None:
        """Publish a live lever value (e.g. ``("replicas", {...})``)."""
        with self._lock:
            self.control_state[key] = value

    # -- registration ----------------------------------------------------
    def unit_probe(self, kind: str, name: str, replicas: int = 1,
                   in_edge: Optional[str] = None,
                   out_edge: Optional[str] = None) -> UnitProbe:
        """New single-writer shard; call once per unit thread at spawn."""
        probe = UnitProbe(kind, name, replicas, in_edge, out_edge,
                          wait_sample=self.wait_sample)
        with self._lock:
            self._probes.append(probe)
        return probe

    def edge_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a queue-occupancy gauge sampled at snapshot time."""
        with self._lock:
            self._gauges[name] = fn

    def subscribe(self, fn: Callable[[TelemetrySnapshot], None]) -> None:
        """Add a snapshot subscriber (the SnapshotSubscriber API).

        Called from the sampler thread on every tick; exceptions are
        swallowed so a bad subscriber cannot kill telemetry.
        """
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TelemetrySnapshot], None]) -> None:
        with self._lock:
            with contextlib.suppress(ValueError):
                self._subscribers.remove(fn)

    # -- cross-process shipping ------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Cumulative picklable payload of all local probes and gauges."""
        with self._lock:
            probes = list(self._probes)
            gauges = dict(self._gauges)
        units = [p.state() for p in probes]
        gauge_values: Dict[str, float] = {}
        for name, fn in gauges.items():
            try:
                gauge_values[name] = float(fn())
            except Exception:
                continue
        return {"units": units, "gauges": gauge_values}

    def apply_remote(self, origin: Any, payload: Dict[str, Any]) -> None:
        """Install a child registry's cumulative payload (latest wins)."""
        with self._lock:
            self._remote[origin] = payload

    # -- collection (sampler side) ---------------------------------------
    def collect(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
        """Merged cumulative state: (units by name, gauge values)."""
        with self._lock:
            probes = list(self._probes)
            gauges = dict(self._gauges)
            remotes = list(self._remote.values())
        units: Dict[str, Dict[str, Any]] = {}
        for p in probes:
            _fold_state(units, p.state())
        for payload in remotes:
            for st in payload.get("units", ()):
                _fold_state(units, st)
        gauge_values: Dict[str, float] = {}
        for name, fn in gauges.items():
            try:
                gauge_values[name] = float(fn())
            except Exception:
                continue
        for payload in remotes:
            gauge_values.update(payload.get("gauges", {}))
        return units, gauge_values

    def publish(self, snap: TelemetrySnapshot) -> None:
        """Install ``snap`` as latest and notify subscribers."""
        with self._lock:
            self.latest = snap
            self.history.append(snap)
            subscribers = list(self._subscribers)
        for fn in subscribers:
            try:
                fn(snap)
            except Exception:
                pass


def build_snapshot(seq: int, t_start: float, t_end: float,
                   prev_units: Dict[str, Dict[str, Any]],
                   cur_units: Dict[str, Dict[str, Any]],
                   prev_edges: Dict[str, Tuple[float, float]],
                   gauges: Dict[str, float]) -> TelemetrySnapshot:
    """Diff two cumulative states into one tumbling-window snapshot."""
    window = max(t_end - t_start, 1e-9)
    stages: Dict[str, StageWindow] = {}
    # edge name -> [cumulative put_wait, cumulative get_wait]
    edge_cum: Dict[str, List[float]] = {}
    for name, st in cur_units.items():
        p = prev_units.get(name)
        d_in = st["items_in"] - (p["items_in"] if p else 0)
        d_out = st["items_out"] - (p["items_out"] if p else 0)
        d_busy = st["busy"] - (p["busy"] if p else 0.0)
        d_token = st["token_wait"] - (p["token_wait"] if p else 0.0)
        if p:
            d_hist = [c - q for c, q in zip(st["hist"], p["hist"])]
        else:
            d_hist = list(st["hist"])
        d_n = sum(d_hist)
        replicas = max(1, st["replicas"])
        # A source consumes nothing: its rate is what it emitted.
        d_rate = d_out if st["kind"] == "source" else d_in
        stages[name] = StageWindow(
            name=name, kind=st["kind"], replicas=replicas,
            items_in=d_in, items_out=d_out,
            throughput=d_rate / window,
            busy_time=d_busy,
            utilization=max(0.0, d_busy / (window * replicas)),
            service_p50=_hist_quantile(d_hist, d_n, 0.50),
            service_p95=_hist_quantile(d_hist, d_n, 0.95),
            service_p99=_hist_quantile(d_hist, d_n, 0.99),
            token_wait=d_token,
            total_items_in=st["items_in"],
            total_items_out=st["items_out"],
            in_edge=st.get("in_edge"),
            out_edge=st.get("out_edge"),
        )
        if st.get("out_edge"):
            edge_cum.setdefault(st["out_edge"], [0.0, 0.0])[0] += st["put_wait"]
        if st.get("in_edge"):
            edge_cum.setdefault(st["in_edge"], [0.0, 0.0])[1] += st["get_wait"]
    edges: Dict[str, EdgeWindow] = {}
    for name in set(edge_cum) | set(gauges):
        cum_pw, cum_gw = edge_cum.get(name, (0.0, 0.0))
        prev_pw, prev_gw = prev_edges.get(name, (0.0, 0.0))
        d_pw = max(0.0, cum_pw - prev_pw)
        d_gw = max(0.0, cum_gw - prev_gw)
        pw_share = d_pw / window
        gw_share = d_gw / window
        edges[name] = EdgeWindow(
            name=name, occupancy=gauges.get(name, 0.0),
            put_wait=d_pw, get_wait=d_gw,
            put_wait_share=pw_share, get_wait_share=gw_share,
            attribution=attribute_edge(pw_share, gw_share),
        )
    bottleneck: Optional[str] = None
    best = 0.0
    for name, sw in sorted(stages.items()):
        if sw.kind == "sequencer" or sw.items_in <= 0:
            continue
        if sw.utilization > best:
            best = sw.utilization
            bottleneck = name
    snap = TelemetrySnapshot(seq=seq, t_start=t_start, t_end=t_end,
                             stages=stages, edges=edges, bottleneck=bottleneck)
    return snap


class Sampler:
    """Periodically snapshots a registry into tumbling windows.

    Two modes: a daemon thread ticking every ``interval`` wall seconds
    (native/process executors), or manual ticking via :meth:`maybe_tick`
    from the event loop of the simulated executor, whose
    :class:`~repro.obs.clock.SimClock` runs on virtual time a sampler
    thread could not follow.
    """

    def __init__(self, registry: MetricsRegistry, clock: Clock,
                 interval: float = 0.25) -> None:
        self.registry = registry
        self.clock = clock
        self.interval = interval
        self._seq = 0
        self._prev_t = clock.now()
        # baseline at creation so a registry reused across runs does not
        # fold earlier runs' totals into this run's first window
        units, gauges = registry.collect()
        self._prev_units = units
        self._prev_edges = self._edge_cumulative(units)
        self._tick_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def _edge_cumulative(units: Dict[str, Dict[str, Any]],
                         ) -> Dict[str, Tuple[float, float]]:
        edges: Dict[str, List[float]] = {}
        for st in units.values():
            if st.get("out_edge"):
                edges.setdefault(st["out_edge"], [0.0, 0.0])[0] += st["put_wait"]
            if st.get("in_edge"):
                edges.setdefault(st["in_edge"], [0.0, 0.0])[1] += st["get_wait"]
        return {k: (v[0], v[1]) for k, v in edges.items()}

    def tick(self) -> TelemetrySnapshot:
        """Close the current window and publish its snapshot."""
        with self._tick_lock:
            now = self.clock.now()
            units, gauges = self.registry.collect()
            self._seq += 1
            snap = build_snapshot(self._seq, self._prev_t, now,
                                  self._prev_units, units,
                                  self._prev_edges, gauges)
            self._prev_t = now
            self._prev_units = units
            self._prev_edges = self._edge_cumulative(units)
        self.registry.publish(snap)
        return snap

    def maybe_tick(self) -> Optional[TelemetrySnapshot]:
        """Manual mode: tick if at least one interval has elapsed."""
        if self.clock.now() - self._prev_t >= self.interval:
            return self.tick()
        return None

    # -- thread mode -----------------------------------------------------
    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="metrics-sampler", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def stop(self) -> None:
        """Stop the thread (if any) and take one final snapshot."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.tick()


class LiveTelemetry:
    """Bundles registry + sampler + optional HTTP endpoint for one run.

    Built by the executors from their resolved
    :class:`~repro.core.config.ExecConfig` (its ``metrics_registry``,
    or one auto-created when ``metrics_port`` is set).
    """

    def __init__(self, registry: MetricsRegistry, clock: Clock,
                 interval: float = 0.25, port: Optional[int] = None,
                 manual: bool = False) -> None:
        self.registry = registry
        self.sampler = Sampler(registry, clock, interval)
        self.interval = interval
        self._port = port
        self._manual = manual
        self._server: Optional[Any] = None

    @classmethod
    def from_config(cls, config: "ExecConfig", clock: Clock,
                    manual: bool = False) -> Optional["LiveTelemetry"]:
        """Resolve the run's telemetry, or None when metrics are off.

        A :class:`~repro.control.TuningPolicy` on the config forces
        telemetry on — the controller is a snapshot subscriber and
        cannot act without windows.  The policy's ``window`` overrides
        ``metrics_interval`` when set.
        """
        policy = config.policy
        registry = config.metrics_registry
        if registry is None and config.metrics_port is None and policy is None:
            return None
        if registry is None:
            registry = MetricsRegistry()
        interval = config.metrics_interval
        if policy is not None and policy.window is not None:
            interval = policy.window
        return cls(registry, clock, interval=interval,
                   port=config.metrics_port, manual=manual)

    def start(self) -> None:
        if self._port is not None:
            from repro.obs.promhttp import MetricsServer
            self._server = MetricsServer(self.registry, port=self._port)
            self._server.start()
            self.registry.http_port = self._server.port
        if not self._manual:
            self.sampler.start()

    def maybe_tick(self) -> None:
        """Manual-mode window check (sim executor item loop)."""
        self.sampler.maybe_tick()

    def stop(self) -> Dict[str, Any]:
        """Final tick, shut the endpoint down, return a result summary."""
        self.sampler.stop()
        http_port = self.registry.http_port
        if self._server is not None:
            self._server.stop()
            self._server = None
            self.registry.http_port = None
        snap = self.registry.latest
        summary: Dict[str, Any] = {
            "snapshots": snap.seq if snap is not None else 0,
            "final": snap.as_dict() if snap is not None else None,
        }
        if http_port is not None:
            summary["http_port"] = http_port
        if self.registry.control_events:
            summary["control"] = {
                "events": list(self.registry.control_events),
                "actions_total": dict(self.registry.control_actions_total),
            }
        return summary
