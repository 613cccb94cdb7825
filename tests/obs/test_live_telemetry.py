"""Live telemetry layer: probes, sampler windows, attribution, endpoint."""

import threading
import time
import urllib.request

import pytest

from repro.core.config import ExecConfig, use_config
from repro.core.graph import StageSpec, linear_graph
from repro.core.run import execute
from repro.core.stage import IterSource, Stage
from repro.obs import (
    BALANCED,
    CONSUMER_LIMITED,
    PRODUCER_LIMITED,
    MetricsRegistry,
    TelemetrySnapshot,
    parse_exposition,
    render_exposition,
)
from repro.obs.metrics import (
    N_BUCKETS,
    Sampler,
    UnitProbe,
    _hist_quantile,
    bucket_index,
    bucket_upper,
    build_snapshot,
)
from repro.obs.snapshot import attribute_edge


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


class _Work(Stage):
    def process(self, item, ctx):
        return item * 2


# -- buckets and quantiles -------------------------------------------------

def test_bucket_index_octaves():
    assert bucket_index(0.0) == 0
    assert bucket_index(-1.0) == 0
    # bucket i covers [2^(i-33), 2^(i-32)): the upper bound is exclusive
    for s in (1e-6, 1e-3, 0.5, 1.0, 3.0):
        i = bucket_index(s)
        assert bucket_upper(i - 1) <= s < bucket_upper(i)
    assert bucket_index(1e12) == N_BUCKETS - 1


def test_hist_quantile():
    hist = [0] * N_BUCKETS
    assert _hist_quantile(hist, 0, 0.5) == 0.0
    hist[10] = 90
    hist[20] = 10
    assert _hist_quantile(hist, 100, 0.50) == bucket_upper(10)
    assert _hist_quantile(hist, 100, 0.90) == bucket_upper(10)
    assert _hist_quantile(hist, 100, 0.95) == bucket_upper(20)
    assert _hist_quantile(hist, 100, 1.0) == bucket_upper(20)


# -- probes ----------------------------------------------------------------

def test_probe_record_and_counts():
    p = UnitProbe("stage", "s", replicas=2)
    p.record(0.5, 3)
    p.record(0.25, 0)
    assert p.items_in == 2
    assert p.items_out == 3
    assert p.busy == 0.75
    assert sum(p.hist) == 2
    p.emitted(5)
    assert p.items_out == 8
    p.passed(2)
    assert (p.items_in, p.items_out) == (4, 10)


def test_probe_wait_sampling_cadence():
    # Gaps are LCG-randomized (a fixed period phase-locks against
    # round-robin fan-out and can systematically miss the one ring that
    # blocks), so assert the mean rate and the bounds, not exact ticks.
    p = UnitProbe("stage", "s", wait_sample=4)
    n = 4000
    hits = [p.tick_get() for _ in range(n)]
    assert hits.count(True) == pytest.approx(n / 4, rel=0.15)
    gaps = []
    run = 0
    for h in hits:
        run += 1
        if h:
            gaps.append(run)
            run = 0
    assert min(gaps) >= 1 and max(gaps) <= 7  # uniform on [1, 2N-1]
    assert len(set(gaps)) > 1  # actually varies
    p.sampled_get_wait(0.01)
    assert p.get_wait == pytest.approx(0.04)  # scaled back up
    p.get_waited(0.01)  # raw adder does not scale
    assert p.get_wait == pytest.approx(0.05)


def test_probe_sampling_is_deterministic_per_name():
    a = UnitProbe("stage", "s", wait_sample=4)
    b = UnitProbe("stage", "s", wait_sample=4)
    assert [a.tick_put() for _ in range(64)] == \
        [b.tick_put() for _ in range(64)]
    # different units draw different sequences
    c = UnitProbe("stage", "other", wait_sample=4)
    assert [a.tick_put() for _ in range(64)] != \
        [c.tick_put() for _ in range(64)]


def test_probe_sampling_decorrelates_from_round_robin():
    """The regression that motivated randomized gaps: with k consumers
    round-robin and a fixed 1-in-N tick with gcd(N, k) > 1, sampling
    only ever lands on a subset of rings.  Randomized gaps must hit
    every ring class."""
    for k in (2, 4):
        p = UnitProbe("source", "src", wait_sample=4)
        sampled_rings = {i % k for i in range(2000) if p.tick_put()}
        assert sampled_rings == set(range(k))


def test_registry_folds_replica_shards():
    reg = MetricsRegistry()
    a = reg.unit_probe("stage", "work", replicas=2, in_edge="e")
    b = reg.unit_probe("stage", "work", replicas=2, in_edge="e")
    a.record(0.1, 1)
    b.record(0.3, 1)
    units, _ = reg.collect()
    assert set(units) == {"work"}
    assert units["work"]["items_in"] == 2
    assert units["work"]["busy"] == pytest.approx(0.4)
    assert units["work"]["in_edge"] == "e"


# -- attribution -----------------------------------------------------------

def test_attribute_edge_verdicts():
    assert attribute_edge(0.0, 0.0) == BALANCED
    assert attribute_edge(0.01, 0.04) == BALANCED  # both under min share
    # producer blocked putting -> the consumer is the limit
    assert attribute_edge(0.6, 0.1) == CONSUMER_LIMITED
    # consumer starved getting -> the producer is the limit
    assert attribute_edge(0.1, 0.6) == PRODUCER_LIMITED
    assert attribute_edge(0.4, 0.5) == BALANCED  # under dominance ratio


def test_build_snapshot_windows_and_bottleneck():
    prev = {
        "hot": {"kind": "stage", "name": "hot", "replicas": 1,
                "in_edge": "q", "out_edge": None, "items_in": 10,
                "items_out": 10, "busy": 0.5, "get_wait": 0.0,
                "put_wait": 0.0, "token_wait": 0.0,
                "hist": (0,) * N_BUCKETS},
    }
    cur = {
        "hot": dict(prev["hot"], items_in=110, items_out=110, busy=1.4),
        "seq": {"kind": "sequencer", "name": "seq", "replicas": 1,
                "in_edge": None, "out_edge": None, "items_in": 100,
                "items_out": 100, "busy": 0.0, "get_wait": 0.0,
                "put_wait": 0.0, "token_wait": 0.0,
                "hist": (0,) * N_BUCKETS},
    }
    snap = build_snapshot(1, 10.0, 11.0, prev, cur, {}, {"q": 3.0})
    hot = snap.stages["hot"]
    assert hot.items_in == 100
    assert hot.throughput == pytest.approx(100.0)
    assert hot.utilization == pytest.approx(0.9)
    assert hot.total_items_in == 110
    assert snap.edges["q"].occupancy == 3.0
    # the sequencer moved items too, but is never the bottleneck
    assert snap.bottleneck == "hot"
    assert snap.window == pytest.approx(1.0)


def test_build_snapshot_source_rate_uses_emitted():
    cur = {"src": {"kind": "source", "name": "src", "replicas": 1,
                   "in_edge": None, "out_edge": "q", "items_in": 0,
                   "items_out": 50, "busy": 0.0, "get_wait": 0.0,
                   "put_wait": 0.0, "token_wait": 0.0,
                   "hist": (0,) * N_BUCKETS}}
    snap = build_snapshot(1, 0.0, 1.0, {}, cur, {}, {})
    assert snap.stages["src"].throughput == pytest.approx(50.0)


# -- sampler ---------------------------------------------------------------

def test_sampler_tumbling_windows():
    reg = MetricsRegistry()
    clock = FakeClock()
    p = reg.unit_probe("stage", "s", in_edge="q")
    sampler = Sampler(reg, clock, interval=1.0)
    for _ in range(30):
        p.record(0.01, 1)
    clock.t = 1.0
    s1 = sampler.tick()
    assert s1.stages["s"].items_in == 30
    for _ in range(10):
        p.record(0.01, 1)
    clock.t = 2.0
    s2 = sampler.tick()
    assert s2.stages["s"].items_in == 10  # only the new window
    assert s2.stages["s"].total_items_in == 40
    assert s2.seq == 2


def test_sampler_baseline_ignores_prior_runs():
    reg = MetricsRegistry()
    clock = FakeClock()
    p = reg.unit_probe("stage", "s")
    p.record(0.01, 1)  # "previous run" traffic
    sampler = Sampler(reg, clock, interval=1.0)
    clock.t = 1.0
    snap = sampler.tick()
    assert snap.stages["s"].items_in == 0
    assert snap.stages["s"].total_items_in == 1


def test_sampler_maybe_tick_threshold():
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = Sampler(reg, clock, interval=0.5)
    clock.t = 0.4
    assert sampler.maybe_tick() is None
    clock.t = 0.5
    assert isinstance(sampler.maybe_tick(), TelemetrySnapshot)
    assert sampler.maybe_tick() is None  # window just reset


def test_apply_remote_merges_child_payload():
    reg = MetricsRegistry()
    local = reg.unit_probe("stage", "work", replicas=2)
    local.record(0.1, 1)
    child = MetricsRegistry()
    remote = child.unit_probe("stage", "work", replicas=2)
    remote.record(0.2, 1)
    remote.record(0.2, 1)
    child.edge_gauge("q", lambda: 7.0)
    reg.apply_remote("g0", child.export_state())
    units, gauges = reg.collect()
    assert units["work"]["items_in"] == 3
    assert units["work"]["busy"] == pytest.approx(0.5)
    assert gauges["q"] == 7.0
    # cumulative payloads: re-applying a newer state replaces, not adds
    remote.record(0.2, 1)
    reg.apply_remote("g0", child.export_state())
    units, _ = reg.collect()
    assert units["work"]["items_in"] == 4


def test_subscribers_notified_and_exceptions_swallowed():
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = Sampler(reg, clock, interval=1.0)
    seen = []

    def bad(snap):
        raise RuntimeError("boom")

    reg.subscribe(bad)
    reg.subscribe(seen.append)
    clock.t = 1.0
    sampler.tick()
    assert len(seen) == 1
    reg.unsubscribe(seen.append)
    clock.t = 2.0
    sampler.tick()
    assert len(seen) == 1


def test_use_registry_ambient():
    reg = MetricsRegistry()
    assert ExecConfig().resolved().metrics_registry is None
    with use_config(metrics_registry=reg):
        assert ExecConfig().resolved().metrics_registry is reg
        result = execute(_graph(n=50), ExecConfig(metrics_interval=0.05))
        assert "telemetry" in result.details
    assert ExecConfig().resolved().metrics_registry is None


# -- executor integration --------------------------------------------------

def _graph(n=400, replicas=2):
    return linear_graph(IterSource(range(n)),
                        StageSpec(_Work, "work", replicas=replicas),
                        name="tele")


def _run_with_registry(mode, workers="thread", n=400, **cfg):
    reg = MetricsRegistry()
    res = execute(_graph(n), ExecConfig(mode=mode, workers=workers,
                                        metrics_registry=reg,
                                        metrics_interval=0.05, **cfg))
    return reg, res


@pytest.mark.parametrize("workers", ["thread", "process"])
def test_native_run_totals_match(workers):
    reg, res = _run_with_registry("native", workers=workers)
    tele = res.details["telemetry"]
    assert tele["snapshots"] >= 1
    final = tele["final"]
    assert final["stages"]["work"]["total_items_in"] == 400
    assert final["stages"]["work"]["total_items_out"] == 400
    assert final["stages"]["source"]["total_items_out"] == 400
    assert res.outputs == [i * 2 for i in range(400)]


def test_snapshot_structure_backend_invariant():
    finals = {}
    for workers in ("thread", "process"):
        _, res = _run_with_registry("native", workers=workers)
        finals[workers] = res.details["telemetry"]["final"]
    t, p = finals["thread"], finals["process"]
    assert sorted(t["stages"]) == sorted(p["stages"])
    assert sorted(t["edges"]) == sorted(p["edges"])
    for name in t["stages"]:
        assert sorted(t["stages"][name]) == sorted(p["stages"][name])
        assert (t["stages"][name]["total_items_in"]
                == p["stages"][name]["total_items_in"])


def test_sim_run_virtual_windows():
    class Costed(Stage):
        def process(self, item, ctx):
            ctx.charge("generic_op", 5e5)
            return item

    g = linear_graph(IterSource(range(300)), StageSpec(Costed, "costed"),
                     name="simtele")
    reg = MetricsRegistry()
    res = execute(g, ExecConfig(mode="simulated", metrics_registry=reg,
                                metrics_interval=0.01))
    tele = res.details["telemetry"]
    # virtual makespan >> interval: the manual ticks cut several windows
    assert res.makespan > 0.05
    assert tele["snapshots"] >= 3
    assert tele["final"]["stages"]["costed"]["total_items_in"] == 300
    # windows are virtual-time: t_end of the final snapshot tracks makespan
    assert tele["final"]["t_end"] <= res.makespan + 1e-9


def test_run_result_without_metrics_has_no_telemetry():
    res = execute(_graph(50), ExecConfig())
    assert "telemetry" not in res.details


# -- exposition ------------------------------------------------------------

def test_render_parse_roundtrip():
    reg = MetricsRegistry()
    clock = FakeClock()
    p = reg.unit_probe("stage", "work", replicas=2, in_edge="q")
    sampler = Sampler(reg, clock, interval=1.0)
    for _ in range(20):
        p.record(0.003, 1)
    reg.edge_gauge("q", lambda: 2.0)
    clock.t = 1.0
    sampler.tick()
    text = render_exposition(reg)
    families = parse_exposition(text)
    assert "repro_stage_throughput_items_per_second" in families
    assert "repro_edge_occupancy" in families
    assert 'repro_stage_items_in_total{stage="work",kind="stage"} 20' in text
    assert 'repro_edge_occupancy{edge="q"} 2.0' in text


def _opt_double(item):
    return item * 2 + 1


def test_exposition_includes_opt_families():
    """The optimizer cache families are live even with no snapshot, and
    a body-compiled run moves the compiled-stages gauge."""
    from repro.core.stage import FunctionStage

    def sample(name):
        fams = parse_exposition(render_exposition(MetricsRegistry()))
        for fam in ("repro_opt_kernel_cache_hits",
                    "repro_opt_kernel_cache_misses",
                    "repro_opt_compiled_stages"):
            assert fam in fams, fam
        return fams[name][0][1]

    before = sample("repro_opt_compiled_stages")
    execute(linear_graph(IterSource(range(8)),
                         StageSpec(FunctionStage(_opt_double), "d",
                                   vectorized="auto")),
            ExecConfig(mode="native", batch_size=4, optimize=True))
    assert sample("repro_opt_compiled_stages") == before + 1


def test_parse_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("this is not prometheus\n")
    with pytest.raises(ValueError):
        parse_exposition('repro_x{bad-label="1"} 1.0\n')
    with pytest.raises(ValueError):
        parse_exposition("repro_x notafloat\n")


def test_metrics_endpoint_serves_mid_run():
    """The acceptance check: poll /metrics while items are flowing."""

    class Slowish(Stage):
        def process(self, item, ctx):
            time.sleep(0.001)
            return item

    g = linear_graph(IterSource(range(600)), StageSpec(Slowish, "slowish"),
                     name="polled")
    reg = MetricsRegistry()
    cfg = ExecConfig(metrics_registry=reg, metrics_port=0,
                     metrics_interval=0.05)
    done = threading.Event()
    result = {}

    def drive():
        result["res"] = execute(g, cfg)
        done.set()

    t = threading.Thread(target=drive)
    t.start()
    try:
        deadline = time.time() + 10
        while reg.http_port is None and time.time() < deadline:
            time.sleep(0.005)
        assert reg.http_port is not None, "endpoint never came up"
        url = f"http://127.0.0.1:{reg.http_port}/metrics"
        text = ""
        while time.time() < deadline and not done.is_set():
            with urllib.request.urlopen(url, timeout=2) as resp:
                text = resp.read().decode()
            if 'repro_stage_throughput_items_per_second{stage="slowish"}' in text:
                break
            time.sleep(0.05)
        assert not done.is_set(), "run finished before a mid-run scrape landed"
        parse_exposition(text)
        assert 'repro_stage_throughput_items_per_second{stage="slowish"}' in text
        assert "repro_edge_occupancy{" in text
        assert "repro_bottleneck{" in text
    finally:
        t.join(timeout=30)
    assert done.is_set()
    assert result["res"].outputs == list(range(600))
    # endpoint is torn down with the run
    assert reg.http_port is None
