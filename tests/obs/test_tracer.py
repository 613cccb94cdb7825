"""Unit tests for repro.obs: tracer, histogram, Chrome export."""

import json

import pytest

from repro.core.config import use_config
from repro.obs import (
    CAT_QUEUE,
    CAT_STAGE,
    NOOP_TRACER,
    LatencyHistogram,
    SimClock,
    SpanRecorder,
    Tracer,
    WallClock,
    chrome_trace,
    current_tracer,
    trace_summary,
    write_chrome_trace,
    write_trace_json,
)


# -- clocks ----------------------------------------------------------------

def test_wall_clock_monotonic_from_zero():
    c = WallClock()
    t0 = c.now()
    t1 = c.now()
    assert 0.0 <= t0 <= t1


def test_sim_clock_reads_callable():
    t = [0.0]
    c = SimClock(lambda: t[0])
    assert c.now() == 0.0
    t[0] = 42.5
    assert c.now() == 42.5


# -- the no-op tracer ------------------------------------------------------

def test_noop_tracer_is_default_and_disabled():
    assert current_tracer() is NOOP_TRACER
    assert not NOOP_TRACER.enabled


def test_noop_tracer_records_nothing():
    tr = Tracer()
    tr.begin_run("p", "native")
    tr.span(CAT_STAGE, "s[0]", "s", 0.0, 1.0)
    tr.counter("q:x", "occupancy", 0.5, 3)
    tr.instant("s[0]", "mark")
    tr.end_run(1.0)
    assert tr.events == ()
    assert tr.now() == 0.0


def test_use_tracer_scoping():
    rec = SpanRecorder()
    with use_config(tracer=rec):
        assert current_tracer() is rec
        with use_config(tracer=NOOP_TRACER):
            assert current_tracer() is NOOP_TRACER
        assert current_tracer() is rec
    assert current_tracer() is NOOP_TRACER


# -- SpanRecorder ----------------------------------------------------------

def test_recorder_collects_all_event_kinds():
    rec = SpanRecorder()
    run = rec.begin_run("pipe", "simulated", SimClock(lambda: 7.0))
    assert run == 1
    rec.span(CAT_STAGE, "s[0]", "s", 1.0, 3.0, args={"seq": 0})
    rec.span(CAT_QUEUE, "q:s", "put_wait", 0.5, 1.0)
    rec.counter("q:s", "occupancy", 1.0, 2)
    rec.instant("s[0]", "mark")          # stamps at the clock: 7.0
    rec.end_run(3.0)

    assert len(rec.spans) == 2
    assert len(rec.counters) == 1
    assert len(rec.instants) == 1
    assert rec.instants[0].t == 7.0
    assert rec.track_types() == {CAT_STAGE, CAT_QUEUE}
    assert [s.name for s in rec.spans_by_cat(CAT_QUEUE)] == ["put_wait"]
    assert rec.runs[0].makespan == 3.0
    assert len(rec.events) == 4


def test_recorder_feeds_stage_histograms_only():
    rec = SpanRecorder()
    rec.begin_run("p", "native")
    rec.span(CAT_STAGE, "f[0]", "f", 0.0, 2.0)
    rec.span(CAT_STAGE, "f[1]", "f", 0.0, 4.0)
    rec.span(CAT_QUEUE, "q:f", "get_wait", 0.0, 9.0)  # must not be counted
    h = rec.stage_histogram("f")
    assert h.n == 2
    assert h.min == 2.0 and h.max == 4.0
    assert h.mean == pytest.approx(3.0)


def test_multiple_runs_get_distinct_indices():
    rec = SpanRecorder()
    rec.begin_run("a", "native")
    rec.span(CAT_STAGE, "s[0]", "s", 0.0, 1.0)
    rec.end_run(1.0)
    rec.begin_run("b", "simulated")
    rec.span(CAT_STAGE, "s[0]", "s", 0.0, 1.0)
    rec.end_run(1.0)
    assert [r.index for r in rec.runs] == [1, 2]
    assert {s.run for s in rec.spans} == {1, 2}


# -- histogram -------------------------------------------------------------

def test_histogram_empty():
    h = LatencyHistogram()
    assert h.n == 0
    assert h.mean == 0.0
    # empty histogram returns 0.0 for any valid quantile, never NaN/raise
    assert h.percentile(0.0) == 0.0
    assert h.percentile(0.5) == 0.0
    assert h.percentile(1.0) == 0.0
    d = h.as_dict()
    assert d["count"] == 0


def test_histogram_quantile_domain():
    h = LatencyHistogram()
    h.add(0.5)
    for bad in (-0.1, 1.1, 50, 99, -1e9):
        with pytest.raises(ValueError):
            h.percentile(bad)
    # empty histograms validate q too
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(2.0)


def test_histogram_stats_and_percentiles():
    h = LatencyHistogram()
    for v in [0.001, 0.002, 0.004, 0.008, 0.1]:
        h.add(v)
    assert h.n == 5
    assert h.min == 0.001 and h.max == 0.1
    assert h.mean == pytest.approx(0.023)
    assert h.percentile(0.0) == 0.001
    assert h.percentile(1.0) == 0.1
    # p50 lands in a bucket whose upper bound covers the median sample
    assert h.percentile(0.5) >= 0.002
    assert h.percentile(0.5) <= 0.1


def test_histogram_merge_then_percentile():
    shards = []
    for base in (0.001, 0.010, 0.100):
        h = LatencyHistogram()
        for i in range(10):
            h.add(base * (1 + i / 10))
        shards.append(h)
    merged = LatencyHistogram()
    for h in shards:
        merged.merge(h)
    assert merged.n == 30
    assert merged.percentile(1.0) == pytest.approx(0.19)
    # the top decade holds the last 10 of 30 samples, so p99 must sit there
    assert merged.percentile(0.99) >= 0.1
    # median falls inside the middle decade's bucket coverage
    assert 0.010 <= merged.percentile(0.5) <= 0.064
    # merging an empty histogram changes nothing
    before = merged.as_dict()
    merged.merge(LatencyHistogram())
    assert merged.as_dict() == before


def test_histogram_merge():
    a, b = LatencyHistogram(), LatencyHistogram()
    a.add(1.0)
    b.add(2.0)
    b.add(0.5)
    a.merge(b)
    assert a.n == 3
    assert a.min == 0.5 and a.max == 2.0
    assert a.mean == pytest.approx(3.5 / 3)
    a.merge(LatencyHistogram())  # merging empty is a no-op
    assert a.n == 3


# -- Chrome export ---------------------------------------------------------

def _recorded():
    rec = SpanRecorder()
    rec.begin_run("pipe", "simulated", SimClock(lambda: 0.0))
    rec.span(CAT_STAGE, "s[0]", "s", 0.001, 0.003, args={"seq": 0})
    rec.counter("q:s", "occupancy", 0.002, 1)
    rec.instant("s[0]", "mark", t=0.0025)
    rec.end_run(0.003)
    return rec


def test_chrome_trace_structure():
    doc = chrome_trace(_recorded())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    evs = doc["traceEvents"]
    phases = {e["ph"] for e in evs}
    assert phases == {"M", "X", "C", "i"}
    (x,) = [e for e in evs if e["ph"] == "X"]
    assert x["ts"] == pytest.approx(1000.0)   # seconds -> microseconds
    assert x["dur"] == pytest.approx(2000.0)
    assert x["args"] == {"seq": 0}
    names = [e for e in evs if e["ph"] == "M"]
    assert {m["name"] for m in names} == {"process_name", "thread_name"}
    proc = [m for m in names if m["name"] == "process_name"][0]
    assert proc["args"]["name"] == "pipe [simulated]"


def test_trace_files_round_trip(tmp_path):
    rec = _recorded()
    p1 = tmp_path / "t.trace.json"
    p2 = tmp_path / "t.obs.json"
    write_chrome_trace(rec, p1)
    write_trace_json(rec, p2)
    doc = json.loads(p1.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    summary = json.loads(p2.read_text())
    assert summary["n_spans"] == 1
    assert summary["track_types"] == ["stage"]
    assert summary["runs"][0]["mode"] == "simulated"
    assert "s//s[0]" in summary["histograms"]


def test_trace_summary_histograms():
    s = trace_summary(_recorded())
    h = s["histograms"]["s//s[0]"]
    assert h["count"] == 1
    assert h["min"] == pytest.approx(0.002)
