"""Harness tests: runner statistics, report rendering, small experiments."""

import json

import pytest

from repro.harness.report import render_table
from repro.harness.runner import ExperimentReport, Measurement, Row, measure


def test_measurement_stats():
    m = Measurement([1.0, 2.0, 3.0])
    assert m.mean == pytest.approx(2.0)
    assert m.std == pytest.approx(1.0)
    assert Measurement([5.0]).std == 0.0


def test_measure_collects_reps():
    vals = iter([1.0, 2.0, 3.0])
    m = measure(lambda: next(vals), reps=3)
    assert m.samples == [1.0, 2.0, 3.0]


def test_report_speedups_lower_is_better():
    rep = ExperimentReport("x", "t", "s")
    rep.add(Row("base", 10.0))
    rep.add(Row("fast", 2.0))
    rep.compute_speedups("base")
    assert rep.row("fast").speedup == pytest.approx(5.0)
    assert rep.row("base").speedup == pytest.approx(1.0)


def test_report_speedups_higher_is_better():
    rep = ExperimentReport("x", "t", "MB/s")
    rep.add(Row("base", 10.0))
    rep.add(Row("fast", 30.0))
    rep.compute_speedups("base", higher_is_better=True)
    assert rep.row("fast").speedup == pytest.approx(3.0)


def test_report_unknown_row():
    rep = ExperimentReport("x", "t", "s")
    with pytest.raises(KeyError):
        rep.row("missing")


def test_render_table_contains_rows_and_bars():
    rep = ExperimentReport("figX", "demo", "s", meta={"k": "v"})
    rep.add(Row("alpha", 1.0, paper_value=1.1, paper_speedup=2.0))
    rep.add(Row("beta", 100.0))
    rep.add(Row("gamma", 10000.0))
    text = render_table(rep)
    assert "figX" in text and "alpha" in text and "k: v" in text
    assert "log scale" in text  # spans > 2 decades
    text2 = render_table(rep, bars=False)
    assert "log scale" not in text2


def test_report_as_dict_json_serializable():
    rep = ExperimentReport("figX", "demo", "s")
    rep.add(Row("a", 1.0, extra={"n": 3}))
    blob = json.dumps(rep.as_dict())
    assert "figX" in blob


def test_fig1_small_scale_runs_and_orders():
    from repro.harness.experiments import fig1

    rep = fig1.run(scale="small", apis=("cuda",), cpu_workers=4)
    labels = [r.label for r in rep.rows]
    assert labels[0] == "sequential"
    t = {r.label: r.value for r in rep.rows}
    assert t["cuda batch 32 lines"] < t["cuda 1 thread/pixel-row (1D)"]
    assert all(r.value > 0 for r in rep.rows)
    assert rep.rows[0].speedup == pytest.approx(1.0)


def test_fig1_rejects_unknown_scale():
    from repro.harness.experiments import fig1

    with pytest.raises(ValueError):
        fig1.workload("enormous")


def test_fig5_single_dataset_small():
    from repro.harness.experiments import fig5

    rep = fig5.run(scale="small", datasets=("silesia",), replicas=4,
                   verify=True)
    by_label = {r.label: r for r in rep.rows}
    cpu = by_label["silesia: SPar CPU (4 replicas)"]
    best = by_label["silesia: spar cuda batch"]
    nobatch = by_label["silesia: single cuda no-batch"]
    batch = by_label["silesia: single cuda batch"]
    assert best.value > cpu.value
    assert batch.value > nobatch.value
    # MB / virtual makespan, pinned bit-exact: how the LZSS parse is
    # computed must never move its lzss_matchop / lzss_emit_byte charges
    assert cpu.value == 10.037532527222881
    assert best.value == 68.66526450287384
    assert all(r.extra.get("verified") in (True, None) for r in rep.rows)


def test_cli_main_runs_fig1_json(capsys):
    from repro.harness.__main__ import main

    rc = main(["fig1", "--scale", "small", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["experiment"] == "fig1"
    assert len(data["rows"]) > 5


def test_parse_policy_field_coercion():
    from repro.harness.__main__ import _parse_policy

    pol = _parse_policy("max_replicas=8,window=0.5,scale_replicas=true,"
                        "tune_blocking=no")
    assert pol.max_replicas == 8
    assert pol.window == 0.5
    assert pol.scale_replicas is True
    assert pol.tune_blocking is False


def test_parse_policy_rejects_bad_input():
    import argparse

    from repro.harness.__main__ import _parse_policy

    with pytest.raises(argparse.ArgumentTypeError, match="key=value"):
        _parse_policy("max_replicas")
    with pytest.raises(argparse.ArgumentTypeError, match="bad --policy"):
        _parse_policy("no_such_knob=3")
    with pytest.raises(argparse.ArgumentTypeError, match="bad --policy"):
        _parse_policy("min_replicas=0")


def test_cli_policy_flag_installs_ambient_policy(capsys):
    from repro.harness.__main__ import main

    rc = main(["fig1", "--scale", "small", "--json",
               "--policy", "max_replicas=4,window=0.5"])
    assert rc == 0
    json.loads(capsys.readouterr().out)
    # the context manager must not leak the policy past main()
    from repro.core.config import ExecConfig
    assert ExecConfig().resolved().policy is None


def test_live_ticker_annotates_controller_actions(capsys):
    from repro.harness.__main__ import _make_live_ticker
    from repro.obs import MetricsRegistry
    from repro.obs.snapshot import TelemetrySnapshot

    reg = MetricsRegistry()
    ticker = _make_live_ticker(reg)
    snap = TelemetrySnapshot(seq=1, t_start=0.0, t_end=0.5,
                             stages={}, edges={}, bottleneck=None)
    ticker(snap)
    assert "[ctl" not in capsys.readouterr().err
    reg.record_control({"seq": 1, "t": 0.5, "action": "scale_up",
                        "target": "work", "value": 1, "applied": True,
                        "replicas": 3})
    reg.record_control({"seq": 1, "t": 0.5, "action": "scale_up",
                        "target": "work", "value": 1, "applied": False})
    ticker(snap)
    err = capsys.readouterr().err
    assert "[ctl scale_up work -> 3]" in err
    assert "[ctl scale_up work (refused)]" in err
    ticker(snap)  # already-printed events are not repeated
    assert "[ctl" not in capsys.readouterr().err
