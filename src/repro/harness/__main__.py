"""CLI: ``python -m repro.harness {fig1|fig4|fig5|ablations|all}``."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.config import use_config
from repro.core.opt import collect_reports
from repro.harness.experiments import REGISTRY
from repro.harness.report import render_table
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    write_chrome_trace,
    write_trace_json,
)


def _make_live_ticker(registry: MetricsRegistry):
    """Ticker for ``--live``: one stderr line per telemetry snapshot,
    annotated with any autonomic-controller actions since the last one."""
    printed = 0

    def line(snap) -> None:
        nonlocal printed
        rates = "  ".join(
            f"{name}={sw.throughput:,.0f}/s"
            for name, sw in sorted(snap.stages.items())
            if sw.kind != "sequencer"
        )
        tail = f"  bottleneck={snap.bottleneck}" if snap.bottleneck else ""
        events = list(registry.control_events)
        fresh, printed = events[printed:], len(events)
        notes = "".join(
            f"  [ctl {e['action']} {e['target'] or 'pipeline'}"
            f"{'' if e['applied'] else ' (refused)'}"
            + (f" -> {e['replicas']}" if "replicas" in e else "") + "]"
            for e in fresh
        )
        print(f"[live #{snap.seq} {snap.window:.2f}s] {rates}{tail}{notes}",
              file=sys.stderr, flush=True)

    return line


_POLICY_FLAGS = {"true": True, "false": False, "yes": True, "no": False}


def _parse_policy(text: str):
    """``--policy`` value: comma-separated TuningPolicy fields, k=v."""
    from repro.control import TuningPolicy

    kwargs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"policy field {part!r} is not of the form key=value")
        value = value.strip()
        if value.lower() in _POLICY_FLAGS:
            parsed = _POLICY_FLAGS[value.lower()]
        else:
            try:
                parsed = int(value)
            except ValueError:
                try:
                    parsed = float(value)
                except ValueError:
                    parsed = value  # TuningPolicy rejects what it can't use
        kwargs[key.strip()] = parsed
    try:
        return TuningPolicy(**kwargs)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad --policy: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's figures on the virtual testbed.",
    )
    parser.add_argument("experiment", choices=[*REGISTRY, "all"],
                        help="which figure to regenerate")
    parser.add_argument("--scale", default=None,
                        choices=["small", "paper"],
                        help="workload scale (default: paper for fig1/fig4/"
                             "ablations, small for fig5)")
    parser.add_argument("--json", dest="as_json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--no-bars", action="store_true",
                        help="suppress the ASCII bar charts")
    parser.add_argument("--trace", action="store_true",
                        help="record an execution trace per experiment and "
                             "write <name>.trace.json (Chrome trace_event, "
                             "load in chrome://tracing or Perfetto) plus "
                             "<name>.obs.json (metrics summary)")
    parser.add_argument("--trace-dir", default=".", metavar="DIR",
                        help="directory for trace artifacts (default: .)")
    parser.add_argument("--live", action="store_true",
                        help="print a live per-stage throughput / bottleneck "
                             "ticker to stderr while experiments run "
                             "(installs an ambient metrics registry); "
                             "controller actions are annotated inline when "
                             "--policy is active")
    parser.add_argument("--policy", type=_parse_policy, default=None,
                        metavar="K=V[,K=V...]",
                        help="run the experiments under an autonomic "
                             "TuningPolicy, e.g. "
                             "--policy max_replicas=8,window=0.5 "
                             "(installs it ambiently; forces telemetry on)")
    parser.add_argument("--opt", dest="opt", action="store_true",
                        default=True,
                        help="run the graph optimizer — stage fusion and "
                             "batch vectorization — when lowering plans "
                             "(the default)")
    parser.add_argument("--no-opt", dest="opt", action="store_false",
                        help="disable the graph optimizer, for A/B runs "
                             "against the unoptimized lowering")
    parser.add_argument("--columnar", dest="columnar", action="store_true",
                        default=True,
                        help="allow the columnar block transport on edges "
                             "whose endpoints are block-capable "
                             "(the default)")
    parser.add_argument("--no-columnar", dest="columnar",
                        action="store_false",
                        help="force every edge onto the scalar object path, "
                             "for A/B runs against the columnar transport")
    args = parser.parse_args(argv)

    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    default_scale = {"fig1": "paper", "fig4": "paper", "fig5": "small",
                     "ablations": "paper"}
    trace_dir = pathlib.Path(args.trace_dir)

    for name in names:
        scale = args.scale or default_scale[name]
        recorder = registry = None
        opt_reports: list = []
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            recorder = SpanRecorder()
        if args.live:
            registry = MetricsRegistry()
            registry.subscribe(_make_live_ticker(registry))
        with (use_config(optimize=args.opt, columnar=args.columnar,
                         tracer=recorder, metrics_registry=registry,
                         policy=args.policy),
              collect_reports(opt_reports)):
            report = REGISTRY[name](scale=scale)
        report.meta["opt"] = _opt_summary(args.opt, opt_reports)
        if recorder is not None:
            chrome_path = trace_dir / f"{name}.trace.json"
            summary_path = trace_dir / f"{name}.obs.json"
            write_chrome_trace(recorder, chrome_path)
            write_trace_json(recorder, summary_path)
            report.meta["trace"] = str(chrome_path)
            report.meta["trace_summary"] = str(summary_path)
        if args.as_json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            print(render_table(report, bars=not args.no_bars))
            print(_opt_line(report.meta["opt"]))
            print()
    return 0


def _opt_summary(enabled: bool, reports: list) -> dict:
    """Aggregate the per-plan OptReports of one experiment."""
    return {
        "enabled": enabled,
        "plans": len(reports),
        "stages_fused": sum(r.stages_fused for r in reports),
        "channels_deleted": sum(r.channels_deleted for r in reports),
        "kernels_compiled": sum(r.kernels_compiled for r in reports),
        "vectorized": sorted({n for r in reports for n in r.vectorized}),
        "compiled": sorted({n for r in reports
                            for n in r.compiled_stages()}),
        "fallbacks": sum(1 for r in reports
                         for d in r.bodycomp.values()
                         if d.startswith("fallback:")),
        "columnar_edges": sum(len(r.columnar_edges()) for r in reports),
        # named gate/fallback reasons only — plain "scalar" just means the
        # endpoints were not block-capable, which is not a fallback
        "columnar_fallbacks": sorted({d for r in reports
                                      for d in r.columnar.values()
                                      if d not in ("columnar", "scalar")}),
    }


def _opt_line(summary: dict) -> str:
    if not summary["enabled"]:
        return "[opt] disabled (--no-opt)"
    vec = (f" vectorized={','.join(summary['vectorized'])}"
           if summary["vectorized"] else "")
    comp = (f" compiled={','.join(summary['compiled'])}"
            if summary["compiled"] else "")
    fall = (f" fallbacks={summary['fallbacks']}"
            if summary["fallbacks"] else "")
    colf = (f" columnar_fallbacks={','.join(summary['columnar_fallbacks'])}"
            if summary["columnar_fallbacks"] else "")
    return (f"[opt] plans={summary['plans']} "
            f"stages_fused={summary['stages_fused']} "
            f"channels_deleted={summary['channels_deleted']} "
            f"kernels_compiled={summary['kernels_compiled']} "
            f"columnar_edges={summary['columnar_edges']}"
            f"{comp}{fall}{colf}{vec}")


if __name__ == "__main__":
    sys.exit(main())
