"""Experiment execution helpers: repetitions, statistics, reports."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import use_config
from repro.obs.tracer import Tracer


@dataclass
class Measurement:
    """Mean +/- stddev over repetitions (paper: 10 samples Mandelbrot,
    5 Dedup; simulated runs are deterministic so their stddev is 0)."""

    samples: List[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def std(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0


def measure(fn: Callable[[], float], reps: int = 1,
            tracer: Optional[Tracer] = None) -> Measurement:
    """Collect ``reps`` samples of ``fn`` (fn returns the metric).

    With a ``tracer``, every repetition runs under it (one trace run per
    rep), so a traced experiment keeps rep boundaries in the timeline.
    """
    with use_config(tracer=tracer):
        return Measurement([fn() for _ in range(reps)])


@dataclass
class Row:
    """One bar of a figure."""

    label: str
    value: float                       # seconds or MB/s, per report unit
    std: float = 0.0
    speedup: Optional[float] = None    # vs the report's baseline
    paper_value: Optional[float] = None
    paper_speedup: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """All rows of one figure plus metadata."""

    experiment: str                    # e.g. "fig1"
    title: str
    unit: str                          # "s" or "MB/s"
    rows: List[Row] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    def add(self, row: Row) -> Row:
        self.rows.append(row)
        return row

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def compute_speedups(self, baseline_label: str,
                         higher_is_better: bool = False) -> None:
        base = self.row(baseline_label).value
        for r in self.rows:
            if higher_is_better:
                r.speedup = r.value / base if base else math.nan
            else:
                r.speedup = base / r.value if r.value else math.nan

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "unit": self.unit,
            "meta": self.meta,
            "rows": [
                {"label": r.label, "value": r.value, "std": r.std,
                 "speedup": r.speedup, "paper_value": r.paper_value,
                 "paper_speedup": r.paper_speedup, **r.extra}
                for r in self.rows
            ],
        }
