"""Graph optimizer: deterministic passes between the IR and the plan.

``optimize`` rewrites a *flattened* element list (``StageSpec | Farm``)
before :func:`repro.core.plan.build_plan` lowers it.  Pass ordering is a
contract: **fusion first, then vectorization** — fusion sees the
original per-stage hints and never consumes a vectorized stage, and
vectorization sees final unit boundaries.  Passes are pure functions of
the element list plus spec hints, so the same graph always optimizes the
same way.

Enablement is ``ExecConfig.optimize`` as resolved by
:meth:`~repro.core.config.ExecConfig.resolved`: the per-run field, else
the ambient ``use_config(optimize=...)`` (the harness's ``--no-opt``),
else on.  The result of every run is an :class:`OptReport`, attached to
the plan and surfaced in ``RunResult.details["opt"]``; an ambient collector
(:func:`collect_reports`) lets the harness aggregate reports across the
many runs inside one experiment.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.graph import Farm, StageSpec
from repro.core.opt.bodycomp import (
    CompiledKernel,
    UnsupportedConstruct,
    bodycomp_stats,
    try_compile_spec,
)
from repro.core.opt.fused import FusedFactory, FusedStage
from repro.core.opt.fusion import FUSE_COST_THRESHOLD, fuse_stages
from repro.core.opt.report import OptReport
from repro.core.opt.vectorize import (
    BatchKernel,
    clear_kernel_cache,
    get_kernel,
    kernel_cache_stats,
    vectorize_stages,
)

__all__ = [
    "FUSE_COST_THRESHOLD",
    "BatchKernel",
    "CompiledKernel",
    "FusedFactory",
    "FusedStage",
    "OptReport",
    "UnsupportedConstruct",
    "bodycomp_stats",
    "clear_kernel_cache",
    "collect_reports",
    "get_kernel",
    "kernel_cache_stats",
    "optimize",
    "try_compile_spec",
]

Element = Union[StageSpec, Farm]

_COLLECTOR: ContextVar[Optional[list]] = ContextVar(
    "repro_opt_collector", default=None)


@contextlib.contextmanager
def collect_reports(into: List[OptReport]) -> Iterator[List[OptReport]]:
    """Scope an ambient sink receiving every OptReport produced within."""
    token = _COLLECTOR.set(into)
    try:
        yield into
    finally:
        _COLLECTOR.reset(token)


def optimize(elements: Sequence[Element]) -> Tuple[List[Element], OptReport]:
    """Run the pass pipeline over flattened elements.

    Returns the rewritten element list and the report; the input list
    and its specs are never mutated (rewrites build new specs).
    """
    report = OptReport()
    out = fuse_stages(list(elements), report)
    out = vectorize_stages(out, report)
    sink = _COLLECTOR.get()
    if sink is not None:
        sink.append(report)
    return out, report
