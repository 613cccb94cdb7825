"""repro — stream processing on multi-cores with (simulated) GPUs.

A from-scratch Python reproduction of Rockenbach et al., *Stream
Processing on Multi-Cores with GPUs: Parallel Programming Models'
Challenges* (IPPS 2019): the SPar annotation DSL, FastFlow- and
TBB-style runtimes, CUDA/OpenCL-style APIs over a virtual-time GPU
model, and the Mandelbrot-Streaming and Dedup case studies with the
paper's full benchmark harness.

Quick tour::

    from repro import spar, fastflow, tbb, gpu
    from repro.apps import mandelbrot, dedup, lzss
    from repro.harness import experiments

:func:`repro.run` is the one front door for executing any runtime's
pipeline object (a core graph, an ``ff_pipeline``, a TBB filter chain, a
bound SPar invocation)::

    result = repro.run(pipeline, mode="simulated", tracer=recorder)

Self-tuning: pass a :class:`repro.control.TuningPolicy` and the runtime
grows/shrinks farms and flips blocking↔spin from live backpressure
telemetry::

    result = repro.run(pipeline, policy=repro.TuningPolicy())

See README.md and DESIGN.md for the architecture, EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.control import TuningPolicy
from repro.core.config import ExecConfig, ExecMode
from repro.core.metrics import RunResult
from repro.core.run import run

__version__ = "1.0.0"

__all__ = [
    "run",
    "ExecConfig",
    "ExecMode",
    "RunResult",
    "TuningPolicy",
    "core", "sim", "obs", "gpu", "fastflow", "tbb", "spar", "apps",
    "control", "harness",
]
