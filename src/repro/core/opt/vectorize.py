"""Batch-vectorization pass: lower flagged stages to batch kernels.

A vectorized stage consumes a whole ``get_many`` batch per call instead
of item-at-a-time: each call takes what the stage's input queue already
held, up to ``ExecConfig.batch_size``, so the width follows backlog (the
numpy/GPU-shaped input the simulated accelerator path wants) without a
producer ever holding an item back.

Kernels are compiled once through a keyed cache — the key is the user's
kernel callable, or the stage class for ``process_batch`` stages — so a
call's width only changes how many items it receives; it re-triggers
cache *lookups*, never recompiles.

The batch contract is strict 1:1 map: ``kernel(items) -> outputs`` with
``len(outputs) == len(items)``.  Filtering (``None``) and fan-out
(``Multi``) stay on the item-at-a-time path; executors enforce the
contract at runtime.

``vectorized="auto"`` asks the body compiler
(:mod:`repro.core.opt.bodycomp`) to *derive* the kernel from the stage's
scalar ``process`` body.  An unsupported body falls back silently to
the scalar path, with the reason recorded in the report's per-stage
``bodycomp`` disposition.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.graph import Farm, GraphError, Pipe, StageSpec, _worker_chain
from repro.core.opt.report import OptReport
from repro.core.stage import InstanceFactory, Stage

Element = Union[StageSpec, Farm]

class BatchKernel:
    """A compiled batch kernel: call with ``(logic, items, ctx)``.

    ``call`` is bound at compile time to either the user's free-function
    kernel (``logic``/``ctx`` ignored) or the stage class's unbound
    ``process_batch`` — the kernel object itself is instance-free so one
    cache entry serves every replica of the stage.

    ``blocks`` is the block-native handle (a
    :class:`~repro.core.opt.bodycomp.CompiledKernel` exposing
    ``call_block``/``call_items_block``) when the kernel can consume and
    produce ``ItemBlock`` columns directly; ``None`` means the columnar
    transport materializes items around this kernel instead.
    """

    __slots__ = ("call", "key", "blocks")

    def __init__(self, call: Callable[[Any, Sequence[Any], Any], Sequence[Any]],
                 key: Any, blocks: Any = None):
        self.call = call
        self.key = key
        self.blocks = blocks

    def __call__(self, logic: Any, items: Sequence[Any],
                 ctx: Any) -> Sequence[Any]:
        return self.call(logic, items, ctx)


_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE: Dict[Any, BatchKernel] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def kernel_cache_stats() -> Dict[str, int]:
    with _CACHE_LOCK:
        return dict(_CACHE_STATS)


def clear_kernel_cache() -> None:
    """Test hook: empty the caches and zero every counter.

    Clears the body-compiler cache too so cache-stat assertions are
    never order-dependent across tests.
    """
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0
    from repro.core.opt.bodycomp import clear_body_cache

    clear_body_cache()


def _compile(key: Any, build: Callable[[], BatchKernel]) -> BatchKernel:
    with _CACHE_LOCK:
        kernel = _KERNEL_CACHE.get(key)
        if kernel is not None:
            _CACHE_STATS["hits"] += 1
            return kernel
        _CACHE_STATS["misses"] += 1
        kernel = build()
        _KERNEL_CACHE[key] = kernel
        return kernel


def _has_process_batch(cls: type) -> bool:
    return getattr(cls, "process_batch", None) is not None


def get_kernel(spec: StageSpec, logic: Any) -> Optional[BatchKernel]:
    """Resolve the batch kernel for a unit, or None for item-at-a-time.

    Called by executors once per unit loop (and once per worker process
    under the process backend — the cache is per-process).
    """
    v = spec.vectorized
    if not v:
        return None
    if v == "auto":
        # the optimizer was off (or the body fell back): the hint was
        # never resolved to a kernel, so the stage runs item-at-a-time
        return None
    if callable(v) and not isinstance(v, bool):
        fn = v
        # compiled kernels expose column-level entry points; hand them to
        # the transport so consecutive compiled stages form columnar
        # segments with no per-item materialization at the hop
        blocks = fn if hasattr(fn, "call_block") else None

        def build_fn() -> BatchKernel:
            return BatchKernel(lambda logic, items, ctx: fn(items), key=fn,
                               blocks=blocks)

        return _compile(fn, build_fn)
    cls = type(logic)
    if not _has_process_batch(cls):
        raise GraphError(
            f"stage {spec.name!r}: vectorized=True but "
            f"{cls.__name__}.process_batch is not defined")
    method = cls.process_batch

    def build_cls() -> BatchKernel:
        return BatchKernel(
            lambda logic, items, ctx: method(logic, items, ctx), key=cls)

    return _compile(cls, build_cls)


def resolve_vectorized(spec: StageSpec) -> Any:
    """Normalize ``vectorized`` (auto-detect None) for one spec.

    The explicit ``"auto"`` hint passes through; the vectorize pass
    resolves it through the body compiler.
    """
    v = spec.vectorized
    if v is None:
        # Auto-detect: instance-built or class-factory stages that define
        # process_batch.  Arbitrary factories are not probed (calling
        # them at plan time could run user side effects).
        factory = spec.factory
        if isinstance(factory, InstanceFactory):
            if _has_process_batch(type(factory.instance)):
                return True
        elif isinstance(factory, type) and issubclass(factory, Stage):
            if _has_process_batch(factory):
                return True
        return False
    return v


def _try_bodycomp(spec: StageSpec, report: OptReport) -> StageSpec:
    """Resolve an ``"auto"`` hint through the body compiler."""
    from repro.core.opt.bodycomp import try_compile_spec

    kernel, reason = try_compile_spec(spec)
    if kernel is None:
        report.bodycomp[spec.name] = f"fallback:{reason}"
        return spec  # scalar path, exactly as before
    report.bodycomp[spec.name] = "compiled"
    report.vectorized.append(spec.name)
    before = kernel_cache_stats()["misses"]
    compiled = replace(spec, vectorized=kernel)
    get_kernel(compiled, None)  # pre-warm through the keyed cache
    report.kernels_compiled += kernel_cache_stats()["misses"] - before
    return compiled


def _vectorize_spec(spec: StageSpec, report: OptReport) -> StageSpec:
    v = resolve_vectorized(spec)
    if not v:
        return spec
    if v == "auto":
        return _try_bodycomp(spec, report)
    report.vectorized.append(spec.name)
    # Pre-warm the cache where the key is known without an instance;
    # misses counted here are the pass's "kernels compiled" number.
    before = kernel_cache_stats()["misses"]
    if callable(v) and not isinstance(v, bool):
        get_kernel(spec, None)
    else:
        factory = spec.factory
        if isinstance(factory, InstanceFactory):
            get_kernel(replace(spec, vectorized=True), factory.instance)
        elif isinstance(factory, type) and _has_process_batch(factory):
            cls = factory
            method = cls.process_batch
            _compile(cls, lambda: BatchKernel(
                lambda logic, items, ctx: method(logic, items, ctx), key=cls))
    report.kernels_compiled += kernel_cache_stats()["misses"] - before
    return replace(spec, vectorized=v)


def vectorize_stages(elements: Sequence[Element],
                     report: OptReport) -> List[Element]:
    """Run the vectorize pass; records what happened in ``report``."""
    report.passes.append("vectorize")
    out: List[Element] = []
    for el in elements:
        if isinstance(el, StageSpec):
            out.append(_vectorize_spec(el, report))
            continue
        chain = _worker_chain(el)
        new_chain = [_vectorize_spec(s, report) for s in chain]
        if all(a is b for a, b in zip(chain, new_chain)):
            out.append(el)
            continue
        worker: Union[StageSpec, Pipe]
        if len(new_chain) == 1:
            worker = new_chain[0]
        else:
            name = (el.worker.name if isinstance(el.worker, Pipe)
                    else el.name)
            worker = Pipe(new_chain, name=name)
        out.append(Farm(worker=worker, replicas=el.replicas,
                        ordered=el.ordered, scheduling=el.scheduling,
                        placement=el.placement, name=el.name,
                        min_replicas=el.min_replicas,
                        max_replicas=el.max_replicas))
    return out
