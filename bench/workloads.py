"""The four fixed-work workloads.

Each workload owns its source, stage bodies and sink, builds its graph
from the public IR, runs it through ``repro.core.run.execute`` and checks
every output against a reference.  A round is a fixed number of items:
the work never depends on how fast the box is.  ``--seed`` changes the
inputs but never the amount of work (see each ``prepare``), so runs with
different seeds are comparable.

Stage bodies shipped to worker processes must be module-level, which is
why they live here and not inside the classes.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from harness import Round, Spans, Stopwatch, pc

from repro.core.config import ExecConfig, ExecMode
from repro.core.graph import Farm, Pipe, PipelineGraph, StageSpec, linear_graph
from repro.core.items import ItemBlock
from repro.core.opt import clear_kernel_cache
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Source

#: items in flight in the latency phase: the paper's TBB rule, 2 x workers
WINDOW = 4
REPLICAS = 2


@dataclass
class Trace:
    """What the traced pass attaches to a round: a span store, a
    MetricsRegistry, or neither (every untraced round)."""

    spans: Optional[Spans] = None
    registry: Any = None  #: a repro.obs.MetricsRegistry

    def wrap(self, name: str, fn: Callable,
             weigh: Optional[Callable] = None) -> Callable:
        return self.spans.wrap(name, fn, weigh) if self.spans else fn

    def wrap_source(self, name: str, items: Iterable,
                    weigh: Optional[Callable] = None) -> Iterable:
        if self.spans is None:
            return items
        return self.spans.wrap_source(name, items, weigh)

    def add(self, name: str, start: float, end: float,
            busy: Optional[float] = None) -> None:
        if self.spans is not None:
            self.spans.add(name, start, end, busy=busy)

    def close_run(self, start: float, wall: float) -> None:
        if self.spans is not None:
            self.spans.run = (start, start + wall)


NO_TRACE = Trace()


class Window:
    """Closed loop with a fixed window: the source takes a permit per
    item, the sink returns it and records source-stamp -> sink latency."""

    def __init__(self, n: int, width: int = WINDOW) -> None:
        self._sem = threading.Semaphore(width)
        self._stamps = [0.0] * n
        self.latencies: List[float] = []

    def source(self, items: Iterable[Any]) -> Iterator[Any]:
        acquire, stamps = self._sem.acquire, self._stamps
        for i, item in enumerate(items):
            # a failed run never returns permits; do not hang the source
            if not acquire(timeout=60):
                raise RuntimeError("window permit timed out")
            stamps[i] = pc()
            yield item

    def arrived(self, i: int) -> None:
        self.latencies.append(pc() - self._stamps[i])
        self._sem.release()

    def counted(self) -> List[float]:
        """The samples after the first 10 %, while the pipeline filled."""
        return self.latencies[len(self.latencies) // 10:]


def retry_false_exit(fn: Callable[[], Any], alarms: List[str]) -> Any:
    """Call ``fn``; the first time in a benchmark run that the process
    backend raises its false "failed to exit" alarm, note it in ``alarms``
    and call ``fn`` again.  A second alarm in the same run is raised like
    any other error and fails its round.

    ``executor_process``'s monitor thread polls ``p.exitcode`` while the
    main thread is in ``p.join()``.  When both ``waitpid`` the same exited
    worker, the loser gets ECHILD, which multiprocessing reads as "still
    alive", and the run raises although every output was delivered and
    the worker is gone (about 1 in 5 000 runs with the 20 ms poll, and
    milliseconds after the stream ended, not after the 30 s join
    timeout).  The fix belongs in ``src/``, which a benchmark change may
    not touch; until then one alarm per benchmark run is tolerated and
    printed as ``false_exit_alarms`` (README, known gaps).  A worker that
    really hangs trips the 30 s timeout and is not retried.
    """
    t0 = pc()
    try:
        return fn()
    except RuntimeError as exc:
        if alarms or "failed to exit" not in str(exc) or pc() - t0 > 20:
            raise
        alarms.append(str(exc))
    return fn()


def count_failed(offered: int, arrived: int, disorder: int,
                 sums_ok: bool) -> int:
    """Items missing, extra or out of order, plus one for a wrong value
    that the counts alone do not explain."""
    failed = abs(offered - arrived) + disorder
    if not sums_ok and failed == 0:
        failed = 1
    return min(offered, failed)


class Workload:
    """Common shape; see the subclasses for what each one stresses."""

    name = ""
    why = ""
    cpus = "one"          #: "one": pinned to a single CPU; "all": unpinned
    item = "item"
    #: cold runs averaged into one set-up sample: 60-100 ms of them, so
    #: that a sample is longer than the box's 40 ms hiccups
    setup_runs = 10
    config = ExecConfig(collect_outputs=False)

    def __init__(self) -> None:
        #: false "failed to exit" alarms retried (see retry_false_exit)
        self.false_exits: List[str] = []
        #: LZSS memo counters of forked workers, pid -> (hits, misses)
        self.worker_cache: Dict[int, Tuple[int, int]] = {}

    def prepare(self, seed: int, quick: bool) -> None:
        raise NotImplementedError

    def flood_items(self, scale: float) -> int:
        raise NotImplementedError

    def window_items(self, scale: float) -> int:
        raise NotImplementedError

    def flood_round(self, scale: float = 1.0,
                    trace: Trace = NO_TRACE) -> Round:
        raise NotImplementedError

    def window_round(self, scale: float = 1.0) -> Round:
        raise NotImplementedError

    def setup_once(self) -> None:
        """One cold run on the minimal stream."""
        raise NotImplementedError

    def probe_graph(self) -> PipelineGraph:
        """The workload's graph, for the plan/optimizer probes."""
        raise NotImplementedError

    def model_us_item(self, layers: Dict[str, float], items: int) -> float:
        """Runtime per item predicted from the layer probes."""
        raise NotImplementedError

    def payload_bytes(self, scale: float) -> int:
        """Bytes the source offers in one flood round."""
        raise NotImplementedError

    def unwrapped_busy_s(self, layers: Dict[str, float], items: int) -> float:
        """Stage time of bodies the bench cannot wrap in spans."""
        return 0.0

    # -- shared plumbing ---------------------------------------------------
    def _cfg(self, trace: Trace) -> ExecConfig:
        if trace.registry is None:
            return self.config
        # one telemetry window spanning the whole run
        return self.config.replace(metrics_registry=trace.registry,
                                   metrics_interval=1e6)

    def _execute(self, rnd: Round, build: Callable[[], PipelineGraph],
                 trace: Trace) -> None:
        with Stopwatch() as sw:
            rnd.results.append(execute(build(), self._cfg(trace)))
        rnd.wall, rnd.cpu = sw.wall, sw.cpu
        trace.close_run(sw.start, sw.wall)


# ---------------------------------------------------------------------------
# hop_scalar
# ---------------------------------------------------------------------------

def inc(x):
    return x + 1


def dbl(x):
    return x * 2


class ScalarSink:
    """Count, order and checksum of a strictly increasing int stream."""

    def __init__(self, floor: int, window: Optional[Window] = None) -> None:
        self.n = 0
        self.total = 0
        self.disorder = 0
        self._last = floor
        self._window = window

    def __call__(self, x: int) -> None:
        if x <= self._last:
            self.disorder += 1
        self._last = x
        self.total += x
        if self._window is not None:
            self._window.arrived(self.n)
        self.n += 1

    def failed(self, offered: int, expected_total: int) -> int:
        return count_failed(offered, self.n, self.disorder,
                            self.total == expected_total)


class HopScalar(Workload):
    name = "hop_scalar"
    why = ("stage bodies are one add/multiply, so per-item CPU is the "
           "runtime: ring put/get, stage_loop, envelopes, reorder push")
    item = "int crossing source -> farm(inc -> dbl) x2 -> sink"
    setup_runs = 100

    def prepare(self, seed: int, quick: bool) -> None:
        # the seed moves the value range; ints of this size cost the same
        self.base = 1_000_000 + seed % 1_000_003

    def flood_items(self, scale: float) -> int:
        return round(165_000 * scale)

    def window_items(self, scale: float) -> int:
        return round(66_000 * scale)

    @staticmethod
    def expected_total(base: int, n: int) -> int:
        return 2 * n * (base + 1) + n * (n - 1)

    def _graph(self, source: Iterable[int], sink: Callable,
               trace: Trace = NO_TRACE) -> PipelineGraph:
        wrap = trace.wrap
        return linear_graph(
            IterSource(source),
            Farm(Pipe(StageSpec(FunctionStage(wrap("inc", inc)), "inc"),
                      StageSpec(FunctionStage(wrap("dbl", dbl)), "dbl")),
                 replicas=REPLICAS, ordered=True),
            StageSpec(FunctionStage(wrap("sink", sink)), "sink"))

    def _round(self, n: int, window: Optional[Window],
               trace: Trace) -> Round:
        sink = ScalarSink(2 * self.base, window)
        source: Iterable[int] = range(self.base, self.base + n)
        if window is not None:
            source = window.source(source)
        source = trace.wrap_source("source", source)
        rnd = Round(items=n)
        self._execute(rnd, lambda: self._graph(source, sink, trace), trace)
        failed = sink.failed(n, self.expected_total(self.base, n))
        if failed:
            rnd.fail(failed, f"sink saw {sink.n}/{n} items, "
                             f"{sink.disorder} out of order")
        if window is not None:
            rnd.latencies = window.counted()
        return rnd

    def flood_round(self, scale=1.0, trace=NO_TRACE):
        return self._round(self.flood_items(scale), None, trace)

    def window_round(self, scale=1.0):
        n = self.window_items(scale)
        return self._round(n, Window(n), NO_TRACE)

    def setup_once(self):
        clear_kernel_cache()
        execute(self._graph(range(1), ScalarSink(-1)), self.config)

    def probe_graph(self):
        return self._graph(range(1), ScalarSink(-1))

    def payload_bytes(self, scale):
        return self.flood_items(scale) * sys.getsizeof(self.base)

    def model_us_item(self, layers, items):
        # three ring hops and one reorder push per item, one spawn per run
        return ((3 * layers["channel.spsc_putget_ns"]
                 + layers["ordering.push_ns"]) / 1e3
                + layers["executor_native.spawn_join_ms"] * 1e3 / items)


# ---------------------------------------------------------------------------
# pixel_blocks
# ---------------------------------------------------------------------------

def line_blocks(rows: Sequence[np.ndarray], niter_col: np.ndarray,
                replays: int) -> Iterator[ItemBlock]:
    """The escape grid as one ``ItemBlock`` per image line, ``replays``
    times over.  The columns are the same arrays on every replay (kernels
    never write their inputs); ``key`` carries the block's index so the
    sink can check order."""
    k = 0
    for _ in range(replays):
        for row in rows:
            yield ItemBlock((row, niter_col), layout="tuple", key=k)
            k += 1


class BlockSource(Source):
    """A stream of ready-made blocks."""

    emits_blocks = True

    def __init__(self, blocks: Iterable[ItemBlock]) -> None:
        self._blocks = blocks

    def generate(self, ctx):
        return iter(self._blocks)


class BlockSink:
    """Per-column colour/work sums, block order and the first image."""

    def __init__(self, dim: int, window: Optional[Window] = None) -> None:
        self.blocks = 0
        self.disorder = 0
        self.colors = np.zeros(dim, dtype=np.int64)
        self.work = np.zeros(dim, dtype=np.int64)
        self.image = np.zeros((dim, dim), dtype=np.uint8)
        self._dim = dim
        self._window = window

    def __call__(self, block: ItemBlock) -> None:
        k = self.blocks
        if block.key != k:
            self.disorder += 1
        color, work = block.columns
        self.colors += color
        self.work += work
        if k < self._dim:
            self.image[k] = color
        if self._window is not None:
            self._window.arrived(k)
        self.blocks = k + 1


class PixelBlocks(Workload):
    name = "pixel_blocks"
    why = ("one ring slot and one push_range per 1024 pixels: optimizer, "
           "body compiler, ItemBlock and the compiled kernel do the work, "
           "per-item hop cost almost none")
    item = "pixel; latency is per 1024-pixel block"
    setup_runs = 40
    niter = 200
    flood_replays, window_replays = 33, 27   #: of the grid, per nominal round

    def prepare(self, seed: int, quick: bool) -> None:
        from repro.apps.mandelbrot.params import MandelParams
        from repro.apps.mandelbrot.sequential import (
            colors_from_counts, mandelbrot_grid, mandelbrot_sequential,
            work_from_counts)

        # the seed shifts the window of the complex plane; the kernel's
        # cost does not depend on the values it colours
        rng = random.Random(seed)
        self.dim = 512 if quick else 1024
        params = MandelParams(dim=self.dim, niter=self.niter,
                              init_a=-0.80 + rng.uniform(-0.01, 0.01),
                              init_b=0.05 + rng.uniform(-0.01, 0.01))
        counts = mandelbrot_grid(params)
        self.rows = [np.ascontiguousarray(row, dtype=np.int64)
                     for row in counts]
        self.niter_col = np.full(self.dim, self.niter, dtype=np.int64)
        self.color_sums = colors_from_counts(counts, self.niter).astype(
            np.int64).sum(axis=0)
        self.work_sums = work_from_counts(counts, self.niter).astype(
            np.int64).sum(axis=0)
        self.image = mandelbrot_sequential(params)

    def _replays(self, base: int, scale: float) -> int:
        return max(1, round(base * scale))

    def flood_items(self, scale):
        return self._replays(self.flood_replays, scale) * self.dim * self.dim

    def window_items(self, scale):
        return self._replays(self.window_replays, scale) * self.dim * self.dim

    def _graph(self, source: Source, sink: Callable,
               trace: Trace = NO_TRACE) -> PipelineGraph:
        from repro.apps.mandelbrot.pixelstream import pixel_stat

        wrap = trace.wrap

        # pixel_stat is not wrapped: a wrapper would stop the body
        # compiler from deriving its kernel
        return linear_graph(
            source,
            Farm(StageSpec(FunctionStage(pixel_stat), "pixel_stat",
                           vectorized="auto"),
                 replicas=REPLICAS, ordered=True),
            StageSpec(FunctionStage(wrap("sink", sink, len)), "sink",
                      accepts_blocks=True))

    def _round(self, replays: int, windowed: bool,
               trace: Trace) -> Round:
        n_blocks = replays * self.dim
        window = Window(n_blocks) if windowed else None
        sink = BlockSink(self.dim, window)
        blocks: Iterable[ItemBlock] = line_blocks(self.rows, self.niter_col,
                                                  replays)
        if window is not None:
            blocks = window.source(blocks)
        blocks = trace.wrap_source("source", blocks, len)
        source = BlockSource(blocks)
        rnd = Round(items=n_blocks * self.dim)
        self._execute(rnd, lambda: self._graph(source, sink, trace), trace)
        sums_ok = (np.array_equal(sink.colors, self.color_sums * replays)
                   and np.array_equal(sink.work, self.work_sums * replays))
        failed = count_failed(n_blocks, sink.blocks, sink.disorder,
                              sums_ok) * self.dim
        if failed:
            rnd.fail(failed, f"sink saw {sink.blocks}/{n_blocks} blocks, "
                             f"{sink.disorder} out of order, sums ok: {sums_ok}")
        if not np.array_equal(sink.image, self.image):
            rnd.fail(rnd.items, "image differs from mandelbrot_sequential")
        # the silent cliff: a scalar fallback is ~55x slower, not wrong
        opt = rnd.results[0].details["opt"]
        columnar = [e for e, d in opt["columnar"].items() if d == "columnar"]
        if opt["bodycomp"].get("pixel_stat") != "compiled" or len(columnar) < 2:
            rnd.fail(rnd.items, f"fast path off: bodycomp={opt['bodycomp']} "
                                f"columnar={opt['columnar']}")
        if window is not None:
            rnd.latencies = window.counted()
        return rnd

    def flood_round(self, scale=1.0, trace=NO_TRACE):
        return self._round(self._replays(self.flood_replays, scale), False, trace)

    def window_round(self, scale=1.0):
        return self._round(self._replays(self.window_replays, scale), True,
                           NO_TRACE)

    def _one_block(self) -> PipelineGraph:
        return self._graph(BlockSource(line_blocks(
            self.rows[:1], self.niter_col, 1)), BlockSink(self.dim))

    def setup_once(self):
        clear_kernel_cache()
        execute(self._one_block(), self.config)

    def probe_graph(self):
        return self._one_block()

    def payload_bytes(self, scale):
        return self.flood_items(scale) * 2 * self.niter_col.itemsize

    def unwrapped_busy_s(self, layers, items):
        # pixel_stat runs as a compiled kernel; price it with the probe
        # (the runtime's own busy_time is wall time of two threads that
        # share one CPU, so it counts the same microsecond twice)
        return layers["opt.kernel_ns_item"] * items / 1e9

    def model_us_item(self, layers, items):
        # per block: two ring hops and one range push; the kernel itself
        # is stage time, not runtime
        return ((2 * layers["channel.spsc_putget_ns"] / self.dim
                 + layers["ordering.push_range_ns_item"]) / 1e3
                + layers["executor_native.spawn_join_ms"] * 1e3 / items)


# ---------------------------------------------------------------------------
# dedup_batches
# ---------------------------------------------------------------------------

def dedup_worker(batch):
    """SHA-1 + LZSS of every block of one batch (the paper's stage 2).

    Returns its own start/end stamps, CPU time, pid and LZSS memo
    counters with the result: the worker runs in another process, so the
    parent-side sink is the only place they can be recorded.  CPU time
    because two workers and the parent share two CPUs: a 78 ms body's
    wall time includes whatever preempted it.
    """
    from repro.apps.dedup.sha1 import sha1_fast
    from repro.apps.lzss import cache
    from repro.apps.lzss.reference import compress_block

    t0, c0 = pc(), time.thread_time()
    results = [(sha1_fast(blk), blk, compress_block(blk, 0, len(blk)))
               for blk in batch.blocks()]
    return (results, t0, pc(), time.thread_time() - c0, os.getpid(),
            cache.hits, cache.misses)


class ArchiveSink:
    """The paper's ordered writer, fed from worker outputs."""

    def __init__(self, spans: Optional[Spans] = None,
                 window: Optional[Window] = None) -> None:
        from repro.apps.dedup.pipeline_cpu import StreamWriter

        self.writer = StreamWriter()
        self.n = 0
        self.cache: Dict[int, Tuple[int, int]] = {}  #: pid -> (hits, misses)
        self._spans = spans
        self._window = window

    def __call__(self, out) -> None:
        results, t0, t1, cpu, pid, hits, misses = out
        if self._spans is not None:
            self._spans.add("dedup", t0, t1, busy=cpu)
        self.cache[pid] = (hits, misses)
        self.writer.write(results)
        if self._window is not None:
            self._window.arrived(self.n)
        self.n += 1


class DedupBatches(Workload):
    name = "dedup_batches"
    why = ("compute-bound and the only workload crossing executor_process "
           "and ShmChannel: ring, kernel and block optimisations must not "
           "move it; parent-side spinning on shm shows in cpu_us_item")
    cpus = "all"
    item = "32 KiB batch of content-defined blocks"
    setup_runs = 8
    config = ExecConfig(collect_outputs=False, workers="process")
    batch_bytes = 32 * 1024
    n_batches = 42

    def prepare(self, seed: int, quick: bool) -> None:
        from repro.apps.datasets import parsec_large
        from repro.apps.dedup.rabin import Batch, GearChunker, make_batches

        # One fixed corpus, chunked once; the seed then renames the byte
        # alphabet.  A bijection on byte values changes every block,
        # digest and archive byte but keeps every LZSS match and every
        # duplicate, so the work is the same for every seed.  (Seeding
        # the corpus itself moves the compress time by 25 %.)
        corpus = parsec_large(self.n_batches * self.batch_bytes, seed=1)
        alphabet = list(range(256))
        random.Random(seed).shuffle(alphabet)
        table = bytes(alphabet)
        self.batches = [
            Batch(b.index, b.data.translate(table), b.start_positions)
            for b in make_batches(corpus, GearChunker(),
                                  batch_size=self.batch_bytes)]
        self.data = b"".join(b.data for b in self.batches)
        digests = [hashlib.sha1(blk).digest()
                   for b in self.batches for blk in b.blocks()]
        self.n_blocks = len(digests)
        self.n_unique = len(set(digests))
        self.tiny = Batch(0, self.data[:1024], [0])

    def _count(self, scale: float) -> int:
        return max(WINDOW, round(self.n_batches * scale))

    def flood_items(self, scale):
        return self._count(scale)

    window_items = flood_items

    def _graph(self, source: Iterable, sink: Callable,
               trace: Trace = NO_TRACE) -> PipelineGraph:
        wrap = trace.wrap
        return linear_graph(
            IterSource(source),
            Farm(StageSpec(FunctionStage(dedup_worker), "dedup"),
                 replicas=REPLICAS, ordered=True),
            StageSpec(FunctionStage(wrap("writer", sink)), "writer",
                      pinned=True))

    def _round(self, n: int, windowed: bool, trace: Trace) -> Round:
        return retry_false_exit(lambda: self._round_once(n, windowed, trace),
                                self.false_exits)

    def _round_once(self, n: int, windowed: bool, trace: Trace) -> Round:
        from repro.apps.dedup.container import KIND_DUP, restore
        from repro.apps.lzss import cache

        batches = self.batches[:n]
        window = Window(n) if windowed else None
        sink = ArchiveSink(trace.spans, window)
        source: Iterable = batches
        if window is not None:
            source = window.source(source)
        source = trace.wrap_source("source", source)
        # the process-wide LZSS memo would turn every later round into
        # a lookup; workers fork from this process, so clear it here
        cache.clear()
        rnd = Round(items=n)
        self._execute(rnd, lambda: self._graph(source, sink, trace), trace)
        self.worker_cache = sink.cache
        if sink.n != n:
            rnd.fail(abs(n - sink.n), f"writer saw {sink.n}/{n} batches")
        archive = sink.writer.archive
        if restore(archive) != self.data[:self.payload_bytes_of(n)]:
            rnd.fail(n, "restore(archive) differs from the input")
        elif n == self.n_batches:
            dups = sum(r.kind == KIND_DUP for r in archive.records)
            if (len(archive.records), dups) != (
                    self.n_blocks, self.n_blocks - self.n_unique):
                rnd.fail(n, f"{len(archive.records)} records / {dups} "
                            f"duplicates, expected {self.n_blocks} / "
                            f"{self.n_blocks - self.n_unique}")
        if window is not None:
            rnd.latencies = window.counted()
        return rnd

    def flood_round(self, scale=1.0, trace=NO_TRACE):
        return self._round(self._count(scale), False, trace)

    def window_round(self, scale=1.0):
        return self._round(self._count(scale), True, NO_TRACE)

    def setup_once(self):
        clear_kernel_cache()
        retry_false_exit(
            lambda: execute(self._graph([self.tiny], ArchiveSink()),
                            self.config), self.false_exits)

    def probe_graph(self):
        return self._graph([self.tiny], ArchiveSink())

    def payload_bytes_of(self, n: int) -> int:
        return sum(len(b.data) for b in self.batches[:n])

    def payload_bytes(self, scale):
        return self.payload_bytes_of(self._count(scale))

    def model_us_item(self, layers, items):
        # one frame in, one (larger) frame out per batch
        frame_bytes = 2.25 * self.batch_bytes
        return (frame_bytes / layers["channel.shm_block_gb_s"] / 1e3
                + layers["executor_process.spawn_join_ms"] * 1e3 / items)


# ---------------------------------------------------------------------------
# fig4_sim
# ---------------------------------------------------------------------------

class Fig4Sim(Workload):
    name = "fig4_sim"
    why = ("the same graph, plan, optimizer and front-end layers on the "
           "virtual-time substrate (executor_sim, sim.engine, gpu): native "
           "transport changes must not move it")
    item = "image line of one simulated run; latency is per simulated run"
    setup_runs = 8
    config = ExecConfig(mode=ExecMode.SIMULATED)
    passes = 12            #: figure repetitions per round
    cpu_workers, gpu_workers = 19, 10

    def prepare(self, seed: int, quick: bool) -> None:
        from repro.apps.mandelbrot.sequential import mandelbrot_sequential
        from repro.harness.experiments import fig4
        from repro.harness.experiments.fig1 import workload

        self.params = workload("small")
        self.reference = {row.label: row.value
                          for row in fig4.run("small").rows}
        self.image = mandelbrot_sequential(self.params)
        # virtual time is deterministic and the reference is the figure
        # itself, so the seed only decides the order the rows run in
        self.rows = self._rows(self.params)
        random.Random(seed).shuffle(self.rows)
        self.tiny_rows = self._rows(self.params.scaled(1, self.params.niter))

    def _rows(self, params, trace: Trace = NO_TRACE
              ) -> List[Tuple[str, Callable[[], Tuple[float, Any, Any]]]]:
        """fig4's rows as (label, run) with run() -> (makespan, image,
        RunResult or None); mirrors ``harness.experiments.fig4.run``."""
        from repro.apps.mandelbrot.gpu_single import GpuVariant, run_gpu
        from repro.apps.mandelbrot.hybrid import hybrid_mandelbrot
        from repro.apps.mandelbrot.streaming import (
            fastflow_mandelbrot, spar_mandelbrot, tbb_mandelbrot)
        from repro.sim.machine import paper_machine

        cw, gw = self.cpu_workers, self.gpu_workers

        def cfg(n_gpus: int) -> ExecConfig:
            return self._cfg(trace).replace(machine=paper_machine(n_gpus))

        def pipeline(fn, *args, **kwargs):
            def run():
                image, result = fn(params, *args, **kwargs)
                return result.makespan, image, result
            return run

        def gpu_only(api: str, n: int):
            def run():
                out = run_gpu(params, GpuVariant(api=api, batch_size=32,
                                                 mem_spaces=4 * n, n_gpus=n),
                              machine=paper_machine(n))
                return out.elapsed, out.image, None
            return run

        rows = [("SPar", pipeline(spar_mandelbrot, cw, config=cfg(2))),
                ("TBB", pipeline(tbb_mandelbrot, cw, tokens=2 * cw,
                                 config=cfg(2))),
                ("FastFlow", pipeline(fastflow_mandelbrot, cw, config=cfg(2)))]
        pretty = {"spar": "SPar", "tbb": "TBB", "fastflow": "FastFlow"}
        for n in (1, 2):
            suffix = f" ({n} GPU{'s' if n > 1 else ''})"
            for api in ("cuda", "opencl"):
                rows.append((f"{api.upper()}{suffix}", gpu_only(api, n)))
            for model in ("spar", "tbb", "fastflow"):
                for api in ("cuda", "opencl"):
                    rows.append((
                        f"{pretty[model]}+{api.upper()}{suffix}",
                        pipeline(hybrid_mandelbrot, model=model, api=api,
                                 workers=gw, n_gpus=n, tokens=5 * gw,
                                 machine=paper_machine(n), config=cfg(n))))
        return rows

    def _passes(self, scale: float) -> int:
        return max(1, round(self.passes * scale))

    def flood_items(self, scale):
        return self._passes(scale) * len(self.rows) * self.params.dim

    window_items = flood_items

    def flood_round(self, scale=1.0, trace=NO_TRACE):
        passes = self._passes(scale)
        rows = self.rows
        if trace.registry is not None:   # same rows, registry attached
            traced = dict(self._rows(self.params, trace))
            rows = [(label, traced[label]) for label, _run in rows]
        dim = self.params.dim
        rnd = Round(items=passes * len(rows) * dim)
        with Stopwatch() as sw:
            for _ in range(passes):
                for label, run in rows:
                    t0 = pc()
                    makespan, image, result = run()
                    t1 = pc()
                    rnd.latencies.append(t1 - t0)
                    # a call into the program, not a bench-owned body:
                    # it charges no stage time
                    trace.add("row:" + label, t0, t1, busy=0.0)
                    if result is not None:
                        rnd.results.append(result)
                    if makespan != self.reference[label]:
                        rnd.fail(dim, f"{label}: makespan {makespan!r} != "
                                      f"fig4 {self.reference[label]!r}")
                    elif not np.array_equal(image, self.image):
                        rnd.fail(dim, f"{label}: image differs")
        rnd.wall, rnd.cpu = sw.wall, sw.cpu
        trace.close_run(sw.start, sw.wall)
        return rnd

    def window_round(self, scale=1.0):
        # rows run one after another: the round that gives throughput
        # also gives the per-run latency
        return self.flood_round(scale)

    def setup_once(self):
        clear_kernel_cache()
        for _label, run in self.tiny_rows:
            run()

    def probe_graph(self):
        # the shape of the CPU rows: emitter -> 19 workers -> ordered sink
        return linear_graph(
            IterSource(range(self.params.dim)),
            Farm(StageSpec(FunctionStage(inc), "compute"),
                 replicas=self.cpu_workers, ordered=True),
            StageSpec(FunctionStage(dbl), "show"))

    def payload_bytes(self, scale):
        return self.flood_items(scale) * self.params.dim  # uint8 lines

    def model_us_item(self, layers, items):
        # a GPU row moves 32 lines per stream item: price the stream
        # items that actually crossed a simulated pipeline
        return (layers["run.envelopes"] / items
                * 1e6 / layers["executor_sim.items_s"])


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (HopScalar, PixelBlocks, DedupBatches, Fig4Sim)}
