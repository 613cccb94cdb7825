"""``ff_pipeline``: compose nodes and farms into a stream pipeline."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Union

from repro.core.config import ExecConfig, ExecMode
from repro.core.graph import Node, PipelineGraph, SourceSpec
from repro.core.items import EOS
from repro.core.metrics import RunResult
from repro.core.run import run
from repro.core.stage import Source, StageContext
from repro.fastflow.farm import ff_farm
from repro.fastflow.node import GO_ON, ff_node


class _NodeSource(Source):
    """Adapter: a first-stage ff_node becomes the stream source.

    FastFlow calls the first node's ``svc(nullptr)`` in a loop until it
    returns EOS; everything pushed via ``ff_send_out`` (or returned)
    becomes stream items.
    """

    def __init__(self, node: ff_node):
        self.node = node

    def on_start(self, ctx: StageContext) -> None:
        self.node._ctx = ctx
        self.node.svc_init()

    def generate(self, ctx: StageContext) -> Iterator[Any]:
        node = self.node
        while True:
            node._ctx = ctx
            result = node.svc(None)
            yield from node._take_outputs()
            if result is EOS:
                return
            if result is not GO_ON and result is not None:
                yield result

    def on_end(self, ctx: StageContext) -> None:
        self.node._ctx = ctx
        self.node.svc_end()


class ff_pipeline:
    """A composition of ``ff_node``/``ff_farm``/``ff_pipeline`` stages.

    Nested pipelines splice into their parent (FastFlow composes
    ``ff_pipeline`` objects freely), and an inner pipeline may itself
    contain farms.  ``run_and_wait_end()`` executes and returns the
    :class:`~repro.core.metrics.RunResult`; :meth:`ffTime` then reports
    the makespan (FastFlow's ``ffTime(STOP_TIME)``).
    """

    def __init__(self, *stages: Union[ff_node, ff_farm, "ff_pipeline"],
                 name: str = "ff_pipeline"):
        self.name = name
        self._stages: List[Union[ff_node, ff_farm, "ff_pipeline"]] = list(stages)
        # None = inherit from the run's ExecConfig; the set_* methods pin
        # a value that then wins over the config (FastFlow's runtime knobs)
        self._blocking: Optional[bool] = None
        self._queue_capacity: Optional[int] = None
        self._batch_size: Optional[int] = None
        self._workers: Optional[str] = None
        self._last_result: Optional[RunResult] = None

    def add_stage(self, stage: Union[ff_node, ff_farm, "ff_pipeline"]) -> "ff_pipeline":
        self._stages.append(stage)
        return self

    # -- composition helpers ------------------------------------------------
    def _flat_stages(self) -> List[Union[ff_node, ff_farm]]:
        """Stages with nested pipelines spliced in, recursively."""
        flat: List[Union[ff_node, ff_farm]] = []
        for st in self._stages:
            if isinstance(st, ff_pipeline):
                flat.extend(st._flat_stages())
            else:
                flat.append(st)
        return flat

    def _flat_nodes(self, context: str = "pipeline") -> List[ff_node]:
        """The pipeline as a plain node chain — required of farm workers.

        A farm worker's chain is replicated wholesale, so it may not
        contain further farms (nested replication); core validation
        would reject it too, but the error is clearer here.
        """
        nodes: List[ff_node] = []
        for st in self._flat_stages():
            if isinstance(st, ff_farm):
                raise TypeError(
                    f"{context}: contains farm {st.name!r} — nested "
                    "replication is not supported; replicate the outer "
                    "farm instead"
                )
            nodes.append(st)
        if not nodes:
            raise ValueError(f"{context}: pipeline is empty")
        return nodes

    def set_blocking_mode(self, blocking: bool) -> "ff_pipeline":
        """Blocking vs non-blocking (spinning) queue hand-offs."""
        self._blocking = blocking
        return self

    def set_queue_capacity(self, capacity: int) -> "ff_pipeline":
        self._queue_capacity = capacity
        return self

    def set_batching(self, batch_size: int) -> "ff_pipeline":
        """Multi-pop hand-off batching: each stage drains up to
        ``batch_size`` envelopes its input queue already holds in one
        synchronization episode; producers never hold one back."""
        self._batch_size = batch_size
        return self

    def set_workers(self, workers: str) -> "ff_pipeline":
        """Worker hosting backend: ``"thread"`` (one GIL) or
        ``"process"`` (farm replicas on real cores over shared-memory
        channels; see ``ExecConfig.workers``)."""
        self._workers = workers
        return self

    # -- lowering -------------------------------------------------------------
    def to_graph(self) -> PipelineGraph:
        stages = self._flat_stages()
        if len(stages) < 2:
            raise ValueError("ff_pipeline needs at least a source node and one stage")
        first = stages[0]
        if isinstance(first, ff_farm):
            raise ValueError("the first pipeline stage must be an ff_node (the stream source)")
        source = SourceSpec(factory=lambda n=first: _NodeSource(n), name="ff_source")
        nodes: List[Node] = []
        for i, st in enumerate(stages[1:], start=1):
            if isinstance(st, ff_farm):
                nodes.append(st.to_ir(i))
            elif isinstance(st, ff_node):
                nodes.append(st.to_stage_spec(i))
            else:
                raise TypeError(f"pipeline stage {i} is {type(st)}; expected ff_node/ff_farm")
        g = PipelineGraph(source=source, stages=nodes, name=self.name)
        g.validate()
        return g

    def __repro_config__(self, cfg: ExecConfig) -> ExecConfig:
        """FastFlow's queue knobs, applied when run through ``repro.run``.

        Only knobs pinned via ``set_*`` override the caller's config, so
        ``ExecConfig(blocking=False, batch_size=8)`` survives the trip
        through an unconfigured pipeline (this matters for SPar, whose
        generated driver funnels its ExecConfig through here).
        """
        overrides = {}
        if self._blocking is not None:
            overrides["blocking"] = self._blocking
        if self._queue_capacity is not None:
            overrides["queue_capacity"] = self._queue_capacity
        if self._batch_size is not None:
            overrides["batch_size"] = self._batch_size
        if self._workers is not None:
            overrides["workers"] = self._workers
        return cfg.replace(**overrides) if overrides else cfg

    # -- execution ---------------------------------------------------------------
    def run_and_wait_end(self, config: Optional[ExecConfig] = None) -> RunResult:
        self._last_result = run(self, config)
        return self._last_result

    def run_simulated(self, config: Optional[ExecConfig] = None) -> RunResult:
        cfg = config if config is not None else ExecConfig()
        return self.run_and_wait_end(cfg.replace(mode=ExecMode.SIMULATED))

    def ffTime(self) -> float:
        """Makespan of the last run, in (virtual or wall) seconds."""
        if self._last_result is None:
            raise RuntimeError("pipeline has not run yet")
        return self._last_result.makespan
