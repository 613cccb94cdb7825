"""Execution plan: the one lowering from the graph IR to worker units.

:func:`build_plan` turns any :class:`~repro.core.graph.PipelineGraph`
into an explicit :class:`ExecutionPlan` — the list of worker units
(source, stage replicas, implicit sequencers), the channels connecting
them (producer/consumer counts, fan-out policy, placement hooks) and
the ordering/token bookkeeping each unit performs.  Both executors
consume the plan verbatim; neither walks the graph itself.  The plan is
therefore the single source of truth for thread counts, tracing span
names and metrics identity — a native and a simulated run of the same
graph execute the *same* plan and so agree structurally.

Lowering rules (FastFlow's):

* the source is one unit feeding the first segment's input channel;
* each top-level element is a *segment*: a serial stage (one unit), a
  replicated leaf (``replicas`` units) or a farm-of-pipelines
  (``replicas`` private chains of units linked by per-chain channels);
* a replicated segment's input channel plays the farm emitter: one
  queue per worker under round-robin/placement, one shared queue under
  on-demand scheduling;
* between two consecutive replicated segments an implicit *sequencer*
  unit merges (and, when the upstream segment is ordered, reorders) the
  stream and renumbers it — FastFlow's collector+emitter pair;
* an ordered replicated segment followed by a serial stage makes that
  stage the reorder point (``reorder_input``);
* units inside a replicated segment keep the upstream sequence number
  (``keep_seq``) so the downstream reorder point can restore order, and
  forward empty envelopes for filtered items (``forward_empty``) so it
  never stalls; serial segments renumber their output stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.core.config import ExecConfig, Scheduling
from repro.core.graph import (
    Farm,
    PipelineGraph,
    SourceSpec,
    StageSpec,
    _worker_chain,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.opt import OptReport


@dataclass
class ChannelSpec:
    """One edge of the plan: P producers -> C consumers.

    ``per_consumer`` selects one bounded queue per consumer (fed
    round-robin or by ``placement``) over a single shared queue.
    Capacity comes from the run's :class:`ExecConfig` at execution time.
    """

    name: str
    producers: int
    consumers: int
    per_consumer: bool = False
    placement: Optional[Callable[[int, int], int]] = None
    #: block typing: envelopes on this edge may carry whole
    #: :class:`~repro.core.items.ItemBlock` batches (one ring slot / one
    #: shm frame per block).  Proven by :func:`build_plan`: every
    #: producer emits blocks and every consumer accepts them, and no
    #: plan-level gate (token throttle, elastic boundary, placement hook)
    #: applies.  Scalar envelopes remain legal on a
    #: columnar edge — mixed streams tile the sequence space by count.
    columnar: bool = False

    @property
    def spsc_queues(self) -> bool:
        """Each underlying queue has exactly one producer and one consumer.

        True for every per-consumer fan-out (the lowering only emits
        those with a single producer) and for 1→1 shared channels — the
        common case after plan lowering, where the native executor can
        use lock-free SPSC ring buffers instead of the MPMC fallback.
        """
        return self.producers == 1 and (self.per_consumer or self.consumers == 1)


@dataclass
class SourceUnit:
    """The stream-generator thread."""

    spec: SourceSpec
    out_channel: str

    @property
    def track(self) -> str:
        return self.spec.name


@dataclass
class StageUnit:
    """One worker thread: a replica of a leaf stage.

    ``consumer_index`` is the unit's slot on its input channel;
    ``keep_seq`` preserves upstream sequence numbers (replicated
    segments) versus renumbering (serial segments); ``forward_empty``
    makes a filtered item leave an empty envelope behind so the
    downstream reorder point does not stall; ``reorder_input``
    re-sequences the input before processing (the unit is the reorder
    point after an ordered farm).
    """

    spec: StageSpec
    replica: int
    replicas: int
    in_channel: str
    consumer_index: int
    out_channel: Optional[str]
    reorder_input: bool = False
    keep_seq: bool = False
    forward_empty: bool = False
    #: placement group for the process backend: every unit of one farm
    #: replica's private chain shares a group (``"{segment}#{replica}"``)
    #: and is shipped to one worker process together; ``None`` for serial
    #: units, which always stay in the parent.
    group: Optional[str] = None

    @property
    def track(self) -> str:
        """Span/thread track name; identical across executors."""
        return f"{self.spec.name}[{self.replica}]"

    @property
    def metric_name(self) -> str:
        return self.spec.name


@dataclass
class SequencerUnit:
    """Implicit collector+emitter between two replicated segments."""

    name: str          #: downstream segment name (trace track ``seq:{name}``)
    ordered: bool      #: reorder (upstream farm was ordered) vs merge only
    in_channel: str
    out_channel: str

    @property
    def track(self) -> str:
        return f"seq:{self.name}"


@dataclass
class ExecutionPlan:
    """Everything an executor needs to run a graph."""

    graph_name: str
    source: SourceUnit
    stages: List[StageUnit] = field(default_factory=list)
    sequencers: List[SequencerUnit] = field(default_factory=list)
    channels: Dict[str, ChannelSpec] = field(default_factory=dict)
    #: last segment is replicated+ordered: sink outputs sort by seq
    sort_output: bool = False
    #: replicated segments the controller may grow/shrink, by name
    elastic: Dict[str, "ElasticGroup"] = field(default_factory=dict)
    #: what the graph optimizer did while lowering (None = optimizer off)
    opt: Optional["OptReport"] = None
    #: per-edge block-transport disposition: ``"columnar"``, ``"scalar"``
    #: (endpoints not block-capable) or a named fallback gate
    columnar: Dict[str, str] = field(default_factory=dict)
    #: the sink (final collection) takes ItemBlock envelopes un-unpacked;
    #: off when the columnar fast path is gated for this run
    sink_columnar: bool = False

    @property
    def total_threads(self) -> int:
        """Thread count of the lowering: source + workers + sequencers."""
        return 1 + len(self.stages) + len(self.sequencers)

    @property
    def tracks(self) -> List[str]:
        """Every *observable* track name, in spawn order.

        A fused unit owns one thread but one track per original stage —
        trace structure is part of the metric-identity guarantee, so
        fusion must not change this list's contents.
        """
        out = [self.source.track] + [s.track for s in self.sequencers]
        for u in self.stages:
            for spec in (u.spec.fused_from or (u.spec,)):
                out.append(f"{spec.name}[{u.replica}]")
        return out

    def metric_replicas(self) -> Dict[str, int]:
        """Metrics identity: stage metric name -> replica width.

        Fused units contribute one entry per original stage, so the
        identity is invariant under optimization.
        """
        out: Dict[str, int] = {}
        for u in self.stages:
            for spec in (u.spec.fused_from or (u.spec,)):
                out[spec.name] = u.replicas
        return out


@dataclass
class ElasticGroup:
    """One replicated segment the autonomic controller may re-size.

    Recorded on the plan for every replicated segment without a
    ``placement`` hook (a custom placement function bakes in the replica
    count, so such farms are never elastic).  ``replicas`` is the
    *initial* count; the executors' actuators track the live count.
    ``min_replicas``/``max_replicas`` are the per-node bounds (``None``
    defers to the active :class:`~repro.control.TuningPolicy`).
    """

    name: str
    chain: List[StageSpec]
    replicas: int
    min_replicas: Optional[int]
    max_replicas: Optional[int]
    ordered: bool
    scheduling: Scheduling
    in_channel: str
    out_channel: Optional[str]
    keep_seq: bool
    forward_empty: bool

    def resolve_bounds(self, policy_min: int, policy_max: int) -> tuple[int, int]:
        """Effective (min, max) given the policy's global defaults.

        The initial replica count always stays inside the result, so a
        farm built wider than the policy's cap is never force-shrunk by
        clamping (only by an explicit per-node bound).
        """
        lo = self.min_replicas if self.min_replicas is not None \
            else min(policy_min, self.replicas)
        hi = self.max_replicas if self.max_replicas is not None \
            else max(policy_max, self.replicas)
        return lo, hi


def clone_replica_units(group: ElasticGroup, r: int, replicas: int,
                        consumer_index: int,
                        ) -> tuple[List[StageUnit], List[ChannelSpec]]:
    """Build the plan units (and private chain hops) for a new replica.

    Mirrors pass 2 of :func:`build_plan` for one replica: ``r`` is the
    new replica's index (monotonic, never reused), ``replicas`` the live
    count after the grow (cosmetic: it feeds ``ctx.replicas``), and
    ``consumer_index`` the slot returned by the input edge's
    ``add_consumer``.
    """
    units: List[StageUnit] = []
    specs: List[ChannelSpec] = []
    upstream = group.in_channel
    consumer = consumer_index
    for j, spec in enumerate(group.chain):
        last_in_chain = j + 1 == len(group.chain)
        if last_in_chain:
            out = group.out_channel
        else:
            out = f"{group.chain[j + 1].name}.w{r}"
            specs.append(ChannelSpec(out, 1, 1))
        units.append(StageUnit(
            spec=spec, replica=r, replicas=replicas,
            in_channel=upstream, consumer_index=consumer,
            out_channel=out, reorder_input=False,
            keep_seq=group.keep_seq, forward_empty=group.forward_empty,
            group=f"{group.name}#{r}",
        ))
        upstream, consumer = out, 0
    return units, specs


@dataclass
class _Segment:
    """Normalized top-level element: a (possibly replicated) chain."""

    chain: List[StageSpec]
    replicas: int
    ordered: bool
    scheduling: Scheduling
    placement: Optional[Callable[[int, int], int]]
    min_replicas: Optional[int] = None
    max_replicas: Optional[int] = None

    @property
    def name(self) -> str:
        # Channel/sequencer naming anchors on the chain head so flat
        # graphs keep their historical trace-track names.
        return self.chain[0].name

    @property
    def replicated(self) -> bool:
        # An elastically growable farm starting at one replica lowers
        # with full farm structure (keep_seq, sequencer boundaries) so
        # the controller can add workers without re-planning.
        return self.replicas > 1 or self.growable

    @property
    def growable(self) -> bool:
        return self.max_replicas is not None and self.max_replicas > self.replicas


def _segments(elements: List[Union[StageSpec, Farm]],
              config: ExecConfig) -> List[_Segment]:
    segs: List[_Segment] = []
    for el in elements:
        if isinstance(el, StageSpec):
            sched = el.scheduling if el.scheduling is not None else config.scheduling
            segs.append(_Segment([el], el.replicas, el.ordered, sched,
                                 el.placement, el.min_replicas,
                                 el.max_replicas))
        else:
            assert isinstance(el, Farm)
            sched = el.scheduling if el.scheduling is not None else config.scheduling
            segs.append(_Segment(_worker_chain(el), el.replicas, el.ordered,
                                 sched, el.placement, el.min_replicas,
                                 el.max_replicas))
    return segs


def build_plan(graph: PipelineGraph,
               config: Optional[ExecConfig] = None) -> ExecutionPlan:
    """Lower ``graph`` into an :class:`ExecutionPlan`.

    The graph optimizer (:mod:`repro.core.opt`) runs here, between
    flattening and lowering, unless the resolved ``config.optimize`` is
    off.  A config the executor already resolved passes through as-is.
    Besides the optimizer and per-stage scheduling defaults (which
    decide channel fan-out policy), the plan's structure — units,
    channels, sequencer points, thread count — is config-independent.
    """
    cfg = (config if config is not None else ExecConfig()).resolved()
    graph.validate()
    elements = graph.flattened()
    opt_report = None
    if cfg.optimize:
        from repro.core.opt import optimize

        elements, opt_report = optimize(elements)
    segs = _segments(elements, cfg)

    plan = ExecutionPlan(graph_name=graph.name,
                         source=SourceUnit(graph.source, out_channel=""),
                         opt=opt_report)

    def channel(name: str, producers: int, consumers: int,
                per_consumer: bool = False, placement=None) -> str:
        plan.channels[name] = ChannelSpec(name, producers, consumers,
                                          per_consumer, placement)
        return name

    # Pass 1: segment boundaries — entry channels, sequencers, reorder flags.
    entry: List[str] = []      # channel each segment reads from
    target: List[str] = []     # channel the previous segment writes to
    reorder: List[bool] = []   # segment's first unit reorders its input
    prev_reps = 1
    prev_replicated = False
    prev_ordered = False
    for seg in segs:
        per_consumer = seg.replicated and (
            seg.scheduling is Scheduling.ROUND_ROBIN or seg.placement is not None)
        if prev_replicated and seg.replicated:
            # farm -> farm: a sequencer merges (and maybe reorders).
            mid = channel(f"{seg.name}.mid", prev_reps, 1)
            stage_in = channel(seg.name, 1, seg.replicas, per_consumer,
                               seg.placement)
            plan.sequencers.append(SequencerUnit(
                seg.name, prev_ordered, in_channel=mid, out_channel=stage_in))
            target.append(mid)
            reorder.append(False)
        else:
            stage_in = channel(seg.name, prev_reps, seg.replicas,
                               per_consumer, seg.placement)
            target.append(stage_in)
            reorder.append(prev_ordered and not seg.replicated)
        entry.append(stage_in)
        prev_reps = seg.replicas
        prev_replicated = seg.replicated
        prev_ordered = seg.replicated and seg.ordered

    plan.source.out_channel = target[0]

    # Pass 2: worker units (replica chains with private per-chain channels).
    for i, seg in enumerate(segs):
        seg_out = target[i + 1] if i + 1 < len(segs) else None
        keep_seq = seg.replicated
        forward_empty = keep_seq and seg.ordered
        if seg.replicated and seg.placement is None:
            plan.elastic[seg.name] = ElasticGroup(
                name=seg.name, chain=list(seg.chain), replicas=seg.replicas,
                min_replicas=seg.min_replicas, max_replicas=seg.max_replicas,
                ordered=seg.ordered, scheduling=seg.scheduling,
                in_channel=entry[i], out_channel=seg_out,
                keep_seq=keep_seq, forward_empty=forward_empty)
        for r in range(seg.replicas):
            upstream = entry[i]
            consumer = r
            for j, spec in enumerate(seg.chain):
                last_in_chain = j + 1 == len(seg.chain)
                if last_in_chain:
                    out = seg_out
                else:
                    # Private hop to the next stage of this worker's chain.
                    out = channel(f"{seg.chain[j + 1].name}.w{r}", 1, 1)
                plan.stages.append(StageUnit(
                    spec=spec, replica=r, replicas=seg.replicas,
                    in_channel=upstream, consumer_index=consumer,
                    out_channel=out,
                    reorder_input=reorder[i] and j == 0,
                    keep_seq=keep_seq, forward_empty=forward_empty,
                    group=f"{seg.name}#{r}" if seg.replicated else None,
                ))
                upstream, consumer = out, 0

    last = segs[-1]
    plan.sort_output = last.replicated and last.ordered
    _plan_columnar(plan, cfg)
    return plan


def _spec_kernelized(spec: StageSpec) -> bool:
    """The unit will run a batch kernel (vectorize already resolved)."""
    v = spec.vectorized
    return bool(v) and v != "auto"


def _plan_columnar(plan: ExecutionPlan, cfg: ExecConfig) -> None:
    """Per-edge block typing: prove which edges may carry ItemBlocks.

    An edge is columnar iff every producer emits blocks (a block source,
    a batch-kernel stage that can preserve seq ranges, or a sequencer on
    a columnar input) and every consumer accepts them (a batch-kernel
    stage, an ``accepts_blocks`` sink stage, or a sequencer — sequencers
    reorder by seq *ranges*).  Whole-plan gates (``columnar=False``, a
    ``max_tokens`` throttle) and per-edge gates (elastic boundaries under
    an active policy, ``placement`` hooks, which route by per-item seq)
    force the scalar path; the dispositions land on ``plan.columnar`` and
    the OptReport so the harness can surface columnar edge counts and
    fallback reasons.
    """
    channels = plan.channels
    gate: Optional[str] = None
    if not cfg.columnar:
        gate = "disabled"
    elif cfg.max_tokens is not None:
        gate = "token-gate"

    blocked: Dict[str, str] = {}
    for name, spec in channels.items():
        if spec.placement is not None:
            blocked[name] = "placement"
    if gate is None and cfg.policy is not None:
        # an active controller may rewire these edges mid-run (worker
        # add/retire); keep them scalar so RETIRE fan-out and rerouting
        # stay envelope-granular
        for g in plan.elastic.values():
            blocked.setdefault(g.in_channel, "elastic")
            if g.out_channel is not None:
                blocked.setdefault(g.out_channel, "elastic")

    producers: Dict[str, list] = {name: [] for name in channels}
    consumers: Dict[str, list] = {name: [] for name in channels}
    producers[plan.source.out_channel].append(plan.source)
    for s in plan.sequencers:
        producers[s.out_channel].append(s)
        consumers[s.in_channel].append(s)
    for u in plan.stages:
        consumers[u.in_channel].append(u)
        if u.out_channel is not None:
            producers[u.out_channel].append(u)

    columnar: set = set()

    def emits(unit) -> bool:
        if isinstance(unit, SourceUnit):
            return unit.spec.emits_blocks
        if isinstance(unit, SequencerUnit):
            return unit.in_channel in columnar
        if not _spec_kernelized(unit.spec):
            return False
        # a keep_seq unit must preserve upstream seqs, so it can only
        # emit range blocks when its input already arrives as ranges;
        # serial units renumber and may pack freely
        return (not unit.keep_seq) or unit.in_channel in columnar

    def accepts(unit) -> bool:
        if isinstance(unit, SequencerUnit):
            return True
        if _spec_kernelized(unit.spec):
            return True
        # a block-aware scalar stage consumes a whole block per
        # process() call, collapsing its seq range into one envelope —
        # legal only where the stage renumbers anyway; a keep_seq unit
        # doing that would break the range tiling downstream reorder
        # points rely on
        return unit.spec.accepts_blocks and not unit.keep_seq

    def capable(name: str) -> bool:
        return (all(emits(p) for p in producers[name])
                and all(accepts(c) for c in consumers[name]))

    changed = True
    while changed:
        changed = False
        for name in channels:
            if name in columnar or name in blocked:
                continue
            if capable(name):
                columnar.add(name)
                changed = True

    disp: Dict[str, str] = {}
    for name in channels:
        if name in columnar:
            disp[name] = gate or "columnar"
        elif name in blocked and capable(name):
            disp[name] = blocked[name]
        else:
            disp[name] = "scalar"
    if gate is None:
        for name in columnar:
            channels[name].columnar = True
        plan.sink_columnar = True
    plan.columnar = disp
    if plan.opt is not None:
        plan.opt.columnar = disp


#: side label for units that stay in the parent process
PARENT_SIDE = "parent"


@dataclass
class ProcessPlacement:
    """Where each plan unit and channel lives under ``workers="process"``.

    Derived from an :class:`ExecutionPlan` by
    :func:`plan_process_placement`; purely descriptive — the process
    executor consumes it, the thread executor never computes it.

    * ``groups`` — process-eligible placement groups: every unit of a
      farm replica's chain, shipped together to one worker process.  A
      group qualifies only if none of its stages is ``pinned`` and none
      is the plan's sink (the sink appends to parent-side output state).
    * ``parent_stages`` — stage units hosted by the parent: serial
      stages plus whole groups disqualified by pinning/sink duty.  The
      source and every sequencer are always parent-side.
    * ``local_channels`` — channel name -> owning group, for edges whose
      producer and consumer both live in that group (a worker chain's
      private hops); these use ordinary in-process rings inside the
      worker.
    * ``parent_channels`` — edges entirely inside the parent (PR 3
      rings, unchanged).
    * ``boundary_channels`` — edges crossing the process boundary; the
      executor lowers these onto shared-memory ring channels.
    """

    groups: Dict[str, List[StageUnit]]
    parent_stages: List[StageUnit]
    local_channels: Dict[str, str]
    parent_channels: List[str]
    boundary_channels: List[str]

    @property
    def any_eligible(self) -> bool:
        """At least one group can leave the parent (else fall back)."""
        return bool(self.groups)

    def side_of(self, unit: StageUnit) -> str:
        """``PARENT_SIDE`` or the unit's process-group name."""
        if unit.group is not None and unit.group in self.groups:
            return unit.group
        return PARENT_SIDE


def plan_process_placement(plan: ExecutionPlan) -> ProcessPlacement:
    """Classify ``plan``'s units and channels for the process backend.

    Placement is group-granular: a farm replica's whole chain moves (or
    stays) as one unit, so its private chain hops never cross the
    boundary.  A group is parent-pinned when any stage of it sets
    ``StageSpec.pinned`` or is the sink (``out_channel is None``) —
    sinks feed the parent's output collector directly.
    """
    by_group: Dict[str, List[StageUnit]] = {}
    for u in plan.stages:
        if u.group is not None:
            by_group.setdefault(u.group, []).append(u)

    groups = {
        g: units for g, units in by_group.items()
        if all(not u.spec.pinned and u.out_channel is not None for u in units)
    }
    parent_stages = [u for u in plan.stages
                     if u.group is None or u.group not in groups]

    producers: Dict[str, set] = {name: set() for name in plan.channels}
    consumers: Dict[str, set] = {name: set() for name in plan.channels}
    producers[plan.source.out_channel].add(PARENT_SIDE)
    for s in plan.sequencers:
        producers[s.out_channel].add(PARENT_SIDE)
        consumers[s.in_channel].add(PARENT_SIDE)
    for u in plan.stages:
        side = u.group if u.group in groups else PARENT_SIDE
        consumers[u.in_channel].add(side)
        if u.out_channel is not None:
            producers[u.out_channel].add(side)

    local_channels: Dict[str, str] = {}
    parent_channels: List[str] = []
    boundary_channels: List[str] = []
    for name in plan.channels:
        sides = producers[name] | consumers[name]
        if sides == {PARENT_SIDE}:
            parent_channels.append(name)
        elif len(sides) == 1:
            local_channels[name] = next(iter(sides))
        else:
            boundary_channels.append(name)

    return ProcessPlacement(groups=groups, parent_stages=parent_stages,
                            local_channels=local_channels,
                            parent_channels=parent_channels,
                            boundary_channels=boundary_channels)
