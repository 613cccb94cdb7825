"""The lock-minimal channel layer: rings, disciplines, batching, abort.

Covers the :mod:`repro.core.channel` primitives directly, the
:class:`~repro.core.executor_native.Edge` wrapper (EOS aggregation,
placement routing), and the event-driven abort protocol — including the
latency bar: a thread parked on a channel must observe an abort within
25 ms, in both disciplines, on shared and per-consumer edges.
"""

import sys
import threading
import time

import pytest

from repro.core.channel import (
    Aborted,
    AbortSignal,
    MpmcChannel,
    SpscChannel,
    make_channel,
)
from repro.core.config import ExecConfig, ExecMode
from repro.core.executor_native import Edge, Env, _ErrorBox
from repro.core.graph import StageSpec, linear_graph
from repro.core.items import EOS
from repro.core.plan import ChannelSpec
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource

CHANNELS = [SpscChannel, MpmcChannel]
DISCIPLINES = [True, False]  # blocking, spin

ABORT_LATENCY = 0.025  # seconds — the event-driven abort bar


def _chan(cls, capacity=4, blocking=True, abort=None):
    return cls(capacity, abort if abort is not None else AbortSignal(),
               blocking)


# -- basic semantics, all implementations x both disciplines -----------------

@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_fifo_roundtrip(cls, blocking):
    ch = _chan(cls, capacity=8, blocking=blocking)
    for i in range(5):
        ch.put(i)
    assert ch.qsize() == 5
    assert [ch.get() for _ in range(5)] == list(range(5))
    assert ch.qsize() == 0


@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_put_many_get_many_roundtrip(cls, blocking):
    ch = _chan(cls, capacity=4, blocking=blocking)
    items = list(range(11))
    done = threading.Event()

    def producer():
        ch.put_many(items)  # > capacity: must chunk through the ring
        done.set()

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    out = []
    while len(out) < len(items):
        out.extend(ch.get_many(4))
    t.join(timeout=5)
    assert done.is_set()
    assert out == items


@pytest.mark.parametrize("cls", CHANNELS)
def test_get_many_respects_max_n(cls):
    ch = _chan(cls, capacity=8)
    ch.put_many([1, 2, 3, 4, 5])
    out = ch.get_many(2)
    assert 1 <= len(out) <= 2
    assert out == [1, 2][: len(out)]


@pytest.mark.parametrize("cls", [SpscChannel, MpmcChannel])
def test_get_many_stop_sentinel_returned_alone(cls):
    """A stop sentinel never rides in the middle of a batch: items before
    it drain first, then the next call returns ``[stop]`` exactly."""
    stop = object()
    ch = _chan(cls, capacity=8)
    ch.put_many([1, 2, stop, 3])
    assert ch.get_many(8, stop=stop) == [1, 2]
    assert ch.get_many(8, stop=stop) == [stop]
    assert ch.get_many(8, stop=stop) == [3]


@pytest.mark.parametrize("cls", [SpscChannel, MpmcChannel])
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_bounded_capacity_backpressure(cls, blocking):
    """A producer past capacity blocks until the consumer makes space."""
    ch = _chan(cls, capacity=2, blocking=blocking)
    ch.put(0)
    ch.put(1)
    entered = threading.Event()
    finished = threading.Event()

    def producer():
        entered.set()
        ch.put(2)
        finished.set()

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    entered.wait(1)
    time.sleep(0.02)
    assert not finished.is_set(), "put should block on a full channel"
    assert ch.get() == 0
    assert finished.wait(1)
    assert [ch.get(), ch.get()] == [1, 2]
    t.join(timeout=1)


@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_threaded_stream_transfers_everything(cls, blocking):
    ch = _chan(cls, capacity=4, blocking=blocking)
    n = 500

    def producer():
        for i in range(n):
            ch.put(i)

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    assert [ch.get() for _ in range(n)] == list(range(n))
    t.join(timeout=5)


def test_make_channel_selection():
    abort = AbortSignal()
    assert isinstance(make_channel(4, abort, spsc=True), SpscChannel)
    assert isinstance(make_channel(4, abort, spsc=False), MpmcChannel)
    with pytest.raises(ValueError, match="capacity"):
        SpscChannel(0, abort)


def test_exec_config_validates_channel_knobs():
    with pytest.raises(ValueError):
        ExecConfig(batch_size=0)
    with pytest.raises(TypeError):
        ExecConfig(channel_backend="ring")  # the knob is gone
    ExecConfig(batch_size=8)  # valid


# -- abort protocol ----------------------------------------------------------

def test_abort_signal_late_registration_wakes_immediately():
    sig = AbortSignal()
    sig.set()
    ch = SpscChannel(2, sig)  # registered after the signal fired
    with pytest.raises(Aborted):
        ch.get()


def _measure_abort_latency(blocked_op, abort):
    """Run ``blocked_op`` in a thread, fire ``abort``, return wake latency."""
    woke = []
    started = threading.Event()

    def body():
        started.set()
        try:
            blocked_op()
        except Aborted:
            woke.append(time.perf_counter())

    t = threading.Thread(target=body, daemon=True)
    t.start()
    started.wait(1)
    time.sleep(0.05)  # let the thread actually park on the channel
    t0 = time.perf_counter()
    abort.set()
    t.join(timeout=2)
    assert not t.is_alive(), "aborted thread never woke"
    assert woke, "thread exited without observing Aborted"
    return woke[0] - t0


@pytest.mark.slow
@pytest.mark.parametrize("cls", [SpscChannel, MpmcChannel])
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_abort_wakes_blocked_get_within_latency_bar(cls, blocking):
    abort = AbortSignal()
    ch = _chan(cls, capacity=2, blocking=blocking, abort=abort)
    latency = _measure_abort_latency(ch.get, abort)  # empty channel
    assert latency < ABORT_LATENCY


@pytest.mark.slow
@pytest.mark.parametrize("cls", [SpscChannel, MpmcChannel])
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_abort_wakes_blocked_put_within_latency_bar(cls, blocking):
    abort = AbortSignal()
    ch = _chan(cls, capacity=1, blocking=blocking, abort=abort)
    ch.put(0)  # full channel
    latency = _measure_abort_latency(lambda: ch.put(1), abort)
    assert latency < ABORT_LATENCY


def _edge(producers=1, consumers=1, per_consumer=False, placement=None,
          capacity=4, blocking=True):
    errors = _ErrorBox()
    spec = ChannelSpec("e", producers, consumers, per_consumer=per_consumer,
                       placement=placement)
    return Edge(spec, capacity, errors, blocking=blocking), errors


@pytest.mark.slow
@pytest.mark.parametrize("per_consumer", [False, True])
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_abort_wakes_edge_consumer_within_latency_bar(per_consumer, blocking):
    """The latency bar holds at the Edge level too — shared and
    per-consumer, blocking and spin."""
    edge, errors = _edge(consumers=2, per_consumer=per_consumer,
                         blocking=blocking)
    latency = _measure_abort_latency(lambda: edge.get(1), errors)
    assert latency < ABORT_LATENCY


# -- Edge: EOS aggregation and placement routing -----------------------------

def test_put_eos_routes_around_placement():
    """Regression: EOS has no ``seq``, so a placement hook must never see
    it — put_eos delivers the sentinel to every consumer directly."""
    def placement(seq, n):  # crashes if handed EOS (no .seq attribute)
        return seq % n

    edge, _ = _edge(consumers=3, per_consumer=True, placement=placement)
    edge.put(Env(0, (10,)))
    edge.put(Env(1, (11,)))
    edge.put_eos()  # must not call placement(EOS.seq, ...)
    assert edge.get(0).payloads == (10,)
    assert edge.get(1).payloads == (11,)
    for consumer in range(3):
        assert edge.get(consumer) is EOS


def test_put_eos_shared_queue_one_sentinel_per_consumer():
    edge, _ = _edge(producers=2, consumers=3)
    edge.put_eos()  # first producer: not released yet
    assert edge._channels[0].qsize() == 0
    edge.put_eos()  # last producer fans out one EOS per consumer
    for _ in range(3):
        assert edge.get(0) is EOS


def test_edge_put_routes_by_placement():
    edge, _ = _edge(consumers=2, per_consumer=True,
                    placement=lambda seq, n: seq % n)
    for i in range(6):
        edge.put(Env(i, (i,)))
    edge.put_eos()
    got0 = [edge.get(0) for _ in range(4)]
    got1 = [edge.get(1) for _ in range(4)]
    assert [e.seq for e in got0[:-1]] == [0, 2, 4] and got0[-1] is EOS
    assert [e.seq for e in got1[:-1]] == [1, 3, 5] and got1[-1] is EOS


def test_edge_get_many_never_consumes_past_eos():
    edge, _ = _edge(producers=1, consumers=2)  # shared queue, 2 consumers
    edge.put(Env(0, (1,)))
    edge.put_eos()  # two sentinels follow the item
    batch = edge.get_many(0, max_n=8)
    assert [e.seq for e in batch] == [0]
    assert edge.get_many(0, max_n=8) == [EOS]
    # the second consumer's sentinel is still there
    assert edge.get_many(1, max_n=8) == [EOS]


# -- executor integration: abort latency end-to-end --------------------------

@pytest.mark.slow
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_pipeline_failure_aborts_blocked_source_quickly(blocking):
    """A stage failing must tear the whole pipeline down fast even while
    the source is parked on a full queue (the old polling executor paid
    a 50 ms poll interval here)."""
    class Boom:
        def __call__(self, x):
            time.sleep(0.02)  # let the source fill the queue and park
            if x == 2:
                raise RuntimeError("boom")
            return x

    g = linear_graph(
        IterSource(range(10_000)),
        StageSpec(FunctionStage(Boom()), "boom", replicas=1),
        StageSpec(FunctionStage(lambda x: x), "sink"),
    )
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="boom"):
        execute(g, ExecConfig(mode=ExecMode.NATIVE, queue_capacity=2,
                              blocking=blocking))
    wall = time.perf_counter() - t0
    # generous headroom over the two sleeps + scheduling noise; the old
    # polling loops added multiples of 50 ms on top
    assert wall < 1.0


# -- randomized interleaving stress: capacity=2 forces constant wraparound ---

@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_spsc_wraparound_stress(seed, blocking):
    """At capacity=2 the ring indices wrap every other item; a seeded mix
    of put/put_many racing get/get_many must still deliver every item in
    order (the wraparound path is where a masking bug would scramble or
    drop items)."""
    import random

    items = list(range(500))
    ch = _chan(SpscChannel, capacity=2, blocking=blocking)

    def producer():
        prng = random.Random(seed)
        i = 0
        while i < len(items):
            chunk = items[i:i + prng.randint(1, 3)]
            if prng.random() < 0.5:
                ch.put_many(chunk)
            else:
                for x in chunk:
                    ch.put(x)
            i += len(chunk)

    t = threading.Thread(target=producer)
    t.start()
    crng = random.Random(seed + 1)
    got = []
    while len(got) < len(items):
        if crng.random() < 0.5:
            got.append(ch.get())
        else:
            got.extend(ch.get_many(crng.randint(1, 4)))
    t.join()
    assert got == items


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_mpmc_get_many_eos_isolation_stress(seed):
    """A stop sentinel comes back from ``get_many`` alone — never mixed
    into a batch — wherever it lands in the stream, under capacity=2
    wraparound and randomized producer/consumer batch sizes."""
    import random

    rng = random.Random(seed)
    for trial in range(20):
        stop = object()
        ch = _chan(MpmcChannel, capacity=2)
        n = rng.randint(1, 12)
        cut = rng.randint(0, n)
        payload = list(range(cut)) + [stop] + list(range(cut, n))
        pseed, maxn = rng.randint(0, 10**6), rng.randint(1, 5)

        def producer():
            prng = random.Random(pseed)
            i = 0
            while i < len(payload):
                k = prng.randint(1, 3)
                ch.put_many(payload[i:i + k])
                i += k

        t = threading.Thread(target=producer)
        t.start()
        batches, count = [], 0
        while count < len(payload):
            b = ch.get_many(maxn, stop=stop)
            batches.append(b)
            count += len(b)
        t.join()
        assert [x for b in batches for x in b] == payload
        for b in batches:
            if any(x is stop for x in b):
                assert b == [stop], f"sentinel rode in a batch: {b!r}"


# -- wake-once: lost wake-ups fail fast, uncontended hand-offs stay lock-free --

WAKE_DEADLINE = 5.0  # seconds; a lost wake-up parks a thread forever


def _run_peers(bodies, abort):
    """Run ``bodies`` on threads joined by one deadline; a thread still
    parked after it is a lost wake-up, freed by ``abort`` before the
    test fails."""
    def guarded(body):
        try:
            body()
        except Aborted:
            pass

    threads = [threading.Thread(target=guarded, args=(b,), daemon=True)
               for b in bodies]
    for t in threads:
        t.start()
    deadline = time.monotonic() + WAKE_DEADLINE
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    hung = sum(t.is_alive() for t in threads)
    if hung:
        abort.set()
        for t in threads:
            t.join(1.0)
    assert not hung, f"{hung} thread(s) still parked after {WAKE_DEADLINE} s"


@pytest.mark.parametrize("cls,peers", [(SpscChannel, 1), (MpmcChannel, 1),
                                       (MpmcChannel, 2)],
                         ids=["spsc", "mpmc", "mpmc-2x2"])
@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("put_many", [False, True],
                         ids=["put", "put_many"])
@pytest.mark.parametrize("get_many", [False, True],
                         ids=["get", "get_many"])
def test_blocking_hand_off_never_loses_a_wake_up(cls, peers, capacity,
                                                 put_many, get_many):
    """Every mix of single and batched ops, at capacities where nearly
    every op parks one side, delivers the whole stream before the
    deadline — each producer's items in order, one stop per consumer."""
    import random

    abort = AbortSignal()
    ch = _chan(cls, capacity=capacity, blocking=True, abort=abort)
    stop = object()
    n = 400
    streams = [[(p, i) for i in range(n)] for p in range(peers)]
    got: list = [[] for _ in range(peers)]

    def producer(items, seed):
        prng = random.Random(seed)
        i = 0
        while i < len(items):
            k = prng.randint(1, 3) if put_many else 1
            if put_many:
                ch.put_many(items[i:i + k])
            else:
                ch.put(items[i])
            i += k

    def consumer(out):
        while True:
            batch = ch.get_many(3, stop=stop) if get_many else [ch.get()]
            if batch[0] is stop:
                assert batch == [stop]
                return
            out.extend(batch)

    def producers():
        _run_peers([lambda s=s, p=p: producer(s, p)
                    for p, s in enumerate(streams)], abort)
        for _ in range(peers):
            ch.put(stop)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more interleavings per item
    try:
        _run_peers([producers] + [lambda o=o: consumer(o) for o in got],
                   abort)
    finally:
        sys.setswitchinterval(interval)
    merged = sorted(x for out in got for x in out)
    assert merged == sorted(x for s in streams for x in s)
    for out in got:
        for p in range(peers):
            mine = [i for q, i in out if q == p]
            assert mine == sorted(mine)


class _CountingCond:
    """Proxy recording every use of a channel's condition variable."""

    def __init__(self, cond):
        self._cond = cond
        self.uses: list = []

    def __getattr__(self, name):
        self.uses.append(name)
        return getattr(self._cond, name)

    def __enter__(self):
        self.uses.append("__enter__")
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)


def _count_conds(ch):
    names = ("_cond",) if type(ch) is SpscChannel else ("_not_empty",
                                                        "_not_full")
    proxies = []
    for name in names:
        proxies.append(_CountingCond(getattr(ch, name)))
        setattr(ch, name, proxies[-1])
    return proxies


@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_hand_off_without_a_parked_peer_never_touches_the_condition(
        cls, blocking):
    ch = _chan(cls, capacity=4, blocking=blocking)
    proxies = _count_conds(ch)
    ch.put(1)
    assert ch.get() == 1
    ch.put_many([2, 3])
    assert ch.get_many(4) == [2, 3]
    assert [p.uses for p in proxies] == [[] for _ in proxies]


@pytest.mark.parametrize("cls", CHANNELS)
def test_parked_peer_is_notified_once(cls):
    """Items published while a woken consumer is still getting back onto
    a core do not notify it again."""
    ch = _chan(cls, capacity=8)
    proxies = _count_conds(ch)
    got = []
    t = threading.Thread(target=lambda: got.append(ch.get()), daemon=True)
    t.start()
    parked = (lambda: ch._get_waiting) if cls is SpscChannel else (
        lambda: ch._getters == 1)
    deadline = time.monotonic() + WAKE_DEADLINE
    while not parked() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert parked()
    for i in range(3):
        ch.put(i)
    t.join(WAKE_DEADLINE)
    assert got == [0]
    assert sum(p.uses.count("notify") for p in proxies) == 1


# -- the shared-memory ring (process-backend boundary edges) -----------------

def _shm_pair(capacity=64, blocking=True):
    from repro.core.channel import ShmAbortFlag, ShmChannel

    abort = ShmAbortFlag()
    ch = ShmChannel(capacity, abort, blocking)
    return ch, abort


def _shm_close(ch, abort):
    ch.close()
    ch.unlink()
    abort.close()
    abort.unlink()


@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_shm_channel_roundtrip_with_wraparound(blocking):
    """A 64-byte ring forces every frame to wrap; variable-size payloads
    must come back intact and in order."""
    ch, abort = _shm_pair(capacity=64, blocking=blocking)
    try:
        payloads = [[i, "x" * (i % 11)] for i in range(300)]

        def producer():
            for p in payloads:
                ch.put(p)

        t = threading.Thread(target=producer)
        t.start()
        got = [ch.get() for _ in range(len(payloads))]
        t.join()
        assert got == payloads
    finally:
        _shm_close(ch, abort)


def test_shm_channel_rejects_oversized_frame():
    ch, abort = _shm_pair(capacity=64)
    try:
        with pytest.raises(ValueError):
            ch.put("y" * 4096)
    finally:
        _shm_close(ch, abort)


@pytest.mark.slow
@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_shm_abort_wakes_blocked_get(blocking):
    ch, abort = _shm_pair(capacity=64, blocking=blocking)
    try:
        latency = _measure_abort_latency(ch.get, abort)
        assert latency < ABORT_LATENCY
    finally:
        _shm_close(ch, abort)


# -- columnar transport: weighed occupancy and shm object frames -----------


def _weigh_pairs(item):
    # stand-in for the executor's _env_weight: (payload, weight) tuples
    return item[1]


@pytest.mark.parametrize("cls", [SpscChannel, MpmcChannel])
def test_qsize_items_reports_logical_items(cls):
    ch = cls(8, AbortSignal(), blocking=True, weigh=_weigh_pairs)
    ch.put(("block", 16))
    ch.put(("scalar", 1))
    assert ch.qsize() == 2
    assert ch.qsize_items() == 17
    assert ch.get() == ("block", 16)
    assert ch.qsize_items() == 1
    ch.put_many([("b", 4), ("c", 2)])
    assert ch.qsize_items() == 7
    got = ch.get_many(max_n=8)
    assert got == [("scalar", 1), ("b", 4), ("c", 2)]
    assert ch.qsize_items() == 0


@pytest.mark.parametrize("cls", CHANNELS)
def test_qsize_items_defaults_to_qsize_without_weigher(cls):
    ch = cls(4, AbortSignal(), blocking=True)
    ch.put("a")
    ch.put("b")
    assert ch.qsize_items() == ch.qsize() == 2


@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_shm_put_obj_roundtrip_with_wraparound(blocking):
    """Protocol-5 gather frames on the smallest viable ring (a ~190-byte
    frame in a 256-byte ring holds at most one frame, so every second
    frame wraps): the out-of-band numpy columns come back bit-identical."""
    np = pytest.importorskip("numpy")
    ch, abort = _shm_pair(capacity=256, blocking=blocking)
    try:
        payloads = [np.arange(i, i + 5, dtype=np.float64)
                    for i in range(200)]

        def producer():
            for i, arr in enumerate(payloads):
                ch.put_obj([("env", i, arr)], items=len(arr))

        t = threading.Thread(target=producer)
        t.start()
        for i, arr in enumerate(payloads):
            tag, idx, back = ch.get_obj()[0]
            assert (tag, idx) == ("env", i)
            assert back.dtype == arr.dtype and np.array_equal(back, arr)
        t.join()
        assert ch.qsize_items() == 0
    finally:
        _shm_close(ch, abort)


@pytest.mark.parametrize("blocking", DISCIPLINES)
def test_shm_put_obj_plain_objects_use_inline_fallback(blocking):
    """Objects with no buffer-protocol columns still round-trip (the
    nbuf=0 frame layout), interleaved with out-of-band frames."""
    np = pytest.importorskip("numpy")
    ch, abort = _shm_pair(capacity=256, blocking=blocking)
    try:
        items = [{"k": i, "v": "x" * (i % 7)} for i in range(40)]

        def producer():
            for i, obj in enumerate(items):
                if i % 3 == 0:
                    ch.put_obj([obj, np.int64(i) + np.zeros(2)], items=2)
                else:
                    ch.put_obj([obj], items=1)

        t = threading.Thread(target=producer)
        t.start()
        for i, obj in enumerate(items):
            got = ch.get_obj()
            assert got[0] == obj
        t.join()
    finally:
        _shm_close(ch, abort)


def test_shm_put_obj_counts_logical_items():
    ch, abort = _shm_pair(capacity=1024)
    try:
        ch.put_obj(["a"], items=7)
        ch.put_obj(["b"], items=1)
        assert ch.qsize_items() == 8
        ch.get_obj()
        assert ch.qsize_items() == 1
    finally:
        _shm_close(ch, abort)
