"""The shared-memory binding of :class:`Edge`.

Boundary edges of the process backend are ordinary edges bound to
shared-memory framing.  These tests run the rewiring protocol of
``tests/control/test_elastic_native.py`` against such an edge, check
that routing and the ``get_many`` contract match the in-process edge,
and pin the cross-process EOS counter: producers in different processes
aggregate one EOS, and a producer killed mid-fan-out leaves the
counter's lock free.
"""

import multiprocessing
import threading
import time

import pytest

from repro.core import executor_process
from repro.core.channel import ShmAbortFlag, ShmChannel
from repro.core.executor_native import Edge, _ErrorBox
from repro.core.executor_process import ShmBinding, _Frames
from repro.core.items import EOS, RETIRE
from repro.core.plan import ChannelSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the shared-memory binding is built for forked workers")


class _Env:
    """Module-level so it pickles into a frame."""

    def __init__(self, seq):
        self.seq = seq


@pytest.fixture
def binding():
    flag = ShmAbortFlag()
    b = ShmBinding(flag, multiprocessing.get_context("fork"))
    yield b
    b.destroy()
    flag.close()
    flag.unlink()


def _edge(binding, producers=1, consumers=2, per_consumer=True, **kw):
    spec = ChannelSpec("e", producers, consumers, per_consumer, **kw)
    return Edge(spec, 64, _ErrorBox(), binding=binding)


# -- the rewiring protocol, over shared memory -----------------------------

def test_shm_retire_lands_behind_items_already_routed(binding):
    e = _edge(binding, consumers=2)
    for i in range(4):
        e.put(_Env(i))
    assert e.request_retire()
    e.put(_Env(4))
    got = [e.get(1) for _ in range(3)]
    assert [g.seq for g in got[:2]] == [1, 3]
    assert got[2] is RETIRE


def test_shm_retire_refused_on_last_active_consumer(binding):
    e = _edge(binding, consumers=2)
    assert e.request_retire()
    assert not e.request_retire()


def test_shm_reserved_consumer_skipped_by_eos_then_activated(binding):
    e = _edge(binding, producers=1, consumers=1)
    slot = e.add_consumer()
    assert slot == 1
    e.put_eos()
    assert e.get(0) is EOS
    e.activate_consumer(slot)
    assert e.get(slot) is EOS


def test_shm_add_consumer_refused_after_eos(binding):
    e = _edge(binding, producers=1, consumers=1)
    e.put_eos()
    assert e.add_consumer() is None
    assert not e.add_producer()


def test_shm_grown_consumer_joins_rotation(binding):
    e = _edge(binding, producers=1, consumers=1)
    slot = e.add_consumer()
    e.activate_consumer(slot)
    for i in range(4):
        e.put(_Env(i))
    assert [e.get(0).seq for _ in range(2)] == [0, 2]
    assert [e.get(slot).seq for _ in range(2)] == [1, 3]


def test_shm_early_eos_balances_across_retire(binding):
    e = _edge(binding, producers=3, consumers=1, per_consumer=False)
    e.put_eos()
    e.put_eos()
    assert not e._eos.done
    e.put_eos()
    assert e.get(0) is EOS


# -- same routing and consumer contract as the in-process edge -------------

@pytest.mark.parametrize("placement", [None, lambda seq, n: (seq * 7) % n])
def test_shm_routing_matches_in_process_edge(binding, placement):
    def routed(e):
        for i in range(12):
            e.put(_Env(i))
        e.put_eos()
        out = []
        for c in range(3):
            seqs = []
            while (item := e.get(c)) is not EOS:
                seqs.append(item.seq)
            out.append(seqs)
        return out

    local = Edge(ChannelSpec("e", 1, 3, True, placement=placement), 64,
                 _ErrorBox())
    shm = _edge(binding, consumers=3, placement=placement)
    assert routed(shm) == routed(local)


def test_shm_get_many_returns_eos_alone(binding):
    e = _edge(binding, consumers=1, per_consumer=False)
    for i in range(3):
        e.put(_Env(i))  # three one-envelope frames
    e.put_eos()
    # a multi-pop drains the frames already in the ring, up to max_n ...
    assert [x.seq for x in e.get_many(0, 2)] == [0, 1]
    # ... and stops at the sentinel's frame, which then arrives alone
    assert [x.seq for x in e.get_many(0, 8)] == [2]
    assert e.get_many(0, 8) == [EOS]
    # a sentinel between frames mid-run still arrives alone
    q = _Frames(ShmChannel(1 << 12, None))
    try:
        for item in ("a", EOS, "b"):
            q.put(item)
        assert q.get_many(8, EOS) == ["a"]
        assert q.get_many(8, EOS) == [EOS]
        assert q.get_many(8, EOS) == ["b"]
    finally:
        q.ring.close()
        q.ring.unlink()


def test_shm_shared_ring_get_many_reads_one_frame():
    """With a consumer lock a sibling may take any frame after this one,
    so a multi-pop must not wait on a second frame with items in hand."""
    q = _Frames(ShmChannel(1 << 12, None), exclusive=False)
    try:
        for item in ("a", "b", "c"):
            q.put(item)
        assert q.get_many(8, EOS) == ["a"]
        assert q.get_many(8, EOS) == ["b"]
    finally:
        q.ring.close()
        q.ring.unlink()


# -- the cross-process EOS counter -----------------------------------------

def _put_eos(edge):
    edge.put_eos()


def test_shm_eos_aggregates_across_processes(binding):
    e = _edge(binding, producers=2, consumers=1, per_consumer=False)
    e.put_eos()                                  # parent: first of two
    p = multiprocessing.get_context("fork").Process(target=_put_eos,
                                                    args=(e,))
    p.start()
    p.join(5.0)
    assert p.exitcode == 0
    assert e.get(0) is EOS                       # the child fanned out


def _put_eos_then_hang(edge):
    # the fan-out's put blocks forever, as on a ring nobody drains
    executor_process._Frames.put = lambda self, item: time.sleep(60)
    edge.put_eos()


def test_producer_killed_in_eos_fanout_leaves_counter_free(binding):
    """Only count-and-decide holds the cross-process lock: a producer
    killed while blocked in the fan-out cannot wedge ``add_producer``."""
    e = _edge(binding, producers=1, consumers=1, per_consumer=False)
    p = multiprocessing.get_context("fork").Process(
        target=_put_eos_then_hang, args=(e,))
    p.start()
    deadline = time.monotonic() + 5.0
    while not e._eos.done and time.monotonic() < deadline:
        time.sleep(0.005)
    assert e._eos.done
    time.sleep(0.05)                             # now inside the fan-out
    p.kill()
    p.join(5.0)
    assert not p.is_alive()
    result = []
    t = threading.Thread(target=lambda: result.append(e.add_producer()),
                         daemon=True)
    t.start()
    t.join(1.0)
    assert result == [False]
