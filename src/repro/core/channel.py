"""Bounded channels: the lock-minimal hand-off layer of the native executor.

FastFlow owes its throughput to bounded lock-free SPSC queues with
selectable *blocking* and *non-blocking* (spinning) disciplines; this
module is that layer for the Python runtime.  Two implementations
share one interface (``put`` / ``put_many`` / ``get`` / ``get_many`` /
``qsize``):

* :class:`SpscChannel` — an array-backed single-producer/single-consumer
  ring buffer.  Monotonic ``head``/``tail`` counters published *after*
  the slot write mean the fast paths take no lock at all (the GIL
  serializes the bytecode, giving the required ordering).
* :class:`MpmcChannel` — the fallback for shared edges (multiple
  producers or consumers on one queue): a single mutex around a deque,
  with batched operations amortizing the acquire.

Both wake a parked peer *once*: a hand-off nobody waits for touches no
condition variable (the ring reads a flag, the MPMC channel a waiter
count under its mutex), and the waker clears that mark as it notifies,
so the items that follow while the peer gets back onto a core do not
notify again.  Each class argues why no wake-up is lost.  The executor's
units bind a static edge's ring ``put`` and ``get`` once, at unit start,
so an uncontended hop is one call into this module per side.

Waiting discipline, FastFlow-style:

* **blocking** — a waiter parks on the channel's condition variable and
  is woken by the opposite side publishing space/items (wake-on-space /
  wake-on-item), or by the run's :class:`AbortSignal` firing.
* **spin** — bounded busy-wait: a short burst of plain spins, then
  ``os.sched_yield()`` per iteration with the abort flag checked each
  time.  No locks are ever taken; hand-off latency is lowest, CPU cost
  highest.

Abort is event-driven in both disciplines: every channel registers its
condition with the :class:`AbortSignal`, so a failure elsewhere in the
pipeline wakes blocked producers/consumers immediately instead of being
discovered on a poll timeout.

The **process backend** adds a third channel, :class:`ShmChannel`: the
same bounded-ring head/tail discipline laid out as a byte ring in a
``multiprocessing.shared_memory`` segment, carrying length-prefixed
pickled envelope batches across process boundaries.  Cross-process abort
uses :class:`ShmAbortFlag` (one shared byte) since condition variables
do not cross the boundary; shm waiters poll it on their slow path.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from collections import deque
from typing import Any, List, Optional, Sequence

__all__ = [
    "Aborted",
    "AbortSignal",
    "SpscChannel",
    "MpmcChannel",
    "ShmAbortFlag",
    "ShmChannel",
    "make_channel",
]

#: plain busy iterations before a spinning waiter starts yielding the core
_SPIN_FAST = 64

#: sentinel distinguishing "no stop item" from a legitimate ``None`` payload
_NO_STOP = object()


class Aborted(RuntimeError):
    """The run's abort signal fired while waiting on a channel."""


class AbortSignal:
    """Level-triggered failure flag with event-driven waiter wake-up.

    Channels (and anything else that parks threads) register their
    condition variables; :meth:`set` flips the flag and notifies every
    registered condition so waiters re-check state immediately — no
    polling interval anywhere in the abort path.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reg_lock = threading.Lock()
        self._conds: List[threading.Condition] = []

    def register(self, cond: threading.Condition) -> None:
        with self._reg_lock:
            self._conds.append(cond)
        if self._event.is_set():
            # late registration after failure: wake straight away
            with cond:
                cond.notify_all()

    def set(self) -> None:
        self._event.set()
        with self._reg_lock:
            conds = list(self._conds)
        for cond in conds:
            with cond:
                cond.notify_all()

    def is_set(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise Aborted()


class SpscChannel:
    """Bounded SPSC ring buffer with blocking and spin disciplines.

    ``_tail`` counts items ever produced, ``_head`` items ever consumed;
    occupancy is their difference and slot ``i % capacity`` holds item
    ``i``.  The producer writes the slot *before* publishing ``_tail``
    (and symmetrically for the consumer), so under the GIL's sequential
    execution the opposite side never observes an unpublished slot.

    In blocking mode a side that must wait arms its ``*_waiting`` flag
    under the condition lock and *then* re-checks state, before every
    ``wait()``; the opposite side publishes first and reads the flag
    second (a Dekker pair, ordered by the GIL where FastFlow's is by a
    write barrier).  Either the waiter's re-check sees the update, or
    the publisher sees the flag, takes the lock (free only once the
    waiter is inside ``wait()``), lowers the flag and notifies — a
    wake-up can't be lost, and later publishes skip the lock until the
    waiter re-arms.
    """

    __slots__ = ("_buf", "_cap", "_head", "_tail", "_abort", "_blocking",
                 "_cond", "_put_waiting", "_get_waiting", "_weigh",
                 "_wput", "_wgot")

    def __init__(self, capacity: int, abort: AbortSignal,
                 blocking: bool = True, weigh=None):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self._buf: List[Any] = [None] * capacity
        self._cap = capacity
        self._head = 0  # items consumed
        self._tail = 0  # items produced
        self._abort = abort
        self._blocking = blocking
        self._cond = threading.Condition()
        abort.register(self._cond)
        self._put_waiting = False
        self._get_waiting = False
        #: optional logical-weight hook (columnar edges): maps one queued
        #: entry to the number of stream items it carries, so occupancy
        #: gauges keep reporting items when an entry is a whole ItemBlock.
        #: The two weight counters follow the ring's single-writer
        #: discipline (producer owns ``_wput``, consumer ``_wgot``).
        self._weigh = weigh
        self._wput = 0
        self._wgot = 0

    def qsize(self) -> int:
        return self._tail - self._head

    def qsize_items(self) -> int:
        """Logical items queued (equals :meth:`qsize` without a weigher)."""
        if self._weigh is None:
            return self._tail - self._head
        n = self._wput - self._wgot
        return n if n > 0 else 0

    def set_blocking(self, blocking: bool) -> bool:
        """Flip the waiting discipline live (autonomic controller lever).

        Safe mid-run: a parked waiter's ``while not ready()`` loop
        re-checks state after the ``notify_all``, and a spinning waiter
        finishes its current spin either way — only *future* waits adopt
        the new discipline.
        """
        with self._cond:
            self._blocking = blocking
            self._cond.notify_all()
        return True

    # -- waiting -----------------------------------------------------------
    def _spin(self, ready) -> None:
        spins = 0
        while not ready():
            spins += 1
            if spins > _SPIN_FAST:
                self._abort.check()
                os.sched_yield()

    def _park(self, ready, flag: str) -> None:
        with self._cond:
            try:
                while True:
                    setattr(self, flag, True)  # arm, then re-check
                    if ready():
                        return
                    self._abort.check()
                    self._cond.wait()
            finally:
                setattr(self, flag, False)

    def _wake(self, flag: str) -> None:
        """Lower the parked side's flag and notify it, once."""
        with self._cond:
            setattr(self, flag, False)
            self._cond.notify()

    def _wait_for_space(self) -> None:
        ready = lambda: self._tail - self._head < self._cap  # noqa: E731
        if self._blocking:
            self._park(ready, "_put_waiting")
        else:
            self._spin(ready)

    def _wait_for_items(self) -> None:
        ready = lambda: self._tail - self._head > 0  # noqa: E731
        if self._blocking:
            self._park(ready, "_get_waiting")
        else:
            self._spin(ready)

    # -- producer side -----------------------------------------------------
    def put(self, item: Any) -> None:
        tail = self._tail
        if tail - self._head >= self._cap:
            self._wait_for_space()
        self._buf[tail % self._cap] = item
        if self._weigh is not None:
            self._wput += self._weigh(item)
        self._tail = tail + 1
        if self._get_waiting:
            self._wake("_get_waiting")

    def put_many(self, items: Sequence[Any]) -> None:
        """Multi-push: write as many free slots as available per episode."""
        buf, cap = self._buf, self._cap
        i, n = 0, len(items)
        while i < n:
            tail = self._tail
            free = cap - (tail - self._head)
            if free == 0:
                self._wait_for_space()
                continue
            take = min(free, n - i)
            for j in range(take):
                buf[(tail + j) % cap] = items[i + j]
            if self._weigh is not None:
                self._wput += sum(self._weigh(items[i + j])
                                  for j in range(take))
            self._tail = tail + take
            i += take
            if self._get_waiting:
                self._wake("_get_waiting")

    # -- consumer side -----------------------------------------------------
    def get(self) -> Any:
        head = self._head
        if self._tail - head == 0:
            self._wait_for_items()
        idx = head % self._cap
        item = self._buf[idx]
        self._buf[idx] = None
        if self._weigh is not None:
            self._wgot += self._weigh(item)
        self._head = head + 1
        if self._put_waiting:
            self._wake("_put_waiting")
        return item

    def get_many(self, max_n: int, stop: Any = _NO_STOP) -> List[Any]:
        """Multi-pop: at least one item, at most ``max_n``.

        A ``stop`` sentinel is only ever returned alone (``[stop]``) and
        never consumed mid-batch, so callers can treat it as a clean
        end-of-stream boundary.
        """
        head = self._head
        if self._tail - head == 0:
            self._wait_for_items()
        buf, cap = self._buf, self._cap
        avail = self._tail - head
        if avail > max_n:
            avail = max_n
        out: List[Any] = []
        for j in range(avail):
            idx = (head + j) % cap
            item = buf[idx]
            if item is stop:
                if not out:
                    buf[idx] = None
                    out.append(item)
                break
            buf[idx] = None
            out.append(item)
        if self._weigh is not None:
            self._wgot += sum(map(self._weigh, out))
        self._head = head + len(out)
        if self._put_waiting:
            self._wake("_put_waiting")
        return out


class MpmcChannel:
    """Bounded multi-producer/multi-consumer channel for shared edges.

    One mutex guards a deque; blocking waiters park on two conditions
    sharing that mutex, spinning waiters retry without ever sleeping on
    it.  Batched operations move whole runs of items under a single
    acquire — the per-item synchronization cost the SPSC ring avoids
    structurally is amortized here instead.

    ``_getters``/``_putters`` count the threads parked on each condition
    and not yet woken.  A waiter counts itself in under the mutex just
    before ``wait()`` releases it; every ``put``, ``put_many``, ``get``
    and ``get_many``, in either discipline, reads the opposite count
    under that mutex after changing the deque and notifies — counting
    out whom it wakes — only when it is non-zero.  So no wake-up is
    lost, and an uncontended hand-off never touches a condition.
    """

    __slots__ = ("_items", "_cap", "_abort", "_blocking", "_lock",
                 "_not_empty", "_not_full", "_weigh", "_witems",
                 "_getters", "_putters")

    def __init__(self, capacity: int, abort: AbortSignal,
                 blocking: bool = True, weigh=None):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self._items: deque = deque()
        self._cap = capacity
        self._abort = abort
        self._blocking = blocking
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._getters = self._putters = 0  # parked, not yet woken
        #: logical-weight hook (columnar edges); the shared-queue weight
        #: total is maintained under the channel's own mutex, so the
        #: multi-producer case needs no extra synchronization
        self._weigh = weigh
        self._witems = 0
        abort.register(self._not_empty)
        abort.register(self._not_full)

    def qsize(self) -> int:
        return len(self._items)

    def qsize_items(self) -> int:
        """Logical items queued (equals :meth:`qsize` without a weigher)."""
        if self._weigh is None:
            return len(self._items)
        return self._witems

    def set_blocking(self, blocking: bool) -> bool:
        """Flip the waiting discipline live (see :meth:`SpscChannel.set_blocking`)."""
        with self._lock:
            self._blocking = blocking
            self._getters = self._putters = 0
            self._not_empty.notify_all()
            self._not_full.notify_all()
        return True

    # -- waiting (mutex held) ----------------------------------------------
    def _wait_space(self) -> None:
        self._abort.check()
        self._putters += 1  # counted out by whoever wakes it
        self._not_full.wait()

    def _wait_items(self) -> None:
        self._abort.check()
        self._getters += 1
        self._not_empty.wait()

    def _backoff(self, spins: int) -> int:
        spins += 1
        if spins > _SPIN_FAST:
            self._abort.check()
            os.sched_yield()
        return spins

    # -- producer side -----------------------------------------------------
    def put(self, item: Any) -> None:
        spins = 0
        while True:
            with self._lock:
                while len(self._items) >= self._cap:
                    if not self._blocking:
                        break
                    self._wait_space()
                else:
                    self._items.append(item)
                    if self._weigh is not None:
                        self._witems += self._weigh(item)
                    if self._getters:
                        self._getters -= 1
                        self._not_empty.notify()
                    return
            spins = self._backoff(spins)

    def put_many(self, items: Sequence[Any]) -> None:
        i, n = 0, len(items)
        spins = 0
        while i < n:
            with self._lock:
                while i < n:
                    free = self._cap - len(self._items)
                    if free == 0:
                        if not self._blocking:
                            break
                        self._wait_space()
                        continue
                    take = min(free, n - i)
                    run = items[i:i + take]
                    self._items.extend(run)
                    if self._weigh is not None:
                        self._witems += sum(map(self._weigh, run))
                    i += take
                    if self._getters:
                        woken = min(take, self._getters)
                        self._getters -= woken
                        self._not_empty.notify(woken)
            if i < n:
                spins = self._backoff(spins)

    # -- consumer side -----------------------------------------------------
    def get(self) -> Any:
        spins = 0
        while True:
            with self._lock:
                while not self._items:
                    if not self._blocking:
                        break
                    self._wait_items()
                else:
                    item = self._items.popleft()
                    if self._weigh is not None:
                        self._witems -= self._weigh(item)
                    if self._putters:
                        self._putters -= 1
                        self._not_full.notify()
                    return item
            spins = self._backoff(spins)

    def get_many(self, max_n: int, stop: Any = _NO_STOP) -> List[Any]:
        """Multi-pop under one acquire; ``stop`` only ever returned alone.

        On a shared queue the trailing ``stop`` sentinels belong one-per-
        consumer, so a batch never consumes past the first one it meets.
        """
        spins = 0
        while True:
            with self._lock:
                while not self._items:
                    if not self._blocking:
                        break
                    self._wait_items()
                else:
                    out = self._drain(max_n, stop)
                    if self._putters:
                        woken = min(len(out), self._putters)
                        self._putters -= woken
                        self._not_full.notify(woken)
                    return out
            spins = self._backoff(spins)

    def _drain(self, max_n: int, stop: Any) -> List[Any]:
        items = self._items
        out: List[Any] = []
        while items and len(out) < max_n:
            if items[0] is stop:
                if not out:
                    out.append(items.popleft())
                break
            out.append(items.popleft())
        if self._weigh is not None:
            self._witems -= sum(map(self._weigh, out))
        return out


#: shm slow path: yields before a blocking waiter starts micro-sleeping
_SPIN_YIELD = 4096

#: blocking shm waiter's micro-sleep (seconds); bounds abort latency too
_SHM_NAP = 0.0002


class ShmAbortFlag:
    """One shared byte: the cross-process edition of :class:`AbortSignal`.

    Created by the parent before forking workers; children inherit the
    mapping.  There is no wake-up channel — shm waiters check the flag on
    their slow path (every yield/nap), which bounds abort latency to the
    nap interval instead of a queue-poll timeout.
    """

    __slots__ = ("_shm",)

    def __init__(self) -> None:
        from multiprocessing import shared_memory

        self._shm = shared_memory.SharedMemory(create=True, size=1)
        self._shm.buf[0] = 0

    def set(self) -> None:
        self._shm.buf[0] = 1

    def is_set(self) -> bool:
        return self._shm.buf[0] != 0

    def check(self) -> None:
        if self._shm.buf[0] != 0:
            raise Aborted()

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


class ShmChannel:
    """Bounded byte-ring over ``multiprocessing.shared_memory``.

    Layout: a 32-byte header — ``tail`` (uint64 at offset 0, total bytes
    ever produced), ``head`` (uint64 at offset 8, total bytes ever
    consumed), and two *item* counters (uint64 at offsets 16/24: total
    envelopes ever produced/consumed, maintained by the same single
    writer as the neighbouring byte counter) — followed by ``capacity``
    ring bytes.  The item counters make queue occupancy observable from
    either side of the process boundary (``qsize_items``), which is what
    the live-metrics gauges and the tracer's occupancy tracks sample.
    Messages are *frames*: a 4-byte little-endian payload length, a
    4-byte item count, then the payload; one frame carries one pickled
    object (the process executor writes one envelope per frame, and a
    consumer's multi-pop reads the frames already present).

    The SPSC discipline matches :class:`SpscChannel`: each side owns one
    counter, and the producer publishes ``tail`` only after the whole
    frame is written, so a consumer that sees *any* unread bytes can
    read the complete frame without a second wait.  Counter loads and
    stores are single aligned 8-byte accesses (atomic on every platform
    CPython runs on).  Shared edges that cross the boundary serialize
    the contended side with an inherited ``multiprocessing.Lock``
    (``producer_lock`` / ``consumer_lock``) instead of a per-item mutex
    protocol in shm.

    Waiting is spin-then-yield, plus a short nap in blocking mode; the
    abort flag is checked on every slow-path iteration.
    """

    _HEADER = 32

    __slots__ = ("_shm", "_buf", "_cap", "_abort", "_blocking",
                 "_plock", "_clock")

    def __init__(self, capacity_bytes: int, abort: Optional[ShmAbortFlag],
                 blocking: bool = True, *, producer_lock: Any = None,
                 consumer_lock: Any = None):
        from multiprocessing import shared_memory

        if capacity_bytes < 64:
            raise ValueError("shm channel capacity must be >= 64 bytes")
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._HEADER + capacity_bytes)
        self._buf = self._shm.buf
        struct.pack_into("<QQQQ", self._buf, 0, 0, 0, 0, 0)
        self._cap = capacity_bytes
        self._abort = abort
        self._blocking = blocking
        self._plock = producer_lock
        self._clock = consumer_lock

    # -- counters ----------------------------------------------------------
    def _load(self, off: int) -> int:
        return struct.unpack_from("<Q", self._buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        struct.pack_into("<Q", self._buf, off, value)

    def qsize_bytes(self) -> int:
        return self._load(0) - self._load(8)

    def qsize_items(self) -> int:
        """Envelopes currently in the ring (produced minus consumed).

        Reads two independently-updated counters without a lock, so the
        value can be transiently off by one in-flight frame — fine for
        occupancy gauges, never used for flow control.
        """
        return max(0, self._load(16) - self._load(24))

    def set_blocking(self, blocking: bool) -> bool:
        """Flip nap-vs-yield on the slow path — for the *calling* process
        only (the flag is a plain attribute, not in the shared header);
        the parent-side controller therefore retunes the ends of the
        boundary edges the parent itself waits on."""
        self._blocking = blocking
        return True

    # -- waiting -----------------------------------------------------------
    def _wait(self, ready) -> None:
        spins = 0
        while not ready():
            spins += 1
            if spins > _SPIN_FAST:
                if self._abort is not None and self._abort.is_set():
                    raise Aborted()
                if self._blocking and spins > _SPIN_YIELD:
                    time.sleep(_SHM_NAP)
                else:
                    os.sched_yield()

    # -- ring copies (byte offsets are ever-increasing; slot = off % cap) --
    def _write(self, pos: int, data: bytes) -> None:
        off = pos % self._cap
        end = off + len(data)
        h = self._HEADER
        if end <= self._cap:
            self._buf[h + off:h + end] = data
        else:
            first = self._cap - off
            self._buf[h + off:h + self._cap] = data[:first]
            self._buf[h:h + end - self._cap] = data[first:]

    def _read(self, pos: int, n: int) -> bytes:
        off = pos % self._cap
        end = off + n
        h = self._HEADER
        if end <= self._cap:
            return bytes(self._buf[h + off:h + end])
        first = self._cap - off
        return (bytes(self._buf[h + off:h + self._cap])
                + bytes(self._buf[h:h + end - self._cap]))

    # -- producer side -----------------------------------------------------
    def put_bytes(self, data: bytes, items: int = 0) -> None:
        """Write one frame; ``items`` is the envelope count it carries
        (0 for control/telemetry frames that should not move gauges)."""
        if self._plock is not None:
            with self._plock:
                self._put_bytes(data, items)
        else:
            self._put_bytes(data, items)

    def _put_bytes(self, data: bytes, items: int) -> None:
        need = 8 + len(data)
        if need > self._cap:
            raise ValueError(
                f"frame of {need} bytes exceeds shm channel capacity "
                f"{self._cap}"
            )
        tail = self._load(0)
        self._wait(lambda: tail - self._load(8) + need <= self._cap)
        self._write(tail, len(data).to_bytes(4, "little"))
        self._write(tail + 4, items.to_bytes(4, "little"))
        self._write(tail + 8, data)
        if items:
            self._store(16, self._load(16) + items)
        self._store(0, tail + need)

    def put(self, obj: Any) -> None:
        self.put_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                       items=1)

    def put_obj(self, obj: Any, items: int = 1) -> None:
        """Write one object as a pickle protocol-5 out-of-band frame.

        Large contiguous buffers (ItemBlock numpy columns) are surfaced
        through ``buffer_callback`` and *gathered* straight into the ring
        — one copy from the array into shm, instead of pickle first
        concatenating everything into an intermediate bytes object and
        the ring copying that.  Frame payload layout::

            u32 nbuf | nbuf x (u32 len, raw bytes) | pickle bytes

        ``nbuf == 0`` (no out-of-band buffers, or a non-contiguous one
        that cannot expose raw bytes) degrades to an ordinary in-band
        pickle, so :meth:`get_obj` reads every frame uniformly.
        """
        bufs: List[Any] = []
        views: List[Any] = []
        try:
            data = pickle.dumps(obj, protocol=5,
                                buffer_callback=bufs.append)
            views = [b.raw() for b in bufs]
        except BufferError:
            views = []
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        parts: List[Any] = [len(views).to_bytes(4, "little")]
        for v in views:
            parts.append(len(v).to_bytes(4, "little"))
            parts.append(v)
        parts.append(data)
        if self._plock is not None:
            with self._plock:
                self._put_frame(parts, items)
        else:
            self._put_frame(parts, items)

    def _put_frame(self, parts: Sequence[Any], items: int) -> None:
        """Gather-write one frame from multiple byte parts (no join)."""
        total = 0
        for p in parts:
            total += len(p)
        need = 8 + total
        if need > self._cap:
            raise ValueError(
                f"frame of {need} bytes exceeds shm channel capacity "
                f"{self._cap}"
            )
        tail = self._load(0)
        self._wait(lambda: tail - self._load(8) + need <= self._cap)
        self._write(tail, total.to_bytes(4, "little"))
        self._write(tail + 4, items.to_bytes(4, "little"))
        pos = tail + 8
        for p in parts:
            self._write(pos, p)
            pos += len(p)
        if items:
            self._store(16, self._load(16) + items)
        self._store(0, tail + need)

    # -- consumer side -----------------------------------------------------
    def get_bytes(self) -> bytes:
        if self._clock is not None:
            with self._clock:
                return self._get_bytes()
        return self._get_bytes()

    def _get_bytes(self) -> bytes:
        head = self._load(8)
        # The producer publishes tail after the whole frame, so one wait
        # suffices: any unread bytes => a complete frame is present.
        self._wait(lambda: self._load(0) > head)
        n = int.from_bytes(self._read(head, 4), "little")
        items = int.from_bytes(self._read(head + 4, 4), "little")
        data = self._read(head + 8, n)
        if items:
            self._store(24, self._load(24) + items)
        self._store(8, head + 8 + n)
        return data

    def get(self) -> Any:
        return pickle.loads(self.get_bytes())

    def get_obj(self) -> Any:
        """Read one :meth:`put_obj` frame back into an object."""
        if self._clock is not None:
            with self._clock:
                return self._get_obj()
        return self._get_obj()

    def _get_obj(self) -> Any:
        head = self._load(8)
        self._wait(lambda: self._load(0) > head)
        n = int.from_bytes(self._read(head, 4), "little")
        items = int.from_bytes(self._read(head + 4, 4), "little")
        pos = head + 8
        end = pos + n
        nbuf = int.from_bytes(self._read(pos, 4), "little")
        pos += 4
        buffers: List[bytes] = []
        for _ in range(nbuf):
            blen = int.from_bytes(self._read(pos, 4), "little")
            pos += 4
            buffers.append(self._read(pos, blen))
            pos += blen
        data = self._read(pos, end - pos)
        obj = (pickle.loads(data, buffers=buffers) if nbuf
               else pickle.loads(data))
        if items:
            self._store(24, self._load(24) + items)
        self._store(8, end)
        return obj

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._buf = None
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


def make_channel(capacity: int, abort: AbortSignal, *, blocking: bool = True,
                 spsc: bool = False, weigh=None):
    """Pick the channel implementation for one queue of an edge.

    ``spsc`` asserts single-producer/single-consumer access (the common
    case after plan lowering).  ``weigh`` (columnar edges) maps one
    queued entry to its logical item count for ``qsize_items``.
    """
    if spsc:
        return SpscChannel(capacity, abort, blocking, weigh)
    return MpmcChannel(capacity, abort, blocking, weigh)
