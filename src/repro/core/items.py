"""Stream items, the end-of-stream sentinel and multi-output wrapper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence


class _EndOfStream:
    """Singleton end-of-stream marker (FastFlow's ``EOS`` / TBB's empty token)."""

    _instance: "_EndOfStream | None" = None

    def __new__(cls) -> "_EndOfStream":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EOS"

    def __reduce__(self):
        return (_EndOfStream, ())


EOS = _EndOfStream()


class _Retire:
    """Singleton worker-retire marker (elastic scale-down).

    Injected by :meth:`Edge.request_retire` behind all items already
    routed to one consumer; the worker that pops it exits exactly as it
    would on ``EOS`` (its early end-of-stream contribution keeps the
    downstream EOS count balanced).  Never crosses a farm boundary edge.
    """

    _instance: "_Retire | None" = None

    def __new__(cls) -> "_Retire":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "RETIRE"

    def __reduce__(self):
        return (_Retire, ())


RETIRE = _Retire()


def is_eos(item: Any) -> bool:
    return item is EOS


@dataclass(frozen=True)
class Multi:
    """Wrapper letting a stage emit several items for one input.

    ``process`` may return ``Multi([a, b, c])`` and the runtime forwards
    the three payloads downstream in order (FastFlow's repeated
    ``ff_send_out``).  An empty ``Multi`` drops the input (a filter).
    """

    items: Sequence[Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))


# scalar types an ItemBlock column can represent without changing the
# observable item type on the numpy round-trip (tolist() restores them
# exactly: bool -> bool, int -> int, float -> float, complex -> complex).
_COLUMN_TYPES = (bool, int, float, complex)


class ItemBlock:
    """Struct-of-arrays batch: a contiguous run of logical stream items.

    A block stands for ``count`` consecutive items occupying sequence
    numbers ``[seq_start, seq_start + count)``.  ``layout`` says how the
    columns map back to items:

    - ``"scalar"`` — one column; item ``i`` is ``columns[0][i]``.
    - ``"tuple"``  — N columns; item ``i`` is
      ``(columns[0][i], ..., columns[N-1][i])``.

    ``key`` is an optional routing column (per-item partition keys) that
    rides along untouched; the transport never inspects it.

    Blocks are the unit of the columnar fast path: one ring slot on the
    thread backend, one protocol-5 out-of-band frame on the shared-memory
    backend, and a direct column hand-off between compiled kernels.  A
    block must round-trip: ``to_items()`` yields exactly the Python
    values the scalar path would have carried (numpy ``tolist`` restores
    native scalars), which is what the cross-backend equivalence matrix
    leans on.
    """

    __slots__ = ("columns", "count", "seq_start", "layout", "key")

    def __init__(self, columns: Sequence[Any], count: Optional[int] = None,
                 seq_start: int = 0, layout: Optional[str] = None,
                 key: Any = None):
        self.columns = tuple(columns)
        if not self.columns:
            raise ValueError("ItemBlock needs at least one column")
        self.count = int(len(self.columns[0]) if count is None else count)
        self.seq_start = seq_start
        self.layout = layout or ("scalar" if len(self.columns) == 1
                                 else "tuple")
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ItemBlock(count={self.count}, seq_start={self.seq_start},"
                f" layout={self.layout!r}, cols={len(self.columns)})")

    def __len__(self) -> int:
        return self.count

    def __reduce__(self):
        return (ItemBlock, (self.columns, self.count, self.seq_start,
                            self.layout, self.key))

    def to_items(self) -> List[Any]:
        """Materialize the logical items (native Python scalars/tuples)."""
        lists = [_tolist(c) for c in self.columns]
        if self.layout == "scalar":
            return lists[0]
        return list(zip(*lists))

    @classmethod
    def from_items(cls, items: Sequence[Any], seq_start: int = 0,
                   key: Any = None) -> "ItemBlock":
        """Pack scalar items into a block; raises if not representable."""
        block = cls.try_from_items(items, seq_start, key=key)
        if block is None:
            raise ValueError("items are not columnar-representable")
        return block

    @classmethod
    def try_from_items(cls, items: Sequence[Any], seq_start: int = 0,
                       key: Any = None) -> "Optional[ItemBlock]":
        """Pack items if the numpy round-trip is provably faithful.

        Returns ``None`` (caller keeps the scalar path) unless every item
        shares one exact scalar type per column — mixed int/float columns
        would silently coerce ints to floats, and arbitrary objects would
        land in ``object`` dtype, both of which break the bit-identity
        contract with the scalar path.
        """
        import numpy as np

        if not items:
            return None
        first = items[0]
        if type(first) is tuple:
            width = len(first)
            if width == 0:
                return None
            types = tuple(type(v) for v in first)
            if not all(t in _COLUMN_TYPES for t in types):
                return None
            for it in items:
                if type(it) is not tuple or len(it) != width:
                    return None
                for v, t in zip(it, types):
                    if type(v) is not t:
                        return None
            try:
                cols = tuple(np.asarray([it[j] for it in items])
                             for j in range(width))
            except OverflowError:
                return None
            if any(c.dtype == object for c in cols):
                return None
            return cls(cols, len(items), seq_start, "tuple", key=key)
        t0 = type(first)
        if t0 not in _COLUMN_TYPES:
            return None
        for it in items:
            if type(it) is not t0:
                return None
        try:
            col = np.asarray(items)
        except OverflowError:
            return None
        if col.dtype == object:
            return None
        return cls((col,), len(items), seq_start, "scalar", key=key)


def _tolist(col: Any) -> List[Any]:
    """Column -> list of native Python scalars (lists pass through)."""
    tolist = getattr(col, "tolist", None)
    return tolist() if tolist is not None else list(col)


def payload_items(payload: Any) -> int:
    """Logical item count carried by one envelope payload."""
    return payload.count if type(payload) is ItemBlock else 1


@dataclass(frozen=True)
class Envelope:
    """Internal wrapper carrying the sequence number used for ordering.

    Sequence numbers are assigned where parallelism is introduced (the
    farm emitter); the ordered collector reassembles emission order.
    ``sub`` disambiguates multiple outputs produced from one input.
    """

    seq: int
    sub: int
    payload: Any

    def key(self) -> tuple[int, int]:
        return (self.seq, self.sub)
