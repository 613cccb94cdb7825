"""Content-keyed memo for per-block LZSS results.

Every Fig. 5 configuration compresses the same unique blocks with the
same canonical matcher, so the token stream for a given block content is
a pure function of its bytes.  This process-wide memo lets the second
and later configurations (and duplicate-heavy datasets) skip the
*functional* match search while the cost models still charge the full
virtual-time work — identical outputs, identical modeled times, much
less wall clock.

Keyed by SHA-1 of the block (we already have a SHA-1): callers hash a
block once with :func:`key` and pass the key to :func:`lookup` and
:func:`store`.  Bounded by total stored bytes with least-recently-used
eviction (a hit moves its entry to the back of the queue).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

_LOCK = threading.Lock()
_CACHE: "OrderedDict[bytes, Tuple[bytes, int]]" = OrderedDict()
_BYTES = 0
_CAPACITY = 256 * (1 << 20)

#: statistics (for tests and curiosity)
hits = 0
misses = 0


def key(block: bytes) -> bytes:
    """The memo key of a block's content."""
    return hashlib.sha1(block).digest()


def lookup(k: bytes) -> Optional[Tuple[bytes, int]]:
    """Return ``(token_stream, scan_ops)`` if this content was seen."""
    global hits, misses
    with _LOCK:
        entry = _CACHE.get(k)
        if entry is not None:
            _CACHE.move_to_end(k)
            hits += 1
            return entry
        misses += 1
        return None


def store(k: bytes, compressed: bytes, scan_ops: int) -> None:
    global _BYTES
    with _LOCK:
        if k in _CACHE:
            return
        _CACHE[k] = (compressed, scan_ops)
        _BYTES += len(compressed) + len(k)
        while _BYTES > _CAPACITY and _CACHE:
            _, (old, _ops) = _CACHE.popitem(last=False)
            _BYTES -= len(old) + 20


def clear() -> None:
    global _BYTES, hits, misses
    with _LOCK:
        _CACHE.clear()
        _BYTES = 0
        hits = 0
        misses = 0
