"""The greedy LZSS parse: Listing 3's per-byte FindMatch, then one walk.

Listing 3 gives every input byte its own GPU lane to look for a match
and leaves the encoder one pass over the match arrays.  Here the lanes
are one numpy pass per block (:func:`candidate_map`), which marks the
positions where a ``MIN_MATCH``-byte match starts; :func:`parse` then
walks the block greedily, jumping over each literal run to the next
marked byte with a compiled regex, emitting the run in bulk and pricing
the window scans it skipped in closed form.  Only marked positions call
the matcher.

All three greedy loops of the package use this one parse: the CPU
encoder, the simulated FindMatch kernel's fill of the match arrays, and
the CPU encode pass that walks those arrays.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Tuple

import numpy as np

from repro.apps.lzss.format import MIN_MATCH, WINDOW_SIZE, TokenWriter
from repro.apps.lzss.matcher import (
    bruteforce_scan_ops,
    find_longest_match,
    scan_ops_range,
)

#: compiled at import so forked workers inherit it
_NONZERO = re.compile(rb"[^\x00]")
_NONE = -(1 << 40)  # "no earlier occurrence"; fails every window test


def candidate_map(data: bytes, start: int, end: int) -> bytes:
    """One byte per position of ``data[start:end]``: 1 where a match starts.

    Position ``p`` is marked iff the nearest earlier occurrence of its
    trigram that ends by ``p`` starts inside the window, i.e. in
    ``[max(start, p - WINDOW_SIZE), p - MIN_MATCH]`` — exactly when
    :func:`find_longest_match` finds a match there.
    """
    n = end - start
    m = n - (MIN_MATCH - 1)  # positions with a whole trigram in the block
    if m <= 0:
        return bytes(n)
    b = np.frombuffer(data, dtype=np.uint8, count=n, offset=start)
    cols = [b[i:i + m] for i in range(MIN_MATCH)]  # trigram byte i at p
    # stable LSD radix sort of the trigrams, one uint8 pass per byte.
    # Staying on uint8 keys and argsort's own int64 indices keeps numpy's
    # casting code out: a forked worker pays resident memory for every
    # numpy code page it runs, and those pages are most of this pass's
    # memory.
    order = np.argsort(cols[2], kind="stable")
    for col in (cols[1], cols[0]):
        order = order[np.argsort(col[order], kind="stable")]
    # equal neighbours in sorted order: the earlier one (the sort is
    # stable) is the nearest earlier occurrence of the same trigram
    s = cols[0][order]
    same = s[1:] == s[:-1]
    for col in cols[1:]:
        s = col[order]
        same &= s[1:] == s[:-1]
    prev = np.full(m, _NONE)
    prev[order[1:][same]] = order[:-1][same]
    gap = np.arange(m) - prev
    # runs of period 1 or 2 ("aaaa", "abab") make the nearest earlier
    # occurrence overlap p; two more steps back always clear it
    close = np.flatnonzero(gap < MIN_MATCH)
    q = prev[close]
    for _ in range(2):
        still = np.flatnonzero(close - q < MIN_MATCH)
        q[still] = prev[q[still]]
    gap[close] = close - q
    hit = (gap >= MIN_MATCH) & (gap <= WINDOW_SIZE)
    return hit.tobytes() + bytes(n - m)


def parse(data: bytes, start: int, end: int, cand: Optional[bytes] = None,
          match: Optional[Callable[[int], Tuple[int, int]]] = None,
          ) -> Tuple[bytes, int]:
    """Greedy-parse ``data[start:end]``; returns (token stream, scan ops).

    ``cand`` marks (nonzero byte, block-relative) the positions where a
    match starts and ``match(pos)`` returns its ``(length, distance)``.
    By default both come from the block itself: :func:`candidate_map`
    and :func:`find_longest_match`.  Scan ops are the brute-force
    window scans of every visited position, as the cost models price
    them.
    """
    if cand is None:
        cand = candidate_map(data, start, end)
    if match is None:
        def match(pos: int) -> Tuple[int, int]:
            return find_longest_match(data, pos, start, end)
    w = TokenWriter()
    search = _NONZERO.search
    n = end - start
    scan_ops = 0
    i = 0
    while i < n:
        hit = search(cand, i)
        j = hit.start() if hit else n
        if j > i:
            w.literals(data[start + i:start + j])
            scan_ops += scan_ops_range(i, j)
            if j == n:
                break
        length, distance = match(start + j)
        w.match(distance, length)
        scan_ops += bruteforce_scan_ops(j, 0)
        i = j + length
    return w.getvalue(), scan_ops
