"""Canonical match semantics for LZSS (CPU and GPU paths must agree).

Given a position inside a block, the match is the **longest, then
leftmost** occurrence that

* starts inside the sliding window (at most ``WINDOW_SIZE`` bytes back)
  and not before the block start (matches never cross Dedup block
  boundaries — the whole point of ``startPos`` in Listing 3),
* ends strictly before the current position (no self-overlap:
  Listing 3's ``current + j < thisBatchI`` bound),
* is between ``MIN_MATCH`` and ``MAX_CODED`` bytes, truncated at the
  block end.

Two implementations: a transparent brute-force scan (the reference, and
the loop structure whose operation count the GPU cost model prices) and
a fast equivalent that gallops ``bytes.find`` up the match length
(``find`` returns the *leftmost* occurrence, which preserves the
tie-break).
"""

from __future__ import annotations

from typing import Tuple

from repro.apps.lzss.format import MAX_CODED, MIN_MATCH, WINDOW_SIZE


def find_longest_match_bruteforce(data: bytes, pos: int, block_start: int,
                                  block_end: int) -> Tuple[int, int]:
    """Reference scan; returns (length, distance) or (0, 0)."""
    max_len = min(MAX_CODED, block_end - pos)
    if max_len < MIN_MATCH:
        return 0, 0
    win_start = max(block_start, pos - WINDOW_SIZE)
    best_len = 0
    best_start = -1
    for start in range(win_start, pos):
        limit = min(max_len, pos - start)  # source must end before pos
        if limit <= best_len:
            break  # remaining candidates can only be shorter
        length = 0
        while length < limit and data[start + length] == data[pos + length]:
            length += 1
        if length > best_len:
            best_len = length
            best_start = start
    if best_len < MIN_MATCH:
        return 0, 0
    return best_len, pos - best_start


def find_longest_match(data: bytes, pos: int, block_start: int,
                       block_end: int) -> Tuple[int, int]:
    """Fast longest-leftmost match; equivalent to the brute-force scan.

    Gallops up the length: find the leftmost ``MIN_MATCH``-byte
    occurrence, then for each next length search the one-byte-longer
    prefix from the previous hit and stop at the first miss.  Every
    occurrence of a prefix is an occurrence of the shorter one, so the
    leftmost L+1 hit never lies left of the leftmost L hit.  ``find``'s
    end bound ``pos`` keeps every source ending before ``pos`` (no
    self-overlap).
    """
    max_len = min(MAX_CODED, block_end - pos)
    if max_len < MIN_MATCH:
        return 0, 0
    find = data.find
    start = find(data[pos:pos + MIN_MATCH],
                 max(block_start, pos - WINDOW_SIZE), pos)
    if start < 0:
        return 0, 0
    length = MIN_MATCH
    while length < max_len:
        hit = find(data[pos:pos + length + 1], start, pos)
        if hit < 0:
            break
        start, length = hit, length + 1
    return length, pos - start


def bruteforce_scan_ops(pos: int, block_start: int) -> int:
    """Operation count of the window scan at ``pos`` (for cost models)."""
    return min(pos - block_start, WINDOW_SIZE)


def scan_ops_range(lo: int, hi: int) -> int:
    """``sum(bruteforce_scan_ops(p, 0) for p in range(lo, hi))``, closed form."""
    return _scan_ops_prefix(hi) - _scan_ops_prefix(lo)


def _scan_ops_prefix(n: int) -> int:
    if n <= WINDOW_SIZE:
        return n * (n - 1) // 2
    return WINDOW_SIZE * (WINDOW_SIZE - 1) // 2 + (n - WINDOW_SIZE) * WINDOW_SIZE
