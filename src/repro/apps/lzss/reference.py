"""CPU LZSS encoder (the paper's pre-GPU baseline).

Greedy tokenizer: at each position take the longest block-bounded match
(or a literal), exactly the loop the GPU FindMatch kernel parallelizes;
the loop itself is :func:`repro.apps.lzss.parse.parse`.
Charges ``lzss_matchop`` for the window scans it would perform
brute-force (what the C version does) and ``lzss_emit_byte`` for output
assembly, so virtual-time runs price the real workload.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.apps.lzss import cache
from repro.apps.lzss.format import decompress
from repro.apps.lzss.parse import parse
from repro.sim.context import charge_cpu


def compress_block(data: bytes, start: int, end: int) -> bytes:
    """Compress ``data[start:end]`` as one independent LZSS block."""
    block = bytes(data[start:end])
    key = cache.key(block)
    cached = cache.lookup(key)
    if cached is not None:
        out, scan_ops = cached
    else:
        out, scan_ops = parse(block, 0, len(block))
        cache.store(key, out, scan_ops)
    charge_cpu("lzss_matchop", scan_ops)
    charge_cpu("lzss_emit_byte", len(block) + len(out))
    return out


def compress(data: bytes, block_starts: Sequence[int] | None = None) -> List[bytes]:
    """Compress ``data`` split at ``block_starts`` (default: one block).

    ``block_starts`` follows the Dedup batch convention (Fig. 2): sorted
    offsets, first must be 0; block ``k`` spans
    ``[block_starts[k], block_starts[k+1])``.
    """
    if block_starts is None:
        block_starts = [0]
    starts = list(block_starts)
    if not starts or starts[0] != 0:
        raise ValueError("block_starts must begin at offset 0")
    if any(b > a for a, b in zip(starts[1:], starts)) or starts[-1] > len(data):
        raise ValueError("block_starts must be sorted and within the data")
    bounds = starts + [len(data)]
    return [
        compress_block(data, bounds[k], bounds[k + 1])
        for k in range(len(starts))
    ]


def roundtrip(data: bytes, block_starts: Sequence[int] | None = None) -> Tuple[List[bytes], bytes]:
    """Compress then decompress (testing helper); returns (blocks, restored)."""
    if block_starts is None:
        block_starts = [0]
    blocks = compress(data, block_starts)
    bounds = list(block_starts) + [len(data)]
    restored = b"".join(
        decompress(blk, bounds[k + 1] - bounds[k]) for k, blk in enumerate(blocks)
    )
    return blocks, restored
