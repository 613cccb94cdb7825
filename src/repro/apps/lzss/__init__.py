"""LZSS compression (Stein et al., PDP'19 — the paper's reference [24]).

The paper replaces PARSEC Dedup's Bzip2/Gzip with LZSS because the
authors had already parallelized it on GPUs; Section IV-B then optimizes
that GPU code into the single batched ``FindMatchKernel`` of Listing 3.

Layout:

* :mod:`~repro.apps.lzss.format` — token bit-stream (Dipperstein-style:
  4096-byte window, 12-bit offsets, 4-bit lengths, flag bits grouped 8
  per byte) and the decoder;
* :mod:`~repro.apps.lzss.matcher` — canonical longest-leftmost match
  semantics: a brute-force reference and a C-speed ``bytes.find``-based
  galloping matcher (both block-bounded, non-overlapping, matching
  Listing 3's loop conditions);
* :mod:`~repro.apps.lzss.parse` — the one greedy parse: a numpy
  candidate map (Listing 3's per-byte lanes) and a walk that jumps over
  literal runs and calls the matcher only where a match starts;
* :mod:`~repro.apps.lzss.reference` — the CPU encoder/decoder;
* :mod:`~repro.apps.lzss.gpu` — the batched FindMatch kernel working on
  a whole Dedup batch with its ``startPos`` block-index array at once,
  plus the CPU-side encode-from-match-arrays pass.
"""

from repro.apps.lzss.format import (
    MAX_CODED,
    MAX_UNCODED,
    MIN_MATCH,
    WINDOW_SIZE,
    decompress,
)
from repro.apps.lzss.matcher import find_longest_match, find_longest_match_bruteforce
from repro.apps.lzss.reference import compress, compress_block
from repro.apps.lzss.gpu import GpuLzss, compress_batch_gpu

__all__ = [
    "WINDOW_SIZE",
    "MAX_CODED",
    "MAX_UNCODED",
    "MIN_MATCH",
    "compress",
    "compress_block",
    "decompress",
    "find_longest_match",
    "find_longest_match_bruteforce",
    "GpuLzss",
    "compress_batch_gpu",
]
