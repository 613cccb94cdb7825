"""The batched FindMatch GPU kernel (Listing 3) and its encode pass.

Listing 3's structure, reproduced in the timing model for every lane:

* one GPU thread per input byte of the batch;
* each thread first *linearly scans the whole ``startPoss`` array* to
  find its block (lines 4-10 — the cost of not having 2D vectors on
  the GPU);
* then scans up to ``WINDOW_SIZE`` previous bytes inside its block for
  the longest match (lines 16-34).

Functional evaluation is lazy: the greedy encoder only ever reads the
match arrays at token-start positions, so the kernel runs the package's
one greedy parse (:mod:`~repro.apps.lzss.parse`) and writes exactly
those entries (zero elsewhere), while *charging* the full every-lane
cost that the real kernel pays.  This keeps multi-megabyte batches
tractable in pure Python without touching the modeled time or the
compressed output.

Two launch strategies mirror the paper's Section IV-B journey:

* ``per_block=True`` — the original integration: one kernel launch per
  Dedup block ("the GPU kernel function has been invoked too many times
  without using efficiently the GPU resources");
* ``per_block=False`` — the optimized single launch per batch,
  "running all the FindMatch operations in a single kernel function,
  considering the startPos".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.lzss import cache
from repro.apps.lzss.format import MAX_UNCODED, WINDOW_SIZE
from repro.apps.lzss.matcher import find_longest_match
from repro.apps.lzss.parse import parse
from repro.gpu.kernel import Kernel, KernelWork, ThreadSpace
from repro.gpu.memory import DeviceBuffer
from repro.sim.context import charge_cpu

_BLOCK = 256
#: Listing 3 reports no shared memory and a modest register count
FINDMATCH_REGISTERS = 28


def _greedy_fill(data: bytes, bounds: Sequence[int],
                 mlen: np.ndarray, moff: np.ndarray) -> None:
    """Fill the match arrays of every block for :func:`encode_from_matches`.

    Each block is hashed once, and its memo decision reaches the encode
    through the arrays themselves:

    * miss: the block is parsed and memoised; its arrays hold length and
      distance at every match-token start and 0 at every other position;
    * hit: no search.  The cached stream goes into the block's own slots
      of the offset array (a stream never exceeds 4 bytes per block
      byte), flagged by minus its length at the block's first length
      slot.  The encode takes the stream from there, so a memo eviction
      between the two passes cannot make it walk arrays never filled.
    """
    for k in range(len(bounds) - 1):
        s, e = int(bounds[k]), int(bounds[k + 1])
        key = cache.key(bytes(data[s:e]))
        cached = cache.lookup(key)
        if cached is not None:
            stream = cached[0]
            moff[s:e].view(np.uint8)[:len(stream)] = np.frombuffer(
                stream, dtype=np.uint8)
            mlen[s:e][:1] = -len(stream)
            continue

        def found(pos: int) -> Tuple[int, int]:
            length, distance = find_longest_match(data, pos, s, e)
            mlen[pos] = length
            moff[pos] = distance
            return length, distance

        mlen[s:e] = 0
        stream, scan_ops = parse(data, s, e, match=found)
        cache.store(key, stream, scan_ops)


def _lane_work(tid: np.ndarray, size: int, starts: np.ndarray,
               nsp: int) -> np.ndarray:
    """Listing 3's per-thread operation count (all lanes, valid or not)."""
    valid = tid < size
    clipped = np.minimum(tid, size - 1)
    bidx = np.searchsorted(starts, clipped, side="right") - 1
    block_start = starts[np.clip(bidx, 0, None)]
    scan = np.minimum(clipped - block_start, WINDOW_SIZE)
    return np.where(valid, float(nsp) + scan, 0.0)


def make_findmatch_kernel() -> Kernel:
    def FindMatchKernel(ts: ThreadSpace, input_buf: DeviceBuffer, size: int,
                        startposs: DeviceBuffer, startpos_size: int,
                        matches_length: DeviceBuffer,
                        matches_offset: DeviceBuffer,
                        dup_flags: Optional[DeviceBuffer] = None) -> KernelWork:
        """``dup_flags`` (one byte per block) implements Fig. 3 stage 4's
        "compress every *not duplicated* block": threads belonging to a
        duplicate block exit right after locating their block, paying
        only the startPos scan."""
        data = bytes(input_buf.view(np.uint8)[:size])
        starts = startposs.view(np.int64)[:startpos_size]
        bounds = [int(s) for s in starts] + [size]
        if dup_flags is not None:
            dup = dup_flags.view(np.uint8)[:startpos_size].astype(bool)
        else:
            dup = np.zeros(startpos_size, dtype=bool)
        live_bounds = []
        for k in range(startpos_size):
            if not dup[k]:
                live_bounds.append((bounds[k], bounds[k + 1]))
        # fill matches only for unique blocks
        for s, e in live_bounds:
            _greedy_fill(data, [s, e],
                         matches_length.view(np.int32),
                         matches_offset.view(np.int32))
        tid = ts.flat_global_id()
        work = _lane_work(tid, size, np.asarray(starts), startpos_size)
        if dup.any():
            # lanes in duplicate blocks only pay the block-search loop
            clipped = np.minimum(tid, size - 1)
            bidx = np.searchsorted(np.asarray(starts), clipped, side="right") - 1
            in_dup = dup[np.clip(bidx, 0, None)] & (tid < size)
            work = np.where(in_dup, float(startpos_size), work)
        return KernelWork("lzss_matchop", work)

    return Kernel(FindMatchKernel, name="FindMatchKernel",
                  registers_per_thread=FINDMATCH_REGISTERS)


def encode_from_matches(data: bytes, bounds: Sequence[int],
                        mlen: np.ndarray, moff: np.ndarray) -> List[bytes]:
    """CPU pass: walk the match arrays and emit the token streams.

    "In CPU, we used the result of the kernel function to run the
    compression on each block and generate the compressed data."
    The walk is the same greedy parse, reading lengths and distances
    from the arrays; a block the fill found in the memo arrives as its
    stream (see :func:`_greedy_fill`).  Never consults the memo itself.
    """
    blocks: List[bytes] = []
    emitted = 0
    for k in range(len(bounds) - 1):
        s, e = int(bounds[k]), int(bounds[k + 1])
        if e > s and mlen[s] < 0:  # memo hit, handed over by the fill
            out = moff[s:e].view(np.uint8)[:-int(mlen[s])].tobytes()
        else:
            out, _ = parse(data, s, e,
                           cand=(mlen[s:e] > MAX_UNCODED).tobytes(),
                           match=lambda pos: (int(mlen[pos]), int(moff[pos])))
        emitted += (e - s) + len(out)
        blocks.append(out)
    charge_cpu("lzss_emit_byte", emitted)
    return blocks


class GpuLzss:
    """Device-side LZSS state for one pipeline replica (CUDA flavour).

    Owns the persistent device buffers so consecutive batches reuse
    them ("this stage reuses data already on GPU to prevent unnecessary
    data transfers" — stage 4 of Fig. 3 reuses the batch bytes the
    SHA-1 stage already uploaded when sharing a :class:`GpuLzss`).
    """

    def __init__(self, cuda, max_batch: int, max_blocks: int,
                 device_index: int = 0):
        self.cuda = cuda
        self.device_index = device_index
        cuda.set_device(device_index)
        self.kernel = make_findmatch_kernel()
        self.d_input = cuda.malloc(max_batch)
        self.d_starts = cuda.malloc(8 * max_blocks, dtype=np.int64)
        self.d_mlen = cuda.malloc(4 * max_batch, dtype=np.int32)
        self.d_moff = cuda.malloc(4 * max_batch, dtype=np.int32)
        self.h_in = cuda.malloc_host(max_batch)
        self.h_starts = cuda.malloc_host(8 * max_blocks, dtype=np.int64)
        self.h_mlen = cuda.malloc_host(4 * max_batch, dtype=np.int32)
        self.h_moff = cuda.malloc_host(4 * max_batch, dtype=np.int32)

    def free(self) -> None:
        for b in (self.d_input, self.d_starts, self.d_mlen, self.d_moff):
            b.free()
        for b in (self.h_in, self.h_starts, self.h_mlen, self.h_moff):
            b.free()

    def compress_batch(self, data: bytes, block_starts: Sequence[int],
                       stream, per_block: bool = False,
                       input_already_on_device: bool = False) -> List[bytes]:
        """Upload (unless resident), FindMatch, download, encode."""
        cuda = self.cuda
        cuda.set_device(self.device_index)
        size = len(data)
        starts = np.asarray(block_starts, dtype=np.int64)
        nsp = len(starts)
        bounds = list(starts) + [size]

        if not input_already_on_device:
            self.h_in.raw[:size] = np.frombuffer(data, dtype=np.uint8)
            cuda.memcpy_h2d_async(self.d_input, self.h_in, stream, nbytes=size)
        self.h_starts.raw.view(np.int64)[:nsp] = starts
        cuda.memcpy_h2d_async(self.d_starts, self.h_starts, stream,
                              nbytes=8 * nsp)

        if per_block:
            # the pre-optimization shape: one launch per Dedup block
            for k in range(nsp):
                s, e = bounds[k], bounds[k + 1]
                sub = np.array([0], dtype=np.int64)
                self.h_starts.raw.view(np.int64)[:1] = sub
                cuda.memcpy_h2d_async(self.d_starts, self.h_starts, stream,
                                      nbytes=8)
                grid = -(-(e - s) // _BLOCK)
                cuda.launch(
                    self.kernel, grid, _BLOCK,
                    _SubBuffer(self.d_input, s), e - s, self.d_starts, 1,
                    _SubBuffer(self.d_mlen, 4 * s),
                    _SubBuffer(self.d_moff, 4 * s),
                    stream=stream)
        else:
            grid = -(-size // _BLOCK)
            cuda.launch(self.kernel, grid, _BLOCK,
                        self.d_input, size, self.d_starts, nsp,
                        self.d_mlen, self.d_moff, stream=stream)

        cuda.memcpy_d2h_async(self.h_mlen, self.d_mlen, stream, nbytes=4 * size)
        cuda.memcpy_d2h_async(self.h_moff, self.d_moff, stream, nbytes=4 * size)
        cuda.stream_synchronize(stream)
        return encode_from_matches(
            data, bounds,
            self.h_mlen.array.view(np.int32),
            self.h_moff.array.view(np.int32),
        )


class _SubBuffer:
    """A view into a device buffer at a byte offset (pointer arithmetic)."""

    def __init__(self, base, offset: int):
        # accept either a raw DeviceBuffer or an OpenCL CLBuffer wrapper
        base = getattr(base, "dev_buffer", base)
        self.base: DeviceBuffer = base
        self.offset = offset
        self.device = base.device

    def view(self, dtype) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return self.base.view(dtype)[self.offset // itemsize:]

    @property
    def array(self) -> np.ndarray:
        return self.base.array[self.offset:]


def compress_batch_gpu(cuda, data: bytes, block_starts: Sequence[int],
                       per_block: bool = False,
                       lz: Optional[GpuLzss] = None,
                       stream=None) -> Tuple[List[bytes], GpuLzss]:
    """Convenience wrapper: compress one batch, creating state on demand."""
    if lz is None:
        lz = GpuLzss(cuda, max_batch=len(data), max_blocks=max(1, len(block_starts)))
    if stream is None:
        stream = cuda.stream_create()
    blocks = lz.compress_batch(data, block_starts, stream, per_block=per_block)
    return blocks, lz
