"""LZSS tests: format, matcher equivalence, roundtrips, GPU kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lzss import (
    MAX_CODED,
    MIN_MATCH,
    WINDOW_SIZE,
    compress,
    compress_block,
    compress_batch_gpu,
    decompress,
    find_longest_match,
    find_longest_match_bruteforce,
)
from repro.apps.lzss.format import (
    MAX_UNCODED,
    LzssFormatError,
    TokenWriter,
    tokens_to_stream,
)
from repro.apps.lzss.gpu import GpuLzss, make_findmatch_kernel
from repro.apps.lzss.matcher import bruteforce_scan_ops, scan_ops_range
from repro.apps.lzss.parse import candidate_map, parse
from repro.apps.lzss.reference import roundtrip
from repro.gpu.cuda import CudaRuntime
from repro.sim.context import WorkCursor, use_cursor
from repro.sim.machine import paper_machine


# -- token stream format --------------------------------------------------------

@pytest.mark.parametrize("phase", range(8))
def test_bulk_literals_equal_per_byte_literals(phase):
    """Every open-group phase x run lengths 0..24, then one more token."""
    for n in range(25):
        run = bytes(range(100, 100 + n))
        bulk, single = TokenWriter(), TokenWriter()
        for w in (bulk, single):
            for t in range(phase):  # mix matches and literals
                if t % 3 == 2:
                    w.match(1, 3)
                else:
                    w.literal(t)
        bulk.literals(run)
        for b in run:
            single.literal(b)
        for w in (bulk, single):
            w.match(7, 5)
            w.literal(9)
        assert bulk.getvalue() == single.getvalue(), (phase, n)


def test_token_writer_literal_flags():
    w = TokenWriter()
    for b in b"abc":
        w.literal(b)
    stream = w.getvalue()
    assert stream[0] == 0b111  # three literal flag bits
    assert stream[1:] == b"abc"
    assert decompress(stream, 3) == b"abc"


def test_match_encoding_roundtrip():
    stream = tokens_to_stream([("lit", ord("x")), ("lit", ord("y")),
                               ("lit", ord("z")), ("match", 3, 3)])
    assert decompress(stream, 6) == b"xyzxyz"


def test_match_bounds_validated():
    w = TokenWriter()
    with pytest.raises(LzssFormatError):
        w.match(0, 5)
    with pytest.raises(LzssFormatError):
        w.match(WINDOW_SIZE + 1, 5)
    with pytest.raises(LzssFormatError):
        w.match(1, MIN_MATCH - 1)
    with pytest.raises(LzssFormatError):
        w.match(1, MAX_CODED + 1)


def test_decompress_detects_truncation_and_garbage():
    stream = tokens_to_stream([("lit", 65)])
    with pytest.raises(LzssFormatError):
        decompress(stream, 2)  # expects more output
    with pytest.raises(LzssFormatError):
        decompress(stream + b"junk", 1)  # trailing bytes
    with pytest.raises(LzssFormatError):
        decompress(b"", 1)


def test_decompress_rejects_match_before_block_start():
    w = TokenWriter()
    w.literal(65)
    w.match(5, 3)  # reaches 4 bytes before block start
    with pytest.raises(LzssFormatError, match="before block start"):
        decompress(w.getvalue(), 4)


# -- matcher ------------------------------------------------------------------------

def _noise(size, alphabet, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, alphabet, size, dtype=np.uint8).tobytes()


#: blocks longer than the window, over alphabets from very repetitive
#: to incompressible
_LONG = st.builds(_noise, st.integers(WINDOW_SIZE + 1, WINDOW_SIZE + 400),
                  st.sampled_from([2, 4, 256]), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(min_size=1, max_size=160), _LONG), st.data())
def test_matcher_equivalence_property(data, aux):
    n = len(data)
    pos = aux.draw(st.one_of(st.integers(0, n - 1),
                             st.integers(max(0, n - 400), n - 1)))
    block_start = aux.draw(st.integers(0, pos))
    block_end = aux.draw(st.integers(pos + 1, len(data)))
    fast = find_longest_match(data, pos, block_start, block_end)
    brute = find_longest_match_bruteforce(data, pos, block_start, block_end)
    assert fast == brute


def _candidates_bruteforce(data, start, end):
    return bytes(
        find_longest_match_bruteforce(data, p, start, end)[0] > 0
        for p in range(start, end))


def _periodic(pattern, reps, prefix):
    return prefix + pattern * reps + prefix


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=300),
                 st.builds(_noise, st.integers(0, 300), st.sampled_from([2, 4]),
                           st.integers(0, 2**32 - 1)),
                 st.builds(_periodic, st.binary(min_size=1, max_size=3),
                           st.integers(0, 60), st.binary(max_size=8))),
       st.lists(st.integers(0, 300), max_size=5))
def test_candidate_map_equals_bruteforce(data, cuts):
    """Several blocks of one batch, blocks under 3 bytes, periodic runs."""
    bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})
    for s, e in zip(bounds, bounds[1:]):
        assert candidate_map(data, s, e) == _candidates_bruteforce(data, s, e)


def test_candidate_map_window_edge():
    """A trigram seen exactly WINDOW_SIZE back is a match; one byte more is not."""
    head = _noise(64, 256, 1)
    edge = _noise(WINDOW_SIZE, 256, 2)
    past = _noise(WINDOW_SIZE + 1, 256, 3)
    data = head + edge + edge[:40] + past + past[:40]
    s1 = len(head)
    s2 = s1 + WINDOW_SIZE + 40
    for s, e, expect in ((s1, s2, 1), (s2, len(data), 0)):
        cand = candidate_map(data, s, e)
        tail = range(e - s - 60, e - s)  # the window edge, ending the block
        assert [cand[i] for i in tail] == [
            find_longest_match_bruteforce(data, s + i, s, e)[0] > 0
            for i in tail]
        assert cand[e - s - 40:e - s - 2] == bytes([expect]) * 38


def _greedy_reference(block):
    """The per-position greedy loop: one matcher call per position."""
    w = TokenWriter()
    pos = scan_ops = 0
    while pos < len(block):
        length, distance = find_longest_match(block, pos, 0, len(block))
        scan_ops += bruteforce_scan_ops(pos, 0)
        if length > MAX_UNCODED:
            w.match(distance, length)
            pos += length
        else:
            w.literal(block[pos])
            pos += 1
    return w.getvalue(), scan_ops


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=600), _LONG,
                 st.builds(_periodic, st.binary(min_size=1, max_size=3),
                           st.integers(0, 200), st.binary(max_size=8))))
def test_parse_equals_per_position_loop(block):
    assert parse(block, 0, len(block)) == _greedy_reference(block)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3 * WINDOW_SIZE), st.integers(0, 3 * WINDOW_SIZE))
def test_scan_ops_closed_form(a, b):
    lo, hi = min(a, b), max(a, b)
    assert scan_ops_range(lo, hi) == sum(
        bruteforce_scan_ops(p, 0) for p in range(lo, hi))


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=500), st.booleans())
def test_roundtrip_property(data, split):
    starts = [0] if not split or len(data) < 2 else [0, len(data) // 2]
    _blocks, restored = roundtrip(data, starts)
    assert restored == data


def test_matches_never_cross_block_boundary():
    # identical halves, but split into two blocks: no cross-block match
    data = b"ABCDEFGH" * 8
    half = len(data) // 2
    length, distance = find_longest_match(data, half, half, len(data))
    assert length == 0  # nothing before `half` inside the block


def test_no_overlapping_matches():
    # runs compress to at most distance >= length tokens (Listing 3's bound)
    data = b"a" * 100
    stream = compress_block(data, 0, len(data))
    assert decompress(stream, 100) == data
    pos, n = 0, len(stream)
    out_len = 0
    while out_len < 100:
        flags = stream[pos]
        pos += 1
        for bit in range(8):
            if out_len >= 100:
                break
            if flags & (1 << bit):
                pos += 1
                out_len += 1
            else:
                code = (stream[pos] << 8) | stream[pos + 1]
                distance, length = (code >> 4) + 1, (code & 0xF) + MIN_MATCH
                assert distance >= length  # non-overlapping
                pos += 2
                out_len += length


def test_compress_block_starts_validation():
    with pytest.raises(ValueError):
        compress(b"abc", [1])
    with pytest.raises(ValueError):
        compress(b"abc", [0, 5])
    with pytest.raises(ValueError):
        compress(b"abcdef", [0, 4, 2])


def test_compressible_data_shrinks():
    data = b"the quick brown fox " * 100
    blocks = compress(data)
    assert sum(len(b) for b in blocks) < len(data) * 0.3


def test_incompressible_data_overhead_is_bounded():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    blocks = compress(data)
    assert sum(len(b) for b in blocks) <= len(data) * 9 / 8 + 16


# -- GPU path ----------------------------------------------------------------------------

@pytest.fixture
def cuda():
    return CudaRuntime(paper_machine(1))


def _sample_batch():
    rng = np.random.default_rng(7)
    text = (b"stream processing with gpus " * 120)[:3000]
    noise = rng.integers(0, 256, 1500, dtype=np.uint8).tobytes()
    data = text + noise + text[:1000]
    return data, [0, 2048, 4096]


def test_gpu_batch_equals_cpu(cuda):
    data, starts = _sample_batch()
    cpu_blocks = compress(data, starts)
    gpu_blocks, _ = compress_batch_gpu(cuda, data, starts)
    assert gpu_blocks == cpu_blocks


def test_gpu_per_block_equals_batched(cuda):
    data, starts = _sample_batch()
    batched, lz = compress_batch_gpu(cuda, data, starts)
    per_block, _ = compress_batch_gpu(cuda, data, starts, per_block=True,
                                      lz=lz, stream=cuda.stream_create())
    assert per_block == batched


def test_gpu_batched_is_faster_than_per_block(cuda):
    data, starts = _sample_batch()
    m = paper_machine(1)

    def timed(per_block):
        rt = CudaRuntime(m)
        cursor = WorkCursor(0.0, cpu_spec=m.cpu, thread_id="t")
        with use_cursor(cursor):
            compress_batch_gpu(rt, data, starts, per_block=per_block)
        return cursor.now

    from repro.apps.lzss import cache

    cache.clear()
    t_batch = timed(False)
    cache.clear()
    t_per_block = timed(True)
    assert t_per_block > t_batch


def test_findmatch_kernel_lane_work_includes_startpos_scan():
    """Listing 3 lines 4-10: every thread scans the whole startPoss."""
    from repro.apps.lzss.gpu import _lane_work

    tid = np.arange(100)
    starts = np.array([0, 50])
    work = _lane_work(tid, 100, starts, 2)
    assert work[0] == 2  # nsp only (zero window at block start)
    assert work[49] == 2 + 49
    assert work[50] == 2  # new block: window resets
    assert work.shape == (100,)


def test_gpu_state_reuse_and_free(cuda):
    data, starts = _sample_batch()
    lz = GpuLzss(cuda, max_batch=len(data), max_blocks=8)
    st = cuda.stream_create()
    b1 = lz.compress_batch(data, starts, st)
    b2 = lz.compress_batch(data, starts, st, input_already_on_device=True)
    assert b1 == b2
    used_before = cuda.devices[0].mem_used
    lz.free()
    assert cuda.devices[0].mem_used < used_before


def test_lzss_cache_hits_across_paths(cuda):
    from repro.apps.lzss import cache

    data, starts = _sample_batch()
    compress(data, starts)           # CPU fills the cache
    before = cache.hits
    gpu_blocks, _ = compress_batch_gpu(cuda, data, starts)
    assert cache.hits > before       # GPU path reused the entries
    assert gpu_blocks == compress(data, starts)


def test_lzss_cache_counts_each_block_once(cuda):
    from repro.apps.lzss import cache

    data, starts = _sample_batch()
    compress_batch_gpu(cuda, data, starts)
    assert (cache.hits, cache.misses) == (0, 3)
    compress(data, starts)
    assert (cache.hits, cache.misses) == (3, 3)
    compress_batch_gpu(cuda, data, starts, per_block=True)
    assert (cache.hits, cache.misses) == (6, 3)


def _memo_holds_only(k, data, starts, monkeypatch):
    """Leave block ``k`` alone in a memo shrunk to about one stream.

    The GPU fill then finds block ``k`` in the memo, and storing any
    other block evicts it before the encode pass runs.
    """
    from repro.apps.lzss import cache

    cache.clear()
    bounds = starts + [len(data)]
    (stream,) = compress(data[bounds[k]:bounds[k + 1]], [0])
    monkeypatch.setattr(cache, "_CAPACITY", len(stream) + 21)


@pytest.mark.parametrize("k", range(3))
def test_gpu_equals_cpu_when_memo_evicts_a_hit(cuda, k, monkeypatch):
    from repro.apps.lzss import cache

    data, starts = _sample_batch()
    expect = compress(data, starts)
    _memo_holds_only(k, data, starts, monkeypatch)
    got, _ = compress_batch_gpu(cuda, data, starts)
    assert got == expect
    assert cache.hits + cache.misses == 1 + len(starts)


@pytest.mark.parametrize("model", ["single", "spar"])
def test_dedup_gpu_equals_cpu_when_memo_evicts_a_hit(model, monkeypatch):
    from repro.apps.dedup.container import restore
    from repro.apps.dedup.pipeline_gpu import GpuDedupConfig, dedup_gpu
    from repro.apps.dedup.rabin import Batch

    data, starts = _sample_batch()
    expect = compress(data, starts)
    _memo_holds_only(len(starts) - 1, data, starts, monkeypatch)
    cfg = GpuDedupConfig(api="cuda", model=model, replicas=2)
    out = dedup_gpu(data, cfg, prechunked=[Batch(0, data, starts)])
    assert restore(out.archive) == data
    bounds = starts + [len(data)]
    assert [r.payload for r in out.archive.records] == [
        stream if len(stream) < e - s else data[s:e]
        for stream, s, e in zip(expect, bounds, bounds[1:])]
