"""Dedup as a command-line tool: pack / unpack / inspect archives.

What a downstream user actually runs::

    python -m repro.apps.dedup pack INPUT ARCHIVE [--gpu] [--replicas N]
    python -m repro.apps.dedup unpack ARCHIVE OUTPUT
    python -m repro.apps.dedup info ARCHIVE

``pack --gpu`` uses the 5-stage SPar+CUDA pipeline of Fig. 3 (on the
simulated devices — output is identical to the CPU pipeline's);
without it, the 3-stage SPar CPU pipeline runs on native threads.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.apps.dedup.container import Archive, restore
from repro.apps.dedup.pipeline_cpu import dedup_cpu
from repro.apps.dedup.pipeline_gpu import GpuDedupConfig, dedup_gpu
from repro.apps.dedup.rabin import BATCH_SIZE, GearChunker, make_batches


def _cmd_pack(args) -> int:
    data = pathlib.Path(args.input).read_bytes()
    t0 = time.perf_counter()
    if args.gpu:
        cfg = GpuDedupConfig(api="cuda", model="spar", replicas=args.replicas,
                             batch_size=args.batch_size)
        out = dedup_gpu(data, cfg)
    else:
        batches = make_batches(data, GearChunker(), args.batch_size)
        out = dedup_cpu(data, replicas=args.replicas, prechunked=batches)
    wall = time.perf_counter() - t0
    blob = out.archive.serialize()
    pathlib.Path(args.archive).write_bytes(blob)
    store = out.store
    print(f"packed {len(data):,} B -> {len(blob):,} B "
          f"({out.archive.compression_ratio():.1%} of input) in {wall:.1f}s")
    print(f"blocks: {store.total_blocks} "
          f"({store.duplicate_blocks} duplicates, "
          f"{store.dedup_ratio():.1%} of bytes deduplicated)")
    if args.verify:
        if restore(out.archive) != data:
            print("VERIFY FAILED", file=sys.stderr)
            return 1
        print("verify: restore is bit-exact")
    return 0


def _cmd_unpack(args) -> int:
    blob = pathlib.Path(args.archive).read_bytes()
    data = restore(Archive.deserialize(blob))
    pathlib.Path(args.output).write_bytes(data)
    print(f"restored {len(data):,} B from {len(blob):,} B archive")
    return 0


def _cmd_info(args) -> int:
    blob = pathlib.Path(args.archive).read_bytes()
    arc = Archive.deserialize(blob)
    kinds = {0: 0, 1: 0, 2: 0}
    payload = 0
    for r in arc.records:
        kinds[r.kind] += 1
        payload += len(r.payload)
    print(f"records: {len(arc.records)} "
          f"(lzss {kinds[0]}, raw {kinds[1]}, duplicate {kinds[2]})")
    print(f"archive: {len(blob):,} B ({payload:,} B payload)")
    restored = len(restore(arc))
    print(f"restores to {restored:,} B "
          f"(ratio {len(blob) / max(restored, 1):.3f})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.apps.dedup")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pack = sub.add_parser("pack", help="deduplicate + compress a file")
    pack.add_argument("input")
    pack.add_argument("archive")
    pack.add_argument("--gpu", action="store_true",
                      help="use the 5-stage SPar+CUDA pipeline (Fig. 3)")
    pack.add_argument("--replicas", type=int, default=4)
    pack.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    pack.add_argument("--verify", action="store_true")
    pack.set_defaults(fn=_cmd_pack)

    unpack = sub.add_parser("unpack", help="restore a file from an archive")
    unpack.add_argument("archive")
    unpack.add_argument("output")
    unpack.set_defaults(fn=_cmd_unpack)

    info = sub.add_parser("info", help="describe an archive")
    info.add_argument("archive")
    info.set_defaults(fn=_cmd_info)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
