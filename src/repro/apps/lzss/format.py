"""LZSS token stream format and decoder.

Dipperstein-style parameters (the lineage of the paper's LZSS code):

* sliding window ``WINDOW_SIZE`` = 4096 bytes (12-bit distances),
* matches of 3..18 bytes (``MIN_MATCH`` .. ``MAX_CODED``); anything
  shorter is cheaper as a literal (``MAX_UNCODED`` = 2),
* a *flag byte* precedes each group of 8 tokens (LSB first): bit 1 =
  literal byte follows, bit 0 = a 2-byte match code follows,
* match code: 12-bit backward distance minus 1 (1..4096), 4-bit length
  minus ``MIN_MATCH`` (3..18), big-endian.

Matches never cross a Dedup block boundary and never overlap their own
target (Listing 3 bounds the source to ``current + j < thisBatchI``),
so the decoder can copy with plain slices.
"""

from __future__ import annotations

from typing import List

WINDOW_SIZE = 4096
MAX_UNCODED = 2
MIN_MATCH = MAX_UNCODED + 1            # 3
MAX_CODED = MIN_MATCH + 15             # 18: 4 bits of length


class LzssFormatError(ValueError):
    """Corrupt or truncated LZSS stream."""


class TokenWriter:
    """Accumulates literal/match tokens into the flag-grouped stream."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._flag_pos = -1
        self._flag_bit = 8  # force a new flag byte on first token

    def _next_bit(self) -> int:
        if self._flag_bit == 8:
            self._flag_pos = len(self._out)
            self._out.append(0)
            self._flag_bit = 0
        bit = self._flag_bit
        self._flag_bit += 1
        return bit

    def literal(self, byte: int) -> None:
        bit = self._next_bit()
        self._out[self._flag_pos] |= 1 << bit
        self._out.append(byte & 0xFF)

    def literals(self, run: bytes) -> None:
        """Append every byte of ``run`` as a literal, in bulk.

        Same stream as calling :meth:`literal` per byte: fill the open
        flag group, then one ``0xFF`` flag plus 8 raw bytes per full
        group, then the tail in a new group.
        """
        out = self._out
        n = len(run)
        k = min(8 - self._flag_bit, n)  # room left in the open group
        if k:
            out[self._flag_pos] |= ((1 << k) - 1) << self._flag_bit
            out += run[:k]
            self._flag_bit += k
        full, tail = divmod(n - k, 8)
        if full:
            out += b"".join(b"\xff" + run[i:i + 8]
                            for i in range(k, k + 8 * full, 8))
        if tail:  # only reached with the open group full
            self._flag_pos = len(out)
            out.append((1 << tail) - 1)
            out += run[n - tail:]
            self._flag_bit = tail

    def match(self, distance: int, length: int) -> None:
        if not 1 <= distance <= WINDOW_SIZE:
            raise LzssFormatError(f"distance {distance} out of range")
        if not MIN_MATCH <= length <= MAX_CODED:
            raise LzssFormatError(f"length {length} out of range")
        self._next_bit()  # flag bit stays 0
        code = ((distance - 1) << 4) | (length - MIN_MATCH)
        self._out.append((code >> 8) & 0xFF)
        self._out.append(code & 0xFF)

    def getvalue(self) -> bytes:
        return bytes(self._out)


def decompress(stream: bytes, expected_len: int) -> bytes:
    """Decode one block's token stream back to ``expected_len`` bytes."""
    out = bytearray()
    pos = 0
    n = len(stream)
    while len(out) < expected_len:
        if pos >= n:
            raise LzssFormatError("stream truncated (missing flag byte)")
        flags = stream[pos]
        pos += 1
        for bit in range(8):
            if len(out) >= expected_len:
                break
            if flags & (1 << bit):
                if pos >= n:
                    raise LzssFormatError("stream truncated (literal)")
                out.append(stream[pos])
                pos += 1
            else:
                if pos + 1 >= n:
                    raise LzssFormatError("stream truncated (match code)")
                code = (stream[pos] << 8) | stream[pos + 1]
                pos += 2
                distance = (code >> 4) + 1
                length = (code & 0xF) + MIN_MATCH
                start = len(out) - distance
                if start < 0:
                    raise LzssFormatError(
                        f"match reaches {-start} bytes before block start"
                    )
                if start + length > len(out):
                    raise LzssFormatError("overlapping match (encoder never emits these)")
                out += out[start:start + length]
    if pos != n:
        raise LzssFormatError(f"{n - pos} trailing bytes after block decoded")
    return bytes(out)


def tokens_to_stream(tokens: List[tuple]) -> bytes:
    """Assemble ``('lit', byte)`` / ``('match', distance, length)`` tokens."""
    w = TokenWriter()
    for t in tokens:
        if t[0] == "lit":
            w.literal(t[1])
        elif t[0] == "match":
            w.match(t[1], t[2])
        else:
            raise LzssFormatError(f"unknown token {t!r}")
    return w.getvalue()
