"""gzip (RFC 1952) framing — container extension.

The paper targets ZLib framing; gzip framing is a tiny delta (magic,
flags, CRC-32 + ISIZE trailer) and several of the related-work systems
([7], [12]) are gzip cores, so it is included for completeness. Output
is deterministic (MTIME fixed to 0).
"""

from __future__ import annotations

from typing import Optional

from repro.checksums.crc32 import crc32
from repro.deflate.block_writer import BlockStrategy
from repro.deflate.inflate import inflate_with_tail
from repro.errors import GzipContainerError
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy

_MAGIC = b"\x1f\x8b"
_CM_DEFLATE = 8
_OS_UNKNOWN = 255


def member_header() -> bytes:
    """The fixed 10-byte gzip member header (MTIME pinned to 0).

    Shared by the one-shot :func:`compress` and the serving layer's
    stitched gzip streams (:mod:`repro.serve`), whose Deflate body is
    assembled from parallel shard fragments.
    """
    return _MAGIC + bytes([
        _CM_DEFLATE,
        0,              # FLG: no extra fields
        0, 0, 0, 0,     # MTIME = 0 for determinism
        4,              # XFL: fastest algorithm
        _OS_UNKNOWN,
    ])


def member_trailer(crc: int, size: int) -> bytes:
    """The 8-byte gzip trailer: CRC-32 + ISIZE, little-endian."""
    return crc.to_bytes(4, "little") + (
        (size & 0xFFFFFFFF).to_bytes(4, "little")
    )


def compress(
    data: bytes,
    window_size: int = 4096,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    strategy: BlockStrategy = BlockStrategy.FIXED,
) -> bytes:
    """Compress ``data`` into a gzip member.

    The body is :func:`repro.deflate.stream.deflate_raw` — the same
    Deflate bytes :func:`repro.api.compress` frames for ZLib.
    """
    from repro.api import CompressRequest

    config = CompressRequest(
        window_size=window_size, hash_spec=hash_spec, policy=policy,
        strategy=strategy,
    ).resolve()
    return frame_member(data, config)


def frame_member(data: bytes, config) -> bytes:
    """A gzip member for ``data`` compressed under a resolved config."""
    from repro.deflate.stream import deflate_raw

    return (
        member_header() + deflate_raw(data, config)
        + member_trailer(crc32(data), len(data))
    )


def decompress(data: bytes, max_output: Optional[int] = None) -> bytes:
    """Decode one gzip member; verifies CRC-32 and ISIZE.

    ``max_output`` is enforced inside the Deflate decoder (the bomb
    guard aborts mid-stream, before the trailer is ever reached).
    Trailing bytes after the member are ignored; use
    :func:`decompress_multi` for concatenated members.
    """
    payload, _ = _decompress_member(data, max_output)
    return payload


def _skip_zero_terminated(data: bytes, offset: int) -> int:
    end = data.find(b"\x00", offset)
    if end < 0:
        raise GzipContainerError("unterminated header string")
    return end + 1


def decompress_multi(data: bytes, max_output: Optional[int] = None) -> bytes:
    """Decode a stream of concatenated gzip members (``cat a.gz b.gz``).

    The gzip format explicitly allows member concatenation; compliant
    readers (including ``gzip.decompress``) return the concatenated
    payloads. Each member's CRC/ISIZE is verified individually.
    """
    out = bytearray()
    offset = 0
    if not data:
        raise GzipContainerError("empty input")
    while offset < len(data):
        member = data[offset:]
        # Later members only get the budget earlier ones left over.
        budget = None if max_output is None else max_output - len(out)
        payload, consumed = _decompress_member(member, budget)
        out += payload
        offset += consumed
    return bytes(out)


def _decompress_member(data: bytes, max_output: Optional[int]) -> tuple:
    """Decode one member; returns (payload, bytes consumed)."""
    if len(data) < 10 or data[:2] != _MAGIC:
        raise GzipContainerError("missing gzip magic bytes")
    if data[2] != _CM_DEFLATE:
        raise GzipContainerError(f"unsupported compression method {data[2]}")
    flg = data[3]
    offset = 10
    if flg & 0x04:
        if len(data) < offset + 2:
            raise GzipContainerError("truncated FEXTRA length")
        xlen = int.from_bytes(data[offset:offset + 2], "little")
        offset += 2 + xlen
    if flg & 0x08:
        offset = _skip_zero_terminated(data, offset)
    if flg & 0x10:
        offset = _skip_zero_terminated(data, offset)
    if flg & 0x02:
        offset += 2
    if offset > len(data):
        raise GzipContainerError("truncated gzip header")
    payload, consumed = inflate_with_tail(data[offset:],
                                          max_output=max_output)
    trailer = data[offset + consumed:offset + consumed + 8]
    if len(trailer) < 8:
        raise GzipContainerError("stream truncated before CRC32/ISIZE")
    if crc32(payload) != int.from_bytes(trailer[:4], "little"):
        raise GzipContainerError("CRC-32 mismatch")
    if len(payload) & 0xFFFFFFFF != int.from_bytes(trailer[4:], "little"):
        raise GzipContainerError("ISIZE mismatch")
    return payload, offset + consumed + 8
