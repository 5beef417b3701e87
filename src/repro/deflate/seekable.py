"""Seekable compressed container — the random-access direction of [6].

The paper's related work cites "LZ77-like compression with fast random
access" (Kreft & Navarro). For a logging system the practical form is a
*block-indexed* container: the stream is cut into independently
compressed blocks (each with its own dictionary, so any block decodes
alone) plus an index mapping uncompressed ranges to compressed offsets.
Reading an arbitrary byte range touches only the blocks covering it.

Layout::

    magic "LZSK" | version u8 | block_size u32 | block_count u32
    dict_size u32 | dictionary bytes          (version 2; v1 has neither)
    block_count x { compressed_offset u64, compressed_size u32,
                    uncompressed_size u32 }
    blocks... (each a complete ZLib stream; FDICT streams when a
               dictionary is present)

Version 2 embeds an optional preset dictionary shared by every block —
small blocks (fine random-access granularity) otherwise pay a heavy
cold-window penalty; the dictionary claws most of it back while keeping
blocks independently decodable.

The index lives in the header (written last, but the container is built
in memory), keeping readers single-pass-free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.api import compress
from repro.deflate.preset_dict import decompress_with_dict
from repro.deflate.zlib_container import decompress as zlib_decompress
from repro.errors import ConfigError, FormatError
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy

_MAGIC = b"LZSK"
_VERSION_PLAIN = 1
_VERSION_DICT = 2
_HEADER = struct.Struct("<4sBII")
_DICT_LEN = struct.Struct("<I")
_ENTRY = struct.Struct("<QII")


@dataclass
class BlockEntry:
    """Index entry for one compressed block."""

    compressed_offset: int
    compressed_size: int
    uncompressed_size: int


@dataclass
class SeekableArchive:
    """A parsed seekable container."""

    block_size: int
    entries: List[BlockEntry]
    payload: bytes  # the concatenated compressed blocks
    dictionary: bytes = field(default=b"")

    @property
    def uncompressed_size(self) -> int:
        return sum(e.uncompressed_size for e in self.entries)

    @property
    def compressed_size(self) -> int:
        header = _HEADER.size + _ENTRY.size * len(self.entries)
        if self.dictionary:
            header += _DICT_LEN.size + len(self.dictionary)
        return header + len(self.payload)


def create(
    data: bytes,
    block_size: int = 64 * 1024,
    window_size: int = 4096,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    dictionary: Optional[bytes] = None,
) -> bytes:
    """Build a seekable archive from ``data``.

    With ``dictionary`` (e.g. from
    :func:`repro.deflate.preset_dict.train_dictionary`) every block is
    an FDICT stream primed with it — worthwhile for small block sizes.
    """
    if block_size < 1024:
        raise ConfigError(f"block_size must be >= 1024: {block_size}")
    entries: List[BlockEntry] = []
    payload = bytearray()
    for start in range(0, len(data), block_size) or [0]:
        chunk = data[start:start + block_size]
        blob = compress(
            chunk, zdict=dictionary, window_size=window_size,
            hash_spec=hash_spec, policy=policy,
        )
        entries.append(
            BlockEntry(
                compressed_offset=len(payload),
                compressed_size=len(blob),
                uncompressed_size=len(chunk),
            )
        )
        payload += blob
    out = bytearray()
    version = _VERSION_DICT if dictionary else _VERSION_PLAIN
    out += _HEADER.pack(_MAGIC, version, block_size, len(entries))
    if dictionary:
        out += _DICT_LEN.pack(len(dictionary))
        out += dictionary
    for entry in entries:
        out += _ENTRY.pack(
            entry.compressed_offset,
            entry.compressed_size,
            entry.uncompressed_size,
        )
    out += payload
    return bytes(out)


def open_archive(blob: bytes) -> SeekableArchive:
    """Parse and validate an archive's header and index."""
    if len(blob) < _HEADER.size:
        raise FormatError("archive shorter than its header")
    magic, version, block_size, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version not in (_VERSION_PLAIN, _VERSION_DICT):
        raise FormatError(f"unsupported version {version}")
    offset = _HEADER.size
    dictionary = b""
    if version == _VERSION_DICT:
        if offset + _DICT_LEN.size > len(blob):
            raise FormatError("truncated dictionary length")
        (dict_len,) = _DICT_LEN.unpack_from(blob, offset)
        offset += _DICT_LEN.size
        if offset + dict_len > len(blob):
            raise FormatError("truncated dictionary")
        dictionary = blob[offset:offset + dict_len]
        offset += dict_len
        if not dictionary:
            raise FormatError("version-2 archive with empty dictionary")
    entries: List[BlockEntry] = []
    for _ in range(count):
        if offset + _ENTRY.size > len(blob):
            raise FormatError("truncated block index")
        coff, csize, usize = _ENTRY.unpack_from(blob, offset)
        entries.append(BlockEntry(coff, csize, usize))
        offset += _ENTRY.size
    payload = blob[offset:]
    for entry in entries:
        if entry.compressed_offset + entry.compressed_size > len(payload):
            raise FormatError("block index points past the payload")
    # Every block but the last must be exactly block_size long, and the
    # last no longer: the index sizes cap each block's inflate.
    for entry in entries[:-1]:
        if entry.uncompressed_size != block_size:
            raise FormatError("non-final block with irregular size")
    if entries and entries[-1].uncompressed_size > block_size:
        raise FormatError("final block larger than block_size")
    return SeekableArchive(
        block_size=block_size, entries=entries, payload=payload,
        dictionary=dictionary,
    )


def _decode_block(archive: SeekableArchive, index: int) -> bytes:
    entry = archive.entries[index]
    blob = archive.payload[
        entry.compressed_offset:
        entry.compressed_offset + entry.compressed_size
    ]
    # The cap aborts a bomb block mid-inflate instead of after it.
    cap = entry.uncompressed_size
    if archive.dictionary:
        data = decompress_with_dict(blob, archive.dictionary, max_output=cap)
    else:
        data = zlib_decompress(blob, max_output=cap)
    if len(data) != entry.uncompressed_size:
        raise FormatError(
            f"block {index} decoded to {len(data)} bytes, "
            f"index says {entry.uncompressed_size}"
        )
    return data


def read_range(blob: bytes, start: int, length: int) -> bytes:
    """Random-access read: decompress only the blocks covering the range.

    Returns fewer bytes than requested when the range passes the end of
    the archive (file-like semantics).
    """
    if start < 0 or length < 0:
        raise ConfigError("start and length must be non-negative")
    archive = open_archive(blob)
    total = archive.uncompressed_size
    if start >= total or length == 0:
        return b""
    end = min(start + length, total)
    first = start // archive.block_size
    last = (end - 1) // archive.block_size
    pieces = []
    for index in range(first, last + 1):
        pieces.append(_decode_block(archive, index))
    joined = b"".join(pieces)
    base = first * archive.block_size
    return joined[start - base:end - base]


def read_all(blob: bytes) -> bytes:
    """Decode the entire archive (sanity/round-trip path)."""
    archive = open_archive(blob)
    return b"".join(
        _decode_block(archive, i) for i in range(len(archive.entries))
    )


def blocks_touched(blob: bytes, start: int, length: int) -> int:
    """How many blocks a range read would decompress (for tests/benches)."""
    archive = open_archive(blob)
    total = archive.uncompressed_size
    if start >= total or length == 0:
        return 0
    end = min(start + length, total)
    return (end - 1) // archive.block_size - start // archive.block_size + 1
