"""ZLib (RFC 1950) stream framing and the end-to-end compressor facade.

:func:`compress` is the software equivalent of the paper's complete
datapath — LZSS core feeding the fixed-table Huffman coder, wrapped in
the ZLib container so that any standard inflater accepts the output
("To make the compressed stream compatible with the ZLib library...",
§I). The test suite feeds our streams to CPython's ``zlib.decompress``
as the external oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checksums.adler32 import adler32
from repro.deflate.block_writer import BlockStrategy, deflate_tokens
from repro.deflate.inflate import inflate_with_tail
from repro.errors import ZLibContainerError
from repro.lzss.compressor import CompressResult, LZSSCompressor
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy
from repro.lzss.tokens import effective_dictionary

_CM_DEFLATE = 8
_FDICT_BIT = 0x20


def make_header(window_size: int, dictionary: bytes = b"") -> bytes:
    """Build the CMF/FLG header for a given window size.

    CINFO is ``log2(window) - 8``; windows below 256 are advertised as
    256. FCHECK makes ``CMF*256 + FLG`` a multiple of 31 (RFC 1950 §2.2).
    A non-empty ``dictionary`` sets FDICT and appends its Adler-32 as
    the 4-byte DICTID; it must already be the window-reachable tail
    (:func:`repro.lzss.tokens.effective_dictionary`) — exactly the bytes
    the decompressor must preload.
    """
    cinfo = max(window_size.bit_length() - 1, 8) - 8
    if cinfo > 7:
        raise ZLibContainerError(
            f"window size {window_size} exceeds the 32 KB ZLib maximum"
        )
    cmf = (cinfo << 4) | _CM_DEFLATE
    # FLEVEL=0 (fastest — accurate for this design).
    flg = _FDICT_BIT if dictionary else 0
    rem = (cmf * 256 + flg) % 31
    if rem:
        flg += 31 - rem
    if not dictionary:
        return bytes([cmf, flg])
    return bytes([cmf, flg]) + adler32(dictionary).to_bytes(4, "big")


@dataclass(frozen=True)
class ZLibHeader:
    """Parsed CMF/FLG header (plus DICTID when FDICT is set)."""

    window_size: int
    fdict: bool
    dictid: Optional[int]
    size: int  #: header bytes before the Deflate body (2, or 6 w/ FDICT)


def parse_header_info(data: bytes) -> ZLibHeader:
    """Validate the CMF/FLG header and return its parsed fields.

    FDICT streams (RFC 1950 §2.2) carry the dictionary's Adler-32 in
    the four bytes after FLG; the Deflate body starts after it.
    """
    if len(data) < 2:
        raise ZLibContainerError("stream shorter than the 2-byte header")
    cmf, flg = data[0], data[1]
    if cmf & 0x0F != _CM_DEFLATE:
        raise ZLibContainerError(f"unsupported compression method {cmf & 0xF}")
    if (cmf * 256 + flg) % 31:
        raise ZLibContainerError("FCHECK failure in CMF/FLG")
    window_size = 1 << ((cmf >> 4) + 8)
    if not flg & _FDICT_BIT:
        return ZLibHeader(window_size, False, None, 2)
    if len(data) < 6:
        raise ZLibContainerError("FDICT stream shorter than its DICTID")
    return ZLibHeader(window_size, True,
                      int.from_bytes(data[2:6], "big"), 6)


def parse_header(data: bytes) -> int:
    """Validate the CMF/FLG header; return the advertised window size."""
    return parse_header_info(data).window_size


@dataclass
class ZLibResult:
    """Full output of one container-level compression."""

    data: bytes
    lzss: CompressResult

    @property
    def compressed_size(self) -> int:
        return len(self.data)

    @property
    def ratio(self) -> float:
        """Uncompressed/compressed size (the paper's Table I metric)."""
        if not self.data:
            return 0.0
        return self.lzss.input_size / len(self.data)


class ZLibCompressor:
    """LZSS + Huffman + ZLib framing with the paper's parameter set.

    ``backend="traced"`` (default) keeps the instrumented reproduction
    path so ``ZLibResult.lzss.trace`` feeds the cost models; ``"fast"``
    and ``"sa"`` are the trace-free production tokenizers.
    The removed ``trace=`` boolean raises
    :class:`~repro.errors.ConfigError`; knob resolution goes through
    :class:`repro.api.CompressRequest`.
    """

    def __init__(
        self,
        window_size: Optional[int] = None,
        hash_spec: Optional[HashSpec] = None,
        policy: Optional[MatchPolicy] = None,
        strategy: Optional[BlockStrategy] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
        profile=None,
    ) -> None:
        from repro.api import CompressRequest, reject_legacy_trace

        reject_legacy_trace("trace", trace)
        resolved = CompressRequest(
            profile=profile,
            window_size=window_size,
            hash_spec=hash_spec,
            policy=policy,
            strategy=strategy,
            backend=backend,
        ).resolve(backend="traced")
        self._lzss = LZSSCompressor(
            resolved.window_size, resolved.hash_spec, resolved.policy,
            backend=resolved.backend,
        )
        self.strategy = resolved.strategy
        self.window_size = resolved.window_size

    def compress(self, data: bytes) -> ZLibResult:
        """Compress ``data`` into a complete ZLib stream."""
        result = self._lzss.compress(data)
        body = deflate_tokens(result.tokens, self.strategy)
        stream = (
            make_header(self.window_size)
            + body
            + adler32(data).to_bytes(4, "big")
        )
        return ZLibResult(data=stream, lzss=result)


def compress(
    data: bytes,
    window_size: Optional[int] = None,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    strategy: Optional[BlockStrategy] = None,
    trace: Optional[bool] = None,
    backend: Optional[str] = None,
    profile=None,
) -> bytes:
    """One-shot ZLib-compatible compression (paper datapath defaults).

    >>> import zlib
    >>> stream = compress(b"snowy snow" * 100)
    >>> zlib.decompress(stream) == b"snowy snow" * 100
    True
    >>> decompress(stream) == b"snowy snow" * 100
    True
    """
    from repro.api import reject_legacy_trace

    reject_legacy_trace("trace", trace)
    return ZLibCompressor(
        window_size, hash_spec, policy, strategy, backend=backend,
        profile=profile,
    ).compress(data).data


def decompress(
    data: bytes,
    max_output: Optional[int] = None,
    zdict: Optional[bytes] = None,
) -> bytes:
    """Decode a ZLib stream with our own inflate; verifies Adler-32.

    ``max_output`` is enforced *inside* the Deflate decoder — a
    decompression bomb aborts mid-stream, never after inflating fully.
    FDICT streams (as :func:`repro.deflate.preset_dict.compress_with_dict`
    emits) decode when the matching ``zdict`` is supplied: the header's
    DICTID is checked against ``adler32(zdict)`` and the dictionary
    primes the back-reference history. A plain stream ignores ``zdict``,
    mirroring ``zlib.decompressobj``.
    """
    header = parse_header_info(data)
    prime = b""
    if header.fdict:
        if zdict is None:
            raise ZLibContainerError(
                "stream uses a preset dictionary (FDICT); pass zdict="
            )
        prime = effective_dictionary(zdict, header.window_size)
        if adler32(prime) != header.dictid \
                and adler32(zdict) != header.dictid:
            raise ZLibContainerError(
                f"DICTID {header.dictid:#010x} does not match the "
                "supplied dictionary"
            )
    payload, consumed = inflate_with_tail(
        data[header.size:], max_output=max_output, zdict=prime
    )
    trailer = data[header.size + consumed:header.size + consumed + 4]
    if len(trailer) < 4:
        raise ZLibContainerError("stream truncated before Adler-32 trailer")
    expected = int.from_bytes(trailer, "big")
    actual = adler32(payload)
    if actual != expected:
        raise ZLibContainerError(
            f"Adler-32 mismatch: stream says {expected:#010x}, "
            f"payload gives {actual:#010x}"
        )
    return payload
