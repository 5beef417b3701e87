"""Decompress → recompress transcoding for existing Deflate streams.

Upstream encoders frequently ship *suboptimal* streams: fixed-Huffman
blocks from low-latency writers (this repo's own paper datapath), or
monolithic dynamic blocks with no regard for content boundaries. Since
the container formats are self-describing, such a stream can be
re-encoded losslessly: decode it with the fast table-driven inflate,
run the payload back through the one-shot pipeline under the adaptive
block strategy with cut-point search (:func:`repro.api.compress`, or
the same Deflate body in a gzip member), and keep whichever stream is
smaller.

The pipeline is strictly verify-before-trust: every candidate is
decoded again and byte-compared to the original payload before it can
replace the input, so a transcoding bug can cost compression but never
data. :class:`TranscodeResult.changed` reports whether the re-encoded
stream actually won.

Containers are auto-detected (gzip magic, otherwise a ZLib header).
FDICT inputs decode when ``zdict`` is supplied; the transcoded output
is always a self-contained plain stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api import CompressRequest, compress
from repro.deflate import gzip_container
from repro.deflate.block_writer import BlockStrategy
from repro.deflate.splitter import DEFAULT_TOKENS_PER_BLOCK
from repro.deflate.zlib_container import decompress as zlib_decompress
from repro.errors import TranscodeError

_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class TranscodeResult:
    """Outcome of one transcoding attempt."""

    data: bytes            #: the winning stream (re-encoded or original)
    container: str         #: ``"zlib"`` or ``"gzip"``
    payload_size: int      #: decoded payload bytes
    input_size: int        #: input stream bytes
    recompressed_size: int #: size of the re-encoded candidate
    changed: bool          #: True when the candidate replaced the input

    @property
    def output_size(self) -> int:
        return len(self.data)

    @property
    def savings(self) -> float:
        """Fraction of the input stream saved (0.0 when unchanged)."""
        if not self.input_size:
            return 0.0
        return 1.0 - self.output_size / self.input_size


def detect_container(stream: bytes) -> str:
    """``"gzip"`` or ``"zlib"``, by header inspection."""
    if stream[:2] == _GZIP_MAGIC:
        return "gzip"
    from repro.deflate.zlib_container import parse_header_info

    parse_header_info(stream)  # raises ZLibContainerError when invalid
    return "zlib"


def transcode(
    stream: bytes,
    window_size: int = 4096,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
    cut_search: bool = True,
    zdict: Optional[bytes] = None,
    max_output: Optional[int] = None,
) -> TranscodeResult:
    """Re-encode a zlib/gzip stream through the adaptive splitter.

    Decodes ``stream`` with the repo's own inflate (``max_output``
    bounds the decode, ``zdict`` unlocks FDICT inputs), re-compresses
    the payload with per-block strategy choice + cut-point search,
    verifies the candidate decodes byte-identically, and returns the
    smaller of candidate and original — so a plain input is never
    transcoded to a larger stream. FDICT inputs are the one exception:
    the re-encoded candidate always replaces them (even when larger)
    so the output is a plain stream that no longer needs the
    dictionary. The container format is preserved either way.
    """
    container = detect_container(stream)
    request = CompressRequest(
        window_size=window_size, tokens_per_block=tokens_per_block,
        cut_search=cut_search, strategy=BlockStrategy.ADAPTIVE,
    )
    force_plain = False
    if container == "gzip":
        payload = gzip_container.decompress(stream, max_output=max_output)
        candidate = gzip_container.frame_member(payload, request.resolve())
        redecoded = gzip_container.decompress(candidate)
    else:
        from repro.deflate.zlib_container import parse_header_info

        # An FDICT input is not self-contained; the candidate always
        # wins so the output never needs the dictionary again.
        force_plain = parse_header_info(stream).fdict
        payload = zlib_decompress(stream, max_output=max_output,
                                  zdict=zdict)
        candidate = compress(payload, request)
        redecoded = zlib_decompress(candidate)
    if redecoded != payload:
        raise TranscodeError(
            "re-encoded stream failed decode verification"
        )
    changed = force_plain or len(candidate) < len(stream)
    return TranscodeResult(
        data=candidate if changed else stream,
        container=container,
        payload_size=len(payload),
        input_size=len(stream),
        recompressed_size=len(candidate),
        changed=changed,
    )


__all__ = [
    "TranscodeResult",
    "TranscodeError",
    "detect_container",
    "transcode",
]
