"""LZSS core: the ZLib-variant algorithm described in §III of the paper.

The compressor consumes a byte stream and produces decompressor commands
of two kinds: *output literal* and *copy L bytes from distance D*. Match
search uses ZLib's head/next hash-chain structure, which is also exactly
the structure the paper's hardware implements in block RAMs.

Key entry points:

* :class:`LZSSCompressor` / :func:`compress_tokens` — token stream
  production with selectable :class:`MatchPolicy` (greedy or lazy);
  ``backend=`` selects the tokenizer (``traced`` or the pure-Python
  ``fast`` path — the two are bit-identical — or the suffix-array
  ``sa`` exact matcher, which trades token identity for ratio; see
  :mod:`repro.lzss.backends`).
* :func:`decompress_tokens` — token stream back to bytes.
* :class:`TokenArray` — compact token storage.
* :class:`MatchTrace` — per-token search cost record consumed by the
  hardware and software cost models (DESIGN.md §4.1).
* :mod:`repro.lzss.raw_format` — the paper's raw D/L bit-level command
  format (§III), independent of the Deflate encoding.
"""

from repro.lzss.tokens import (
    Literal,
    Match,
    Token,
    TokenArray,
    MAX_MATCH,
    MIN_MATCH,
)
from repro.lzss.policy import MatchPolicy, ZLIB_LEVELS, policy_for_level
from repro.lzss.compressor import LZSSCompressor, CompressResult, compress_tokens
from repro.lzss.decompressor import decompress_tokens
from repro.lzss.fast import compress_fast
from repro.lzss.sa import compress_sa
from repro.lzss import backends
from repro.lzss.trace import MatchTrace

__all__ = [
    "backends",
    "compress_sa",
    "Literal",
    "Match",
    "Token",
    "TokenArray",
    "MAX_MATCH",
    "MIN_MATCH",
    "MatchPolicy",
    "ZLIB_LEVELS",
    "policy_for_level",
    "LZSSCompressor",
    "CompressResult",
    "compress_tokens",
    "compress_fast",
    "decompress_tokens",
    "MatchTrace",
]
