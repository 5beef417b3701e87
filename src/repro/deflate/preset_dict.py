"""Preset-dictionary compression (RFC 1950 FDICT).

Embedded loggers often compress *small independent records* (one CAN
burst, one telemetry batch) where the sliding window never warms up. The
ZLib spec's answer is a preset dictionary: compressor and decompressor
agree on a shared byte string that primes the window, and the stream
header carries its Adler-32 (DICTID) so a mismatch is detected up front.

This module implements both directions, interoperable with CPython's
``zlib.compressobj(zdict=...)`` / ``decompressobj(zdict=...)`` (tested),
plus a helper that builds a dictionary from sample records by frequency.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.deflate.block_writer import BlockStrategy
from repro.deflate.zlib_container import decompress, parse_header_info
from repro.errors import ConfigError, ZLibContainerError
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy


def compress_with_dict(
    data: bytes,
    dictionary: bytes,
    window_size: int = 4096,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
) -> bytes:
    """Compress ``data`` with ``dictionary`` priming the window.

    The output is a standard FDICT ZLib stream with a fixed-Huffman
    body: ``zlib.decompressobj(zdict=dictionary)`` accepts it. A thin
    wrapper over ``repro.api.compress(zdict=..., strategy=FIXED)``,
    which takes any block strategy.
    """
    from repro.api import compress

    if not dictionary:
        raise ConfigError("dictionary must be non-empty (use compress())")
    return compress(
        data, zdict=dictionary, window_size=window_size,
        hash_spec=hash_spec, policy=policy, strategy=BlockStrategy.FIXED,
    )


def decompress_with_dict(
    stream: bytes,
    dictionary: bytes,
    max_output: Optional[int] = None,
) -> bytes:
    """Decode an FDICT ZLib stream produced with ``dictionary``.

    ``max_output`` is enforced inside the decoder, aborting bombs
    mid-stream; a plain (non-FDICT) stream is rejected.
    """
    if not parse_header_info(stream).fdict:
        raise ZLibContainerError(
            "stream has no FDICT flag; use plain decompress()"
        )
    return decompress(stream, max_output=max_output, zdict=dictionary)


def train_dictionary(
    samples: Iterable[bytes],
    size: int = 2048,
    ngram: int = 8,
) -> bytes:
    """Build a preset dictionary from sample records.

    Greedy frequency heuristic: the most common ``ngram``-grams across
    the samples are concatenated (most frequent *last*, since shorter
    back-reference distances are cheaper in Deflate). Good enough to
    demonstrate the mechanism; production systems use suffix-automaton
    trainers (e.g. zstd's cover algorithm).
    """
    if size <= 0:
        raise ConfigError(f"size must be positive: {size}")
    counts: Counter = Counter()
    for sample in samples:
        for i in range(0, max(0, len(sample) - ngram + 1), 2):
            counts[bytes(sample[i:i + ngram])] += 1
    picked = []
    used = 0
    seen = set()
    for gram, count in counts.most_common():
        if count < 2 or used >= size:
            break
        if gram in seen:
            continue
        seen.add(gram)
        picked.append(gram)
        used += len(gram)
    picked.reverse()  # most frequent nearest the end (cheapest distances)
    return b"".join(picked)[-size:]
