"""Chunked parallel fan-out for very large message batches.

One :func:`repro.batch.compress_batch` call already amortises setup
across its payloads, but a single call is one core. For very large N
this module cuts the payload list into contiguous *chunks* and runs one
batched pass per chunk on a process pool — the same fork-based pool and
determinism contract as :class:`repro.parallel.engine.ShardedCompressor`:
chunking is deterministic, results reassemble in order, and every
output stream is the same independent ZLib stream the serial batch
would have produced for that chunk.

Each chunk builds its *own* shared Huffman plan (plans are priced
against the chunk's pooled histograms), so chunk size trades plan
quality against parallelism: bigger chunks pool more context, more
chunks keep more cores busy. The default of a few hundred messages per
chunk keeps the per-chunk numpy pass comfortably past its fixed cost.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.batch import BatchResult, BatchStats, compress_batch
from repro.errors import ConfigError
from repro.parallel.pool import get_default_pool

#: Default payloads per chunk: large enough that one vectorised pass
#: dominates its setup, small enough that a few thousand messages still
#: fan out across every core.
DEFAULT_CHUNK_PAYLOADS = 256


def _compress_chunk(job) -> BatchResult:
    """Top-level pool worker: one chunk through the serial batch path."""
    payloads, kwargs = job
    return compress_batch(payloads, **kwargs)


def compress_batch_parallel(
    payloads: Sequence[bytes],
    *,
    workers: Optional[int] = None,
    chunk_payloads: int = DEFAULT_CHUNK_PAYLOADS,
    profile=None,
    zdict: bytes = b"",
    window_size: Optional[int] = None,
    hash_spec=None,
    policy=None,
    backend: Optional[str] = None,
    shared_plan: Optional[bool] = None,
    pool=None,
) -> BatchResult:
    """Batch-compress ``payloads`` across a process pool, chunk-wise.

    Keyword arguments mirror :func:`repro.batch.compress_batch` and are
    forwarded verbatim to every chunk. ``workers=None`` uses the CPU
    count; ``workers=1`` (or a single chunk) short-circuits to the
    in-process serial path. The merged :class:`~repro.batch.BatchResult`
    keeps per-payload ``streams``/``choices`` in input order; ``routing``
    is the first chunk's decision (chunks of one batch route alike on
    one machine) and ``plan`` is ``None`` — plans are per chunk.

    Chunks run on the persistent warm pool (:mod:`repro.parallel.pool`)
    — the same workers the sharded engine keeps warm — so a service
    alternating between large-buffer and many-message traffic never
    pays pool startup twice. ``pool=`` injects a caller-owned
    :class:`~repro.parallel.pool.WarmPool`.
    """
    if chunk_payloads < 1:
        raise ConfigError(
            f"chunk_payloads must be >= 1: {chunk_payloads}"
        )
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1: {workers}")
    payloads = [bytes(p) for p in payloads]
    workers = workers or os.cpu_count() or 1
    kwargs = dict(
        profile=profile, zdict=zdict, window_size=window_size,
        hash_spec=hash_spec, policy=policy, backend=backend,
        shared_plan=shared_plan,
    )
    if not payloads:
        return compress_batch([], **kwargs)

    chunks = [
        payloads[start:start + chunk_payloads]
        for start in range(0, len(payloads), chunk_payloads)
    ]
    if workers == 1 or len(chunks) == 1:
        results = [_compress_chunk((chunk, kwargs)) for chunk in chunks]
    else:
        warm = pool or get_default_pool(workers)
        results = warm.run(
            _compress_chunk, [(chunk, kwargs) for chunk in chunks]
        )

    streams: List[bytes] = []
    choices: List[str] = []
    counts: Dict[str, int] = {}
    output_bytes = 0
    for result in results:
        streams.extend(result.streams)
        choices.extend(result.choices)
        output_bytes += result.stats.output_bytes
        for name, count in result.stats.choice_counts.items():
            counts[name] = counts.get(name, 0) + count
    stats = BatchStats(
        payload_count=len(payloads),
        input_bytes=sum(len(p) for p in payloads),
        output_bytes=output_bytes,
        choice_counts=counts,
    )
    return BatchResult(streams, tuple(choices), results[0].routing,
                       None, stats)
