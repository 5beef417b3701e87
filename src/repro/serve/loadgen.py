"""Load generator for the compression service (BENCH_serve feed).

Self-hosting by design: it starts a :class:`CompressionService` on an
ephemeral port inside its own event loop, drives N concurrent client
streams against it, and reports aggregate throughput plus per-stream
wall-time quantiles. Every stream's response is verified — decodable
back to the payload, and (zlib format) **byte-identical** to the
single-threaded :class:`~repro.deflate.stream.ZLibStreamCompressor`
reference, the acceptance contract that pins the served stream to the
library's canonical chunked output.
"""

from __future__ import annotations

import asyncio
import os
import time
import zlib
from typing import Optional, Sequence

from repro.deflate.stream import ZLibStreamCompressor
from repro.parallel.engine import ShardedCompressor
from repro.serve.client import compress_stream
from repro.serve.server import CompressionService
from repro.serve.stats import quantile

_WORDS = (
    b"stream", b"shard", b"window", b"match", b"literal", b"huffman",
    b"deflate", b"adler", b"pipeline", b"latency", b"backlog", b"pool",
)


def make_payload(size: int, seed: int = 20260807) -> bytes:
    """Deterministic compressible text of exactly ``size`` bytes."""
    out = bytearray()
    state = seed & 0xFFFFFFFF
    while len(out) < size:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        word = _WORDS[state % len(_WORDS)]
        out += word
        out += b" " if state & 0x10000 else b"\n"
    return bytes(out[:size])


def reference_stream(payload: bytes, config: ShardedCompressor) -> bytes:
    """The canonical single-threaded output the service must match.

    :class:`ZLibStreamCompressor` fed shard-size chunks with a
    ``flush_sync()`` after each one, then finished — exactly the block
    and sync-marker cadence the sharded pipeline stitches, so the
    served zlib stream is byte-identical by construction (the carried
    window supplies the same cross-shard history both sides). With a
    preset dictionary the reference is ``config``'s own stitched
    :meth:`~repro.parallel.engine.ShardedCompressor.compress`: the
    stream compressor has no FDICT framing.
    """
    if config.dictionary:
        return config.compress(payload).data
    stream = ZLibStreamCompressor(
        window_size=config.window_size,
        hash_spec=config.hash_spec,
        policy=config.policy,
        strategy=config.strategy,
        backend=config.backend,
        tokens_per_block=config.tokens_per_block,
        cut_search=config.cut_search,
        sniff=config.sniff,
        refine=config.refine,
        router=config.router,
    )
    out = bytearray()
    for start in range(0, len(payload), config.shard_size):
        out += stream.compress(payload[start:start + config.shard_size])
        out += stream.flush_sync()
    out += stream.finish()
    return bytes(out)


async def _timed_stream(host: str, port: int, payload: bytes,
                        chunk_size: int, fmt: str):
    chunks = [payload[i:i + chunk_size]
              for i in range(0, len(payload), chunk_size)]
    started = time.perf_counter()
    compressed, total_in = await compress_stream(
        host, port, chunks, fmt=fmt
    )
    return time.perf_counter() - started, compressed, total_in


def _verify(compressed: bytes, total_in: int, payload: bytes,
            fmt: str, reference: Optional[bytes],
            dictionary: bytes) -> bool:
    if total_in != len(payload):
        return False
    if fmt == "gzip":
        import gzip as _gzip

        return _gzip.decompress(compressed) == payload
    decoder = zlib.decompressobj(zdict=dictionary)
    decoded = decoder.decompress(compressed) + decoder.flush()
    # zlib.decompress's strictness: a complete stream, nothing after it.
    if decoded != payload or not decoder.eof or decoder.unused_data:
        return False
    return reference is None or compressed == reference


async def _drive(
    streams_list: Sequence[int],
    payload: bytes,
    chunk_size: int,
    fmt: str,
    workers: Optional[int],
    shard_size: Optional[int],
    max_inflight: Optional[int],
    config_kwargs: dict,
) -> dict:
    service = CompressionService(
        workers=workers, shard_size=shard_size,
        max_inflight=max_inflight, **config_kwargs
    )
    await service.start(host="127.0.0.1", port=0)
    port = service.port
    reference = (reference_stream(payload, service.config)
                 if fmt == "zlib" else None)
    rows = []
    try:
        for streams in streams_list:
            started = time.perf_counter()
            results = await asyncio.gather(*[
                _timed_stream("127.0.0.1", port, payload,
                              chunk_size, fmt)
                for _ in range(streams)
            ])
            wall = time.perf_counter() - started
            walls = [r[0] for r in results]
            verified = all(
                _verify(compressed, total_in, payload, fmt, reference,
                        service.config.dictionary)
                for _, compressed, total_in in results
            )
            total_bytes = len(payload) * streams
            rows.append({
                "streams": streams,
                "wall_s": round(wall, 4),
                "throughput_mbps": round(
                    total_bytes / wall / 1e6, 3
                ) if wall > 0 else 0.0,
                "p50_s": round(quantile(walls, 0.50), 4),
                "p99_s": round(quantile(walls, 0.99), 4),
                "verified": verified,
            })
    finally:
        await service.close()
    return {
        "benchmark": "serve_load",
        "format": fmt,
        "cpus": os.cpu_count(),
        "workers": service.pool.workers,
        "payload_bytes": len(payload),
        "chunk_bytes": chunk_size,
        "shard_bytes": service.config.shard_size,
        "pool_spawns": service.pool.spawn_count,
        "streams_completed": service.stats.streams_completed,
        "worker_failures": service.stats.worker_failures,
        "protocol_errors": service.stats.protocol_errors,
        "all_verified": all(row["verified"] for row in rows),
        "rows": rows,
    }


def run_loadgen(
    streams_list: Sequence[int] = (1, 2, 4, 8),
    payload_bytes: int = 256 * 1024,
    chunk_bytes: int = 64 * 1024,
    fmt: str = "zlib",
    workers: Optional[int] = None,
    shard_size: Optional[int] = 64 * 1024,
    max_inflight: Optional[int] = None,
    **config_kwargs,
) -> dict:
    """Run the load sweep against a self-hosted service; returns the report.

    One warm pool serves every concurrency level — ``pool_spawns`` in
    the report asserts the workers started exactly once across the
    whole sweep. Extra keyword arguments configure the service's
    :class:`~repro.parallel.engine.ShardedCompressor` (profile,
    strategy, backend, ...).
    """
    payload = make_payload(payload_bytes)
    return asyncio.run(_drive(
        streams_list, payload, chunk_bytes, fmt,
        workers, shard_size, max_inflight, config_kwargs,
    ))


def format_report(report: dict) -> str:
    """Render the sweep as the plain-text exhibit."""
    lines = [
        f"serve load: {report['format']} format, "
        f"{report['payload_bytes']} B/stream, "
        f"shard {report['shard_bytes']} B, "
        f"workers={report['workers']} (cpus={report['cpus']}, "
        f"pool spawns={report['pool_spawns']})",
        f"{'streams':>8} {'wall_s':>8} {'MB/s':>8} "
        f"{'p50_s':>8} {'p99_s':>8} {'verified':>9}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['streams']:>8} {row['wall_s']:>8.3f} "
            f"{row['throughput_mbps']:>8.2f} {row['p50_s']:>8.3f} "
            f"{row['p99_s']:>8.3f} {str(row['verified']):>9}"
        )
    return "\n".join(lines)
