"""End-to-end tests for the compression service.

The acceptance contract: concurrent client streams through one shared
warm pool, each response a valid zlib/gzip stream **byte-identical**
(zlib format) to the single-threaded
:class:`~repro.deflate.stream.ZLibStreamCompressor` fed shard-size
chunks with a sync flush between each — the serving layer recuts
arbitrary client chunking at shard boundaries, so the wire chunking
must never leak into the output bytes.
"""

import asyncio
import gzip
import multiprocessing
import zlib

import pytest

from repro.deflate.stream import ZLibStreamCompressor
from repro.errors import ConfigError, ServeProtocolError
from repro.lzss.tokens import effective_dictionary
from repro.parallel import engine as engine_module
from repro.parallel.engine import ShardedCompressor
from repro.parallel.pool import get_default_pool
from repro.serve import CompressionService, compress_stream
from repro.serve.loadgen import (
    _verify, make_payload, reference_stream, run_loadgen,
)
from repro.serve.pipeline import StreamSession
from repro.serve.protocol import stream_header
from repro.workloads.corpus import sample

SHARD = 2048  # several shards per stream without big payloads

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash test relies on fork inheriting the patched worker",
)


def chunked(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]


def serve_streams(jobs, **service_kwargs):
    """Host a service, run ``(payload, chunk, fmt)`` jobs concurrently.

    Returns ``(service, [(compressed, total_in), ...])`` in job order.
    """
    service_kwargs.setdefault("workers", 2)
    service_kwargs.setdefault("shard_size", SHARD)

    async def scenario():
        service = CompressionService(**service_kwargs)
        await service.start(host="127.0.0.1", port=0)
        try:
            results = await asyncio.gather(*[
                compress_stream("127.0.0.1", service.port,
                                chunked(payload, chunk), fmt=fmt)
                for payload, chunk, fmt in jobs
            ])
        finally:
            await service.close()
        return service, results

    return asyncio.run(scenario())


class TestZlibStreams:
    def test_round_trip_and_byte_identity(self):
        payload = make_payload(5 * SHARD + 123)
        service, results = serve_streams([(payload, 999, "zlib")])
        compressed, total_in = results[0]
        assert total_in == len(payload)
        assert zlib.decompress(compressed) == payload
        assert compressed == reference_stream(payload, service.config)

    def test_client_chunking_never_leaks_into_output(self):
        """Different wire chunkings, same payload -> same bytes."""
        payload = make_payload(4 * SHARD + 57)
        _, results = serve_streams([
            (payload, 100, "zlib"),
            (payload, SHARD, "zlib"),
            (payload, len(payload), "zlib"),
        ])
        outputs = {compressed for compressed, _ in results}
        assert len(outputs) == 1

    def test_empty_stream(self):
        service, results = serve_streams([(b"", 1000, "zlib")])
        compressed, total_in = results[0]
        assert total_in == 0
        assert zlib.decompress(compressed) == b""
        assert compressed == reference_stream(b"", service.config)

    def test_sub_shard_stream(self):
        payload = make_payload(SHARD // 3)
        service, results = serve_streams([(payload, 100, "zlib")])
        compressed, _ = results[0]
        assert zlib.decompress(compressed) == payload
        assert compressed == reference_stream(payload, service.config)


class TestResolvedConfigReachesShards:
    """Every resolved knob of the service's compressor reaches the shard
    workers: the served bytes match the library entry points that take
    the same settings."""

    def test_best_profile_matches_stream_compressor(self):
        # best turns on the refine loop; 16 KiB shards of wiki text give
        # blocks large enough for it to move bytes.
        shard = 16 * 1024
        payload = sample("wiki", 4 * shard)
        _, results = serve_streams([(payload, 5000, "zlib")],
                                   shard_size=shard, profile="best")
        stream = ZLibStreamCompressor(profile="best")
        expected = bytearray()
        for start in range(0, len(payload), shard):
            expected += stream.compress(payload[start:start + shard])
            expected += stream.flush_sync()
        expected += stream.finish()
        assert results[0][0] == bytes(expected)

    def test_zdict_stream_is_fdict_framed_and_primed(self):
        zdict = make_payload(3000, seed=5)
        payload = make_payload(3 * SHARD + 40)
        service, results = serve_streams([(payload, 900, "zlib")],
                                         zdict=zdict)
        compressed = results[0][0]
        assert compressed[1] & 0x20  # FDICT
        effective = effective_dictionary(zdict, 4096)
        decoder = zlib.decompressobj(zdict=effective)
        assert decoder.decompress(compressed) + decoder.flush() == payload
        expected = ShardedCompressor(
            workers=1, shard_size=SHARD, carry_window=True, zdict=zdict,
        ).compress(payload).data
        assert compressed == expected

    def test_loadgen_verifies_zdict_service(self):
        report = run_loadgen(
            streams_list=(1,), payload_bytes=64 * 1024, workers=1,
            shard_size=16 * 1024, zdict=make_payload(3000, seed=5),
        )
        assert report["all_verified"] is True

    def test_loadgen_check_rejects_truncated_or_padded_stream(self):
        # As strict as zlib.decompress even without a reference stream:
        # a stream cut before its Adler-32 trailer or followed by extra
        # bytes fails although its decoded payload matches.
        payload = make_payload(5000)
        zdict = make_payload(3000, seed=5)
        encoder = zlib.compressobj(zdict=zdict)
        good = encoder.compress(payload) + encoder.flush()
        assert _verify(good, len(payload), payload, "zlib", None, zdict)
        assert not _verify(good[:-4], len(payload), payload, "zlib", None,
                           zdict)
        assert not _verify(good + b"\x00", len(payload), payload, "zlib",
                           None, zdict)

    def test_gzip_with_zdict_rejected(self):
        config = CompressionService(
            workers=2, shard_size=SHARD, zdict=b"preset dictionary"
        ).config

        async def emit(_data):
            pass

        with pytest.raises(ConfigError, match="FDICT"):
            StreamSession(config, get_default_pool(2), emit, fmt="gzip")


class TestGzipStreams:
    def test_round_trip_with_stitched_crc(self):
        payload = make_payload(4 * SHARD + 99)
        _, results = serve_streams([(payload, 777, "gzip")])
        compressed, total_in = results[0]
        assert total_in == len(payload)
        # stdlib gzip verifies the CRC-32 and ISIZE trailer for us —
        # this only passes if crc32_combine stitched the shard CRCs
        # into exactly crc32(payload).
        assert gzip.decompress(compressed) == payload

    def test_gzip_and_zlib_share_the_deflate_body(self):
        payload = make_payload(3 * SHARD)
        _, results = serve_streams([
            (payload, 1000, "gzip"),
            (payload, 1000, "zlib"),
        ])
        gz, zl = results[0][0], results[1][0]
        # gzip: 10-byte header ... 8-byte trailer; zlib: 2-byte header
        # ... 4-byte Adler. The Deflate bytes between are identical.
        assert gz[10:-8] == zl[2:-4]


class TestConcurrency:
    def test_eight_concurrent_streams_verified(self):
        payloads = [make_payload(3 * SHARD + 71 * i, seed=i)
                    for i in range(8)]
        service, results = serve_streams(
            [(p, 700, "zlib") for p in payloads]
        )
        for payload, (compressed, total_in) in zip(payloads, results):
            assert total_in == len(payload)
            assert compressed == reference_stream(payload,
                                                  service.config)
        assert service.stats.streams_completed == 8
        assert service.stats.peak_connections >= 2
        # Shard records from every stream folded into the aggregate.
        assert service.stats.parallel.shard_count >= 8 * 3
        assert service.stats.bytes_in == sum(map(len, payloads))

    @fork_only
    def test_one_pool_spawn_across_streams(self):
        payload = make_payload(2 * SHARD)
        service, _ = serve_streams([(payload, 500, "zlib")] * 4)
        assert service.pool is get_default_pool(2)
        assert service.pool.spawn_count == 1
        assert service.stats.streams_completed == 4


class TestFailureModes:
    def test_garbage_header_counts_protocol_error(self):
        async def scenario():
            service = CompressionService(workers=2, shard_size=SHARD)
            await service.start(host="127.0.0.1", port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await service.close()
            return service, response

        service, response = asyncio.run(scenario())
        assert response == b""  # closed without any frames
        assert service.stats.protocol_errors == 1
        assert service.stats.streams_completed == 0

    def test_disconnect_mid_stream_is_not_a_completed_stream(self):
        async def scenario():
            service = CompressionService(workers=2, shard_size=SHARD)
            await service.start(host="127.0.0.1", port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(stream_header("zlib"))
                writer.write(len(b"abc").to_bytes(4, "big") + b"abc")
                await writer.drain()
                writer.close()  # vanish without the end frame
                await writer.wait_closed()
                await asyncio.sleep(0.05)
            finally:
                await service.close()
            return service

        service = asyncio.run(scenario())
        assert service.stats.streams_completed == 0
        assert service.stats.protocol_errors == 1
        assert service.stats.connections_active == 0

    @fork_only
    def test_worker_crash_truncates_response_then_recovers(
        self, monkeypatch
    ):
        """A dead worker = truncated response now, working pool after."""
        import os as os_module

        def _die(task):
            os_module._exit(17)

        payload = make_payload(3 * SHARD)

        async def scenario():
            service = CompressionService(workers=2, shard_size=SHARD)
            await service.start(host="127.0.0.1", port=0)
            try:
                monkeypatch.setattr(
                    engine_module, "_compress_shard", _die
                )
                with pytest.raises(ServeProtocolError):
                    await compress_stream(
                        "127.0.0.1", service.port,
                        chunked(payload, 800),
                    )
                monkeypatch.undo()
                compressed, total_in = await compress_stream(
                    "127.0.0.1", service.port, chunked(payload, 800)
                )
            finally:
                await service.close()
            return service, compressed, total_in

        service, compressed, total_in = asyncio.run(scenario())
        assert service.stats.worker_failures == 1
        assert service.stats.streams_completed == 1
        assert total_in == len(payload)
        assert zlib.decompress(compressed) == payload
        assert service.pool.spawn_count == 2  # original + respawn


class TestSessionBackpressure:
    def test_inflight_never_exceeds_bound(self):
        payload = make_payload(10 * SHARD)
        sink = []

        async def emit(data):
            sink.append(data)

        async def scenario():
            pool = get_default_pool(2)
            config = CompressionService(
                workers=2, shard_size=SHARD
            ).config
            session = StreamSession(
                config, pool, emit, fmt="zlib", max_inflight=3
            )
            await session.feed(payload)
            return await session.finish()

        stats = asyncio.run(scenario())
        assert stats.shard_count == 10
        assert 0 < stats.peak_inflight <= 3
        assert zlib.decompress(b"".join(sink)) == payload

    def test_feed_after_finish_rejected(self):
        async def scenario():
            pool = get_default_pool(2)
            config = CompressionService(
                workers=2, shard_size=SHARD
            ).config

            async def emit(_data):
                pass

            session = StreamSession(config, pool, emit)
            await session.feed(b"tail")
            await session.finish()
            with pytest.raises(ConfigError, match="finished"):
                await session.feed(b"more")

        asyncio.run(scenario())

    def test_unknown_format_rejected(self):
        pool = get_default_pool(2)
        config = CompressionService(workers=2, shard_size=SHARD).config

        async def emit(_data):
            pass

        with pytest.raises(ConfigError, match="format"):
            StreamSession(config, pool, emit, fmt="brotli")
