"""Streaming compressor tests."""

import zlib

import pytest

from repro.deflate.block_writer import BlockStrategy
from repro.deflate.stream import (
    ZLibStreamCompressor,
    compress_chunks,
    decompress_prefix,
)
from repro.deflate.zlib_container import decompress, make_header
from repro.errors import ConfigError


def chunked(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]


class TestChunkedRoundtrip:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 4096, 100000])
    def test_matches_input(self, wiki_small, chunk_size):
        stream = compress_chunks(chunked(wiki_small, chunk_size))
        assert zlib.decompress(stream) == wiki_small
        assert decompress(stream) == wiki_small

    def test_corpus(self, corpus_variety):
        for name, data in corpus_variety.items():
            stream = compress_chunks(chunked(data, 333))
            assert zlib.decompress(stream) == data, name

    def test_empty_stream(self):
        stream = compress_chunks([])
        assert zlib.decompress(stream) == b""

    def test_empty_chunks_ignored(self):
        stream = compress_chunks([b"", b"abc", b"", b"def", b""])
        assert zlib.decompress(stream) == b"abcdef"

    def test_dynamic_strategy(self, x2e_small):
        stream = compress_chunks(
            chunked(x2e_small, 5000), strategy=BlockStrategy.DYNAMIC
        )
        assert zlib.decompress(stream) == x2e_small

    def test_matches_cross_chunk_boundaries(self):
        # The second chunk is an exact copy of the (incompressible)
        # first chunk. Only cross-chunk history lets the second chunk
        # compress into back-references; without it the output would be
        # ~2x the chunk size.
        chunk = incompressible_chunk = __import__(
            "random"
        ).Random(3).randbytes(1500)
        stream = compress_chunks([chunk, incompressible_chunk])
        assert zlib.decompress(stream) == chunk + chunk
        assert len(stream) < 1.35 * len(chunk)

    def test_stored_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ZLibStreamCompressor(strategy=BlockStrategy.STORED)

    def test_adaptive_strategy(self, wiki_small):
        from repro.workloads.synthetic import incompressible

        # Compressible text then random bytes: each chunk's blocks are
        # re-priced, so the random tail flips to stored blocks.
        data = wiki_small + incompressible(16 * 1024, seed=3)
        adaptive = compress_chunks(
            chunked(data, 5000), strategy=BlockStrategy.ADAPTIVE
        )
        fixed = compress_chunks(chunked(data, 5000))
        assert zlib.decompress(adaptive) == data
        assert decompress(adaptive) == data
        assert len(adaptive) < len(fixed)

    def test_adaptive_flush_sync_boundaries(self, x2e_small):
        stream = ZLibStreamCompressor(strategy=BlockStrategy.ADAPTIVE)
        prefix = stream.compress(x2e_small[:9000]) + stream.flush_sync()
        out = prefix + stream.compress(x2e_small[9000:]) + stream.finish()
        assert zlib.decompress(out) == x2e_small
        # A sync point stays a decodable prefix boundary under ADAPTIVE.
        assert decompress_prefix(prefix) == x2e_small[:9000]


class TestFlushSemantics:
    def test_sync_flush_keeps_stream_valid(self, wiki_small):
        stream = ZLibStreamCompressor()
        out = stream.compress(wiki_small[:8192])
        out += stream.flush_sync()
        out += stream.compress(wiki_small[8192:])
        out += stream.finish()
        assert zlib.decompress(out) == wiki_small

    def test_sync_flush_makes_prefix_decodable(self):
        first = b"log entries before the crash " * 50
        stream = ZLibStreamCompressor()
        out = stream.compress(first)
        out += stream.flush_sync()
        # Crash: the rest never gets written.
        header_and_prefix = out
        recovered = decompress_prefix(header_and_prefix)
        assert recovered == first

    def test_truncated_tail_is_dropped_not_fatal(self, wiki_small):
        stream = ZLibStreamCompressor()
        out = stream.compress(wiki_small[:4096])
        out += stream.flush_sync()
        out += stream.compress(wiki_small[4096:8192])
        # Cut mid-way through the second block.
        cut = out[: len(out) - 3]
        recovered = decompress_prefix(cut)
        assert recovered[:4096] == wiki_small[:4096]

    def test_finish_twice_rejected(self):
        stream = ZLibStreamCompressor()
        stream.finish()
        with pytest.raises(ConfigError):
            stream.finish()

    def test_compress_after_finish_rejected(self):
        stream = ZLibStreamCompressor()
        stream.finish()
        with pytest.raises(ConfigError):
            stream.compress(b"late")

    def test_total_in_tracks_bytes(self):
        stream = ZLibStreamCompressor()
        stream.compress(b"abc")
        stream.compress(b"defg")
        assert stream.total_in == 7

    def test_sync_every_chunk_helper(self, x2e_small):
        stream = compress_chunks(
            chunked(x2e_small, 2048), sync_every_chunk=True
        )
        assert zlib.decompress(stream) == x2e_small


class TestEmptyShardSyncFlush:
    """Regression: no redundant sync markers for empty (final) shards.

    A sync marker's only job is byte-aligning what was written since the
    last boundary; when nothing was written, emitting another empty
    stored block is 5 bytes of pure overhead per flush. A sharded writer
    hits this whenever the input ends exactly on a shard boundary (the
    empty-final-shard case), and a keepalive-style caller hits it on
    every idle flush.
    """

    def test_double_flush_emits_one_marker(self):
        stream = ZLibStreamCompressor()
        out = stream.compress(b"payload " * 40)
        first = stream.flush_sync()
        second = stream.flush_sync()
        assert first  # real marker for real data
        assert second == b""  # nothing new to align
        out += first + second + stream.finish()
        assert zlib.decompress(out) == b"payload " * 40

    def test_flush_on_virgin_stream_emits_header_only(self):
        stream = ZLibStreamCompressor()
        out = stream.flush_sync()
        assert out == make_header(stream.window_size)  # no stored block
        out += stream.finish()
        assert zlib.decompress(out) == b""

    def test_empty_final_shard_adds_no_bytes(self):
        chunks = [b"shard one! " * 100, b"shard two! " * 100]
        with_tail = compress_chunks(
            chunks + [b""], sync_every_chunk=True
        )
        without_tail = compress_chunks(chunks, sync_every_chunk=True)
        assert with_tail == without_tail
        assert zlib.decompress(with_tail) == b"".join(chunks)

    def test_flush_after_empty_chunk_is_noop(self):
        stream = ZLibStreamCompressor()
        out = stream.compress(b"data")
        out += stream.flush_sync()
        marked = len(out)
        out += stream.compress(b"")
        out += stream.flush_sync()
        assert len(out) == marked  # no second marker
        out += stream.finish()
        assert zlib.decompress(out) == b"data"

    def test_prefix_recovery_still_holds(self):
        first = b"before the crash " * 30
        stream = ZLibStreamCompressor()
        out = stream.compress(first)
        out += stream.flush_sync()
        out += stream.flush_sync()  # suppressed duplicate
        assert decompress_prefix(out) == first


class TestLongLivedStream:
    """Per-write state must not accumulate in a long-lived stream."""

    def test_no_list_attribute_grows_with_writes(self):
        stream = ZLibStreamCompressor(profile="fastest")
        line = b"Oct 17 12:00:00 host app[42]: request served in 3 ms\n"

        def list_sizes():
            return {
                name: len(value) for name, value in vars(stream).items()
                if isinstance(value, list)
            }

        out = bytearray(stream.compress(line))
        baseline = list_sizes()
        for writes in (100, 1000):
            for _ in range(writes):
                out += stream.compress(line)
            assert list_sizes() == baseline, writes
        out += stream.finish()
        assert zlib.decompress(bytes(out)) == line * 1101
