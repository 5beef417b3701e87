"""Streaming compressor tests."""

import math
import zlib

import pytest

from repro.deflate import stream as stream_module
from repro.deflate.block_writer import BlockStrategy
from repro.deflate.stream import (
    STREAM_BLOCK_BYTES,
    ZLibStreamCompressor,
    compress_chunks,
    decompress_prefix,
)
from repro.deflate.zlib_container import decompress, make_header
from repro.errors import ConfigError
from repro.lzss.tokens import MIN_LOOKAHEAD
from repro.workloads.corpus import sample


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


class TestInputBuffering:
    """Writes under STREAM_BLOCK_BYTES are held and deflated together."""

    DATA = sample("wiki", 16 * 1024)

    @pytest.fixture
    def tokenized(self, monkeypatch):
        """Bytes each tokenize call was handed: history plus chunk."""
        seen = []
        real = stream_module.tokenize_chunk_with_result

        def spy(lzss, history, chunk, *args, **kwargs):
            seen.append(len(history) + len(chunk))
            return real(lzss, history, chunk, *args, **kwargs)

        monkeypatch.setattr(stream_module, "tokenize_chunk_with_result", spy)
        return seen

    @pytest.mark.parametrize("size", [1, 7, 100])
    def test_tokenizer_work_is_bounded(self, tokenized, size):
        stream = ZLibStreamCompressor(profile="fastest")
        out = bytearray()
        for chunk in chunked(self.DATA, size):
            out += stream.compress(chunk)
        out += stream.finish()
        assert zlib.decompress(bytes(out)) == self.DATA
        blocks = math.ceil(len(self.DATA) / STREAM_BLOCK_BYTES)
        bound = len(self.DATA) + blocks * (stream.window_size
                                           + MIN_LOOKAHEAD)
        assert sum(tokenized) <= bound

    def test_held_bytes_stay_under_the_threshold(self):
        stream = ZLibStreamCompressor(profile="fastest")
        stream.compress(b"")  # the header goes out first
        for written, chunk in enumerate(chunked(self.DATA, 100), 1):
            held = len(stream._held) + len(chunk)
            out = stream.compress(chunk)
            if held < STREAM_BLOCK_BYTES:
                assert out == b""
            assert len(stream._held) < STREAM_BLOCK_BYTES
            assert stream.total_in == min(written * 100, len(self.DATA))

    def test_flush_sync_recovers_every_held_write(self):
        stream = ZLibStreamCompressor(profile="fastest")
        lines = chunked(self.DATA[:3000], 100)
        out = b"".join(stream.compress(line) for line in lines)
        assert decompress_prefix(out) == b""
        out += stream.flush_sync()
        assert decompress_prefix(out) == b"".join(lines)

    def test_large_write_on_empty_buffer_is_deflated_at_once(
            self, tokenized):
        stream = ZLibStreamCompressor(profile="fastest")
        big = self.DATA[:STREAM_BLOCK_BYTES]
        out = stream.compress(big)
        assert tokenized == [len(big)]
        assert len(stream._held) == 0
        marker = stream.flush_sync()
        assert len(tokenized) == 1
        assert decompress_prefix(out + marker) == big

    def test_write_reaching_the_threshold_deflates_the_held_bytes(
            self, tokenized):
        stream = ZLibStreamCompressor(profile="fastest")
        stream.compress(self.DATA[:100])
        stream.compress(self.DATA[100:8292])
        assert tokenized == [8292]
        assert len(stream._held) == 0

    def test_trace_calibration_counts_deflated_chunks(self):
        stream = ZLibStreamCompressor(trace_fraction=1.0)
        out = bytearray()
        for chunk in chunked(self.DATA, 100):
            out += stream.compress(chunk)
        out += stream.finish()
        assert zlib.decompress(bytes(out)) == self.DATA
        # 164 writes, 4 deflates: three of 41 lines (4,100 B) each and
        # the 4,084 B left for finish().
        assert len(stream.calibration) == 4
