"""Seekable container tests."""

import struct
import zlib

import pytest

from repro.deflate import seekable
from repro.deflate.seekable import (
    blocks_touched,
    create,
    open_archive,
    read_all,
    read_range,
)
from repro.errors import ConfigError, FormatError


class TestRoundtrip:
    def test_full_readback(self, corpus_variety):
        for name, data in corpus_variety.items():
            blob = create(data, block_size=2048)
            assert read_all(blob) == data, name

    def test_empty_input(self):
        blob = create(b"")
        assert read_all(blob) == b""
        assert read_range(blob, 0, 10) == b""

    def test_exact_block_multiple(self):
        data = b"z" * 4096
        blob = create(data, block_size=2048)
        archive = open_archive(blob)
        assert len(archive.entries) == 2
        assert read_all(blob) == data


class TestRandomAccess:
    @pytest.fixture(scope="class")
    def archive(self, wiki_small):
        return wiki_small, create(wiki_small, block_size=4096)

    @pytest.mark.parametrize(
        "start,length",
        [(0, 100), (5000, 1), (4095, 2), (4096, 4096), (10, 20000)],
    )
    def test_range_reads_match_slices(self, archive, start, length):
        data, blob = archive
        assert read_range(blob, start, length) == data[start:start + length]

    def test_read_past_end_truncates(self, archive):
        data, blob = archive
        assert read_range(blob, len(data) - 5, 100) == data[-5:]
        assert read_range(blob, len(data) + 10, 5) == b""

    def test_zero_length(self, archive):
        _, blob = archive
        assert read_range(blob, 100, 0) == b""

    def test_negative_args_rejected(self, archive):
        _, blob = archive
        with pytest.raises(ConfigError):
            read_range(blob, -1, 5)

    def test_touches_only_covering_blocks(self, archive):
        _, blob = archive
        assert blocks_touched(blob, 0, 10) == 1
        assert blocks_touched(blob, 4090, 10) == 2
        assert blocks_touched(blob, 0, 4096 * 3) == 3
        assert blocks_touched(blob, 0, 0) == 0


class TestFormatErrors:
    def test_bad_magic(self):
        blob = bytearray(create(b"abc"))
        blob[0] ^= 0xFF
        with pytest.raises(FormatError):
            open_archive(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(create(b"abc"))
        blob[4] = 99
        with pytest.raises(FormatError):
            open_archive(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            open_archive(b"LZ")

    def test_truncated_index(self):
        blob = create(b"abc" * 1000, block_size=1024)
        with pytest.raises(FormatError):
            open_archive(blob[:16])

    def test_index_past_payload(self):
        blob = create(b"abc" * 1000, block_size=1024)
        with pytest.raises(FormatError):
            open_archive(blob[:-10])

    def test_block_size_validated(self):
        with pytest.raises(ConfigError):
            create(b"x", block_size=100)

    def test_compression_metadata(self, wiki_small):
        blob = create(wiki_small, block_size=8192)
        archive = open_archive(blob)
        assert archive.uncompressed_size == len(wiki_small)
        assert archive.compressed_size == len(blob)
        assert archive.compressed_size < len(wiki_small)


class TestDictionaryArchives:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.deflate.preset_dict import train_dictionary
        from repro.workloads.logs import syslog_text

        log = syslog_text(64 * 1024, seed=12)
        dictionary = train_dictionary(
            [log[i:i + 512] for i in range(0, 16384, 512)], size=2048
        )
        return log, dictionary

    def test_roundtrip_with_dictionary(self, trained):
        log, dictionary = trained
        blob = create(log, block_size=1024, dictionary=dictionary)
        assert read_all(blob) == log

    def test_range_reads_with_dictionary(self, trained):
        log, dictionary = trained
        blob = create(log, block_size=1024, dictionary=dictionary)
        for start, length in ((0, 100), (5000, 2000), (60000, 10000)):
            assert read_range(blob, start, length) == (
                log[start:start + length]
            )

    def test_dictionary_improves_small_blocks(self, trained):
        log, dictionary = trained
        plain = len(create(log, block_size=1024))
        primed = len(create(log, block_size=1024, dictionary=dictionary))
        assert primed < plain

    def test_version_byte_reflects_dictionary(self, trained):
        log, dictionary = trained
        assert create(log[:4096], block_size=1024)[4] == 1
        assert create(
            log[:4096], block_size=1024, dictionary=dictionary
        )[4] == 2

    def test_dictionary_recovered_from_archive(self, trained):
        log, dictionary = trained
        blob = create(log[:8192], block_size=1024, dictionary=dictionary)
        archive = open_archive(blob)
        # The stored dictionary may be the window-trimmed tail.
        assert archive.dictionary
        assert dictionary.endswith(archive.dictionary) or (
            archive.dictionary == dictionary
        )

    def test_truncated_dictionary_detected(self, trained):
        log, dictionary = trained
        blob = create(log[:4096], block_size=1024, dictionary=dictionary)
        with pytest.raises(FormatError):
            open_archive(blob[:14])


def _archive(block_size, blocks):
    """A version-1 archive from ``(zlib stream, index size)`` pairs."""
    out = bytearray(struct.pack("<4sBII", b"LZSK", 1, block_size,
                                len(blocks)))
    offset = 0
    for stream, usize in blocks:
        out += struct.pack("<QII", offset, len(stream), usize)
        offset += len(stream)
    for stream, _ in blocks:
        out += stream
    return bytes(out)


class TestDecompressionBomb:
    """Each block inflates at most the size its index entry claims."""

    BOMB = zlib.compress(bytes(4 << 20), 9)  # 4 MiB of zeros, ~4 KiB

    def test_bomb_block_raises_format_error(self):
        blob = _archive(4096, [(self.BOMB, 4096)])
        with pytest.raises(FormatError):
            read_range(blob, 0, 10)

    def test_decode_receives_the_index_size_as_cap(self, monkeypatch):
        caps = []
        real = seekable.zlib_decompress

        def spy(stream, max_output=None):
            caps.append(max_output)
            return real(stream, max_output=max_output)

        monkeypatch.setattr(seekable, "zlib_decompress", spy)
        data = b"seekable cap " * 700
        assert read_all(create(data, block_size=4096)) == data
        assert caps == [4096, 4096, len(data) - 8192]

    def test_dictionary_decode_receives_the_cap(self, monkeypatch):
        caps = []
        real = seekable.decompress_with_dict

        def spy(stream, dictionary, max_output=None):
            caps.append(max_output)
            return real(stream, dictionary, max_output=max_output)

        monkeypatch.setattr(seekable, "decompress_with_dict", spy)
        data = b"primed block " * 200
        blob = create(data, block_size=2048, dictionary=b"primed block ")
        assert read_range(blob, 2050, 10) == data[2050:2060]
        assert caps == [len(data) - 2048]

    def test_oversized_final_entry_refused(self):
        blob = _archive(4096, [(zlib.compress(b"x" * 4096), 4096),
                               (zlib.compress(b"y" * 10), 4097)])
        with pytest.raises(FormatError, match="final block"):
            open_archive(blob)
