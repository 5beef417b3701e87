"""Failure-injection properties: corrupted streams never crash with
non-library exceptions and never silently pass the integrity checks.

The containers carry checksums (Adler-32 / CRC-32), so any corruption
that survives structural parsing must be caught there; corruption that
breaks the structure must raise a :class:`~repro.errors.ReproError`
subclass — never an ``IndexError``/``KeyError``/hang.
"""

import struct
import zlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deflate.gzip_container import (
    compress as gzip_compress,
    decompress as gzip_decompress,
)
from repro.deflate.seekable import create, read_all, read_range
from repro.deflate.zlib_container import compress, decompress
from repro.errors import ReproError

relaxed = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

payload = st.one_of(
    st.binary(min_size=1, max_size=1500),
    st.text(alphabet="abcdef \n", min_size=1, max_size=1500).map(
        str.encode
    ),
)


class TestZLibContainer:
    @given(data=payload, flip=st.data())
    @relaxed
    def test_single_bit_flip_never_passes_silently(self, data, flip):
        stream = bytearray(compress(data))
        index = flip.draw(st.integers(0, len(stream) - 1))
        bit = flip.draw(st.integers(0, 7))
        stream[index] ^= 1 << bit
        try:
            result = decompress(bytes(stream), max_output=10 * len(data) + 1024)
        except ReproError:
            return  # structural or checksum detection: good
        # A flip that decodes cleanly must at minimum not lie about the
        # payload (Adler-32 collision odds are ~2^-32; a clean decode
        # therefore implies the flip landed somewhere inert, e.g. the
        # FLEVEL bits of the header).
        assert result == data

    @given(data=payload, cut=st.data())
    @relaxed
    def test_truncation_detected(self, data, cut):
        stream = compress(data)
        keep = cut.draw(st.integers(0, len(stream) - 1))
        try:
            result = decompress(stream[:keep])
        except ReproError:
            return
        raise AssertionError(
            f"truncation to {keep} bytes decoded to {len(result)} bytes"
        )

    @given(junk=st.binary(max_size=64))
    @relaxed
    def test_garbage_input_raises_library_error(self, junk):
        try:
            decompress(junk)
        except ReproError:
            pass

    @given(data=payload)
    @relaxed
    def test_zlib_rejects_what_we_reject(self, data):
        # Flip the checksum: both inflaters must refuse.
        stream = bytearray(compress(data))
        stream[-1] ^= 0xFF
        try:
            decompress(bytes(stream))
            ours_ok = True
        except ReproError:
            ours_ok = False
        try:
            zlib.decompress(bytes(stream))
            zlibs_ok = True
        except zlib.error:
            zlibs_ok = False
        assert ours_ok == zlibs_ok == False  # noqa: E712


class TestGzipContainer:
    @given(data=payload, flip=st.data())
    @relaxed
    def test_bit_flip_never_passes_silently(self, data, flip):
        stream = bytearray(gzip_compress(data))
        index = flip.draw(st.integers(0, len(stream) - 1))
        stream[index] ^= flip.draw(st.sampled_from([1, 2, 16, 128]))
        try:
            result = gzip_decompress(
                bytes(stream), max_output=10 * len(data) + 1024
            )
        except ReproError:
            return
        assert result == data


class TestSeekableArchive:
    """LZSK archives: the index is trusted for layout, never for safety.

    A mutated header, index or block may decode to anything the index
    allows (the index carries no checksum of its own), but it must raise
    only library errors and never inflate past ``block_count *
    block_size`` bytes.
    """

    @given(data=payload, dictionary=st.sampled_from([None, b"abcdef \n"]),
           flip=st.data())
    @relaxed
    def test_mutated_archive_raises_library_errors(self, data, dictionary,
                                                    flip):
        blob = bytearray(create(data, block_size=1024,
                                dictionary=dictionary))
        index = flip.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= flip.draw(st.integers(1, 255))
        try:
            result = read_all(bytes(blob))
        except ReproError:
            return
        block_size, count = struct.unpack_from("<II", blob, 5)
        assert len(result) <= block_size * count

    @given(data=payload, cut=st.data())
    @relaxed
    def test_truncated_archive_raises_library_errors(self, data, cut):
        blob = create(data, block_size=1024)
        keep = cut.draw(st.integers(0, len(blob) - 1))
        try:
            read_range(blob[:keep], 0, len(data))
        except ReproError:
            return
        raise AssertionError(f"truncation to {keep} bytes decoded")

    @given(junk=st.binary(max_size=64))
    @relaxed
    def test_garbage_input_raises_library_error(self, junk):
        try:
            read_all(b"LZSK" + junk)
        except ReproError:
            pass
