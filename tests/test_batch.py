"""The batched end-to-end API: framing, routing, knobs, stats.

Every stream ``compress_batch`` returns must be an independent,
CPython-zlib-decodable ZLib stream — batching is invisible to the
decoder. The rest of the surface (kernel choice, per-payload backend
overrides, profile knobs, stats) is contract-tested here; the
byte-level properties live in the differential suites.
"""

import random
import zlib

import pytest

from repro.batch import BatchResult, compress_batch
from repro.errors import ConfigError
from repro.lzss.batch import BATCH_GREEDY_POLICY, effective_dictionary
from repro.profile import CompressionProfile


def _messages(count=10, size=1200):
    rng = random.Random(21)
    out = []
    for i in range(count):
        vals = ",".join(str(rng.randrange(500)) for _ in range(30))
        out.append((('{"id":%d,"vals":[%s],"ok":true}' % (i, vals)) * 3)
                   .encode()[:size])
    return out


class TestRoundTrip:
    def test_plain_streams_decode_with_zlib(self):
        payloads = _messages() + [b"", b"x", b"abc" * 100]
        result = compress_batch(payloads)
        assert len(result) == len(payloads)
        for payload, stream in zip(payloads, result.streams):
            assert zlib.decompress(stream) == payload

    def test_zdict_streams_decode_with_zlib(self):
        zdict = b'{"id":0,"vals":[],"ok":true}' * 10
        payloads = _messages()
        result = compress_batch(payloads, zdict=zdict)
        effective = effective_dictionary(zdict, 4096)
        for payload, stream in zip(payloads, result.streams):
            decoder = zlib.decompressobj(zdict=effective)
            assert decoder.decompress(stream) + decoder.flush() == payload

    def test_zdict_streams_decode_with_own_decoder(self):
        from repro.deflate.preset_dict import decompress_with_dict

        zdict = b'{"id":0,"vals":[],"ok":true}' * 10
        payloads = _messages(4)
        result = compress_batch(payloads, zdict=zdict)
        for payload, stream in zip(payloads, result.streams):
            assert decompress_with_dict(stream, zdict) == payload

    def test_zdict_shrinks_small_messages(self):
        payloads = _messages(10, 300)
        zdict = payloads[0]
        plain = compress_batch(payloads)
        primed = compress_batch(payloads, zdict=zdict)
        assert primed.stats.output_bytes < plain.stats.output_bytes


class TestRouting:
    def test_default_route_is_batch_static(self):
        result = compress_batch(_messages(3))
        assert result.routing.reason in ("batch-kernel",
                                         "kernel-unavailable")

    def test_backend_overrides_are_bit_identical(self):
        payloads = _messages(5)
        base = compress_batch(payloads)
        mixed = compress_batch(payloads,
                               backends={0: "traced", 3: "fast"})
        assert mixed.streams == base.streams

    def test_backend_override_out_of_range(self):
        with pytest.raises(ConfigError):
            compress_batch(_messages(2), backends={5: "fast"})


class TestKnobs:
    def test_shared_plan_off_matches_serial_fixed(self):
        from repro.deflate.zlib_container import compress as zc

        payloads = _messages(5) + [b"", b"q"]
        result = compress_batch(payloads, shared_plan=False)
        for payload, stream in zip(payloads, result.streams):
            assert stream == zc(payload, policy=BATCH_GREEDY_POLICY)

    def test_profile_knobs_apply(self):
        payloads = _messages(4)
        explicit = compress_batch(payloads, shared_plan=False)
        via_profile = compress_batch(
            payloads,
            profile=CompressionProfile(batch_shared_plan=False),
        )
        assert via_profile.streams == explicit.streams
        # Explicit kwarg wins over the profile field.
        overridden = compress_batch(
            payloads, shared_plan=True,
            profile=CompressionProfile(batch_shared_plan=False),
        )
        assert overridden.plan is not None

    def test_window_size_applies(self):
        payloads = [b"window test " * 40] * 3
        small = compress_batch(payloads, window_size=1024)
        for payload, stream in zip(payloads, small.streams):
            assert zlib.decompress(stream) == payload
        # CINFO nibble encodes the window.
        assert small.streams[0][0] >> 4 == 2  # 1024 = 1 << (2 + 8)


class TestShape:
    def test_empty_batch(self):
        result = compress_batch([])
        assert isinstance(result, BatchResult)
        assert result.streams == []
        assert result.choices == ()
        assert result.routing.reason == "empty-batch"
        assert result.stats.payload_count == 0
        assert result.stats.ratio == 1.0

    def test_stats_account_for_everything(self):
        payloads = _messages(7) + [b""]
        result = compress_batch(payloads)
        assert result.stats.payload_count == len(payloads)
        assert result.stats.input_bytes == sum(len(p) for p in payloads)
        assert result.stats.output_bytes == sum(
            len(s) for s in result.streams
        )
        assert sum(result.stats.choice_counts.values()) == len(payloads)
        assert result.stats.ratio == (
            result.stats.output_bytes / result.stats.input_bytes
        )

    def test_iterating_result_yields_streams(self):
        result = compress_batch(_messages(3))
        assert list(result) == result.streams
