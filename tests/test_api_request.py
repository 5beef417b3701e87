"""CompressRequest: the one precedence implementation, tested as a matrix.

Every entry point resolves its knobs through
:meth:`repro.api.CompressRequest.resolve`; this file pins the contract
(kwarg > profile field > entry-point default > library default) cell by
cell, plus the request-surface plumbing (``merged``, ``request_from``,
the removed ``trace=`` shim) and the one-call :func:`repro.api.compress`
dispatch.
"""

import zlib

import pytest

from repro.api import (
    CompressRequest,
    compress,
    reject_legacy_trace,
    request_from,
)
from repro.deflate.block_writer import BlockStrategy
from repro.errors import ConfigError
from repro.lzss.policy import ZLIB_LEVELS, MatchPolicy
from repro.profile import CompressionProfile

PAYLOAD = b"the quick brown fox jumps over the lazy dog. " * 300


class TestPrecedenceMatrix:
    """One test per layer pair of the four-layer precedence."""

    def test_library_default(self):
        resolved = CompressRequest().resolve()
        assert resolved.window_size == 4096
        assert resolved.backend == "fast"
        assert resolved.strategy is BlockStrategy.FIXED
        assert resolved.refine is False
        assert resolved.cut_search is True
        assert resolved.sniff is True
        assert resolved.batch_shared_plan is True
        assert resolved.zdict == b""

    def test_entry_default_beats_library_default(self):
        assert CompressRequest().resolve(backend="traced").backend \
            == "traced"
        assert CompressRequest().resolve(window_size=32768).window_size \
            == 32768

    def test_profile_beats_entry_default(self):
        resolved = CompressRequest(profile="best").resolve(backend="fast")
        assert resolved.backend == "sa"
        assert resolved.refine is True
        assert resolved.window_size == 32768
        assert resolved.strategy is BlockStrategy.ADAPTIVE

    def test_kwarg_beats_profile(self):
        resolved = CompressRequest(
            profile="best", backend="traced", window_size=1024,
            refine=False,
        ).resolve()
        assert resolved.backend == "traced"
        assert resolved.window_size == 1024
        assert resolved.refine is False
        # Untouched profile fields still apply.
        assert resolved.strategy is BlockStrategy.ADAPTIVE
        assert resolved.policy == ZLIB_LEVELS[9]

    def test_explicit_value_equal_to_default_still_pins(self):
        # An explicit kwarg must win even when it equals the library
        # default (no sentinel-comparison shortcuts).
        resolved = CompressRequest(profile="best",
                                   window_size=4096).resolve()
        assert resolved.window_size == 4096

    def test_profile_object_equivalent_to_name(self):
        by_name = CompressRequest(profile="best").resolve()
        by_object = CompressRequest(
            profile=CompressionProfile(
                window_size=32768, policy=ZLIB_LEVELS[9],
                strategy=BlockStrategy.ADAPTIVE, cut_search=True,
                sniff=True, backend="sa", refine=True,
            )
        ).resolve()
        assert by_name == by_object

    def test_zdict_skips_the_profile_layer(self):
        # zdict is not a profile field: request > entry default only.
        assert CompressRequest(profile="best").resolve(
            zdict=b"abc").zdict == b"abc"
        assert CompressRequest(zdict=b"xyz").resolve(
            zdict=b"abc").zdict == b"xyz"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            CompressRequest(backend="warp").resolve()

    def test_unknown_entry_default_rejected(self):
        with pytest.raises(ConfigError, match="unknown resolve defaults"):
            CompressRequest().resolve(widow_size=4096)

    def test_router_resolves_from_trace_knobs(self):
        resolved = CompressRequest(trace_fraction=0.5,
                                   trace_seed=3).resolve()
        assert resolved.router.trace_fraction == 0.5
        assert resolved.router.trace_seed == 3


class TestRequestSurface:
    def test_merged_overrides_and_ignores_none(self):
        req = CompressRequest(backend="fast", window_size=8192)
        out = req.merged(backend="sa", window_size=None)
        assert out.backend == "sa"
        assert out.window_size == 8192
        assert req.backend == "fast"  # frozen original untouched

    def test_merged_unknown_field_raises(self):
        with pytest.raises(ConfigError, match="unknown request fields"):
            CompressRequest().merged(bakend="sa")

    def test_request_from_builds_and_merges(self):
        assert request_from(None, backend="sa").backend == "sa"
        base = CompressRequest(profile="best")
        merged = request_from(base, backend="fast")
        assert merged.backend == "fast"
        assert merged.profile == "best"

    def test_reject_legacy_trace(self):
        reject_legacy_trace("trace", None)  # None is always fine
        with pytest.raises(ConfigError, match="backend='traced'"):
            reject_legacy_trace("trace", True)
        with pytest.raises(ConfigError, match="backend='fast'"):
            reject_legacy_trace("traced", False)


class TestOneCallCompress:
    def test_default_stream_decodes(self):
        assert zlib.decompress(compress(PAYLOAD)) == PAYLOAD

    def test_profile_best_decodes_and_beats_default(self):
        best = compress(PAYLOAD, profile="best")
        assert zlib.decompress(best) == PAYLOAD
        assert len(best) < len(compress(PAYLOAD))

    def test_adaptive_kwargs_dispatch(self):
        stream = compress(PAYLOAD, strategy=BlockStrategy.ADAPTIVE,
                          window_size=8192, policy=ZLIB_LEVELS[6])
        assert zlib.decompress(stream) == PAYLOAD

    def test_request_object_accepted(self):
        req = CompressRequest(profile="fastest")
        assert zlib.decompress(compress(PAYLOAD, req)) == PAYLOAD
        # kwargs override the given request.
        out = compress(PAYLOAD, req, strategy=BlockStrategy.DYNAMIC)
        assert zlib.decompress(out) == PAYLOAD

    def test_zdict_dispatches_to_fdict(self):
        zdict = PAYLOAD[:512]
        stream = compress(PAYLOAD, zdict=zdict)
        decoder = zlib.decompressobj(zdict=zdict)
        assert decoder.decompress(stream) + decoder.flush() == PAYLOAD

    def test_legacy_kwargs_raise_everywhere(self):
        # The eight entry points all route through reject_legacy_trace;
        # spot-check the one-call surface plus one per family.
        from repro.deflate.splitter import zlib_compress_adaptive
        from repro.deflate.stream import ZLibStreamCompressor
        from repro.lzss.compressor import compress_tokens
        from repro.parallel.engine import ShardedCompressor

        with pytest.raises(ConfigError, match="was removed"):
            compress_tokens(PAYLOAD, trace=True)
        with pytest.raises(ConfigError, match="was removed"):
            ZLibStreamCompressor(traced=False)
        with pytest.raises(ConfigError, match="was removed"):
            ShardedCompressor(traced=True)
        with pytest.raises(ConfigError, match="was removed"):
            zlib_compress_adaptive(PAYLOAD, traced=False)
        with pytest.raises(ConfigError, match="was removed"):
            compress(PAYLOAD, traced=True)
        with pytest.raises(ConfigError, match="was removed"):
            compress(PAYLOAD, trace=True)


class TestEntryPointParity:
    """The same request resolves identically through every entry point."""

    def test_container_matches_one_call(self):
        from repro.deflate.zlib_container import ZLibCompressor

        via_api = compress(PAYLOAD, profile="fastest", backend="fast",
                           strategy=BlockStrategy.FIXED)
        via_container = ZLibCompressor(
            profile="fastest", backend="fast",
            strategy=BlockStrategy.FIXED,
        ).compress(PAYLOAD).data
        assert via_api == via_container

    def test_stream_single_chunk_matches_profile(self):
        from repro.deflate.stream import ZLibStreamCompressor

        stream = ZLibStreamCompressor(profile="best")
        assert stream.backend == "sa"
        assert stream.refine is not None
        out = stream.compress(PAYLOAD) + stream.finish()
        assert zlib.decompress(out) == PAYLOAD

    def test_parallel_matches_profile(self):
        from repro.parallel import compress_parallel

        out = compress_parallel(PAYLOAD, workers=1, profile="best")
        assert zlib.decompress(out) == PAYLOAD

    def test_batch_profile_resolution(self):
        from repro.batch import compress_batch

        result = compress_batch([PAYLOAD, PAYLOAD[:200]],
                                profile="fastest")
        for stream, payload in zip(result.streams,
                                   (PAYLOAD, PAYLOAD[:200])):
            assert zlib.decompress(stream) == payload

    def test_lzss_compressor_policy_none_defaults(self):
        from repro.lzss.compressor import LZSSCompressor

        comp = LZSSCompressor()
        assert comp.backend == "traced"  # instrumented entry default
        assert comp.policy == MatchPolicy()
