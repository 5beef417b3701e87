"""CompressionProfile: presets, merge precedence, entry-point plumbing."""

import dataclasses
import zlib

import pytest

from repro.deflate.block_writer import BlockStrategy
from repro.deflate.stream import ZLibStreamCompressor
from repro.errors import ConfigError
from repro.lzss.policy import ZLIB_LEVELS
from repro.parallel import compress_parallel
from repro.parallel.engine import ShardedCompressor
from repro.profile import (
    CompressionProfile,
    as_profile,
    preset_names,
)

PAYLOAD = b"the quick brown fox jumps over the lazy dog. " * 600


class TestProfileValue:
    def test_frozen(self):
        prof = CompressionProfile(window_size=8192)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prof.window_size = 4096

    def test_merged_overrides_and_ignores_none(self):
        prof = CompressionProfile(window_size=8192, backend="fast")
        out = prof.merged(backend="sa", window_size=None)
        assert out.backend == "sa"
        assert out.window_size == 8192
        assert prof.backend == "fast"  # original untouched

    def test_merged_unknown_field_raises(self):
        with pytest.raises(ConfigError, match="unknown profile field"):
            CompressionProfile().merged(windw_size=4096)

    def test_pick_precedence(self):
        prof = CompressionProfile(window_size=8192)
        # kwarg > profile field > default
        assert prof.pick("window_size", 1024, 4096) == 1024
        assert prof.pick("window_size", None, 4096) == 8192
        assert CompressionProfile().pick("window_size", None, 4096) == 4096

    def test_as_profile_normalisation(self):
        assert as_profile(None) == CompressionProfile()
        prof = CompressionProfile(backend="fast")
        assert as_profile(prof) is prof
        assert as_profile("best").window_size == 32768
        with pytest.raises(ConfigError, match="unknown profile"):
            as_profile("bestest")
        with pytest.raises(ConfigError):
            as_profile(9)

    def test_preset_names(self):
        assert preset_names() == ("balanced", "best", "fastest")

    def test_preset_shapes(self):
        fastest = as_profile("fastest")
        assert fastest.policy == ZLIB_LEVELS[1]
        assert fastest.strategy is BlockStrategy.FIXED
        assert fastest.backend == "auto"
        best = as_profile("best")
        assert best.policy == ZLIB_LEVELS[9]
        assert best.policy.lazy


class TestProfilePlumbing:
    @pytest.mark.parametrize("name", ["fastest", "balanced", "best"])
    def test_parallel_roundtrip_every_preset(self, name):
        out = compress_parallel(PAYLOAD, workers=2, profile=name)
        assert zlib.decompress(out) == PAYLOAD

    @pytest.mark.parametrize("name", ["fastest", "balanced", "best"])
    def test_stream_roundtrip_every_preset(self, name):
        stream = ZLibStreamCompressor(profile=name)
        out = stream.compress(PAYLOAD) + stream.finish()
        assert zlib.decompress(out) == PAYLOAD

    def test_best_beats_fastest_on_text(self):
        small = compress_parallel(PAYLOAD, workers=1, profile="best")
        quick = compress_parallel(PAYLOAD, workers=1, profile="fastest")
        assert len(small) < len(quick)

    def test_kwarg_wins_over_profile(self):
        engine = ShardedCompressor(profile="best", backend="traced")
        assert engine.backend == "traced"
        assert engine.window_size == 32768  # untouched profile field

    def test_profile_fills_unset_settings(self):
        engine = ShardedCompressor(profile="best")
        assert engine.backend == "sa"
        assert engine.refine is True
        assert engine.window_size == 32768
        assert engine.policy == ZLIB_LEVELS[9]
        assert engine.strategy is BlockStrategy.ADAPTIVE

    def test_defaults_without_profile(self):
        engine = ShardedCompressor()
        assert engine.window_size == engine.params.window_size
        assert engine.backend == "fast"

    def test_stream_profile_object_with_override(self):
        prof = CompressionProfile(window_size=1024, backend="fast")
        stream = ZLibStreamCompressor(profile=prof, window_size=4096)
        assert stream.window_size == 4096
        out = stream.compress(PAYLOAD) + stream.finish()
        assert zlib.decompress(out) == PAYLOAD

    def test_preset_name_identical_to_equivalent_object(self):
        via_name = compress_parallel(PAYLOAD, workers=2, profile="best")
        via_object = compress_parallel(
            PAYLOAD,
            workers=2,
            profile=CompressionProfile(
                window_size=32768,
                policy=ZLIB_LEVELS[9],
                strategy=BlockStrategy.ADAPTIVE,
                cut_search=True,
                sniff=True,
                backend="sa",
                refine=True,
            ),
        )
        assert via_name == via_object

    def test_kwarg_changes_output_over_profile(self):
        # fastest uses FIXED blocks; the explicit kwarg flips the
        # strategy and must actually take effect end to end.
        fixed = compress_parallel(PAYLOAD, workers=1, profile="fastest")
        adaptive = compress_parallel(
            PAYLOAD, workers=1, profile="fastest",
            strategy=BlockStrategy.ADAPTIVE,
        )
        assert zlib.decompress(adaptive) == PAYLOAD
        assert adaptive != fixed
