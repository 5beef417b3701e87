"""Backend registry: resolution, numpy fallback, removed-shim errors."""

import sys

import pytest

from repro.errors import ConfigError
from repro.lzss import backends
from repro.lzss.compressor import LZSSCompressor, compress_tokens
from repro.lzss.policy import HW_MAX_POLICY, HW_SPEED_POLICY, ZLIB_LEVELS

SAMPLE = b"abracadabra, abracadabra! " * 40


def block_numpy(monkeypatch):
    """Make ``import numpy`` fail for code probing availability."""
    monkeypatch.setitem(sys.modules, "numpy", None)


class TestAvailability:
    def test_pure_python_backends_always_present(self):
        names = backends.available()
        assert "traced" in names
        assert "fast" in names

    def test_without_numpy_vector_disappears(self, monkeypatch):
        block_numpy(monkeypatch)
        assert backends.available() == ("traced", "fast", "sa")
        assert set(backends.registry()) == {"fast", "sa"}

    def test_sa_always_listed(self, monkeypatch):
        # sa carries its own pure-Python builder, so it never leaves
        # the registry — with or without numpy.
        assert "sa" in backends.available()
        assert "sa" in backends.registry()
        block_numpy(monkeypatch)
        assert "sa" in backends.available()
        assert "sa" in backends.registry()

    def test_probe_is_not_cached(self, monkeypatch):
        pytest.importorskip("numpy")
        assert backends._numpy_usable()
        block_numpy(monkeypatch)
        assert not backends._numpy_usable()
        monkeypatch.undo()
        assert backends._numpy_usable()


class TestResolve:
    def test_concrete_names_pass_through(self):
        assert backends.resolve("traced") == "traced"
        assert backends.resolve("fast") == "fast"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            backends.resolve("turbo")
        with pytest.raises(ConfigError, match="unknown backend"):
            backends.resolve("vector")
        with pytest.raises(ConfigError):
            backends.resolve("Fast")  # names are case-sensitive

    def test_auto_resolves_to_fast(self):
        for policy in (HW_MAX_POLICY, HW_SPEED_POLICY, ZLIB_LEVELS[6],
                       None):
            assert backends.resolve("auto", policy) == "fast"

    def test_auto_never_picks_sa(self):
        # sa trades speed for ratio; it must be asked for explicitly.
        for policy in (HW_MAX_POLICY, HW_SPEED_POLICY, ZLIB_LEVELS[6],
                       ZLIB_LEVELS[9], None):
            assert backends.resolve("auto", policy) != "sa"

    def test_sa_resolves_to_itself(self, monkeypatch):
        assert backends.resolve("sa", ZLIB_LEVELS[9]) == "sa"
        assert backends.resolve("sa", HW_MAX_POLICY) == "sa"
        block_numpy(monkeypatch)
        assert backends.resolve("sa", ZLIB_LEVELS[9]) == "sa"

    def test_tokenizer_traced_has_no_callable(self):
        name, fn = backends.tokenizer("traced")
        assert name == "traced" and fn is None
        name, fn = backends.tokenizer("fast")
        assert name == "fast" and callable(fn)


class TestRemovedShims:
    """The ``trace=``/``traced=`` booleans are gone: hard ConfigError.

    Every error names the exact replacement so an old call site
    migrates in one edit.
    """

    def test_trace_false_names_fast(self):
        with pytest.raises(ConfigError, match="backend='fast'"):
            compress_tokens(SAMPLE, trace=False)

    def test_trace_true_names_traced(self):
        with pytest.raises(ConfigError, match="backend='traced'"):
            compress_tokens(SAMPLE, trace=True)

    def test_constructor_shim_removed(self):
        with pytest.raises(ConfigError, match="trace= was removed"):
            LZSSCompressor(trace=False)

    def test_compress_method_shim_removed(self):
        comp = LZSSCompressor(backend="fast")
        with pytest.raises(ConfigError, match="trace= was removed"):
            comp.compress(SAMPLE, trace=True)

    def test_streaming_traced_shim_removed(self):
        from repro.deflate.stream import ZLibStreamCompressor

        with pytest.raises(ConfigError, match="traced= was removed"):
            ZLibStreamCompressor(traced=True)

    def test_engine_traced_shim_removed(self):
        from repro.parallel.engine import ShardedCompressor

        with pytest.raises(ConfigError, match="traced= was removed"):
            ShardedCompressor(traced=True)

    def test_adaptive_traced_shim_removed(self):
        from repro.deflate.splitter import zlib_compress_adaptive

        with pytest.raises(ConfigError, match="traced= was removed"):
            zlib_compress_adaptive(SAMPLE, traced=False)

    def test_none_is_not_an_error(self):
        # None means "unset" at every layer, never a legacy request.
        result = compress_tokens(SAMPLE, trace=None)
        assert result.backend == "traced"
