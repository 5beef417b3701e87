"""Differential fuzzing of the trace-free ``fast`` backend against ``traced``.

The fast tokenizer (:mod:`repro.lzss.fast`) re-implements the greedy and
lazy parsers without any trace bookkeeping and with a different compare
kernel (32-byte memoryview chunks, zlib's quick-reject peek). None of
that may change the output: it must be **bit-identical** to ``traced``
for every window size and policy, or the production path stops being a
witness for the instrumented reproduction path.

Hypothesis drives the payloads across the compressibility spectrum;
window sizes and policies sweep the hardware-relevant corners (512 is
the smallest window with a usable distance given MIN_LOOKAHEAD=262,
32768 is Deflate's ceiling).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lzss.backends import available
from repro.lzss.compressor import compress_tokens
from repro.lzss.decompressor import decompress_tokens
from repro.lzss.policy import (
    HW_MAX_POLICY,
    HW_SPEED_POLICY,
    MatchPolicy,
    ZLIB_LEVELS,
)

payloads = st.one_of(
    st.binary(max_size=4096),
    st.text(alphabet="abcde \n", max_size=4096).map(str.encode),
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(1, 400)),
        max_size=12,
    ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs)),
)

window_sizes = st.sampled_from([512, 1024, 4096, 32768])

#: Greedy and lazy, hardware-shaped and zlib-shaped, cheap and thorough.
policies = st.sampled_from([
    MatchPolicy(),
    HW_SPEED_POLICY,
    HW_MAX_POLICY,
    ZLIB_LEVELS[1],
    ZLIB_LEVELS[4],
    ZLIB_LEVELS[6],
    ZLIB_LEVELS[9],
])

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def token_columns(tokens):
    return list(tokens.lengths), list(tokens.values)


class TestBackendsBitIdentical:
    @given(data=payloads, window=window_sizes, policy=policies)
    @relaxed
    def test_tokens_identical_across_policies(self, data, window, policy):
        traced = compress_tokens(data, window, policy=policy,
                                 backend="traced")
        fast = compress_tokens(data, window, policy=policy, backend="fast")
        assert token_columns(fast.tokens) == token_columns(traced.tokens)
        assert traced.trace is not None
        assert fast.trace is None

    @given(data=payloads, window=window_sizes, policy=policies)
    @relaxed
    def test_fast_tokens_roundtrip(self, data, window, policy):
        fast = compress_tokens(data, window, policy=policy, backend="fast")
        assert decompress_tokens(fast.tokens) == data


class TestBackendsOnCorpus:
    """One deterministic sweep over the named corpus (no shrinking)."""

    def test_corpus_identical_greedy_and_lazy(self, corpus_variety):
        # "sa" is excluded: its contract is decode-identical and
        # ratio-no-worse, not token-identical (tests/lzss/test_sa_backend).
        backends = [
            name for name in available() if name not in ("traced", "sa")
        ] or ["fast"]
        for name, data in corpus_variety.items():
            for policy in (HW_SPEED_POLICY, HW_MAX_POLICY,
                           ZLIB_LEVELS[6], ZLIB_LEVELS[9]):
                traced = compress_tokens(data, policy=policy,
                                         backend="traced")
                oracle = token_columns(traced.tokens)
                for backend in backends:
                    got = compress_tokens(data, policy=policy,
                                          backend=backend)
                    assert token_columns(got.tokens) == oracle, (
                        name, backend, policy,
                    )

    def test_compressor_default_honoured(self, corpus_variety):
        from repro.lzss.compressor import LZSSCompressor

        comp = LZSSCompressor(backend="fast")
        for name, data in corpus_variety.items():
            result = comp.compress(data)
            assert result.trace is None, name
            # Per-call override wins over the constructor default.
            assert comp.compress(data, backend="traced").trace \
                is not None, name
