"""Single-pass adaptive pricing: parity with scratch encoding.

The splitter prices blocks from one histogram pass
(:func:`repro.deflate.dynamic.plan_dynamic_block`); the ground truth is
what an actual encode of the block measures. These tests hold the two
equal bit-for-bit, and round-trip the adaptive paths across the
compressibility spectrum (including the multi-chunk stored case past
64 KiB).
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitio.writer import BitWriter
from repro.deflate.block_writer import (
    BlockStrategy,
    fixed_block_cost_bits,
    fixed_cost_from_histograms,
)
from repro.deflate.dynamic import (
    plan_for_tokens,
    token_histograms,
    write_dynamic_block,
)
from repro.deflate.fused import fused_cache_clear, fused_cache_info
from repro.deflate.splitter import deflate_adaptive, zlib_compress_adaptive
from repro.lzss.compressor import compress_tokens
from repro.workloads.synthetic import incompressible, mixed, zeros

_data = st.one_of(
    st.binary(min_size=1, max_size=4096),
    # Skewed alphabets exercise deep code-length tables and long RLE
    # runs in the table transmission.
    st.binary(min_size=1, max_size=4096).map(
        lambda b: bytes(v & 0x0F for v in b)
    ),
    st.integers(1, 3000).map(lambda n: b"ab" * n),
)


class TestSinglePassPricingParity:
    @given(data=_data)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dynamic_plan_cost_equals_scratch_encode(self, data):
        tokens = compress_tokens(data).tokens
        plan = plan_for_tokens(tokens)
        scratch = BitWriter()
        write_dynamic_block(scratch, tokens, final=False)
        assert plan.cost_bits == scratch.bit_length

    @given(data=_data)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fixed_histogram_cost_equals_per_symbol_cost(self, data):
        tokens = compress_tokens(data).tokens
        litlen_hist, dist_hist = token_histograms(tokens)
        assert fixed_cost_from_histograms(
            litlen_hist, dist_hist
        ) == fixed_block_cost_bits(tokens)

    def test_plan_reuse_emits_identical_bytes(self):
        data = mixed(20000, seed=11)
        tokens = compress_tokens(data).tokens
        fresh = BitWriter()
        write_dynamic_block(fresh, tokens, final=True)
        planned = BitWriter()
        write_dynamic_block(planned, tokens, final=True,
                            plan=plan_for_tokens(tokens))
        assert planned.flush() == fresh.flush()


class TestAdaptiveRoundTrips:
    CASES = {
        "empty": b"",
        "all_literal": incompressible(900, seed=4),
        "repetitive": (b"the quick brown fox " * 600),
        "incompressible_multichunk": incompressible(70 * 1024, seed=5),
        "zeros": zeros(70 * 1024),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_roundtrip_against_zlib(self, name):
        data = self.CASES[name]
        stream = zlib_compress_adaptive(data)
        assert zlib.decompress(stream) == data

    def test_repetitive_chooses_dynamic(self):
        split = self._split(self.CASES["repetitive"])
        assert {c.strategy for c in split.choices} == {
            BlockStrategy.DYNAMIC
        }

    def test_incompressible_chooses_multichunk_stored(self):
        data = self.CASES["incompressible_multichunk"]
        tokens = compress_tokens(data).tokens
        # One block holding all ~70 KiB, so the stored emission must
        # split it at 65535 B and the price must charge both chunks.
        split = deflate_adaptive(tokens, data,
                                 tokens_per_block=len(tokens))
        assert [c.strategy for c in split.choices] == [
            BlockStrategy.STORED
        ]
        # The block really did split: the first chunk's LEN is 65535.
        assert split.body[1:3] == b"\xff\xff"
        assert len(split.body) * 8 == split.choices[0].chosen_bits
        assert zlib.decompress(split.body, wbits=-15) == data

    def test_traced_and_fast_streams_identical(self):
        data = mixed(30000, seed=13)
        oracle = zlib_compress_adaptive(data, backend="traced")
        assert zlib_compress_adaptive(data, backend="fast") == oracle

    @staticmethod
    def _split(data):
        tokens = compress_tokens(data).tokens
        return deflate_adaptive(tokens, data)


class TestFusedTableCache:
    def test_repeated_table_shapes_hit_the_cache(self):
        fused_cache_clear()
        data = b"ababab cdcdcd " * 4000
        tokens = compress_tokens(data).tokens
        # Fixed cadence on purpose: the cut search would (correctly)
        # merge this homogeneous input into one block, leaving nothing
        # for the cache to hit.
        split = deflate_adaptive(tokens, data, tokens_per_block=48,
                                 cut_search=False)
        dynamic_blocks = sum(
            1 for c in split.choices
            if c.strategy is BlockStrategy.DYNAMIC
        )
        info = fused_cache_info()
        assert dynamic_blocks > 1
        assert info.hits + info.misses == dynamic_blocks
        assert info.hits > 0  # homogeneous input repeats table shapes
        assert zlib.decompress(split.body, wbits=-15) == data
