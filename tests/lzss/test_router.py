"""The per-chunk decision contract: probe, backend, sampling, bytes.

Three families of guarantees:

(a) **differential** — decisions move wall-clock only. ``auto``,
    ``fast`` and ``traced`` shards are byte-identical across mixed shard
    sequences (noise -> text -> noise) and several window/policy
    combinations, through the shard body, the sharded engine and the
    streaming writer;
(b) **sampling** — the traced-sampling policy is deterministic and
    seedable: fractions 0.0/1.0 degenerate exactly, equal seeds give
    equal selections, and sampled shards produce calibration telemetry
    whose shape matches what the hardware cycle model computes;
(c) **probe economy** — the stored-bypass probe runs at most once per
    shard, and only where the bypass can act (ADAPTIVE with sniff).
"""

import zlib

import pytest

from repro.deflate.block_writer import BlockStrategy
from repro.deflate.sniff import (
    ENTROPY_BYPASS_BITS,
    MIN_SNIFF_BYTES,
    TRIGRAM_REPEAT_LIMIT,
    looks_incompressible,
    trigram_repeat_fraction,
)
from repro.errors import ConfigError
from repro.lzss import router as router_mod
from repro.lzss.policy import HW_MAX_POLICY, ZLIB_LEVELS
from repro.lzss.router import (
    RouterConfig,
    RoutingDecision,
    ShardProbe,
    config_from_profile,
    probe_shard,
    route_batch,
    route_shard,
    should_trace,
)
from repro.parallel import ParallelDeflateWriter, ShardedCompressor
from repro.parallel.engine import compress_shard_body
from repro.profile import CompressionProfile
from repro.workloads.synthetic import incompressible
from repro.workloads.wiki import wiki_text

SHARD = 4096
TEXT = wiki_text(8192, seed=3)


def mixed_payload(shards: int = 6, shard_size: int = SHARD) -> bytes:
    """noise -> text -> noise -> ... : alternating bypass verdicts."""
    noise = incompressible(shard_size, seed=5)
    text = wiki_text(shard_size, seed=5)
    return b"".join(
        (noise if i % 2 == 0 else text) for i in range(shards)
    )


# ---------------------------------------------------------------------
# (pre) probe signals
# ---------------------------------------------------------------------


class TestProbe:
    def test_probe_shard_fields(self):
        data = incompressible(16384, seed=2)
        probe = probe_shard(data)
        assert probe.input_bytes == len(data)
        assert probe.entropy_bits > 7.9
        assert probe.incompressible

    def test_probe_matches_stored_bypass_verdict(self, corpus_variety):
        # One probe serves both consumers: its incompressible property
        # must agree with the sniff it replaces, on every corpus input.
        for name, data in corpus_variety.items():
            probe = probe_shard(data)
            assert probe.incompressible == looks_incompressible(data), name

    def test_trigram_pass_skipped_where_it_cannot_flip_the_verdict(
        self, corpus_variety
    ):
        # The trigram pass runs only for inputs of MIN_SNIFF_BYTES or
        # more whose entropy clears the bypass threshold; the verdict
        # equals the one from all three signals measured unconditionally.
        inputs = dict(corpus_variety)
        inputs["ramp"] = bytes(range(256)) * 32  # max entropy, LZ-rich
        inputs["noise-small"] = incompressible(MIN_SNIFF_BYTES - 1, seed=3)
        for name, data in inputs.items():
            probe = probe_shard(data)
            gated = (len(data) >= MIN_SNIFF_BYTES
                     and probe.entropy_bits >= ENTROPY_BYPASS_BITS)
            assert (probe.trigram_repeat is not None) == gated, name
            full = gated and \
                trigram_repeat_fraction(data) < TRIGRAM_REPEAT_LIMIT
            assert probe.incompressible == full, name
        assert probe_shard(inputs["random"]).incompressible
        assert probe_shard(inputs["wiki"]).trigram_repeat is None


# ---------------------------------------------------------------------
# config
# ---------------------------------------------------------------------


class TestRouterConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RouterConfig(trace_fraction=1.5)
        with pytest.raises(ConfigError):
            RouterConfig(trace_fraction=-0.1)

    def test_config_from_profile_precedence(self):
        prof = CompressionProfile(trace_fraction=0.25, trace_seed=4)
        # kwarg > profile field > default, per knob.
        config = config_from_profile(prof, trace_seed=9)
        assert config.trace_fraction == 0.25
        assert config.trace_seed == 9
        assert config_from_profile(CompressionProfile()) == RouterConfig()
        # A whole RouterConfig wins outright.
        override = RouterConfig()
        assert config_from_profile(prof, router=override) is override


# ---------------------------------------------------------------------
# (b) sampling policy
# ---------------------------------------------------------------------


class TestShouldTrace:
    def test_fraction_zero_selects_nothing(self):
        assert not any(should_trace(i, 0.0) for i in range(1000))

    def test_fraction_one_selects_everything(self):
        assert all(should_trace(i, 1.0) for i in range(1000))

    def test_seeded_runs_reproducible(self):
        for seed in (0, 1, 424242):
            first = [should_trace(i, 0.3, seed) for i in range(200)]
            again = [should_trace(i, 0.3, seed) for i in range(200)]
            assert first == again

    def test_different_seeds_differ(self):
        a = [should_trace(i, 0.5, seed=1) for i in range(200)]
        b = [should_trace(i, 0.5, seed=2) for i in range(200)]
        assert a != b

    def test_fraction_approximates_rate(self):
        hits = sum(should_trace(i, 0.25, seed=9) for i in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_selection_independent_of_order(self):
        # The predicate hashes (seed, index): evaluation order — i.e.
        # worker scheduling — cannot change which shards are sampled.
        forward = [should_trace(i, 0.4, seed=3) for i in range(100)]
        backward = [should_trace(i, 0.4, seed=3)
                    for i in reversed(range(100))]
        assert forward == list(reversed(backward))


# ---------------------------------------------------------------------
# routing decisions
# ---------------------------------------------------------------------


class TestRouteShard:
    def test_static_mode_resolves_registry(self):
        decision = route_shard(b"x" * 1000, backend="fast",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "fast"
        assert decision.reason == "static"

    def test_trace_sample_wins_over_backend(self):
        decision = route_shard(
            incompressible(SHARD, seed=1), backend="fast",
            policy=HW_MAX_POLICY, config=RouterConfig(trace_fraction=1.0),
        )
        assert decision.backend == "traced"
        assert decision.reason == "trace-sample"
        assert decision.traced_sample

    def test_precomputed_probe_is_reused(self, monkeypatch):
        # Hand route_shard a probe and make fresh probing explode:
        # the shard must not be probed twice.
        data = incompressible(SHARD, seed=1)
        probe = probe_shard(data)

        def boom(*args, **kwargs):
            raise AssertionError("shard probed twice")

        monkeypatch.setattr(router_mod, "probe_shard", boom)
        decision = route_shard(
            data, backend="auto", policy=HW_MAX_POLICY, probe=probe,
        )
        assert decision.probe is probe


class TestRouteBatch:
    def test_auto_batch_takes_packed_kernel(self):
        pytest.importorskip("numpy")
        decision = route_batch([TEXT], backend="auto",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "batch"
        assert decision.reason == "batch-kernel"

    def test_explicit_backend_resolves_statically(self):
        decision = route_batch([TEXT], backend="fast",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "fast"
        assert decision.reason == "static"

    def test_auto_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(
            "repro.lzss.backends._numpy_usable", lambda: False
        )
        decision = route_batch([TEXT], backend="auto",
                               policy=HW_MAX_POLICY)
        assert decision.backend == "fast"
        assert decision.reason == "kernel-unavailable"


# ---------------------------------------------------------------------
# (a) differential: decisions never change bytes
# ---------------------------------------------------------------------

#: Greedy and lazy policies across small, default and maximal windows.
COMBOS = [
    (4096, HW_MAX_POLICY),
    (1024, HW_MAX_POLICY),
    (32768, ZLIB_LEVELS[6]),
    (4096, ZLIB_LEVELS[9]),
]


class TestRoutedBytesIdentical:
    @pytest.mark.parametrize("window,policy", COMBOS)
    def test_shard_body_identical_per_decision(self, window, policy):
        for payload in (incompressible(SHARD, seed=7),
                        wiki_text(SHARD, seed=7)):
            routed = compress_shard_body(
                payload, window_size=window, policy=policy,
                backend="auto",
            )
            for static in ("fast", "traced"):
                body = compress_shard_body(
                    payload, window_size=window, policy=policy,
                    backend=static,
                )
                assert body == routed, (window, policy, static)

    @pytest.mark.parametrize("window,policy", COMBOS)
    def test_engine_mixed_sequence_identical(self, window, policy):
        payload = mixed_payload()
        profile = CompressionProfile(window_size=window, policy=policy)

        def run(**kwargs):
            return ShardedCompressor(
                workers=1, shard_size=SHARD, profile=profile, **kwargs
            ).compress(payload)

        routed = run(backend="auto")
        for static in ("fast", "traced"):
            assert run(backend=static).data == routed.data, static
        assert zlib.decompress(routed.data) == payload

    def test_writer_identical_to_engine(self):
        payload = mixed_payload()
        profile = CompressionProfile(policy=HW_MAX_POLICY)
        chunks = []

        class Sink:
            def write(self, b):
                chunks.append(bytes(b))

        with ParallelDeflateWriter(
            Sink(), workers=1, shard_size=SHARD, backend="auto",
            profile=profile,
        ) as writer:
            # Misaligned writes: shard cutting is the writer's job.
            for start in range(0, len(payload), 3000):
                writer.write(payload[start:start + 3000])
        streamed = b"".join(chunks)
        engine = ShardedCompressor(
            workers=1, shard_size=SHARD, backend="auto",
            profile=profile,
        ).compress(payload)
        assert streamed == engine.data
        assert zlib.decompress(streamed) == payload

# ---------------------------------------------------------------------
# (b) traced sampling through the engine
# ---------------------------------------------------------------------


class TestTracedSampling:
    def profile(self):
        return CompressionProfile(policy=HW_MAX_POLICY)

    def run(self, payload, **kwargs):
        return ShardedCompressor(
            workers=1, shard_size=SHARD, profile=self.profile(), **kwargs
        ).compress(payload)

    def test_fraction_zero_traces_nothing(self):
        result = self.run(mixed_payload(), backend="fast",
                          trace_fraction=0.0)
        assert result.stats.traced_samples == 0
        assert len(result.stats.calibration) == 0

    def test_fraction_one_traces_everything(self):
        payload = mixed_payload(shards=3)
        result = self.run(payload, backend="fast", trace_fraction=1.0)
        assert result.stats.traced_samples == 3
        assert len(result.stats.calibration) == 3
        assert result.stats.backend_counts == {"traced": 3}
        # ...and tracing still does not change the bytes.
        assert result.data == self.run(payload, backend="fast").data

    def test_seeded_sampling_reproducible(self):
        payload = mixed_payload(shards=8)
        first = self.run(payload, backend="fast", trace_fraction=0.5,
                         trace_seed=11)
        again = self.run(payload, backend="fast", trace_fraction=0.5,
                         trace_seed=11)
        picks = [s.index for s in first.stats.shards if s.traced_sample]
        assert picks == [s.index for s in again.stats.shards
                         if s.traced_sample]
        assert picks == [i for i in range(8)
                         if should_trace(i, 0.5, seed=11)]

    def test_telemetry_matches_cycle_model(self):
        # The calibration point for a sampled shard must agree with
        # running the trace + cycle model by hand on the same bytes.
        from repro.hw.cycle_model import CycleModel
        from repro.hw.params import HardwareParams
        from repro.lzss.compressor import compress_tokens

        payload = wiki_text(SHARD, seed=13)
        result = self.run(payload, backend="fast", trace_fraction=1.0)
        (point,) = list(result.stats.calibration)
        oracle = compress_tokens(payload, 4096, policy=HW_MAX_POLICY,
                                 backend="traced")
        stats = CycleModel(HardwareParams(
            window_size=4096, policy=HW_MAX_POLICY,
        )).run(oracle.trace)
        assert point.input_bytes == oracle.trace.input_size
        assert point.token_count == len(oracle.trace)
        assert point.chain_iters == sum(oracle.trace.chain_iters)
        assert point.inserted == sum(oracle.trace.inserted)
        assert point.modelled_cycles == stats.total_cycles
        assert point.modelled
        assert point.measured_mbps > 0.0

    def test_lazy_policy_keeps_aggregates_unpriced(self):
        payload = wiki_text(SHARD, seed=13)
        result = ShardedCompressor(
            workers=1, shard_size=SHARD, trace_fraction=1.0,
            profile=CompressionProfile(policy=ZLIB_LEVELS[6]),
        ).compress(payload)
        (point,) = list(result.stats.calibration)
        assert not point.modelled
        assert point.modelled_cycles == 0
        assert point.chain_iters > 0
        assert "unpriced" in result.stats.format(per_shard=True)

    def test_sampling_survives_the_process_pool(self):
        # Telemetry is produced in workers and must pickle home intact.
        payload = mixed_payload(shards=6)
        result = ShardedCompressor(
            workers=2, shard_size=SHARD, trace_fraction=1.0,
            profile=self.profile(),
        ).compress(payload)
        assert result.stats.traced_samples == 6
        assert len(result.stats.calibration) == 6
        assert result.stats.calibration.sampled_bytes == len(payload)


# ---------------------------------------------------------------------
# (c) the single-probe guarantee
# ---------------------------------------------------------------------


class TestSingleProbe:
    def count_probes(self, monkeypatch):
        from repro.deflate import stream as stream_mod

        calls = []
        real = stream_mod.probe_shard

        def counting(data):
            calls.append(len(data))
            return real(data)

        monkeypatch.setattr(stream_mod, "probe_shard", counting)
        return calls

    def test_adaptive_probes_once_per_shard(self, monkeypatch):
        calls = self.count_probes(monkeypatch)
        payload = mixed_payload(shards=4)
        result = ShardedCompressor(
            workers=1, shard_size=SHARD, backend="auto",
            strategy=BlockStrategy.ADAPTIVE,
            profile=CompressionProfile(policy=HW_MAX_POLICY),
        ).compress(payload)
        assert len(calls) == 4
        assert zlib.decompress(result.data) == payload
        # The noise shards were taken by the stored bypass.
        assert result.stats.backend_counts.get("stored") == 2

    def test_static_fast_never_probes(self, monkeypatch):
        calls = self.count_probes(monkeypatch)
        ShardedCompressor(
            workers=1, shard_size=SHARD, backend="fast",
            profile=CompressionProfile(policy=HW_MAX_POLICY),
        ).compress(mixed_payload(shards=2))
        assert calls == []


# ---------------------------------------------------------------------
# stats surface
# ---------------------------------------------------------------------


class TestRoutingStats:
    def test_decisions_surface_in_format(self):
        result = ShardedCompressor(
            workers=1, shard_size=SHARD, backend="fast",
            trace_fraction=1.0,
            profile=CompressionProfile(policy=HW_MAX_POLICY),
        ).compress(mixed_payload(shards=2))
        report = result.stats.format(per_shard=True)
        assert "backends        :" in report
        assert "[trace-sample]" in report

    def test_decision_record_shape(self):
        decision = route_shard(b"z" * 2000, backend="fast",
                               policy=HW_MAX_POLICY)
        assert isinstance(decision, RoutingDecision)
        assert decision.requested == "fast"
        assert decision.reason == "static"
        assert not decision.traced_sample

    def test_probe_is_picklable_for_the_pool(self):
        import pickle

        probe = probe_shard(wiki_text(SHARD, seed=1))
        config = RouterConfig(trace_fraction=0.5, trace_seed=2)
        assert pickle.loads(pickle.dumps(probe)) == probe
        assert pickle.loads(pickle.dumps(config)) == config
        assert isinstance(probe, ShardProbe)
