"""Per-shard backend overrides in the parallel engine.

``shard_backends`` maps shard index -> backend name, overriding the
engine-wide ``backend`` for those shards only. It exists as the seam
for the ROADMAP "sampled traced subset" follow-on: run most shards on
the production tokenizer and divert a sample through the instrumented
one without changing a byte of output.
"""

import zlib

import pytest

from repro.errors import ConfigError
from repro.parallel import compress_parallel
from repro.parallel.engine import ShardedCompressor

PAYLOAD = (b"shard payload: the rain in spain falls mainly " * 1200
           + bytes(range(256)) * 64)
SHARD = 16384


class TestShardBackends:
    def test_plan_carries_overrides(self):
        engine = ShardedCompressor(
            shard_size=SHARD, backend="fast",
            shard_backends={1: "traced", 3: "sa"},
        )
        tasks = engine.plan(PAYLOAD)
        assert len(tasks) >= 4
        got = {task.index: task.backend for task in tasks}
        assert got[0] == "fast"
        assert got[1] == "traced"
        assert got[3] == "sa"

    def test_mixed_backends_output_identical(self):
        uniform = compress_parallel(PAYLOAD, workers=1, shard_size=SHARD)
        mixed = compress_parallel(
            PAYLOAD, workers=1, shard_size=SHARD,
            shard_backends={0: "traced", 2: "fast"},
        )
        assert mixed == uniform
        assert zlib.decompress(mixed) == PAYLOAD

    def test_mixed_backends_across_workers(self):
        uniform = compress_parallel(PAYLOAD, workers=2, shard_size=SHARD)
        mixed = compress_parallel(
            PAYLOAD, workers=2, shard_size=SHARD,
            shard_backends={index: "traced" for index in range(0, 8, 2)},
        )
        assert mixed == uniform

    def test_unknown_override_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            compress_parallel(
                PAYLOAD, workers=1, shard_size=SHARD,
                shard_backends={0: "turbo"},
            )

    def test_overrides_beyond_plan_are_ignored(self):
        out = compress_parallel(
            PAYLOAD, workers=1, shard_size=SHARD,
            shard_backends={999: "traced"},
        )
        assert zlib.decompress(out) == PAYLOAD
