"""Instrumentation for the sharded compression engine.

Every shard job reports its own wall time and sizes; the engine and the
streaming writer fold them into a :class:`ParallelStats` that answers
the operational questions — aggregate MB/s, per-shard latency spread,
and how deep the in-flight queue ran (the writer bounds it, the
one-shot engine saturates it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.estimator.calibration import CalibrationLog


@dataclass(frozen=True)
class ShardStat:
    """One shard's compression record.

    ``backend`` is the concrete tokenizer the shard ran after routing
    (``"stored"`` when the incompressibility bypass skipped
    tokenization); ``route_reason`` is the router's machine-greppable
    tag (``static``, ``trace-sample``, ``stored-bypass``);
    ``traced_sample`` marks shards the sampling policy diverted through
    the instrumented backend. Empty strings mean the shard predates the
    router (or was built by hand in a test).
    """

    index: int
    input_bytes: int
    output_bytes: int
    wall_s: float
    worker: int  # pid of the process that compressed it
    backend: str = ""
    route_reason: str = ""
    traced_sample: bool = False

    @property
    def throughput_mbps(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.input_bytes / self.wall_s / 1e6


@dataclass
class ParallelStats:
    """Aggregate outcome of one sharded compression."""

    workers: int
    shard_size: int
    shards: List[ShardStat] = field(default_factory=list)
    wall_s: float = 0.0
    peak_inflight: int = 0
    #: Traced-sample telemetry (one point per sampled shard), the live
    #: calibration feed for the estimator's cycle model.
    calibration: CalibrationLog = field(default_factory=CalibrationLog)

    def add_result(self, result) -> None:
        """Record one finished :class:`~repro.parallel.engine.ShardResult`
        (and its traced-sample telemetry point, if any)."""
        self.shards.append(ShardStat(
            index=result.index,
            input_bytes=result.input_bytes,
            output_bytes=len(result.body),
            wall_s=result.wall_s,
            worker=result.worker,
            backend=result.backend,
            route_reason=result.route_reason,
            traced_sample=result.traced_sample,
        ))
        if result.telemetry is not None:
            self.calibration.add(result.telemetry)

    def merge(self, other: "ParallelStats") -> None:
        """Fold another run's shards into this aggregate.

        The serving layer keeps one :class:`ParallelStats` per
        connection and folds each finished connection into a
        server-wide aggregate: shard records concatenate, wall time
        accumulates (summed stream time, not elapsed server time), and
        the peak queue depth is the maximum either side saw.
        """
        self.shards.extend(other.shards)
        self.wall_s += other.wall_s
        self.peak_inflight = max(self.peak_inflight, other.peak_inflight)
        for point in other.calibration.points:
            self.calibration.add(point)

    def note_inflight(self, depth: int) -> None:
        """Record the current in-flight shard count (queue depth)."""
        if depth > self.peak_inflight:
            self.peak_inflight = depth

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def backend_counts(self) -> dict:
        """Concrete backend -> shard count (routing outcome summary)."""
        counts: dict = {}
        for stat in self.shards:
            if stat.backend:
                counts[stat.backend] = counts.get(stat.backend, 0) + 1
        return counts

    @property
    def traced_samples(self) -> int:
        """Shards the sampling policy diverted through ``traced``."""
        return sum(1 for s in self.shards if s.traced_sample)

    @property
    def bytes_in(self) -> int:
        return sum(s.input_bytes for s in self.shards)

    @property
    def bytes_out(self) -> int:
        """Compressed shard bytes (excludes the ~8 bytes of framing)."""
        return sum(s.output_bytes for s in self.shards)

    @property
    def throughput_mbps(self) -> float:
        """End-to-end speed: input bytes over total wall time."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.bytes_in / self.wall_s / 1e6

    @property
    def ratio(self) -> float:
        if self.bytes_out == 0:
            return 0.0
        return self.bytes_in / self.bytes_out

    @property
    def worker_seconds(self) -> float:
        """Summed per-shard wall time (the work the pool absorbed)."""
        return sum(s.wall_s for s in self.shards)

    @property
    def mean_shard_s(self) -> float:
        if not self.shards:
            return 0.0
        return self.worker_seconds / len(self.shards)

    @property
    def max_shard_s(self) -> float:
        if not self.shards:
            return 0.0
        return max(s.wall_s for s in self.shards)

    def format(self, per_shard: bool = False) -> str:
        """Render a plain-text report (the CLI's ``--stats`` output)."""
        lines = [
            f"shards          : {self.shard_count} "
            f"x {self.shard_size} bytes (workers={self.workers})",
            f"input           : {self.bytes_in} bytes",
            f"output          : {self.bytes_out} bytes "
            f"(ratio {self.ratio:.3f})",
            f"wall time       : {self.wall_s:.3f} s "
            f"({self.throughput_mbps:.2f} MB/s)",
            f"shard wall time : mean {self.mean_shard_s:.3f} s, "
            f"max {self.max_shard_s:.3f} s",
            f"peak queue depth: {self.peak_inflight}",
        ]
        counts = self.backend_counts
        if counts:
            summary = " ".join(
                f"{name}={count}" for name, count in sorted(counts.items())
            )
            sampled = (f", {self.traced_samples} traced sample(s)"
                       if self.traced_samples else "")
            lines.append(f"backends        : {summary}{sampled}")
        if per_shard:
            for s in self.shards:
                routing = ""
                if s.backend:
                    routing = f"  {s.backend} [{s.route_reason}]"
                lines.append(
                    f"  shard {s.index:>4d}: {s.input_bytes:>8d} -> "
                    f"{s.output_bytes:>8d} B  {s.wall_s:.3f} s  "
                    f"{s.throughput_mbps:.2f} MB/s  pid {s.worker}"
                    f"{routing}"
                )
        if len(self.calibration):
            lines.append(self.calibration.format_table())
        return "\n".join(lines)
