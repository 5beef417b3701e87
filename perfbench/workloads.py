"""The five workloads: their inputs, warm-up, one round, and yardstick.

A *round* is a fixed list of operations whose sizes and mix never
change; only the content follows the seed. Runs repeat whole rounds
(cycling through a pool of distinct rounds), so every run does the same
kind of work in the same proportions and quantiles over its operations
are comparable across seeds. All workloads are closed loop: the next
operation starts when the previous one returned.

Every call into the program goes through a module attribute
(``repro.api.compress``, ``repro.zlib_decompress``, ...), looked up at
call time, so the tracer's patches see every call.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import inputs
from calib import Calibrator

KiB = 1024

#: Seed of the warm-up inputs; they are never timed.
WARM_SEED = 424242


@dataclass(slots=True)
class Op:
    """One timed operation: a compress call, a write, a request, a stream."""

    start_s: float
    latency_s: float
    in_bytes: int
    out_bytes: int
    failed: bool = False
    #: Which operation of the round this is (default: its position).
    key: object = None
    #: ``Type: message`` of the exception a failed operation raised.
    error: str = ""


@dataclass
class RoundResult:
    ops: List[Op] = field(default_factory=list)
    #: (op index within the round, expected plaintext, stream) per output.
    checks: List[Tuple[int, bytes, bytes]] = field(default_factory=list)
    start_s: float = 0.0
    wall_s: float = 0.0
    extra: Dict[str, int] = field(default_factory=dict)


class Workload:
    """A workload: its seeded rounds, warm-up, one timed round, and the
    CPython zlib yardstick on the same inputs."""

    name = ""
    #: CPython zlib level used as the yardstick.
    level = 6
    #: Distinct rounds generated per seed. Every run makes at least one
    #: pass over them (and ``ratio`` covers exactly that pass), so they
    #: must fit a run of spec.RUN_SECONDS on a machine at half speed.
    pool_rounds = 8
    #: compress_mbps from the run's wall time instead of call times.
    throughput_from_wall = False
    #: Tail-latency percentile: stats.ladder_pct of the operation count
    #: a run of spec.RUN_SECONDS makes, fixed so runs stay comparable.
    #: 100 takes the round's slowest operation (run.tail_latency).
    TAIL_PCT = 100

    def __init__(self):
        self.repro = None
        self.tracer = None
        #: Speed samples between operations (enabled by the caller).
        self.clock = Calibrator(enabled=False)

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def _timed(self, results: RoundResult, call, in_bytes: int):
        """Run ``call`` as one operation; a raise is a failed operation,
        recorded with its message, and the round goes on."""
        self.clock.tick()
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            results.ops.append(Op(start, time.perf_counter() - start,
                                  in_bytes, 0, failed=True,
                                  error=f"{type(exc).__name__}: {exc}"))
            return None
        results.ops.append(Op(start, time.perf_counter() - start, in_bytes,
                              _out_len(out)))
        return out

    # -- hooks ----------------------------------------------------------

    def rounds(self, seed: int) -> list:
        raise NotImplementedError

    def round_inputs(self, rnd) -> List[bytes]:
        """Every input buffer of one round, in order (for digests)."""
        raise NotImplementedError

    def warm_inputs(self):
        """Inputs of the warm-up calls, made before set-up is timed."""
        raise NotImplementedError

    def setup(self, repro, warm) -> None:
        """Warm every entry point once with ``warm``."""
        raise NotImplementedError

    def run_round(self, rnd) -> RoundResult:
        raise NotImplementedError

    def yardstick_round(self, rnd) -> Tuple[int, int]:
        """CPython zlib on the round's inputs: (in bytes, out bytes)."""
        data = self.round_inputs(rnd)
        return (sum(len(d) for d in data),
                sum(len(zlib.compress(d, self.level)) for d in data))

    def layer_counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"warm-up failed: {what}")


def _out_len(out) -> int:
    if isinstance(out, (bytes, bytearray)):
        return len(out)
    return sum(len(s) for s in out.streams)


class OneShot(Workload):
    """Whole documents through ``repro.api.compress(doc, profile=...)``."""

    profile = "balanced"
    ROUND: Sequence[Tuple[str, int]] = ()

    def rounds(self, seed):
        return [[inputs.document(seed, fam, size, self.name, r)
                 for fam, size in self.ROUND]
                for r in range(self.pool_rounds)]

    def round_inputs(self, rnd):
        return list(rnd)

    def warm_inputs(self):
        return [inputs.document(WARM_SEED, fam, 8 * KiB)
                for fam in ("syslog", "random")]

    def setup(self, repro, warm):
        self.repro = repro
        for doc in warm:
            stream = repro.api.compress(doc, profile=self.profile)
            _check(repro.zlib_decompress(stream) == doc, "round trip")

    def run_round(self, rnd):
        repro = self.repro
        res = RoundResult(start_s=time.perf_counter())
        for doc in rnd:
            self._next_op()
            stream = self._timed(
                res, lambda: repro.api.compress(doc, profile=self.profile),
                len(doc))
            if stream is not None:
                res.checks.append((len(res.ops) - 1, doc, stream))
        res.wall_s = time.perf_counter() - res.start_s
        return res


class Docs(OneShot):
    name = "docs"
    TAIL_PCT = 75
    level = 6
    pool_rounds = 8
    # Latencies step up ~2x from one document to the next, so p50 (the
    # CAN log) is clear of its neighbours: a 64 KiB CAN log took 0.7x
    # the syslog document's time, and their overlap moved p50.
    ROUND = (("random", 256 * KiB), ("json", 32 * KiB), ("can", 48 * KiB),
             ("syslog", 128 * KiB), ("wiki", 128 * KiB))


class Archive(OneShot):
    name = "archive"
    TAIL_PCT = 100
    profile = "best"
    level = 9
    pool_rounds = 4
    # 16 KiB documents are refined whole; the 192 KiB one carries a
    # block over RefineConfig.max_block_bytes (128 KiB), which the
    # refine loop skips.
    ROUND = (("can", 16 * KiB), ("json", 16 * KiB), ("syslog", 16 * KiB),
             ("wiki", 16 * KiB), ("syslog", 192 * KiB))


class LogAppend(Workload):
    """One ``ZLibStreamCompressor(profile="fastest")`` stream per round."""

    name = "log-append"
    TAIL_PCT = 99
    level = 1
    pool_rounds = 8
    FLUSH_EVERY = 64 * KiB
    # Five bursts per 245 lines: 2% of the writes, so p99 falls in the
    # middle burst size and p50 among the lines.
    ROUND = (("lines", 49), ("can", 16 * KiB), ("lines", 49),
             ("blob", 32 * KiB), ("lines", 49), ("can", 40 * KiB),
             ("lines", 49), ("blob", 48 * KiB), ("lines", 49),
             ("can", 64 * KiB))

    def rounds(self, seed):
        pool = []
        for r in range(self.pool_rounds):
            writes = []
            for part, (kind, n) in enumerate(self.ROUND):
                rng = inputs.rng_for(seed, self.name, r, part)
                if kind == "lines":
                    writes += [("line", line)
                               for line in inputs.syslog_lines(rng, n)]
                elif kind == "can":
                    writes.append(("burst", inputs.can_records(rng, n)))
                else:
                    writes.append(("blob", inputs.random_bytes(rng, n)))
            pool.append(writes)
        return pool

    def round_inputs(self, rnd):
        return [data for _, data in rnd]

    def _stream(self):
        return self.repro.deflate.stream.ZLibStreamCompressor(
            profile="fastest")

    def warm_inputs(self):
        return inputs.syslog_lines(inputs.rng_for(WARM_SEED, self.name), 20)

    def setup(self, repro, lines):
        self.repro = repro
        stream = self._stream()
        out = b"".join(stream.compress(line) for line in lines)
        out += stream.flush_sync() + stream.finish()
        _check(repro.zlib_decompress(out) == b"".join(lines), "round trip")

    def run_round(self, rnd):
        res = RoundResult(start_s=time.perf_counter(),
                          extra={"blob_in": 0, "blob_out": 0})
        stream = self._stream()
        out = bytearray()
        since_flush = 0
        for kind, data in rnd:
            self._next_op()
            since_flush += len(data)
            flush = since_flush >= self.FLUSH_EVERY
            if flush:
                since_flush = 0
            piece = self._timed(res, lambda: stream.compress(data)
                           + (stream.flush_sync() if flush else b""),
                           len(data))
            if piece is None:
                break
            out += piece
            if kind == "blob":
                res.extra["blob_in"] += len(data)
                res.extra["blob_out"] += len(piece)
        else:
            self._next_op()
            tail = self._timed(res, stream.finish, 0)
            if tail is not None:
                out += tail
                plain = b"".join(data for _, data in rnd)
                res.checks.append((len(res.ops) - 1, plain, bytes(out)))
        res.wall_s = time.perf_counter() - res.start_s
        return res

    def yardstick_round(self, rnd):
        comp = zlib.compressobj(self.level)
        out = 0
        since_flush = 0
        for _, data in rnd:
            out += len(comp.compress(data))
            since_flush += len(data)
            if since_flush >= self.FLUSH_EVERY:
                since_flush = 0
                out += len(comp.flush(zlib.Z_SYNC_FLUSH))
        out += len(comp.flush())
        return sum(len(d) for _, d in rnd), out


class Messages(Workload):
    """Requests of 1-64 messages through ``repro.compress_batch``."""

    name = "messages"
    TAIL_PCT = 90
    level = 6
    pool_rounds = 8
    COUNTS = (1, 2, 4, 8, 16, 32, 64)
    SIZES = (256, 512, 1024, 2048, 4096)

    def rounds(self, seed):
        # One request per batch size (an odd number of them, so p50 is
        # the middle size); kinds and message sizes alternate inside.
        pool = []
        for r in range(self.pool_rounds):
            requests = []
            for count in self.COUNTS:
                rng = inputs.rng_for(seed, self.name, r, count)
                requests.append([
                    inputs.message(rng, ("json", "html")[i % 2],
                                   self.SIZES[(i + count) % 5])
                    for i in range(count)
                ])
            pool.append(requests)
        return pool

    def round_inputs(self, rnd):
        return [msg for request in rnd for msg in request]

    def warm_inputs(self):
        rng = inputs.rng_for(WARM_SEED, self.name)
        return [inputs.message(rng, "json", 512) for _ in range(4)]

    def setup(self, repro, msgs):
        self.repro = repro
        result = repro.compress_batch(msgs)
        for msg, stream in zip(msgs, result.streams):
            _check(repro.zlib_decompress(stream) == msg, "round trip")

    def run_round(self, rnd):
        repro = self.repro
        res = RoundResult(start_s=time.perf_counter())
        for request in rnd:
            self._next_op()
            result = self._timed(res, lambda: repro.compress_batch(request),
                            sum(len(m) for m in request))
            if result is None:
                continue
            index = len(res.ops) - 1
            streams = list(result.streams)
            if len(streams) != len(request):
                res.ops[index].failed = True
                continue
            for msg, stream in zip(request, streams):
                res.checks.append((index, msg, stream))
        res.wall_s = time.perf_counter() - res.start_s
        return res


class Serve(Workload):
    """Two closed-loop connections to an in-process CompressionService."""

    name = "serve"
    # Every stream has the same size, so the tail measures stalls and
    # contention, not stream size. A run makes 34-50 streams, about the
    # 40 that p75 needs for 10 beyond it; the count beyond is printed.
    TAIL_PCT = 75
    level = 6
    pool_rounds = 8
    throughput_from_wall = True
    WORKERS = 2
    FRAME = 16 * KiB
    #: Each stream is cut into four shards, so recut, stitching and the
    #: worker handoff run inside every stream.
    SHARD = 64 * KiB
    #: Shards a stream may have in flight: with two per connection the
    #: connections take turns at the workers instead of one stream
    #: queueing behind the other, and the backpressure path runs.
    MAX_INFLIGHT = 2
    #: Stream sizes each connection sends, in order, per round. Small
    #: rounds give a run many of them to take the median over.
    STREAMS = ((256 * KiB,), (256 * KiB,))
    RANDOM_SEGMENT = 32 * KiB

    def __init__(self):
        super().__init__()
        self.loop = None
        self.pool = None
        self.service = None

    def _payload(self, seed, *labels, size):
        rng = inputs.rng_for(seed, self.name, *labels)
        half = (size - self.RANDOM_SEGMENT) // 2
        text = inputs.syslog(rng, size - self.RANDOM_SEGMENT)
        return (text[:half] + inputs.random_bytes(rng, self.RANDOM_SEGMENT)
                + text[half:])

    def rounds(self, seed):
        return [[[self._payload(seed, r, conn, i, size=size)
                  for i, size in enumerate(sizes)]
                 for conn, sizes in enumerate(self.STREAMS)]
                for r in range(self.pool_rounds)]

    def round_inputs(self, rnd):
        return [payload for conn in rnd for payload in conn]

    def warm_inputs(self):
        return self._payload(WARM_SEED, size=256 * KiB)

    def setup(self, repro, payload):
        self.repro = repro
        from repro.parallel import WarmPool
        from repro.serve import CompressionService

        self.loop = asyncio.new_event_loop()
        self.pool = WarmPool(self.WORKERS)
        self.service = CompressionService(pool=self.pool,
                                          shard_size=self.SHARD,
                                          max_inflight=self.MAX_INFLIGHT,
                                          profile="balanced")
        self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
        # The first stream spawns the pool's workers.
        res = RoundResult()
        self.loop.run_until_complete(self._stream(payload, res))
        _check(not res.ops[0].failed, res.ops[0].error or "stream")
        _check(repro.zlib_decompress(res.checks[0][2]) == payload,
               "round trip")

    async def _stream(self, payload, res, key=None):
        frames = [payload[i:i + self.FRAME]
                  for i in range(0, len(payload), self.FRAME)]
        self._next_op()
        start = time.perf_counter()
        try:
            compressed, total_in = await self.repro.serve.compress_stream(
                "127.0.0.1", self.service.port, frames)
        except Exception as exc:
            res.ops.append(Op(start, time.perf_counter() - start,
                              len(payload), 0, failed=True, key=key,
                              error=f"{type(exc).__name__}: {exc}"))
            return
        res.ops.append(Op(start, time.perf_counter() - start, len(payload),
                          len(compressed), failed=total_in != len(payload),
                          key=key))
        res.checks.append((len(res.ops) - 1, payload, compressed))

    async def _connection(self, conn, payloads, res):
        for i, payload in enumerate(payloads):
            await self._stream(payload, res, key=(conn, i))

    async def _round(self, rnd, res):
        await asyncio.gather(*[self._connection(conn, payloads, res)
                               for conn, payloads in enumerate(rnd)])

    def run_round(self, rnd):
        # Operations overlap and run on every CPU here, so the speed is
        # sampled on each CPU around the round.
        if self.clock.enabled:
            self.clock.sample_each_cpu()
        res = RoundResult(start_s=time.perf_counter())
        self.loop.run_until_complete(self._round(rnd, res))
        res.wall_s = time.perf_counter() - res.start_s
        if self.clock.enabled:
            self.clock.sample_each_cpu()
        return res

    def layer_counts(self):
        stats = self.service.stats
        return {
            "parallel.pool_spawns": self.pool.spawn_count,
            "parallel.worker_failures": stats.worker_failures,
            "serve.protocol_errors": stats.protocol_errors,
            "serve.inflight_peak": stats.parallel.peak_inflight,
        }

    def close(self):
        if self.loop is None:
            return
        try:
            if self.service is not None:
                self.loop.run_until_complete(self.service.close())
        finally:
            if self.pool is not None:
                self.pool.shutdown()
            self.loop.close()
            self.loop = None
            _stop_resource_tracker()


def _stop_resource_tracker():
    """Stop (and wait for) the helper process multiprocessing starts for
    the pool's shared memory, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


WORKLOADS = {cls.name: cls for cls in (Docs, Archive, LogAppend, Messages,
                                       Serve)}
