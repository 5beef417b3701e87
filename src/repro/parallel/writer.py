"""Streaming front-end for the sharded engine with bounded memory.

:class:`ShardedCompressor` submits every shard at once — fine for
in-memory one-shots, wrong for an unbounded stream. The writer accepts
``write()`` calls of any size, cuts full shards off its buffer, keeps at
most ``max_inflight`` shards in the pool (further ``write()`` calls
block on the oldest result — backpressure), and emits compressed
fragments to the sink strictly in shard order, so the sink receives a
valid ZLib stream incrementally.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro.checksums.adler32 import adler32_combine
from repro.deflate.block_writer import BlockStrategy
from repro.errors import ConfigError
from repro.hw.params import HardwareParams
from repro.lzss.router import RouterConfig
from repro.lzss.tokens import MIN_LOOKAHEAD
from repro.parallel import engine
from repro.parallel.engine import ShardedCompressor, close_stream
from repro.parallel.pool import get_default_pool
from repro.parallel.stats import ParallelStats


class ParallelDeflateWriter:
    """File-like writer compressing shards concurrently, in order.

    Usage::

        with ParallelDeflateWriter(sink, workers=4) as writer:
            for chunk in source:
                writer.write(chunk)

    ``sink`` needs only a ``write(bytes)`` method. The ZLib header is
    written immediately; shard fragments follow as they complete (always
    in submission order); the closing block and Adler-32 trailer are
    written by :meth:`close`.

    Shards run on the persistent warm pool (:mod:`repro.parallel.pool`):
    ``pool=`` injects a caller-owned :class:`~repro.parallel.pool.WarmPool`
    (one pool shared by many writers is the serving-layer shape), and
    with ``pool=None`` the writer borrows the process-wide default pool
    for its worker count. The pool survives :meth:`close` — writers
    never pay worker startup after the first stream, and shard payloads
    ride shared memory instead of the executor pipe.
    """

    def __init__(
        self,
        sink,
        params: Optional[HardwareParams] = None,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        max_inflight: Optional[int] = None,
        carry_window: bool = False,
        strategy: Optional[BlockStrategy] = None,
        traced: Optional[bool] = None,
        tokens_per_block: Optional[int] = None,
        cut_search: Optional[bool] = None,
        sniff: Optional[bool] = None,
        backend: Optional[str] = None,
        refine: Optional[bool] = None,
        profile=None,
        trace_fraction: Optional[float] = None,
        trace_seed: Optional[int] = None,
        router: Optional[RouterConfig] = None,
        pool=None,
    ) -> None:
        self._sink = sink
        #: The resolved settings, task builder and stream header: the
        #: writer adds only buffering, backpressure and in-order output.
        self.compressor = ShardedCompressor(
            params=params,
            workers=workers,
            shard_size=shard_size,
            carry_window=carry_window,
            strategy=strategy,
            traced=traced,
            tokens_per_block=tokens_per_block,
            cut_search=cut_search,
            sniff=sniff,
            backend=backend,
            refine=refine,
            profile=profile,
            trace_fraction=trace_fraction,
            trace_seed=trace_seed,
            router=router,
        )
        self.params = self.compressor.params
        self.workers = self.compressor.workers
        self.shard_size = self.compressor.shard_size
        # Two in-flight shards per worker keeps the pool fed while the
        # parent stitches; the floor of 2 lets even workers=1 overlap
        # buffering with compression.
        self.max_inflight = max_inflight or max(2 * self.workers, 2)
        if self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1: {self.max_inflight}"
            )
        self._buffer = bytearray()
        self._tail = b""  # carried window material (plaintext)
        self._pending = deque()
        # Caller-owned warm pool, or None to borrow the process-wide
        # default lazily on first submit. Never shut down by close():
        # warm pools outlive streams by design.
        self._pool = pool
        self._adler = 1
        self._next_index = 0
        self._total_in = 0
        self._closed = False
        # Set when a shard worker (or the sink) raised: the sink then
        # holds a header-only or truncated stream with no trailer, and
        # that must stay observable — close() re-raises instead of
        # pretending the stream completed.
        self._failed = False
        self._started = time.perf_counter()
        self.stats = ParallelStats(workers=self.workers,
                                   shard_size=self.shard_size)
        self._sink.write(self.compressor.header())

    # -- pipeline ----------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = get_default_pool(self.workers)
        return self._pool

    def _submit(self, shard: bytes) -> None:
        if len(self._pending) >= self.max_inflight:
            self._drain_one()  # backpressure: block on the oldest shard
        compressor = self.compressor
        task = compressor.task(self._next_index, shard, self._tail)
        self._next_index += 1
        self._total_in += len(shard)
        if compressor.carry_window:
            keep = compressor.window_size + MIN_LOOKAHEAD
            self._tail = (self._tail + shard)[-keep:]
        if self.workers == 1:
            self._pending.append(engine._compress_shard(task))
        else:
            self._pending.append(self._ensure_pool().submit_shard(task))
        self.stats.note_inflight(len(self._pending))

    def _drain_one(self) -> None:
        item = self._pending.popleft()
        # Pool futures resolve through shard_result so a dead worker
        # raises ConfigError (feeding the failure latch) instead of
        # hanging or leaking BrokenProcessPool.
        result = (self._pool.shard_result(item)
                  if hasattr(item, "result") else item)
        self._sink.write(result.body)
        self._adler = adler32_combine(self._adler, result.adler,
                                      result.input_bytes)
        self.stats.add_result(result)

    # -- public API --------------------------------------------------

    def write(self, data: bytes) -> int:
        """Buffer ``data``; submit every full shard it completes.

        Blocks (on the oldest in-flight shard) whenever the in-flight
        bound is reached, so memory stays at
        ``O(max_inflight * shard_size)`` regardless of input size.
        """
        if self._failed:
            raise ConfigError(
                "writer failed: the output stream is truncated"
            )
        if self._closed:
            raise ConfigError("writer already closed")
        self._buffer += data
        while len(self._buffer) >= self.shard_size:
            shard = bytes(self._buffer[:self.shard_size])
            del self._buffer[:self.shard_size]
            self._submit(shard)
        return len(data)

    @property
    def total_in(self) -> int:
        """Bytes accepted so far (buffered or submitted)."""
        return self._total_in + len(self._buffer)

    @property
    def failed(self) -> bool:
        """True once a shard worker or sink write raised.

        A failed writer's sink holds a truncated stream (no trailer);
        further :meth:`write`/:meth:`close` calls raise rather than
        silently returning an unfinished stream as complete.
        """
        return self._failed

    def close(self) -> None:
        """Flush the partial tail shard, drain the pool, finish the stream.

        An input ending exactly on a shard boundary leaves an empty tail
        — no empty shard is submitted for it (see the sync-flush
        emission rule in :mod:`repro.deflate.stream`).

        If a shard worker raised, the exception propagates, the writer
        enters the ``failed`` state and the pool is shut down; a repeat
        ``close()`` raises again instead of returning silently — the
        sink's stream is truncated and must not pass for a finished one.
        """
        if self._failed:
            raise ConfigError(
                "writer failed: the output stream is truncated"
            )
        if self._closed:
            return
        try:
            if self._buffer:
                shard = bytes(self._buffer)
                self._buffer.clear()
                self._submit(shard)
            while self._pending:
                self._drain_one()
            self._sink.write(close_stream(self._adler))
            self.stats.wall_s = time.perf_counter() - self._started
            self._closed = True
        except BaseException:
            self._failed = True
            self._abandon_pending()
            raise

    def _abandon_pending(self) -> None:
        """Drop in-flight shards after a failure.

        The warm pool itself stays up (it is shared with other streams
        and future calls); only this stream's outstanding futures are
        cancelled or left to complete into the void.
        """
        while self._pending:
            item = self._pending.popleft()
            if hasattr(item, "cancel"):
                item.cancel()

    def __enter__(self) -> "ParallelDeflateWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # Abandon the stream on error: no (corrupt) trailer is
            # written. The failed state keeps the truncation observable
            # if close() is called later anyway; the warm pool survives
            # for the next stream.
            self._failed = True
            self._abandon_pending()
