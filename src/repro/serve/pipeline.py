"""Async shard pipeline: one compression stream over the warm pool.

:class:`StreamSession` is the event-loop generalisation of
:class:`repro.parallel.writer.ParallelDeflateWriter`'s backpressure
latch. Input bytes are buffered until a full shard is cut; shards go to
the shared :class:`~repro.parallel.pool.WarmPool` (payloads ride shared
memory); at most ``max_inflight`` shards are outstanding per session —
further ``feed()`` calls *await* the oldest result instead of blocking
a thread, so hundreds of connections can share one pool with each
connection's memory bounded at ``O(max_inflight * shard_size)``.

Completed fragments are emitted strictly in shard order through the
session's async ``emit`` callable, so the sink receives a valid stream
incrementally. Two framings share the pipeline:

* ``zlib`` — ZLib header (FDICT when the compressor has a preset
  dictionary), sync-flushed shard fragments, final empty block +
  Adler-32 stitched with
  :func:`repro.checksums.adler32.adler32_combine`. Byte-identical to
  the compressor's own one-shot ``compress()`` and, without a
  dictionary, to :class:`repro.deflate.stream.ZLibStreamCompressor`
  fed shard-size chunks with a ``flush_sync()`` between each (the
  differential tests pin both).
* ``gzip`` — gzip member header, the *same* Deflate fragments, and a
  CRC-32 + ISIZE trailer stitched with
  :func:`repro.checksums.crc32.crc32_combine`; shard workers compute
  per-shard CRCs (``want_crc``) so the parent never re-reads the input.

A shard worker failure latches the session (mirroring the writer's
``failed`` state): the emitted stream is truncated, stays observably
unfinished (no trailer, no end frame on the wire), and later calls
raise instead of pretending the stream completed.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Awaitable, Callable, Optional

from repro.bitio.writer import BitWriter
from repro.checksums.adler32 import adler32_combine
from repro.checksums.crc32 import crc32_combine
from repro.deflate.block_writer import write_fixed_block
from repro.deflate.gzip_container import member_header, member_trailer
from repro.errors import ConfigError
from repro.lzss.tokens import MIN_LOOKAHEAD, TokenArray
from repro.parallel.engine import ShardedCompressor, close_stream
from repro.parallel.pool import WarmPool
from repro.parallel.stats import ParallelStats
from repro.serve.protocol import FORMATS

Emit = Callable[[bytes], Awaitable[None]]


class StreamSession:
    """One compression stream: feed plaintext, emit framed compressed bytes.

    ``config`` is a :class:`~repro.parallel.engine.ShardedCompressor`
    used as the stream's settings, task builder and header (every
    resolved knob, shard size, carry-window, preset dictionary) — the
    session never calls its one-shot ``compress()``. gzip streams
    cannot carry a preset dictionary (no FDICT in RFC 1952) and raise
    :class:`~repro.errors.ConfigError`. ``pool`` is the shared
    warm pool; ``emit`` is an async callable receiving compressed byte
    runs in order (header first, trailer last).
    """

    def __init__(
        self,
        config: ShardedCompressor,
        pool: WarmPool,
        emit: Emit,
        fmt: str = "zlib",
        max_inflight: Optional[int] = None,
    ) -> None:
        if fmt not in FORMATS:
            raise ConfigError(
                f"unknown stream format {fmt!r} (want one of "
                f"{sorted(FORMATS)})"
            )
        if fmt == "gzip" and config.dictionary:
            raise ConfigError(
                "gzip has no preset-dictionary (FDICT) framing; "
                "serve zdict streams as zlib"
            )
        self._config = config
        self._pool = pool
        self._emit = emit
        self.format = fmt
        # Same sizing rule as the writer: two in-flight shards per
        # worker keeps the pool fed while fragments stitch; floor 2.
        self.max_inflight = max_inflight or max(2 * pool.workers, 2)
        if self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1: {self.max_inflight}"
            )
        self._buffer = bytearray()
        self._tail = b""  # carried window material (plaintext)
        self._pending: deque = deque()
        self._adler = 1
        self._crc = 0
        self._next_index = 0
        self._total_in = 0
        self._total_out = 0
        self._started = time.perf_counter()
        self._header_sent = False
        self._finished = False
        self._failed = False
        self.stats = ParallelStats(workers=pool.workers,
                                   shard_size=config.shard_size)

    # -- plumbing ----------------------------------------------------

    async def _send(self, data: bytes) -> None:
        self._total_out += len(data)
        await self._emit(data)

    async def _send_header(self) -> None:
        if self._header_sent:
            return
        self._header_sent = True
        if self.format == "gzip":
            await self._send(member_header())
        else:
            await self._send(self._config.header())

    async def _submit(self, shard: bytes) -> None:
        # The writer's backpressure latch, await-shaped: block this
        # session (only) on its oldest shard, not the event loop.
        while len(self._pending) >= self.max_inflight:
            await self._drain_one()
        cfg = self._config
        task = cfg.task(self._next_index, shard, self._tail,
                        want_crc=(self.format == "gzip"))
        self._next_index += 1
        self._total_in += len(shard)
        if cfg.carry_window:
            keep = cfg.window_size + MIN_LOOKAHEAD
            self._tail = (self._tail + shard)[-keep:]
        self._pending.append(self._pool.submit_shard(task))
        self.stats.note_inflight(len(self._pending))

    async def _drain_one(self) -> None:
        future = self._pending.popleft()
        try:
            await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            self._pending.appendleft(future)
            raise
        except BaseException:
            # Retrieval below re-raises with pool breakage translated
            # to ConfigError (and the broken executor discarded).
            pass
        result = self._pool.shard_result(future)
        await self._send(result.body)
        self._adler = adler32_combine(self._adler, result.adler,
                                      result.input_bytes)
        if self.format == "gzip":
            self._crc = crc32_combine(self._crc, result.crc,
                                      result.input_bytes)
        self.stats.add_result(result)

    def _guard(self) -> None:
        if self._failed:
            raise ConfigError(
                "stream failed: the emitted output is truncated"
            )
        if self._finished:
            raise ConfigError("stream already finished")

    # -- public API --------------------------------------------------

    @property
    def total_in(self) -> int:
        """Plaintext bytes accepted so far (buffered or submitted)."""
        return self._total_in + len(self._buffer)

    @property
    def total_out(self) -> int:
        """Compressed bytes emitted so far (framing included)."""
        return self._total_out

    @property
    def failed(self) -> bool:
        """True once a shard worker or the emit sink raised."""
        return self._failed

    async def feed(self, data: bytes) -> None:
        """Accept plaintext; submit every full shard it completes.

        Awaits (on the oldest in-flight shard, then on the sink's own
        backpressure) whenever the in-flight bound is hit.
        """
        self._guard()
        try:
            await self._send_header()
            self._buffer += data
            size = self._config.shard_size
            while len(self._buffer) >= size:
                shard = bytes(self._buffer[:size])
                del self._buffer[:size]
                await self._submit(shard)
        except asyncio.CancelledError:
            self.abandon()
            raise
        except BaseException:
            self._failed = True
            self.abandon()
            raise

    async def finish(self) -> ParallelStats:
        """Flush the tail shard, drain the pipeline, emit the trailer."""
        self._guard()
        try:
            await self._send_header()
            if self._buffer:
                shard = bytes(self._buffer)
                self._buffer.clear()
                await self._submit(shard)
            while self._pending:
                await self._drain_one()
            if self.format == "gzip":
                writer = BitWriter()
                write_fixed_block(writer, TokenArray(), final=True)
                await self._send(
                    writer.flush()
                    + member_trailer(self._crc, self._total_in)
                )
            else:
                await self._send(close_stream(self._adler))
        except asyncio.CancelledError:
            self.abandon()
            raise
        except BaseException:
            self._failed = True
            self.abandon()
            raise
        self._finished = True
        self.stats.wall_s = time.perf_counter() - self._started
        return self.stats

    def abandon(self) -> None:
        """Drop in-flight shards (connection gone or stream failed).

        The shared pool stays up; only this session's outstanding
        futures are cancelled or left to complete into the void (their
        done-callbacks still release the shared-memory segments).
        """
        while self._pending:
            self._pending.popleft().cancel()
