"""The asyncio compression service: zlib/gzip offload over one warm pool.

The deployment shape the warm pool exists for: a long-lived process
accepts connections, each carrying one compression stream (LZR1
framing, :mod:`repro.serve.protocol`), and every connection's shards
run on the **same** :class:`~repro.parallel.pool.WarmPool` — workers
fork once at startup (or on the first stream) and are shared by all
connections for the life of the server, with shard payloads riding
shared memory. Concurrency is per-connection bounded (the session's
in-flight latch) and globally bounded by the pool's worker count; the
event loop only ever shuttles bytes and awaits futures.

A crashed shard worker surfaces as a truncated response (no end frame),
never a hang: the pool translates the breakage to
:class:`~repro.errors.ConfigError`, the session latches failed, the
connection closes, and the pool respawns workers for the next stream.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.errors import ConfigError, ReproError, ServeProtocolError
from repro.parallel.engine import ShardedCompressor
from repro.parallel.pool import WarmPool, get_default_pool
from repro.serve.pipeline import StreamSession
from repro.serve.protocol import (
    END_FRAME,
    encode_frame,
    read_frame,
    read_stream_header,
)
from repro.serve.stats import ServeStats

#: Serving shard size: 256 KiB. Small enough that typical request
#: bodies still fan out across workers, large enough that per-shard
#: framing and pool dispatch stay noise.
DEFAULT_SERVE_SHARD_SIZE = 256 * 1024


class CompressionService:
    """A shared-pool compression server (one stream per connection).

    ``pool=`` injects a caller-owned warm pool; by default the service
    borrows the process-wide default pool for ``workers``. All other
    keyword arguments configure the per-stream compression exactly like
    :class:`~repro.parallel.engine.ShardedCompressor` (profiles,
    strategy, backend, ...); ``carry_window`` defaults to True
    here — a served stream is one document, so cross-shard matches are
    pure ratio win.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: Optional[WarmPool] = None,
        shard_size: Optional[int] = None,
        max_inflight: Optional[int] = None,
        carry_window: bool = True,
        **config_kwargs,
    ) -> None:
        self.pool = pool or get_default_pool(workers)
        self.config = ShardedCompressor(
            workers=self.pool.workers,
            shard_size=(DEFAULT_SERVE_SHARD_SIZE if shard_size is None
                        else shard_size),
            carry_window=carry_window,
            pool=self.pool,
            **config_kwargs,
        )
        self.max_inflight = max_inflight
        self.stats = ServeStats()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- connection handling -----------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one LZR1 stream, then close the connection."""
        self.stats.note_open()
        session: Optional[StreamSession] = None

        async def emit(data: bytes) -> None:
            writer.write(encode_frame(data))
            # Transport backpressure: a slow reader slows its own
            # stream (and only its own) instead of growing the buffer.
            await writer.drain()

        try:
            fmt = await read_stream_header(reader)
            session = StreamSession(
                self.config, self.pool, emit, fmt=fmt,
                max_inflight=self.max_inflight,
            )
            while True:
                payload = await read_frame(reader)
                if payload == b"":
                    break
                await session.feed(payload)
            pstats = await session.finish()
            writer.write(END_FRAME
                         + session.total_in.to_bytes(8, "big"))
            await writer.drain()
            self.stats.note_stream(pstats, pstats.wall_s,
                                   session.total_in, session.total_out)
        except ServeProtocolError:
            self.stats.protocol_errors += 1
        except ConfigError:
            # Shard worker died (or config rejected mid-stream): the
            # client sees a truncated response — no end frame — so the
            # failure is observable on the wire, and the pool respawns
            # for the next connection.
            self.stats.worker_failures += 1
        except (ConnectionError, asyncio.IncompleteReadError,
                ReproError):
            self.stats.protocol_errors += 1
        finally:
            if session is not None and not session.failed:
                session.abandon()
            self.stats.note_close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle ---------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and start accepting connections; returns the server.

        ``port=0`` binds an ephemeral port — read it back from
        :attr:`port` (the load generator and tests do).
        """
        self._server = await asyncio.start_server(
            self.handle_connection, host, port
        )
        return self._server

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ConfigError("service not started")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting and close the listener (pool stays up)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def serve(
    host: str = "127.0.0.1",
    port: int = 9123,
    workers: Optional[int] = None,
    **kwargs,
) -> None:
    """Run a compression service until cancelled (the CLI entry path)."""
    service = CompressionService(workers=workers, **kwargs)
    server = await service.start(host, port)
    async with server:
        await server.serve_forever()
