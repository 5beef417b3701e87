"""Streaming (chunked) compression with flush semantics.

The paper's compressor processes an unbounded stream "on-the-fly without
separate buffering and compressing stages" (§IV). This module gives the
software library the same capability: a :class:`ZLibStreamCompressor`
accepts input in arbitrary chunks, emits Deflate blocks incrementally,
and supports ZLib's ``Z_SYNC_FLUSH`` convention (an empty stored block
that byte-aligns the stream) so a log reader can decode everything
written so far — the property embedded loggers need for crash-safe logs.

Writes below :data:`STREAM_BLOCK_BYTES` are held, as zlib holds input
under ``Z_NO_FLUSH``: the compressor appends them to an input buffer and
deflates the buffer once it reaches the threshold, or at
:meth:`~ZLibStreamCompressor.flush_sync` or
:meth:`~ZLibStreamCompressor.finish`. A stream of 100 B log lines so
hands the tokenizer each byte about once instead of re-hashing the
carried window on every line, and closes one Deflate block per ~4 KiB
instead of one per line. Only ``flush_sync()`` and ``finish()`` bound
what a reader can decode; a write that returns ``b""`` is held, not
lost. A write of at least the threshold on an empty buffer fills it on
its own and is deflated in the same call, so writes of shard size (or
any cadence that flushes after each write) give the same bytes as
deflating every write alone.

Matches continue *across* chunk boundaries: the compressor keeps the
sliding window's worth of history, so chunked output is only marginally
larger than one-shot output (block framing + flush markers).

:func:`deflate_chunk` is the per-chunk body every compressing entry
point runs on plaintext: stored strategy or stored-bypass sniff,
trace-sample decision, tokenize against the history, then
FIXED/DYNAMIC/ADAPTIVE emission. Each entry point only frames it — this
stream compressor adds the ZLib header, sync markers and trailer; the
sharded engine's shards (:func:`~repro.parallel.engine.
compress_shard_body`) add a sync marker (:func:`write_sync_marker`);
the one-shot containers (:func:`repro.api.compress`, gzip, preset
dictionaries, transcode) run it once over the whole input with the last
block final (:func:`deflate_raw`) between their header and trailer.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

from repro.bitio.writer import BitWriter
from repro.checksums.adler32 import Adler32
from repro.deflate.block_writer import (
    BlockStrategy,
    write_block_header,
    write_fixed_block,
    write_stored_block,
)
from repro.deflate.dynamic import write_dynamic_block
from repro.deflate.splitter import RefineConfig, write_adaptive_blocks
from repro.deflate.zlib_container import make_header
from repro.errors import ConfigError
from repro.estimator.calibration import (
    CalibrationLog,
    CalibrationPoint,
    point_from_trace,
)
from repro.lzss.compressor import LZSSCompressor
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy
from repro.lzss.router import RoutingDecision, probe_shard, route_shard
from repro.lzss.tokens import MIN_LOOKAHEAD, TokenArray, trim_prefix_tokens

if TYPE_CHECKING:  # repro.api resolves through deflate modules
    from repro.api import ResolvedCompression

#: Held input at which :class:`ZLibStreamCompressor` deflates its buffer.
#: Each deflate re-tokenizes up to ``window_size + MIN_LOOKAHEAD`` bytes of
#: history, so holding smaller writes bounds the tokenizer's work per new
#: byte. At most 8192 so 8 KiB writes are never held.
STREAM_BLOCK_BYTES = 4096


def tokenize_chunk_with_result(
    lzss: LZSSCompressor,
    history: bytes,
    chunk: bytes,
    backend: Optional[str] = None,
):
    """Tokenise ``chunk`` with ``history`` as match source material.

    Re-runs the matcher over ``history + chunk`` and keeps only the
    tokens that start inside the new chunk. Token boundaries from any
    previous run over the history are irrelevant because the history was
    already emitted; it serves purely as the dictionary ring's contents.
    A match straddling the boundary is re-emitted as literals (boundary
    tokens cannot be split into valid shorter matches safely).

    ``history`` longer than the matcher can reach is capped here — the
    one place — so call sites never need to pre-trim; anything beyond
    ``window_size + MIN_LOOKAHEAD`` bytes back is unreachable by
    construction (ZLib's MAX_DIST).

    The tokens covering the history are dropped by
    :func:`~repro.lzss.tokens.trim_prefix_tokens` — the one place that
    rule lives, shared with the batch engine's dictionary trim.

    Returns ``(tokens, result)`` — the chunk's tokens plus the full
    :class:`~repro.lzss.compressor.CompressResult` of the underlying
    pass, whose ``trace`` (on the ``traced`` backend) feeds the
    traced-sampling telemetry. ``backend`` overrides the compressor's
    configured backend for this call only (the traced-sampling seam).
    Most callers want :func:`deflate_chunk`.
    """
    keep = lzss.window_size + MIN_LOOKAHEAD
    assert keep > 0
    if len(history) > keep:
        history = history[-keep:]
    data = history + chunk
    result = lzss.compress(data, backend=backend)
    if not history:
        return result.tokens, result
    return trim_prefix_tokens(result.tokens, data, len(history)), result


def write_sync_marker(writer: BitWriter) -> None:
    """ZLib's ``Z_SYNC_FLUSH`` marker: an empty, byte-aligned stored block.

    Everything written before it becomes decodable by any inflater fed
    the bytes so far, and the stream is byte-aligned after it, so
    fragments ending in a marker concatenate without bit-shifting.
    """
    write_block_header(writer, 0b00, final=False)
    writer.align_to_byte()
    writer.write_bits(0, 16)
    writer.write_bits(0xFFFF, 16)


def deflate_chunk(
    writer: BitWriter,
    lzss: LZSSCompressor,
    history: bytes,
    chunk: bytes,
    config: ResolvedCompression,
    *,
    index: int = 0,
    final: bool = False,
) -> Tuple[RoutingDecision, Optional[CalibrationPoint]]:
    """Compress one chunk of plaintext into Deflate blocks.

    The one body every compressing entry point runs on plaintext — the
    one-shot containers (:func:`deflate_raw`), stream writes and shards:

    1. **stored** (``config.strategy`` STORED, or ADAPTIVE with
       ``config.sniff`` when the probe deems the chunk incompressible):
       the chunk is written as stored blocks and never tokenized. Stored
       blocks reference nothing, so ``history`` is ignored, and the
       caller's next history is plaintext either way;
    2. **decide** (:func:`~repro.lzss.router.route_shard`): the
       backend ``lzss`` was configured with, as resolved by the
       registry, or ``traced`` when the traced-sampling policy in
       ``config.router`` picks chunk ``index``;
    3. **tokenize** against ``history`` with ``lzss``;
    4. **emit** under ``config.strategy``: one fixed or dynamic block,
       or the adaptive best-of-three splitter (with the cut search and
       the refine loop as configured; stored payloads slice ``chunk``).

    ``lzss`` must tokenize with ``config``'s window, hash and policy;
    the caller keeps it so a stream reuses one compressor. The last
    block is final when ``final`` is set (one-shot streams); otherwise
    the run can sit inside a larger stream. Returns the chunk's
    :class:`~repro.lzss.router.RoutingDecision` and the
    :class:`~repro.estimator.calibration.CalibrationPoint` of a
    traced-sample chunk (``None`` otherwise).
    """
    strategy = config.strategy
    probe = None
    if strategy is BlockStrategy.ADAPTIVE and config.sniff:
        probe = probe_shard(chunk)
    if strategy is BlockStrategy.STORED or (
            probe is not None and probe.incompressible):
        write_stored_block(writer, chunk, final=final)
        return RoutingDecision(
            backend="stored", requested=lzss.backend,
            reason="stored-strategy" if probe is None else "stored-bypass",
            probe=probe,
        ), None
    decision = route_shard(
        chunk, backend=lzss.backend, policy=lzss.policy,
        config=config.router, index=index, probe=probe,
    )
    started = time.perf_counter()
    tokens, result = tokenize_chunk_with_result(
        lzss, history, chunk, backend=decision.backend,
    )
    telemetry = None
    if decision.traced_sample and result.trace is not None:
        telemetry = point_from_trace(
            index, result.trace, time.perf_counter() - started,
            policy=lzss.policy,
        )
    if strategy is BlockStrategy.FIXED:
        write_fixed_block(writer, tokens, final=final)
    elif strategy is BlockStrategy.ADAPTIVE:
        # Refine re-parses searched blocks; blind cuts carry no plan.
        refine = (
            RefineConfig(window_size=config.window_size)
            if config.refine and config.cut_search else None
        )
        write_adaptive_blocks(
            writer, tokens, chunk, final=final,
            tokens_per_block=config.tokens_per_block,
            cut_search=config.cut_search, refine=refine,
        )
    else:
        write_dynamic_block(writer, tokens, final=final)
    return decision, telemetry


def deflate_raw(
    data: bytes, config: ResolvedCompression, history: bytes = b""
) -> bytes:
    """One finished raw Deflate stream for ``data`` under ``config``.

    The body of every one-shot container (ZLib, FDICT ZLib, gzip):
    :func:`deflate_chunk` over the whole input with its last block
    final. ``history`` is the preset dictionary the decoder's window is
    primed with (already clamped to the window), or empty.
    """
    writer = BitWriter()
    deflate_chunk(writer, config.tokenizer(), history, data, config,
                  final=True)
    return writer.flush()


class ZLibStreamCompressor:
    """Incremental ZLib-compatible compressor.

    Usage::

        stream = ZLibStreamCompressor()
        out = stream.compress(chunk1)
        out += stream.flush_sync()     # decodable prefix boundary
        out += stream.compress(chunk2)
        out += stream.finish()

    The concatenated output is a valid ZLib stream decoding to
    ``chunk1 + chunk2``.

    Writes shorter than :data:`STREAM_BLOCK_BYTES` are held in an input
    buffer and deflated together by the write that brings the buffer to
    the threshold, by :meth:`flush_sync` or by :meth:`finish` (zlib's
    ``Z_NO_FLUSH`` contract); everything written is decodable only up
    to the last ``flush_sync()``. Each deflate runs one
    :func:`deflate_chunk`, which is also the traced-sampling unit.
    """

    def __init__(
        self,
        window_size: Optional[int] = None,
        hash_spec: Optional[HashSpec] = None,
        policy: Optional[MatchPolicy] = None,
        strategy: Optional[BlockStrategy] = None,
        traced: Optional[bool] = None,
        tokens_per_block: Optional[int] = None,
        cut_search: Optional[bool] = None,
        sniff: Optional[bool] = None,
        backend: Optional[str] = None,
        refine: Optional[bool] = None,
        trace_fraction: Optional[float] = None,
        trace_seed: Optional[int] = None,
        router=None,
        profile=None,
    ) -> None:
        from repro.api import CompressRequest, reject_legacy_trace

        reject_legacy_trace("traced", traced)
        resolved = CompressRequest(
            profile=profile,
            window_size=window_size,
            hash_spec=hash_spec,
            policy=policy,
            strategy=strategy,
            tokens_per_block=tokens_per_block,
            cut_search=cut_search,
            sniff=sniff,
            backend=backend,
            refine=refine,
            trace_fraction=trace_fraction,
            trace_seed=trace_seed,
            router=router,
        ).resolve(backend="fast")
        if resolved.strategy is BlockStrategy.STORED:
            raise ConfigError(
                "use write_stored_block directly for stored streams"
            )
        #: The resolved settings every chunk compresses under. Chunks
        #: are also the traced-sampling unit: the router may divert
        #: chunks through "traced" for telemetry (bytes are identical).
        self.config = resolved
        self.window_size = resolved.window_size
        self.backend = resolved.backend
        self.refine = resolved.refine
        #: Traced-sample telemetry points (see repro.estimator.calibration).
        self.calibration = CalibrationLog()
        self._lzss = resolved.tokenizer()
        self._chunk_index = 0
        self._writer = BitWriter()
        self._adler = Adler32()
        # History kept so matches can reach back across chunk borders.
        self._history = b""
        # Writes not yet deflated; always shorter than STREAM_BLOCK_BYTES
        # between calls.
        self._held = bytearray()
        self._finished = False
        self._started = False
        self._total_in = 0
        # Bytes written (held ones included) since the last sync point
        # (or stream start).
        # flush_sync() is a no-op while this is zero: the previous
        # marker already byte-aligned the stream, so another empty
        # stored block would add 5 bytes of pure overhead — the
        # empty-final-shard case a sharded writer hits whenever the
        # input ends exactly on a shard boundary.
        self._since_sync = 0

    def _header_once(self) -> None:
        if not self._started:
            self._writer.write_bytes(make_header(self.window_size))
            self._started = True

    def compress(self, chunk: bytes) -> bytes:
        """Take one write; returns whatever output became final.

        The write is appended to the held bytes. While they stay under
        :data:`STREAM_BLOCK_BYTES` it returns ``b""`` (once the header
        is out); the write that reaches the threshold deflates them all,
        itself included. Held bytes count in :attr:`total_in` but are
        not decodable until :meth:`flush_sync` or :meth:`finish`.
        """
        if self._finished:
            raise ConfigError("stream already finished")
        self._header_once()
        chunk = bytes(chunk)
        self._total_in += len(chunk)
        self._since_sync += len(chunk)
        self._held += chunk
        if len(self._held) >= STREAM_BLOCK_BYTES:
            self._deflate_held()
        return self._drain()

    def _deflate_held(self) -> None:
        """Run one :func:`deflate_chunk` over the held bytes, if any."""
        if not self._held:
            return
        chunk = bytes(self._held)
        self._held.clear()
        self._adler.update(chunk)
        index = self._chunk_index
        self._chunk_index += 1
        _, telemetry = deflate_chunk(
            self._writer, self._lzss, self._history, chunk, self.config,
            index=index,
        )
        if telemetry is not None:
            self.calibration.add(telemetry)
        keep = self.window_size + MIN_LOOKAHEAD
        self._history = (self._history + chunk)[-keep:]

    def flush_sync(self) -> bytes:
        """ZLib Z_SYNC_FLUSH: byte-align with an empty stored block.

        Held writes are deflated first, so everything written so far
        becomes decodable by any inflater fed the bytes so far plus this
        marker.

        Calling this when nothing was compressed since the previous
        sync point (or since the start of the stream) emits no marker:
        the stream is already byte-aligned there, so the empty stored
        block would be pure overhead. This is the empty-final-shard
        case — a chunked writer whose input ends exactly on a shard
        boundary flushes once more before finishing.
        """
        if self._finished:
            raise ConfigError("stream already finished")
        self._header_once()
        if self._since_sync == 0:
            return self._drain()
        self._deflate_held()
        self._since_sync = 0
        write_sync_marker(self._writer)
        return self._drain()

    def finish(self) -> bytes:
        """Terminate the stream: final block + Adler-32 trailer."""
        if self._finished:
            raise ConfigError("stream already finished")
        self._header_once()
        self._finished = True
        self._deflate_held()
        # An empty final block closes the Deflate layer.
        write_fixed_block(self._writer, TokenArray(), final=True)
        self._writer.align_to_byte()
        self._writer.write_bytes(self._adler.digest())
        return self._drain()

    @property
    def total_in(self) -> int:
        """Bytes consumed so far."""
        return self._total_in

    def _drain(self) -> bytes:
        return self._writer.take_bytes()


def decompress_prefix(data: bytes) -> bytes:
    """Decode as much of a (possibly truncated) ZLib stream as possible.

    This is the crash-recovery read path for sync-flushed logs: decode
    block by block and return everything up to the last *complete*
    block, instead of raising on the truncated tail. A stream cut at a
    :meth:`ZLibStreamCompressor.flush_sync` boundary therefore yields
    exactly the data written before the flush.
    """
    from repro.bitio.reader import BitReader
    from repro.deflate.inflate import (
        _fixed_decoders,
        _inflate_compressed,
        _inflate_stored,
        _read_dynamic_tables,
    )
    from repro.deflate.zlib_container import parse_header_info
    from repro.errors import FormatError

    header = parse_header_info(data)
    reader = BitReader(data[header.size:])
    out = bytearray()
    good = 0
    try:
        while True:
            final = reader.read_bits(1)
            btype = reader.read_bits(2)
            if btype == 0b00:
                _inflate_stored(reader, out)
            elif btype == 0b01:
                litlen, dist = _fixed_decoders()
                _inflate_compressed(reader, out, litlen, dist, None)
            elif btype == 0b10:
                litlen, dist = _read_dynamic_tables(reader)
                _inflate_compressed(reader, out, litlen, dist, None)
            else:
                break
            good = len(out)
            if final:
                break
    except FormatError:
        pass
    return bytes(out[:good])


def compress_chunks(
    chunks,
    window_size: int = 4096,
    strategy: BlockStrategy = BlockStrategy.FIXED,
    sync_every_chunk: bool = False,
) -> bytes:
    """One-shot helper: compress an iterable of chunks incrementally."""
    stream = ZLibStreamCompressor(
        window_size=window_size, strategy=strategy
    )
    out = bytearray()
    for chunk in chunks:
        out += stream.compress(chunk)
        if sync_every_chunk:
            out += stream.flush_sync()
    out += stream.finish()
    return bytes(out)
