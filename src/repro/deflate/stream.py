"""Streaming (chunked) compression with flush semantics.

The paper's compressor processes an unbounded stream "on-the-fly without
separate buffering and compressing stages" (§IV). This module gives the
software library the same capability: a :class:`ZLibStreamCompressor`
accepts input in arbitrary chunks, emits Deflate blocks incrementally,
and supports ZLib's ``Z_SYNC_FLUSH`` convention (an empty stored block
that byte-aligns the stream) so a log reader can decode everything
written so far — the property embedded loggers need for crash-safe logs.

Matches continue *across* chunk boundaries: the compressor keeps the
sliding window's worth of history, so chunked output is only marginally
larger than one-shot output (block framing + flush markers).

:func:`deflate_chunk` is the per-chunk body both carried-history entry
points run — this stream compressor and the sharded engine's
:func:`~repro.parallel.engine.compress_shard_body`: stored-bypass
sniff, trace-sample decision, tokenize against the history, then
FIXED/DYNAMIC/ADAPTIVE emission. The shard path only adds its sync
marker (:func:`write_sync_marker`).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.bitio.writer import BitWriter
from repro.checksums.adler32 import Adler32
from repro.deflate.block_writer import (
    BlockStrategy,
    write_block_header,
    write_fixed_block,
    write_stored_block,
)
from repro.deflate.dynamic import write_dynamic_block
from repro.deflate.splitter import (
    DEFAULT_TOKENS_PER_BLOCK,
    RefineConfig,
    write_adaptive_blocks,
)
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
from repro.lzss.router import (
    RouterConfig,
    RoutingDecision,
    probe_shard,
    route_shard,
)
from repro.lzss.tokens import MIN_LOOKAHEAD, TokenArray


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

    The split point is found by skip-scanning only the history-prefix
    tokens with a running position; the chunk's tokens — the bulk on any
    real chunk size — transfer in two C-level ``array.extend`` calls
    instead of a Python-level append per token.

    Returns ``(tokens, result)`` — the chunk's tokens plus the full
    :class:`~repro.lzss.compressor.CompressResult` of the underlying
    pass, whose ``trace`` (on the ``traced`` backend) feeds the
    traced-sampling telemetry. ``backend`` overrides the compressor's
    configured backend for this call only (the traced-sampling seam).

    Shared by :class:`ZLibStreamCompressor` (chunked streaming) and
    :mod:`repro.parallel` (carried-window shard compression); most
    callers want the :func:`tokenize_chunk` wrapper.
    """
    keep = lzss.window_size + MIN_LOOKAHEAD
    assert keep > 0
    if len(history) > keep:
        history = history[-keep:]
    base = len(history)
    data = history + chunk
    result = lzss.compress(data, backend=backend)
    src_lengths = result.tokens.lengths
    src_values = result.tokens.values
    if base == 0:
        return result.tokens, result
    tokens = TokenArray()
    # Skip tokens fully inside the history: O(tokens in history), which
    # is bounded by `keep` bytes regardless of chunk size.
    index = 0
    count = len(src_lengths)
    pos = 0
    while index < count:
        step = src_lengths[index] or 1
        if pos + step > base:
            break
        pos += step
        index += 1
    if index < count and pos < base:
        # A match straddling the boundary: its chunk-side bytes become
        # literals (it cannot be split into valid shorter matches).
        for q in range(base, pos + (src_lengths[index] or 1)):
            tokens.append_literal(data[q])
        index += 1
    tokens.lengths.extend(src_lengths[index:])
    tokens.values.extend(src_values[index:])
    return tokens, result


def tokenize_chunk(
    lzss: LZSSCompressor,
    history: bytes,
    chunk: bytes,
    backend: Optional[str] = None,
) -> TokenArray:
    """Tokenise ``chunk`` against ``history`` (tokens only).

    See :func:`tokenize_chunk_with_result` for the semantics; this
    wrapper drops the underlying :class:`CompressResult`.
    """
    return tokenize_chunk_with_result(lzss, history, chunk, backend)[0]


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
    *,
    strategy: BlockStrategy,
    router: Optional[RouterConfig] = None,
    index: int = 0,
    sniff: bool = True,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
    cut_search: bool = True,
    refine: Optional[RefineConfig] = None,
) -> Tuple[RoutingDecision, Optional[CalibrationPoint]]:
    """Compress one non-empty chunk into non-final Deflate blocks.

    The one per-chunk body of the carried-history entry points:

    1. **sniff** (ADAPTIVE with ``sniff``): a chunk the probe deems
       incompressible is written as stored blocks and never tokenized.
       The bypass ignores ``history`` (stored blocks reference nothing),
       and the caller's next history is plaintext either way;
    2. **decide** (:func:`~repro.lzss.router.route_shard`): the
       backend ``lzss`` was configured with, as resolved by the
       registry, or ``traced`` when the traced-sampling policy in
       ``router`` picks chunk ``index``;
    3. **tokenize** against ``history`` with ``lzss``;
    4. **emit** under ``strategy``: one fixed or dynamic block, or the
       adaptive best-of-three splitter (with the cut search and the
       ``refine`` loop as configured; stored payloads slice ``chunk``).

    Returns the chunk's :class:`~repro.lzss.router.RoutingDecision` and
    the :class:`~repro.estimator.calibration.CalibrationPoint` of a
    traced-sample chunk (``None`` otherwise).
    """
    probe = None
    if strategy is BlockStrategy.ADAPTIVE and sniff:
        probe = probe_shard(chunk)
        if probe.incompressible:
            write_stored_block(writer, chunk, final=False)
            return RoutingDecision(
                backend="stored", requested=lzss.backend,
                reason="stored-bypass", probe=probe,
            ), None
    decision = route_shard(
        chunk, backend=lzss.backend, policy=lzss.policy, config=router,
        index=index, probe=probe,
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
    if strategy is BlockStrategy.FIXED or len(tokens) == 0:
        write_fixed_block(writer, tokens, final=False)
    elif strategy is BlockStrategy.ADAPTIVE:
        write_adaptive_blocks(
            writer, tokens, chunk, final=False,
            tokens_per_block=tokens_per_block,
            cut_search=cut_search, refine=refine,
        )
    else:
        write_dynamic_block(writer, tokens, final=False)
    return decision, telemetry


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
        self.window_size = resolved.window_size
        self.strategy = resolved.strategy
        self.tokens_per_block = resolved.tokens_per_block
        self.cut_search = resolved.cut_search
        self.sniff = resolved.sniff
        self.backend = resolved.backend
        # Refine applies per chunk, inside the adaptive emission, and
        # only when the cut search carries per-block plans to refine.
        self.refine = (
            RefineConfig(window_size=resolved.window_size)
            if resolved.refine and resolved.cut_search else None
        )
        # Chunks are this stream's sampling unit: the policy may divert
        # chunks through "traced" for telemetry. Bytes are identical
        # either way.
        self.router = resolved.router
        #: Traced-sample telemetry points (see repro.estimator.calibration).
        self.calibration = CalibrationLog()
        # Streams default to the trace-free production tokenizer; pass
        # backend="traced" only when the per-token record is needed.
        self._lzss = LZSSCompressor(
            resolved.window_size, resolved.hash_spec, resolved.policy,
            backend=resolved.backend,
        )
        self._chunk_index = 0
        self._writer = BitWriter()
        self._adler = Adler32()
        # History kept so matches can reach back across chunk borders.
        self._history = b""
        self._finished = False
        self._started = False
        self._total_in = 0
        # Bytes compressed since the last sync point (or stream start).
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
        """Compress one chunk; returns whatever output became final."""
        if self._finished:
            raise ConfigError("stream already finished")
        self._header_once()
        chunk = bytes(chunk)
        if not chunk:
            return self._drain()
        self._adler.update(chunk)
        self._total_in += len(chunk)
        self._since_sync += len(chunk)

        index = self._chunk_index
        self._chunk_index += 1
        _, telemetry = deflate_chunk(
            self._writer, self._lzss, self._history, chunk,
            strategy=self.strategy, router=self.router, index=index,
            sniff=self.sniff,
            tokens_per_block=self.tokens_per_block,
            cut_search=self.cut_search, refine=self.refine,
        )
        if telemetry is not None:
            self.calibration.add(telemetry)
        keep = self.window_size + MIN_LOOKAHEAD
        self._history = (self._history + chunk)[-keep:]
        return self._drain()

    def flush_sync(self) -> bytes:
        """ZLib Z_SYNC_FLUSH: byte-align with an empty stored block.

        Everything emitted so far becomes independently decodable (up
        to this point) by any inflater fed the bytes so far plus this
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
        self._since_sync = 0
        write_sync_marker(self._writer)
        return self._drain()

    def finish(self) -> bytes:
        """Terminate the stream: final block + Adler-32 trailer."""
        if self._finished:
            raise ConfigError("stream already finished")
        self._header_once()
        self._finished = True
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
