"""pigz-style sharded parallel compression into one ZLib stream.

The paper's hardware sustains its throughput by pipelining a single
LZSS core; the software library scales the other axis — *data
parallelism*. The input is cut into fixed-size shards, each shard is
compressed independently on a process pool (CPython's GIL rules out
threads for this CPU-bound loop, same reasoning as
:mod:`repro.estimator.parallel`), and the results are stitched into a
**single valid ZLib stream** that any standard inflater accepts:

* every shard body is a run of non-final Deflate blocks terminated by
  an empty stored block (the ``Z_SYNC_FLUSH`` marker), which byte-aligns
  the fragment so fragments concatenate without bit-shifting;
* the stitcher prepends the 2-byte ZLib header, appends one final empty
  fixed block to close the Deflate layer, and computes the whole-stream
  checksum from the per-shard checksums via
  :func:`repro.checksums.adler32.adler32_combine` — no second pass over
  the data.

Shards are fully independent by default (each starts with a cold
dictionary — the isolation that makes the fan-out embarrassingly
parallel). ``carry_window=True`` instead primes each shard's matcher
with the preceding input bytes, clawing back most of the cold-window
ratio penalty — the same trade :mod:`repro.deflate.seekable` makes with
preset dictionaries — while staying parallel, because the history is
plaintext already in hand, not a compression result.

Shard jobs run on the **persistent warm pool**
(:mod:`repro.parallel.pool`): workers fork once per process and are
reused by every later call, and shard payloads are handed off through
``multiprocessing.shared_memory`` segments instead of being pickled
through the executor pipe — the fix for the pool-per-call
pessimisation ``BENCH_parallel.json`` recorded.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, fields, replace
from typing import List, Optional

from repro.api import ResolvedCompression
from repro.bitio.writer import BitWriter
from repro.checksums.adler32 import adler32, adler32_combine
from repro.deflate.block_writer import BlockStrategy, write_fixed_block
from repro.deflate.stream import deflate_chunk, write_sync_marker
from repro.deflate.zlib_container import make_header
from repro.errors import ConfigError
from repro.estimator.calibration import CalibrationPoint
from repro.hw.params import HardwareParams
from repro.lzss.router import RouterConfig
from repro.lzss.tokens import MIN_LOOKAHEAD, TokenArray, effective_dictionary
from repro.parallel.stats import ParallelStats

#: Default shard size: 1 MiB, large enough that the sync-marker framing
#: and the cold dictionary window are noise (<1% ratio penalty on text).
DEFAULT_SHARD_SIZE = 1 << 20

#: Smallest permitted shard. Below this the per-shard framing dominates
#: and the pool overhead exceeds the work; tests use the floor directly.
MIN_SHARD_SIZE = 1024

#: Resolved settings a ShardedCompressor exposes as attributes.
_SHARD_SETTINGS = frozenset(
    f.name for f in fields(ResolvedCompression)
) - {"zdict"}


@dataclass(frozen=True)
class ShardTask:
    """One shard's job description (picklable for the process pool).

    ``config`` is the resolved compression every shard of the stream
    runs (:class:`repro.api.ResolvedCompression`, with any
    :class:`~repro.hw.params.HardwareParams` pinning applied and
    ``zdict`` cleared — a preset dictionary reaches shard 0 as its
    ``history``). Its ``backend`` may differ per shard: a sampled
    subset can run ``traced`` for live telemetry while the rest stay on
    a production backend.
    """

    index: int
    data: bytes
    history: bytes
    config: ResolvedCompression
    #: Also compute the shard's CRC-32 (gzip framing stitches CRCs the
    #: way ZLib framing stitches Adlers; see repro.serve).
    want_crc: bool = False

    @property
    def backend(self) -> str:
        """The tokenizer this shard runs (see :mod:`repro.lzss.backends`)."""
        return self.config.backend


@dataclass(frozen=True)
class ShardResult:
    """One shard's compressed fragment plus its bookkeeping.

    ``backend``/``route_reason``/``traced_sample`` record the routing
    outcome (see :mod:`repro.lzss.router`); ``telemetry`` is the
    traced-sample calibration point for sampled shards, ``None``
    otherwise.
    """

    index: int
    body: bytes
    adler: int
    input_bytes: int
    wall_s: float
    worker: int
    backend: str = ""
    route_reason: str = ""
    traced_sample: bool = False
    telemetry: Optional[CalibrationPoint] = None
    #: CRC-32 of the shard's input (only when the task asked for it).
    crc: int = 0


def _compress_shard_parts(
    data: bytes,
    history: bytes,
    config: ResolvedCompression,
    index: int = 0,
):
    """Compress one shard; return (body, decision, telemetry).

    The body is :func:`repro.deflate.stream.deflate_chunk` followed by
    a sync marker. ``telemetry`` is a
    :class:`~repro.estimator.calibration.CalibrationPoint` for
    traced-sample shards, ``None`` otherwise; ``decision`` is ``None``
    only for empty shards.
    """
    writer = BitWriter()
    decision = telemetry = None
    if data:
        decision, telemetry = deflate_chunk(
            writer, config.tokenizer(), history, data, config, index=index,
        )
    write_sync_marker(writer)
    return writer.flush(), decision, telemetry


def compress_shard_body(
    data: bytes,
    history: bytes = b"",
    window_size: Optional[int] = None,
    hash_spec=None,
    policy=None,
    strategy: Optional[BlockStrategy] = None,
    traced: Optional[bool] = None,
    tokens_per_block: Optional[int] = None,
    cut_search: Optional[bool] = None,
    sniff: Optional[bool] = None,
    backend: Optional[str] = None,
    refine: Optional[bool] = None,
    router: Optional[RouterConfig] = None,
    shard_index: int = 0,
    profile=None,
) -> bytes:
    """Compress one shard into a byte-aligned raw Deflate fragment.

    The fragment is a non-final block run followed by a sync marker
    (empty stored block), so fragments from consecutive shards can be
    concatenated directly. ``history`` primes the matcher without being
    re-emitted (the carried-window mode). Shards run the trace-free
    fast tokenizer unless ``backend=`` selects another registered
    tokenizer (the removed ``traced=`` boolean raises
    :class:`~repro.errors.ConfigError`). ``ADAPTIVE`` prices every
    block of the shard under all three codings and emits the cheapest
    (stored payloads slice the shard's own bytes, zero-copy); its block
    boundaries come from the cost-driven cut search unless
    ``cut_search=False`` restores the blind ``tokens_per_block``
    cadence.

    With ``sniff`` (ADAPTIVE only) a shard the entropy sniff deems
    incompressible skips tokenization — the pipeline's most expensive
    stage — and is emitted directly as multi-chunk stored blocks. The
    bypass never consults ``history`` (stored blocks reference
    nothing), and the *next* shard's carried window is plaintext either
    way, so the decision is purely local to this shard.

    ``router`` sets the traced-sampling policy
    (:mod:`repro.lzss.router`); ``shard_index`` keys its deterministic
    selection. Sampling never changes the output bytes — ``traced`` and
    ``fast`` are bit-identical by contract.
    """
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
        router=router,
    ).resolve(backend="fast")
    return _compress_shard_parts(data, history, resolved, shard_index)[0]


def close_stream(adler: int) -> bytes:
    """The stitched stream's tail: final empty block + Adler-32 trailer."""
    writer = BitWriter()
    write_fixed_block(writer, TokenArray(), final=True)
    return writer.flush() + adler.to_bytes(4, "big")


def _compress_shard(task: ShardTask) -> ShardResult:
    """Compress one shard, report timing (runs in a pool worker)."""
    start = time.perf_counter()
    body, decision, telemetry = _compress_shard_parts(
        task.data, task.history, task.config, task.index,
    )
    crc = 0
    if task.want_crc:
        from repro.checksums.crc32 import crc32

        crc = crc32(task.data)
    return ShardResult(
        index=task.index,
        body=body,
        adler=adler32(task.data),
        input_bytes=len(task.data),
        wall_s=time.perf_counter() - start,
        worker=os.getpid(),
        backend=decision.backend if decision else "",
        route_reason=decision.reason if decision else "",
        traced_sample=decision.traced_sample if decision else False,
        telemetry=telemetry,
        crc=crc,
    )


def pool_context():
    """The multiprocessing context the engine forks workers with.

    ``fork`` keeps per-shard dispatch cheap (no interpreter re-exec, no
    module re-import) and is available on every POSIX platform; where it
    is not (Windows), the default context is used.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


@dataclass
class ParallelCompressionResult:
    """A stitched ZLib stream plus the run's instrumentation."""

    data: bytes
    stats: ParallelStats

    @property
    def compressed_size(self) -> int:
        return len(self.data)

    @property
    def ratio(self) -> float:
        if not self.data:
            return 0.0
        return self.stats.bytes_in / len(self.data)


class ShardedCompressor:
    """Sharded parallel compressor producing single ZLib streams.

    ``workers=None`` uses the CPU count; ``workers=1`` short-circuits to
    an in-process loop (no pool, no fork — the serial path). Output
    bytes are identical at every worker count: sharding is deterministic
    and the stitcher reassembles in shard order, so parallelism is a
    pure wall-clock win.

    ``backend`` names the tokenizer every shard runs;
    ``shard_backends`` (a ``{shard_index: backend_name}`` mapping)
    overrides it per shard — the seam for tracing a sampled subset of
    shards while the rest stay on a production backend. Output bytes
    are backend-independent by the differential-test contract, so mixed
    runs still stitch into byte-identical streams. ``profile=`` accepts
    a :class:`repro.profile.CompressionProfile` (or preset name);
    explicit kwargs win over profile fields.

    ``pool=`` injects a caller-owned :class:`repro.parallel.pool.WarmPool`
    (the serving layer shares one pool across every connection); with
    ``pool=None`` the compressor borrows the lazy process-wide default
    pool for its worker count. Either way the pool outlives the call —
    consecutive ``compress()`` calls never pay worker startup again,
    and shard payloads ride shared memory instead of being pickled
    through the executor pipe.
    """

    def __init__(
        self,
        params: Optional[HardwareParams] = None,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        carry_window: bool = False,
        strategy: Optional[BlockStrategy] = None,
        traced: Optional[bool] = None,
        tokens_per_block: Optional[int] = None,
        cut_search: Optional[bool] = None,
        sniff: Optional[bool] = None,
        backend: Optional[str] = None,
        refine: Optional[bool] = None,
        shard_backends=None,
        profile=None,
        trace_fraction: Optional[float] = None,
        trace_seed: Optional[int] = None,
        router: Optional[RouterConfig] = None,
        zdict: bytes = b"",
        pool=None,
    ) -> None:
        from repro.api import CompressRequest, reject_legacy_trace

        reject_legacy_trace("traced", traced)
        shard_size = (DEFAULT_SHARD_SIZE if shard_size is None
                      else shard_size)
        if shard_size < MIN_SHARD_SIZE:
            raise ConfigError(
                f"shard_size must be >= {MIN_SHARD_SIZE}: {shard_size}"
            )
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1: {workers}")
        # Explicit HardwareParams pin the matcher config outright (the
        # hardware model is greedy-only, while software shards may run
        # any policy); without them the profile can fill in for the
        # paper-default HardwareParams fields.
        self.params = params or HardwareParams()
        resolved = CompressRequest(
            profile=profile,
            strategy=strategy,
            tokens_per_block=tokens_per_block,
            cut_search=cut_search,
            sniff=sniff,
            backend=backend,
            refine=refine,
            zdict=zdict if zdict else None,
            trace_fraction=trace_fraction,
            trace_seed=trace_seed,
            router=router,
        ).resolve(
            backend="fast",
            window_size=self.params.window_size,
            hash_spec=self.params.hash_spec,
            policy=self.params.policy,
        )
        if resolved.strategy is BlockStrategy.STORED:
            raise ConfigError("STORED shards would not compress anything")
        if params is not None:
            resolved = replace(
                resolved, window_size=params.window_size,
                hash_spec=params.hash_spec, policy=params.policy,
            )
        self.workers = workers or os.cpu_count() or 1
        self.pool = pool
        self.shard_size = shard_size
        self.carry_window = carry_window
        self.shard_backends = dict(shard_backends or {})
        # A preset dictionary primes shard 0's matcher and switches the
        # stitched stream to FDICT framing; decode with
        # zlib.decompressobj(zdict=<the trimmed dictionary>). Later
        # shards are primed by carry_window (or stay cold) — only the
        # stream head lacks history the dictionary can supply.
        self.dictionary = effective_dictionary(
            resolved.zdict, resolved.window_size
        )
        #: The resolved settings every shard task carries.
        self.shard_config = replace(resolved, zdict=b"")

    def __getattr__(self, name: str):
        # window_size, strategy, backend, ...: read through to the one
        # resolved config (zdict is carried as ``dictionary`` instead).
        if name in _SHARD_SETTINGS:
            return getattr(self.shard_config, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def header(self) -> bytes:
        """The stitched stream's ZLib header (FDICT with a dictionary)."""
        return make_header(self.window_size, self.dictionary)

    def task(self, index: int, data: bytes, preceding: bytes = b"",
             want_crc: bool = False) -> ShardTask:
        """The job for shard ``index`` — the one place tasks are built.

        ``preceding`` is the plaintext just before the shard (only its
        reachable tail matters); it becomes the shard's history under
        ``carry_window``. Shard 0 is primed with the preset dictionary
        instead. ``shard_backends`` overrides the backend per index.
        """
        if index == 0:
            history = self.dictionary
        else:
            history = preceding if self.carry_window else b""
        config = self.shard_config
        if index in self.shard_backends:
            config = replace(config, backend=self.shard_backends[index])
        return ShardTask(index, data, history, config, want_crc)

    def plan(self, data: bytes) -> List[ShardTask]:
        """Cut ``data`` into shard tasks (empty input -> no shards)."""
        keep = self.window_size + MIN_LOOKAHEAD
        return [
            self.task(index, data[start:start + self.shard_size],
                      data[max(0, start - keep):start])
            for index, start in enumerate(
                range(0, len(data), self.shard_size)
            )
        ]

    def compress(self, data: bytes) -> ParallelCompressionResult:
        """Compress ``data`` into one ZLib stream, shards in parallel."""
        data = bytes(data)
        stats = ParallelStats(workers=self.workers,
                              shard_size=self.shard_size)
        start = time.perf_counter()
        tasks = self.plan(data)
        if self.workers == 1 or len(tasks) <= 1:
            stats.note_inflight(1 if tasks else 0)
            results = [_compress_shard(task) for task in tasks]
        else:
            # One-shot mode submits everything: the pool is the only
            # backpressure. Streams that must bound memory use
            # ParallelDeflateWriter instead. The pool is warm and
            # persistent — never spun up (or torn down) per call.
            from repro.parallel.pool import get_default_pool

            stats.note_inflight(len(tasks))
            pool = self.pool or get_default_pool(self.workers)
            results = pool.map_shards(tasks)
        out = bytearray(self.header())
        adler = 1
        for result in results:
            out += result.body
            adler = adler32_combine(adler, result.adler,
                                    result.input_bytes)
            stats.add_result(result)
        out += close_stream(adler)
        stats.wall_s = time.perf_counter() - start
        return ParallelCompressionResult(data=bytes(out), stats=stats)


def compress_parallel(
    data: bytes,
    params: Optional[HardwareParams] = None,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    carry_window: bool = False,
    strategy: Optional[BlockStrategy] = None,
    traced: Optional[bool] = None,
    tokens_per_block: Optional[int] = None,
    cut_search: Optional[bool] = None,
    sniff: Optional[bool] = None,
    backend: Optional[str] = None,
    refine: Optional[bool] = None,
    shard_backends=None,
    profile=None,
    trace_fraction: Optional[float] = None,
    trace_seed: Optional[int] = None,
    zdict: bytes = b"",
    pool=None,
) -> bytes:
    """One-shot sharded compression; returns the stitched ZLib stream.

    ``backend`` selects the tokenizer for every shard and
    ``shard_backends`` overrides it per shard index (the traced-sample
    seam); ``trace_fraction``/``trace_seed`` divert a
    deterministic sample of shards through the instrumented backend
    (see :mod:`repro.lzss.router`); ``profile`` accepts a
    :class:`repro.profile.CompressionProfile` or preset name, with
    explicit kwargs winning over profile fields.

    Shards run on a **persistent warm pool**: the first multi-worker
    call forks the workers, every later call reuses them, and shard
    bytes are handed off through shared memory rather than pickled
    (see :mod:`repro.parallel.pool`). Pass ``pool=`` to supply your own
    :class:`~repro.parallel.pool.WarmPool`; the default pool is shut
    down automatically at interpreter exit.

    >>> import zlib
    >>> payload = b"parallel snow " * 2000
    >>> stream = compress_parallel(payload, workers=1, shard_size=8192)
    >>> zlib.decompress(stream) == payload
    True
    """
    return ShardedCompressor(
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
        shard_backends=shard_backends,
        profile=profile,
        trace_fraction=trace_fraction,
        trace_seed=trace_seed,
        zdict=zdict,
        pool=pool,
    ).compress(data).data
