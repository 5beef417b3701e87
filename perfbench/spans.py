"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` replaces each function of :data:`TARGETS` with a thin
wrapper for the duration of a ``with tracer.active():`` block. A
function is patched at every name its callers look up: the defining
module's attribute, each ``repro`` module that imported it by name, or
the class attribute for a method. Every original is put back when the
block exits, even on error. No code of the program changes.

Each call records one span ``(key, start_ns, end_ns, op, parent)``;
spans of one benchmark operation share ``op``. Spans stay in memory
until :meth:`Tracer.write_spans`. A key's *self time* is the time its
spans are the innermost open span (:func:`self_times`), so the self
times of all keys plus the unattributed time add up to the traced wall
time exactly, nested or interleaved (asyncio) spans alike.

Hooks run after a call returns and add counts (bytes, tokens, blocks)
measured at the same boundary.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Backends whose call counts are always reported.
BACKENDS = ("traced", "fast", "vector", "sa")


# -- after-call hooks ---------------------------------------------------

def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _tokenize(counts, args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    counts["lzss.tokenize_in_bytes"] += len(data)
    counts["lzss.tokens"] += len(result.tokens)
    counts[f"lzss.backend_calls.{result.backend}"] += 1


def _chunk(counts, args, kwargs, result):
    # The history the stream tokenizer can reach, as the program caps it.
    from repro.lzss.tokens import MIN_LOOKAHEAD

    lzss = _arg(args, kwargs, 0, "lzss")
    history = _arg(args, kwargs, 1, "history")
    counts["lzss.history_bytes"] += min(len(history),
                                        lzss.window_size + MIN_LOOKAHEAD)


def _sniff(counts, args, kwargs, result):
    counts["sniff.bypass"] += bool(result)


def _probe(counts, args, kwargs, result):
    counts["sniff.bypass"] += bool(result.incompressible)


def _cut_search(counts, args, kwargs, result):
    counts["splitter.blocks"] += len(result)


def _refine(counts, args, kwargs, result):
    blocks = _arg(args, kwargs, 1, "blocks")
    config = _arg(args, kwargs, 2, "config")
    counts["splitter.refine_blocks"] += len(blocks)
    counts["splitter.refine_won"] += sum(r is not None for r in result)
    counts["splitter.refine_skipped_bytes"] += sum(
        b.raw_len for b in blocks if b.raw_len > config.max_block_bytes
    )


def _block(kind):
    def hook(counts, args, kwargs, result):
        counts[f"deflate.blocks.{kind}"] += 1
    return hook


def _checksum(counts, args, kwargs, result):
    counts["checksums.bytes"] += len(_arg(args, kwargs, 0, "data"))


def _checksum_method(counts, args, kwargs, result):
    counts["checksums.bytes"] += len(_arg(args, kwargs, 1, "data"))


def _adler_many(counts, args, kwargs, result):
    counts["checksums.bytes"] += sum(len(c) for c in args[0])


def _inflate(counts, args, kwargs, result):
    payload = result[0] if isinstance(result, tuple) else result
    counts["inflate.bytes_out"] += len(payload)


def _submit(counts, args, kwargs, result):
    counts["parallel.shards"] += 1
    counts.pending[id(result)] = time.perf_counter_ns()


def _shard_result(counts, args, kwargs, result):
    future = _arg(args, kwargs, 1, "future")
    started = counts.pending.pop(id(future), None)
    if started is not None:
        counts["parallel.result_wait_ns"] += time.perf_counter_ns() - started


#: (module, attribute or Class.method, span key, after-call hook).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api", "compress", "api.compress", None),
    ("repro.api", "CompressRequest.resolve", "api.resolve", None),
    ("repro.deflate.sniff", "looks_incompressible", "sniff", _sniff),
    ("repro.lzss.router", "probe_shard", "sniff", _probe),
    ("repro.lzss.router", "route_shard", "router.route", None),
    ("repro.lzss.compressor", "LZSSCompressor.compress", "lzss.tokenize",
     _tokenize),
    ("repro.deflate.stream", "tokenize_chunk_with_result", "stream.chunk",
     _chunk),
    ("repro.deflate.splitter", "zlib_compress_adaptive",
     "deflate.container", None),
    ("repro.deflate.zlib_container", "ZLibCompressor.compress",
     "deflate.container", None),
    ("repro.deflate.splitter", "write_adaptive_blocks", "splitter.write",
     None),
    ("repro.deflate.splitter", "search_cut_points", "splitter.cut_search",
     _cut_search),
    ("repro.deflate.splitter", "refine_searched_blocks", "splitter.refine",
     _refine),
    ("repro.deflate.dynamic", "plan_dynamic_block", "deflate.plan", None),
    ("repro.deflate.block_writer", "write_fixed_block", "deflate.emit",
     _block("fixed")),
    ("repro.deflate.dynamic", "write_dynamic_block", "deflate.emit",
     _block("dynamic")),
    ("repro.deflate.block_writer", "write_stored_block", "deflate.emit",
     _block("stored")),
    ("repro.deflate.stream", "ZLibStreamCompressor.compress",
     "stream.write", None),
    ("repro.deflate.stream", "ZLibStreamCompressor.flush_sync",
     "stream.flush", None),
    ("repro.deflate.stream", "ZLibStreamCompressor.finish", "stream.flush",
     None),
    ("repro.batch", "compress_batch", "batch.compress", None),
    ("repro.lzss.router", "route_batch", "batch.route", None),
    ("repro.lzss.batch", "tokenize_batch", "batch.tokenize", None),
    ("repro.lzss.batch", "tokenize_scalar", "batch.tokenize", None),
    ("repro.deflate.batch_emit", "emit_batch", "batch.emit", None),
    ("repro.checksums.adler32", "adler32", "checksums", _checksum),
    ("repro.checksums.adler32", "adler32_many", "checksums", _adler_many),
    ("repro.checksums.adler32", "adler32_combine", "checksums", None),
    ("repro.checksums.adler32", "Adler32.update", "checksums",
     _checksum_method),
    ("repro.checksums.crc32", "crc32", "checksums", _checksum),
    ("repro.checksums.crc32", "crc32_combine", "checksums", None),
    ("repro.checksums.crc32", "CRC32.update", "checksums",
     _checksum_method),
    ("repro.deflate.zlib_container", "decompress", "inflate.container",
     None),
    ("repro.deflate.inflate", "inflate", "inflate", _inflate),
    ("repro.deflate.inflate", "inflate_with_tail", "inflate", _inflate),
    ("repro.huffman.decoder", "HuffmanDecoder.__init__", "huffman.build",
     None),
    ("repro.parallel.pool", "WarmPool.submit_shard", "parallel.submit",
     _submit),
    ("repro.parallel.pool", "WarmPool.shard_result", "parallel.result",
     _shard_result),
    ("repro.serve.pipeline", "StreamSession.feed", "serve.feed", None),
    ("repro.serve.pipeline", "StreamSession.finish", "serve.finish", None),
)


class _Counts(Counter):
    """Counter plus scratch state shared by the hooks."""

    def __init__(self):
        super().__init__()
        self.pending: Dict[int, int] = {}


class Tracer:
    """Records spans and counts while its patches are active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[Optional[tuple]] = []
        self.calls: Counter = Counter()
        self.counts = _Counts()
        self.op = 0
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, original, key, hook):
        spans = self.spans
        stack = self._stack
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    spans[index] = (key, start, clock(), self.op, -1)
                    calls[key] += 1
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, self.op, parent)
                calls[key] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, module_name, attr, key, hook):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            wrapper = self._wrap(original, key, hook)
            setattr(owner, meth, wrapper)
            self._patched.append((owner, meth, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, key, hook)
        # Every repro module holding the function under any name gets
        # the wrapper: that is the name its callers look up.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    self._patched.append((mod, binding, original))

    def patch(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already active")
        try:
            for module_name, attr, key, hook in self.targets:
                self._patch(module_name, attr, key, hook)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextmanager
    def active(self):
        self.patch()
        try:
            yield self
        finally:
            self.restore()

    # -- output --------------------------------------------------------

    def finished_spans(self) -> List[tuple]:
        return [span for span in self.spans if span is not None]

    def write_spans(self, path: str) -> None:
        """Write every span as one CSV line: key,start,end,op,parent."""
        with open(path, "w") as handle:
            handle.write("key,start_ns,end_ns,op,parent\n")
            for span in self.finished_spans():
                handle.write(",".join(str(field) for field in span) + "\n")


def self_times(spans, regions) -> Tuple[Dict[str, int], int]:
    """Attribute every traced nanosecond to its innermost open span.

    ``regions`` are the ``(start_ns, end_ns)`` intervals the benchmark
    timed. Within them, each instant belongs to the open span that
    started last (for properly nested calls: the deepest one, i.e. its
    duration minus its children). Returns ``(self_ns_by_key,
    unattributed_ns)``; their sum equals the regions' total length.
    """
    events = []
    for index, (key, start, end, _op, _parent) in enumerate(spans):
        events.append((start, 1, index))
        events.append((end, 0, index))
    for start, end in regions:
        events.append((start, 2, -1))
        events.append((end, -1, -1))
    events.sort(key=lambda e: (e[0], e[1] == 2, e[1] == 1))
    by_key: Dict[str, int] = defaultdict(int)
    unattributed = 0
    open_heap: List[tuple] = []
    closed = set()
    inside = 0
    last = None
    for now, kind, index in events:
        if last is not None and inside and now > last:
            while open_heap and -open_heap[0][1] in closed:
                heapq.heappop(open_heap)
            if open_heap:
                by_key[spans[-open_heap[0][1]][0]] += now - last
            else:
                unattributed += now - last
        last = now
        if kind == 1:
            heapq.heappush(open_heap, (-spans[index][1], -index))
        elif kind == 0:
            closed.add(index)
        elif kind == 2:
            inside += 1
        else:
            inside -= 1
    return dict(by_key), unattributed
