"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), and the benchmark's own
tests check that the committed file still matches.
"""

from __future__ import annotations

import re

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

WORKLOADS = (
    ("docs", "one-shot balanced compression of whole 32-256 KiB documents; "
             "the match-rich tokenizer path plus the sniff's stored bypass"),
    ("archive", "best profile (sa matcher + refine loop) on documents both "
                "below and above the refine loop's 128 KiB block cap"),
    ("log-append", "fastest streaming writer fed ~100 B syslog lines with "
                   "16-64 KiB bursts and sync flushes; per-write cost"),
    ("messages", "batches of 1-64 templated JSON/HTML messages through "
                 "compress_batch; per-call overhead and many small inflates"),
    ("serve", "two closed-loop connections to the compression service with "
              "2 workers; warm pool, shared-memory handoff and framing"),
)

#: (name, unit, better, bound) of each end-to-end metric.
END_TO_END = (
    ("compress_mbps", "MB/s", "higher", 0.20),
    ("inflate_mbps", "MB/s", "higher", 0.20),
    ("ratio", "B/B", "lower", 0.01),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
)

#: Self-time metric of each span key (see spans.TARGETS).
SELF_METRIC = {
    "api.compress": "api.compress_s",
    "api.resolve": "api.resolve_s",
    "sniff": "sniff.s",
    "router.route": "router.route_s",
    "lzss.tokenize": "lzss.tokenize_s",
    "stream.chunk": "stream.chunk_s",
    "deflate.container": "deflate.container_s",
    "splitter.write": "splitter.write_s",
    "splitter.cut_search": "splitter.cut_search_s",
    "splitter.refine": "splitter.refine_s",
    "deflate.plan": "deflate.plan_s",
    "deflate.emit": "deflate.emit_s",
    "stream.write": "stream.write_self_s",
    "stream.flush": "stream.flush_s",
    "batch.compress": "batch.compress_s",
    "batch.route": "batch.route_s",
    "batch.tokenize": "batch.tokenize_s",
    "batch.emit": "batch.emit_s",
    "checksums": "checksums.s",
    "inflate.container": "inflate.container_s",
    "inflate": "inflate.s",
    "huffman.build": "huffman.decoder_build_s",
    "parallel.submit": "parallel.submit_s",
    "parallel.result": "parallel.result_s",
    "serve.feed": "serve.feed_s",
    "serve.finish": "serve.finish_s",
}

#: (name, unit, better) of each per-layer metric, reported by --trace 1.
PER_LAYER = tuple(
    [(metric, "s", "lower") for metric in SELF_METRIC.values()]
    + [
        ("lzss.tokens", "count", "lower"),
        ("lzss.backend_calls.traced", "count", "lower"),
        ("lzss.backend_calls.fast", "count", "higher"),
        ("lzss.backend_calls.vector", "count", "higher"),
        ("lzss.backend_calls.sa", "count", "higher"),
        ("lzss.tokenize_in_bytes", "B", "lower"),
        ("lzss.tokenize_waste", "B/B", "lower"),
        ("splitter.refine_blocks", "count", "higher"),
        ("splitter.refine_won_frac", "frac", "higher"),
        ("splitter.refine_skipped_bytes", "B", "lower"),
        ("splitter.blocks", "count", "lower"),
        ("deflate.blocks.fixed", "count", "lower"),
        ("deflate.blocks.dynamic", "count", "higher"),
        ("deflate.blocks.stored", "count", "lower"),
        ("deflate.blob_ratio", "B/B", "lower"),
        ("sniff.calls", "count", "lower"),
        ("sniff.bypass_frac", "frac", "higher"),
        ("stream.writes", "count", "lower"),
        ("api.resolve_calls", "count", "lower"),
        ("checksums.bytes", "B", "lower"),
        ("inflate.bytes_out", "B", "higher"),
        ("huffman.decoder_builds", "count", "lower"),
        ("parallel.shards", "count", "lower"),
        ("parallel.result_wait_s", "s", "lower"),
        ("parallel.pool_spawns", "count", "lower"),
        ("parallel.worker_failures", "count", "lower"),
        ("serve.protocol_errors", "count", "lower"),
        ("serve.inflight_peak", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.unattributed_frac", "frac", "lower"),
    ]
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER):
        for row in table:
            if row[0] == name:
                return row[1]
    raise KeyError(name)


def benchmark_json() -> dict:
    """The content of the repository's ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
