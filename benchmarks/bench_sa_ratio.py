"""Exact-match (sa) + refine ratio gate: best profile vs its old self.

The ``best`` profile now runs the suffix-array matcher (exact
longest-match queries, no ``max_chain`` budget) and the iterative
re-tokenisation loop (each block re-parsed against its own emerging
Huffman code lengths). This benchmark measures what those two changes
buy over the previous ``best`` configuration — the same window, policy
and adaptive splitter, but the hash-chain ``fast`` tokenizer and no
refine loop — and gates the headline claim:

* on the **heterogeneous** workload (alternating text/noise runs, the
  corpus the cut search is calibrated on) the sa+refine output must be
  at least ``--min-gain-pct`` (1.5%) smaller;
* within a wall-time ceiling (``--max-time-ratio`` x the baseline —
  the exact matcher is allowed to cost more, not to be unbounded);
* every stream (both paths, every workload) must decode byte-identically
  through CPython's ``zlib.decompress`` before any number is reported.

Remaining workloads are recorded and held to "never meaningfully worse"
(the exact matcher dominates the heuristic; parse-order effects get a
small slack), but only the heterogeneous row carries the 1.5% gate —
single-texture inputs leave less on the table.

Results go to ``benchmarks/results/sa_ratio.txt`` (rendered) and
``BENCH_sa.json`` at the repo root (machine-readable, consumed by the
CI perf-smoke job via ``check_bench_trend.py``).

Runs standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_sa_ratio.py --quick

or in full (1 MiB workloads, the acceptance configuration) without
``--quick``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
import zlib
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_sa.json"

#: Non-headline rows may not grow more than this over the baseline.
SLACK_PCT = 0.6


def heterogeneous_mix(size_bytes: int, run_bytes: int = 32 * 1024) -> bytes:
    """Equal-share alternating runs over every workload family.

    One ``run_bytes`` run per family, cycling: syslog, JSON telemetry,
    wiki prose, packed JSON messages, incompressible noise. Each run is
    seeded by its index so repeats of a family differ. This is the
    corpus the headline gate runs on — heterogeneous in texture *and*
    in compressibility, with every family the workload suite ships
    represented at equal input share (``bench_adaptive``'s two-texture
    blend is half noise by input, which measures the splitter's stored
    fallback more than the tokenizer).
    """
    from repro.workloads.logs import json_telemetry, syslog_text
    from repro.workloads.messages import packed_messages
    from repro.workloads.synthetic import incompressible
    from repro.workloads.wiki import wiki_text

    makers = (
        lambda n, seed: syslog_text(n, seed=seed),
        lambda n, seed: json_telemetry(n, seed=seed),
        lambda n, seed: wiki_text(n, seed=seed),
        lambda n, seed: packed_messages("json", n, seed=seed),
        lambda n, seed: incompressible(n, seed=seed),
    )
    parts = []
    total = 0
    index = 0
    while total < size_bytes:
        run = makers[index % len(makers)](run_bytes, index)
        parts.append(run)
        total += len(run)
        index += 1
    return b"".join(parts)[:size_bytes]


def workloads(size_bytes: int) -> Dict[str, bytes]:
    from repro.workloads.logs import syslog_text
    from repro.workloads.synthetic import mixed
    from repro.workloads.wiki import wiki_text

    return {
        "heterogeneous": heterogeneous_mix(size_bytes),
        "syslog": syslog_text(size_bytes, seed=7),
        "synthetic_mixed": mixed(size_bytes, seed=7),
        "wiki": wiki_text(size_bytes, seed=7),
    }


def _run(data: bytes, backend: str, refine: bool) -> bytes:
    from repro.deflate.splitter import zlib_compress_adaptive
    from repro.lzss.policy import ZLIB_LEVELS

    return zlib_compress_adaptive(
        data, window_size=32768, policy=ZLIB_LEVELS[9],
        backend=backend, refine=refine,
    )


def measure(size_bytes: int) -> List[dict]:
    """best(sa+refine) vs best-with-fast/refine-off, per workload.

    One timed round each: both paths are deterministic and the gate
    ratio (new/old wall time) is far from its ceiling, so repeat
    variance cannot flip the verdict.
    """
    rows: List[dict] = []
    for workload, data in sorted(workloads(size_bytes).items()):
        start = time.perf_counter()
        old = _run(data, backend="fast", refine=False)
        old_s = time.perf_counter() - start
        start = time.perf_counter()
        new = _run(data, backend="sa", refine=True)
        new_s = time.perf_counter() - start
        for label, stream in (("fast", old), ("sa+refine", new)):
            if zlib.decompress(stream) != data:
                raise AssertionError(
                    f"{workload}: {label} stream does not decode")
        rows.append({
            "workload": workload,
            "gated": workload == "heterogeneous",
            # Trend-checker vocabulary: old is the hash-chain best,
            # output the sa+refine best; speedup old/new (< 1 — the
            # exact matcher pays time for ratio).
            "old_bytes": len(old),
            "output_bytes": len(new),
            "size_gain_pct": round(
                100.0 * (len(old) - len(new)) / len(old), 3),
            "old_s": round(old_s, 4),
            "new_s": round(new_s, 4),
            "time_ratio": round(new_s / old_s, 2),
            "verified": True,
        })
    return rows


def render(report: dict) -> str:
    lines = [
        f"best profile: sa matcher + refine loop vs hash-chain best "
        f"({report['size_bytes']} B/workload)",
        f"{'workload':>16s} {'fast B':>10s} {'sa+refine B':>12s} "
        f"{'gain':>7s} {'time':>7s} {'gate':>6s}",
    ]
    for row in report["sa_ratio"]:
        gate = "1.5%" if row["gated"] else "-"
        lines.append(
            f"{row['workload']:>16s} {row['old_bytes']:>10d} "
            f"{row['output_bytes']:>12d} {row['size_gain_pct']:>6.2f}% "
            f"{row['time_ratio']:>6.1f}x {gate:>6s}"
        )
    return "\n".join(lines)


def check(report: dict, min_gain_pct: float,
          max_time_ratio: float) -> None:
    """The headline gate plus never-meaningfully-worse everywhere."""
    for row in report["sa_ratio"]:
        assert row["size_gain_pct"] >= -SLACK_PCT, (
            f"{row['workload']}: sa+refine output grew "
            f"{-row['size_gain_pct']:.2f}% over the hash-chain best "
            f"(slack {SLACK_PCT}%)"
        )
        assert row["time_ratio"] <= max_time_ratio, (
            f"{row['workload']}: sa+refine costs {row['time_ratio']:.1f}x "
            f"the baseline wall time (ceiling {max_time_ratio:.0f}x)"
        )
        if row["gated"]:
            assert row["size_gain_pct"] >= min_gain_pct, (
                f"{row['workload']}: sa+refine saved only "
                f"{row['size_gain_pct']:.2f}% "
                f"(gate >= {min_gain_pct:.1f}%)"
            )


def build_report(size_bytes: int) -> dict:
    return {
        "benchmark": "sa_ratio",
        "python": platform.python_version(),
        "size_bytes": size_bytes,
        "sa_ratio": measure(size_bytes),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 256 KiB workloads",
    )
    parser.add_argument("--size-kb", type=int, default=1024,
                        help="workload size in KiB (full mode)")
    parser.add_argument("--min-gain-pct", type=float, default=1.5,
                        help="fail if the gated heterogeneous row saves "
                        "less than this")
    parser.add_argument("--max-time-ratio", type=float, default=60.0,
                        help="fail if sa+refine costs more than this "
                        "multiple of the baseline wall time")
    parser.add_argument("--json", type=pathlib.Path, default=JSON_PATH,
                        help="machine-readable output path")
    args = parser.parse_args(argv)

    size_bytes = 256 * 1024 if args.quick else args.size_kb * 1024
    report = build_report(size_bytes)
    report["min_gain_pct"] = args.min_gain_pct

    from benchmarks.conftest import save_exhibit

    save_exhibit("sa_ratio", render(report))
    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    check(report, args.min_gain_pct, args.max_time_ratio)
    print("all streams decode; ratio gate and time ceiling passed")
    return 0


def test_sa_ratio_smoke(benchmark, sample_bytes):
    """pytest-benchmark entry: quick sweep on the bench sample size."""
    from benchmarks.conftest import run_once, save_exhibit

    report = run_once(benchmark, lambda: build_report(sample_bytes))
    save_exhibit("sa_ratio", render(report))
    check(report, min_gain_pct=1.5, max_time_ratio=120.0)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    sys.exit(main())
