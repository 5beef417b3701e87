"""Guard BENCH_*.json against silent regressions.

The perf-smoke CI job regenerates the machine-readable benchmark
exhibits (``BENCH_parallel.json``, ``BENCH_tokenizer.json``,
``BENCH_adaptive.json``, ``BENCH_batch.json``,
``BENCH_preset_dict.json``, ``BENCH_serve.json``,
``BENCH_inflate.json``, ``BENCH_sa.json``). This checker diffs
each fresh file against the
baseline committed at ``--ref`` (default ``HEAD``, read via ``git
show``) so a PR that quietly bloats the compressed output or erodes a
fast-path speedup fails the build instead of shipping.

Two classes of metric, two tolerance bands:

* deterministic sizes (``output_bytes``, ``old_bytes``, ``tokens``) —
  identical inputs must give near-identical outputs, so the band is
  tight (``--size-tolerance``, default 5%, which absorbs intentional
  small framing changes while catching real ratio regressions);
* ``speedup`` ratios — measured on shared CI runners, so only a gross
  collapse is actionable (fresh must stay above
  ``(1 - --speedup-tolerance)`` of baseline, default 50%).

Absolute MB/s throughputs are never compared: they measure the runner,
not the code. Rows are matched on their identity fields (workload,
parser, path, workers). When the fresh and baseline runs used different
workload sizes (CI regenerates in ``--quick`` mode against committed
full-mode baselines), the size comparisons are skipped — sizes scale
with the input — but speedup ratios are still checked: they are
near-config-independent, so a collapsed fast path fails even in quick
mode. A baseline file that does not exist yet at ``--ref`` is skipped
with a warning rather than failed — a brand-new benchmark has no trend
to break.

Beyond the JSON exhibits, the rendered text exhibits under
``benchmarks/results/`` are structure-diffed against the same ``--ref``:
every numeric token is normalised out (timings and sizes vary run to
run) and the remaining skeleton — table titles, column headers, row
labels, units — must match the committed baseline exactly. A workload
row silently vanishing from a report fails the build even when every
surviving number is within tolerance.

Usage (after regenerating the fresh files)::

    PYTHONPATH=src python benchmarks/check_bench_trend.py [--ref HEAD]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
from typing import Iterator, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

BENCH_FILES = (
    "BENCH_parallel.json",
    "BENCH_tokenizer.json",
    "BENCH_adaptive.json",
    "BENCH_batch.json",
    "BENCH_preset_dict.json",
    "BENCH_serve.json",
    "BENCH_inflate.json",
    "BENCH_sa.json",
)

# Row fields that identify a row (used for matching, never compared).
IDENTITY_KEYS = ("workload", "parser", "path", "workers", "streams")

# Top-level fields describing the run configuration: when these differ,
# the two runs are not comparable and the file is skipped.
CONFIG_KEYS = (
    "input_bytes", "shard_bytes", "tokenizer_bytes",
    "end_to_end_bytes", "size_bytes", "payload_bytes", "chunk_bytes",
    "workers",
)

# Deterministic per-row metrics: same input -> same value, tight band.
SIZE_KEYS = ("output_bytes", "old_bytes", "tokens", "stream_bytes")

# Rendered (human-readable) exhibits, structure-diffed against --ref.
EXHIBIT_DIR = "benchmarks/results"


def load_baseline(name: str, ref: str) -> Optional[dict]:
    """The committed exhibit at ``ref``, or None if it does not exist."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def iter_rows(report: dict) -> Iterator[Tuple[str, dict]]:
    """Yield ``(table/identity, row)`` for every row list in a report."""
    for table, value in report.items():
        if not isinstance(value, list):
            continue
        for row in value:
            if isinstance(row, dict):
                ident = "/".join(
                    f"{k}={row[k]}" for k in IDENTITY_KEYS if k in row
                )
                yield f"{table}[{ident}]", row


def compare_report(name: str, fresh: dict, baseline: dict,
                   size_tol: float, speedup_tol: float) -> List[str]:
    """All tolerance violations between one fresh/baseline pair."""
    sizes_comparable = True
    for key in CONFIG_KEYS:
        if fresh.get(key) != baseline.get(key):
            print(f"  ~ {name}: run config differs "
                  f"({key}: {baseline.get(key)} -> {fresh.get(key)}), "
                  f"checking speedups only")
            sizes_comparable = False
            break

    base_rows = dict(iter_rows(baseline))
    problems: List[str] = []
    for ident, row in iter_rows(fresh):
        if row.get("verified") is False:
            problems.append(
                f"{name} {ident}: response verification failed "
                f"(output not byte-identical to the reference)"
            )
        base = base_rows.get(ident)
        if base is None:
            print(f"  ~ {name} {ident}: new row, no baseline")
            continue
        for key in SIZE_KEYS if sizes_comparable else ():
            if key not in row or key not in base or not base[key]:
                continue
            drift = abs(row[key] - base[key]) / base[key]
            if drift > size_tol:
                problems.append(
                    f"{name} {ident}: {key} drifted {drift:.1%} "
                    f"({base[key]} -> {row[key]}, "
                    f"tolerance {size_tol:.0%})"
                )
        if row.get("gated") is False:
            # The recording box could not schedule this worker count
            # (workers > CPUs): its speedup measures the machine, not
            # the code. Recorded for the curious, never enforced.
            continue
        if "speedup" in row and base.get("speedup"):
            floor = base["speedup"] * (1 - speedup_tol)
            if row["speedup"] < floor:
                problems.append(
                    f"{name} {ident}: speedup collapsed "
                    f"{base['speedup']:.2f}x -> {row['speedup']:.2f}x "
                    f"(floor {floor:.2f}x)"
                )
    return problems


def normalise_exhibit(text: str) -> str:
    """The structural skeleton of a rendered exhibit.

    Numbers are measurements and vary run to run; the fixed-width
    padding around them varies with their digit count. Both are
    collapsed so only titles, headers, row labels, and units remain.
    """
    lines = []
    for line in text.splitlines():
        line = re.sub(r"\d+(?:\.\d+)?", "#", line)
        line = re.sub(r"[ \t]+", " ", line).strip()
        lines.append(line)
    return "\n".join(lines)


def compare_exhibits(ref: str) -> List[str]:
    """Structure-diff every rendered exhibit against ``ref``."""
    problems: List[str] = []
    results_dir = REPO_ROOT / EXHIBIT_DIR
    if not results_dir.is_dir():
        return problems
    for path in sorted(results_dir.glob("*.txt")):
        rel = f"{EXHIBIT_DIR}/{path.name}"
        proc = subprocess.run(
            ["git", "show", f"{ref}:{rel}"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"  ~ {rel}: no baseline at {ref}, skipping "
                  f"(first render of a new exhibit)")
            continue
        fresh = normalise_exhibit(path.read_text())
        base = normalise_exhibit(proc.stdout)
        if fresh == base:
            print(f"  {rel}: ok")
            continue
        print(f"  {rel}: FAIL")
        fresh_lines = fresh.splitlines()
        base_lines = base.splitlines()
        detail = next(
            (f"line {i + 1}: {b!r} -> {f!r}"
             for i, (b, f) in enumerate(zip(base_lines, fresh_lines))
             if b != f),
            f"line count {len(base_lines)} -> {len(fresh_lines)}",
        )
        problems.append(f"{rel}: rendered structure drifted ({detail})")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baseline exhibits")
    parser.add_argument("--size-tolerance", type=float, default=0.05,
                        help="relative band for deterministic sizes")
    parser.add_argument("--speedup-tolerance", type=float, default=0.5,
                        help="allowed relative speedup erosion")
    parser.add_argument("files", nargs="*", default=list(BENCH_FILES),
                        help="exhibit files to check (repo-root names)")
    args = parser.parse_args(argv)

    problems: List[str] = []
    for name in args.files:
        fresh_path = REPO_ROOT / name
        if not fresh_path.exists():
            print(f"  ~ {name}: no fresh run found, skipping")
            continue
        baseline = load_baseline(name, args.ref)
        if baseline is None:
            print(f"  ~ {name}: no baseline at {args.ref}, skipping "
                  f"(first run of a new benchmark)")
            continue
        fresh = json.loads(fresh_path.read_text())
        found = compare_report(name, fresh, baseline,
                               args.size_tolerance,
                               args.speedup_tolerance)
        status = "FAIL" if found else "ok"
        print(f"  {name}: {status}")
        problems.extend(found)

    problems.extend(compare_exhibits(args.ref))

    if problems:
        print("\nbenchmark trend violations:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("benchmark trends within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
