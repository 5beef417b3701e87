#!/usr/bin/env python3
"""The repository benchmark: one command, five workloads.

Run from the repository root::

    python3 perfbench/run.py --workload docs --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, their
times scaled to a reference speed (see ``calib.py``);
``--trace 1`` runs the same rounds untraced and then traced, checks the
traced outputs are byte-identical, and reports the per-layer metrics
(self time of each layer's spans, counts, tracing overhead). Both check
every output against CPython ``zlib.decompress`` and
``repro.zlib_decompress``; with ``--trace 0`` an output byte-identical
to one already checked is checked by its sha256. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary. Details (yardstick, tail percentile
and sample count, the sha256 of every input, spans) are written under
``perfbench/results/``.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
The program is imported from ``src/`` of the current directory only;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib

import calib
import inputs
import spans
import spec
import stats
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

#: Fresh-process set-up measurements per run (their median is setup_s).
SETUP_SAMPLES = 5
#: Share of --seconds spent in rounds (trace 0), and the least time
#: spent decoding each round's outputs (repeating the decode).
MEASURE_SHARE = 0.9
DECODE_MIN_S = 0.15
#: After the first pass over the pool, decoding is timed only while it
#: has taken less than this share of the rounds' time.
DECODE_SHARE = 0.25
#: Share of --seconds for the untraced pass of --trace 1; the traced
#: pass repeats the same rounds.
TRACE_SHARE = 0.4
MB = 1e6


def program_src():
    """``./src``; exits with status 2 when it holds no ``repro``."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro in the current directory; run "
              "from the repository root", file=sys.stderr)
        sys.exit(2)
    return src


def import_repro():
    """Import ``repro`` from ``./src``, and from nowhere else."""
    src = program_src()
    sys.path.insert(0, src)
    import repro
    import repro.api
    import repro.deflate.stream

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{src}", file=sys.stderr)
        sys.exit(2)
    return repro


# -- running rounds ------------------------------------------------------

def run_rounds(wl, pool, budget_s, after=None):
    """Run whole rounds: one pass over ``pool`` at least, more until
    ``budget_s`` has passed. ``after(result)`` runs after each round,
    inside the budget but outside the round's timing."""
    results = []
    start = time.perf_counter()
    while (len(results) < len(pool)
           or time.perf_counter() - start < budget_s):
        results.append(wl.run_round(pool[len(results) % len(pool)]))
        if after is not None:
            after(results[-1])
    return results


def flatten(results):
    """All ops, and all checks with run-wide op indices."""
    ops, checks = [], []
    for res in results:
        base = len(ops)
        ops.extend(res.ops)
        checks.extend((base + i, plain, stream)
                      for i, plain, stream in res.checks)
    return ops, checks


def compress_rate(wl, results, failed, scale):
    """Round bytes (MB) per second of a typical round.

    The round time is the median, over rounds, of each operation
    position's latency, summed over positions (the median round wall
    time for workloads whose operations overlap), so a passing stall
    moves one sample instead of the whole figure. Failed operations
    contribute their time but no bytes.
    """
    latency, size, walls, round_bytes = {}, {}, [], []
    base = 0
    for res in results:
        done = 0
        for pos, op in enumerate(res.ops):
            good = op.in_bytes if base + pos not in failed else 0
            latency.setdefault(pos, []).append(scale(op.latency_s,
                                                     op.start_s))
            size.setdefault(pos, []).append(good)
            done += good
        walls.append(scale(res.wall_s, res.start_s))
        round_bytes.append(done)
        base += len(res.ops)
    if wl.throughput_from_wall:
        busy = stats.median(walls)
        moved = statistics.fmean(round_bytes)
    else:
        busy = sum(stats.median(v) for v in latency.values())
        moved = sum(statistics.fmean(v) for v in size.values())
    return moved / busy / MB if busy > 0 else 0.0


def tail_latency(wl, results, scale):
    """``(ms, samples beyond)``: the workload's tail percentile of all
    operation latencies. With TAIL_PCT 100 (archive: too few operations
    for any percentile) it is the slowest operation of the round: each
    operation's median over the repeats of its pool round, so one stall
    does not set it, averaged over the pool's distinct rounds."""
    if wl.TAIL_PCT < 100:
        return stats.tail([scale(op.latency_s, op.start_s) * 1e3
                           for res in results for op in res.ops],
                          wl.TAIL_PCT)
    by_key = {}
    for index, res in enumerate(results):
        for pos, op in enumerate(res.ops):
            key = pos if op.key is None else op.key
            by_key.setdefault(key, {}).setdefault(
                index % wl.pool_rounds, []).append(
                    scale(op.latency_s, op.start_s) * 1e3)
    return max(statistics.fmean(stats.median(v) for v in per_round.values())
               for per_round in by_key.values()), 0


def decode_pass(repro, checks, failed, clock):
    """Decode every output with repro once.

    Returns ``(bytes, seconds)`` and, per output, ``(seconds, start
    time)`` for scaling once the run's speed samples are all in."""
    total_bytes = 0
    total_s = 0.0
    timings = []
    for index, plain, stream in checks:
        clock.tick()
        start = time.perf_counter()
        try:
            out = repro.zlib_decompress(stream)
        except Exception:
            out = None
        elapsed = time.perf_counter() - start
        total_s += elapsed
        timings.append((elapsed, start))
        if out == plain:
            total_bytes += len(out)
        else:
            failed.add(index)
    return total_bytes, total_s, timings


def inflate_rate(decodes, scale):
    """Decoded MB per second: per output (keyed by its place in the
    round), the median over rounds of its median decode time."""
    size, busy = 0.0, 0.0
    for per_round in decodes.values():
        size += statistics.fmean(n for n, _ in per_round)
        busy += stats.median(
            stats.median(scale(*t) for t in times) for _, times in per_round)
    return size / busy / MB if busy > 0 else 0.0


def check_cpython(checks, failed):
    for index, plain, stream in checks:
        try:
            if zlib.decompress(stream) != plain:
                failed.add(index)
        except zlib.error:
            failed.add(index)


def yardstick(wl, pool):
    """CPython zlib on the same inputs, in this process: (MB/s at the
    reference speed, ratio)."""
    rates = []
    for _ in range(3):
        wl.clock.tick()
        start = time.perf_counter()
        totals = [wl.yardstick_round(rnd) for rnd in pool]
        elapsed = time.perf_counter() - start
        size_in = sum(t[0] for t in totals)
        size_out = sum(t[1] for t in totals)
        rates.append(size_in / wl.clock.scale(elapsed, start) / MB)
    return stats.median(rates), size_out / size_in


def peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mib(wl, own_kib):
    """``own_kib`` of this process, plus for serve the largest reaped
    worker, in MiB."""
    if wl.name == "serve":
        own_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own_kib / 1024.0


def setup_samples(name):
    """Set-up times of SETUP_SAMPLES fresh processes: (raw, scaled)."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        raw.append(sample["setup_s"])
        scaled.append(sample["scaled_setup_s"])
    return raw, scaled


def setup_probe(name):
    """One set-up in this fresh process, with kernel samples around it."""
    wl = WORKLOADS[name]()
    warm = wl.warm_inputs()
    clock = calib.Calibrator()
    for _ in range(3):
        clock.sample()
    start = time.perf_counter()
    repro = import_repro()
    wl.setup(repro, warm)
    elapsed = time.perf_counter() - start
    for _ in range(3):
        clock.sample()
    wl.close()
    factor = calib.NOMINAL_KERNEL_S / clock.median_kernel_s()
    print(json.dumps({"setup_s": elapsed, "scaled_setup_s": elapsed * factor}))
    return 0


def inputs_manifest(wl, seed):
    pool = wl.rounds(seed)
    return pool, inputs.manifest(
        item for rnd in pool for item in wl.round_inputs(rnd))


def pin_digests():
    pinned = {}
    for name, cls in sorted(WORKLOADS.items()):
        wl = cls()
        pinned[name] = {
            str(seed): inputs_manifest(wl, seed)[1]["sha256"]
            for seed in inputs.PINNED_SEEDS + (inputs.CONFIRM_SEED,)
        }
    with open(inputs.DIGESTS_PATH, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# -- the two modes ---------------------------------------------------------

def measure(wl, repro, pool, seconds, details):
    """Trace off: the end-to-end metrics, at the reference speed."""
    clock = wl.clock
    clock.enabled = True
    for _ in range(3):
        clock.sample()
    failed = set()
    decodes = {}  # output's place in the round -> [(bytes, timings)]
    #: (pool round, output's place) -> sha256 of its round-tripped stream
    verified = {}
    done_ops = done_rounds = 0
    decode_s = 0.0
    own_rss_kib = None
    run_start = time.perf_counter()

    def verify_and_decode(res):
        """Check one round's outputs and time their decoding, then drop
        them, keeping lengths and timings only.

        An output byte-identical to one that already round-tripped (the
        same input, compressed in an earlier pass over the pool) is
        checked by its sha256. Every other output is decoded by CPython
        ``zlib`` and by ``repro``. Decoding is timed in the first pass
        over the pool, and later while it has taken under DECODE_SHARE
        of the run, so that decoding cannot crowd out the compression
        rounds."""
        nonlocal done_ops, done_rounds, decode_s, own_rss_kib
        base = done_ops
        done_ops += len(res.ops)
        failed.update(base + i for i, op in enumerate(res.ops) if op.failed)
        pool_index = done_rounds % len(pool)
        checks, keys, digests, fresh, seen = [], [], [], [], {}
        for i, plain, stream in res.checks:
            op_key = i if res.ops[i].key is None else res.ops[i].key
            seen[op_key] = seen.get(op_key, -1) + 1
            key = (op_key, seen[op_key])
            digest = hashlib.sha256(stream).digest()
            checks.append((base + i, plain, stream))
            keys.append(key)
            digests.append(digest)
            if verified.get((pool_index,) + key) != digest:
                fresh.append(checks[-1])
        check_cpython(fresh, failed)
        timed = (done_rounds < len(pool) or decode_s
                 < DECODE_SHARE * (time.perf_counter() - run_start))
        if timed and checks:
            timings = [[] for _ in checks]
            clock.sample()  # bracket the decode window with speed samples
            start = time.perf_counter()
            while True:
                _, _, part = decode_pass(repro, checks, failed, clock)
                for mine, timing in zip(timings, part):
                    mine.append(timing)
                if time.perf_counter() - start >= DECODE_MIN_S:
                    break
            decode_s += time.perf_counter() - start
            clock.sample()
            for key, (_, plain, _), times in zip(keys, checks, timings):
                decodes.setdefault(key, []).append((len(plain), times))
        else:
            decode_pass(repro, fresh, failed, clock)
        for key, (index, _, _), digest in zip(keys, res.checks, digests):
            if base + index not in failed:
                verified[(pool_index,) + key] = digest
        res.checks = []
        done_rounds += 1
        if done_rounds == len(pool):
            # Peak RSS over one pass over the pool: later rounds repeat
            # the same work, so their number cannot change it.
            own_rss_kib = peak_rss_kib()

    results = run_rounds(wl, pool, MEASURE_SHARE * seconds,
                         after=verify_and_decode)
    ops, _ = flatten(results)
    # The ratio covers exactly one pass over the pool, so it depends on
    # the seed only, not on how many rounds this machine fitted in.
    first_pass, _ = flatten(results[:len(pool)])
    ok = [op for i, op in enumerate(first_pass) if i not in failed]
    size_in = sum(op.in_bytes for op in ok)
    size_out = sum(op.out_bytes for op in ok)

    def raw(seconds, _start):
        return seconds

    latencies = [clock.scale(op.latency_s, op.start_s) * 1e3 for op in ops]
    raw_latencies = [op.latency_s * 1e3 for op in ops]
    tail_ms, tail_beyond = tail_latency(wl, results, clock.scale)
    zlib_mbps, zlib_ratio = yardstick(wl, pool)
    clock.enabled = False
    wl.close()
    rss = peak_rss_mib(wl, own_rss_kib)
    raw_setups, setups = setup_samples(wl.name)
    compress_mbps = compress_rate(wl, results, failed, clock.scale)
    ratio = size_out / size_in if size_in else 0.0
    metrics = {
        "compress_mbps": compress_mbps,
        "inflate_mbps": inflate_rate(decodes, clock.scale),
        "ratio": ratio,
        "latency_p50_ms": stats.median(latencies),
        "latency_tail_ms": tail_ms,
        "setup_s": stats.median(setups),
        "peak_rss_mib": rss,
    }
    details.update({
        "rounds": len(results),
        "tail": {"pct": wl.TAIL_PCT, "samples": len(latencies),
                 "beyond": tail_beyond,
                 "ladder_pct": stats.ladder_pct(len(latencies))},
        "setup_samples_s": setups,
        "errors": sorted({op.error for op in ops if op.error})[:20],
        "speed": {
            "nominal_kernel_s": calib.NOMINAL_KERNEL_S,
            "median_kernel_s": clock.median_kernel_s(),
            "kernel_samples": len(clock.samples),
        },
        "raw": {
            "compress_mbps": compress_rate(wl, results, failed, raw),
            "inflate_mbps": inflate_rate(decodes, raw),
            "latency_p50_ms": stats.median(raw_latencies),
            "latency_tail_ms": tail_latency(wl, results, raw)[0],
            "setup_s": stats.median(raw_setups),
        },
        "yardstick": {
            "zlib_level": wl.level,
            "zlib_mbps": zlib_mbps,
            "zlib_ratio": zlib_ratio,
            "speed_vs_zlib": compress_mbps / zlib_mbps,
            "size_vs_zlib": ratio / zlib_ratio if zlib_ratio else 0.0,
        },
    })
    return metrics, len(ops), len(failed)


def keyed_outputs(results):
    """Every output by (round, operation key, ordinal): serve's streams
    finish in a different order from run to run."""
    out, seen = {}, {}
    for index, res in enumerate(results):
        for op_index, _, stream in res.checks:
            key = res.ops[op_index].key
            base = (index, op_index if key is None else key)
            seen[base] = seen.get(base, -1) + 1
            out[base + (seen[base],)] = stream
    return out


def measure_traced(wl, repro, pool, seconds, details, spans_path):
    """Trace on: the per-layer metrics, beside an untraced twin run.

    Speed samples are taken between rounds only, outside the traced
    regions, so that the tracing overhead compares both passes at the
    same reference speed."""
    clock = wl.clock
    clock.sample()
    plain = run_rounds(wl, pool, TRACE_SHARE * seconds,
                       after=lambda res: clock.sample())
    plain_ops, plain_checks = flatten(plain)
    failed = {i for i, op in enumerate(plain_ops) if op.failed}
    check_cpython(plain_checks, failed)
    decode_start = time.perf_counter()
    _, decode_s, _ = decode_pass(repro, plain_checks, failed, clock)
    clock.sample()
    plain_wall = (sum(clock.scale(res.wall_s, res.start_s) for res in plain)
                  + clock.scale(decode_s, decode_start))

    tracer = spans.Tracer()
    regions = []
    wl.tracer = tracer
    with tracer.active():
        traced = []
        for index in range(len(plain)):
            start = time.perf_counter_ns()
            traced.append(wl.run_round(pool[index % len(pool)]))
            regions.append((start, time.perf_counter_ns()))
            clock.sample()
        ops, checks = flatten(traced)
        start = time.perf_counter_ns()
        decode_pass(repro, checks, failed, clock)
        regions.append((start, time.perf_counter_ns()))
    clock.sample()
    wl.tracer = None
    layer_counts = wl.layer_counts()
    wl.close()
    traced_wall = sum(clock.scale((end - start) / 1e9, start / 1e9)
                      for start, end in regions)

    # Traced outputs must be byte-identical to the untraced ones.
    failed.update(i for i, op in enumerate(ops) if op.failed)
    check_cpython(checks, failed)
    want, got = keyed_outputs(plain), keyed_outputs(traced)
    mismatched = sum(got.get(key) != stream for key, stream in want.items())
    mismatched += len(set(got) - set(want))

    finished = tracer.finished_spans()
    self_ns, unattributed_ns = spans.self_times(finished, regions)
    wall_ns = sum(end - start for start, end in regions)
    counts = tracer.counts
    calls = tracer.calls
    metrics = {metric: self_ns.get(key, 0) / 1e9
               for key, metric in spec.SELF_METRIC.items()}
    in_bytes = counts["lzss.tokenize_in_bytes"]
    new_bytes = in_bytes - counts["lzss.history_bytes"]
    blob_in = sum(res.extra.get("blob_in", 0) for res in traced)
    blob_out = sum(res.extra.get("blob_out", 0) for res in traced)

    def frac(num, den):
        return num / den if den else 0.0

    metrics.update({
        "lzss.tokens": counts["lzss.tokens"],
        "lzss.tokenize_in_bytes": in_bytes,
        "lzss.tokenize_waste": frac(in_bytes, new_bytes),
        "splitter.refine_blocks": counts["splitter.refine_blocks"],
        "splitter.refine_won_frac": frac(counts["splitter.refine_won"],
                                         counts["splitter.refine_blocks"]),
        "splitter.refine_skipped_bytes":
            counts["splitter.refine_skipped_bytes"],
        "splitter.blocks": counts["splitter.blocks"],
        "deflate.blob_ratio": frac(blob_out, blob_in),
        "sniff.calls": calls["sniff"],
        "sniff.bypass_frac": frac(counts["sniff.bypass"], calls["sniff"]),
        "stream.writes": calls["stream.write"],
        "api.resolve_calls": calls["api.resolve"],
        "checksums.bytes": counts["checksums.bytes"],
        "inflate.bytes_out": counts["inflate.bytes_out"],
        "huffman.decoder_builds": calls["huffman.build"],
        "parallel.shards": counts["parallel.shards"],
        "parallel.result_wait_s": counts["parallel.result_wait_ns"] / 1e9,
        "parallel.pool_spawns": 0,
        "parallel.worker_failures": 0,
        "serve.protocol_errors": 0,
        "serve.inflight_peak": 0,
        "trace.wall_s": wall_ns / 1e9,
        "trace.spans": len(finished),
        "trace.overhead_frac": frac(traced_wall, plain_wall) - 1.0,
        "trace.unattributed_frac": frac(unattributed_ns, wall_ns),
    })
    for kind in ("fixed", "dynamic", "stored"):
        metrics[f"deflate.blocks.{kind}"] = counts[f"deflate.blocks.{kind}"]
    for backend in spans.BACKENDS:
        metrics[f"lzss.backend_calls.{backend}"] = \
            counts[f"lzss.backend_calls.{backend}"]
    metrics.update(layer_counts)

    attributed = sum(self_ns.values())
    details.update({
        "rounds": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_mismatches": mismatched,
        "accounted_frac": frac(attributed + unattributed_ns, wall_ns),
        "calls": dict(calls),
        "counts": dict(counts),
    })
    tracer.write_spans(spans_path)
    return metrics, len(ops), len(failed), mismatched == 0


# -- output ------------------------------------------------------------------

def summary_lines(name, args, attempted, failed, metrics, details):
    lines = [
        f"perfbench {name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}: {details['rounds']} rounds, {attempted} ops, "
        f"{failed} failed (failed_frac {failed / attempted:.4f})",
    ]
    for metric, value in metrics.items():
        note = ""
        if metric == "latency_tail_ms":
            tail = details["tail"]
            note = (f"  (p{tail['pct']} of {tail['samples']} samples, "
                    f"{tail['beyond']} beyond)" if tail["pct"] < 100 else
                    f"  (slowest operation of the round, median over "
                    f"{details['rounds']} rounds; {tail['samples']} samples)")
        lines.append(f"  {metric:32s} {value:14.6g} {spec.unit_of(metric)}"
                     f"{note}")
    if "raw" in details:
        speed = details["speed"]
        lines.append(
            "  times above are at the reference speed; this machine ran at "
            f"{speed['nominal_kernel_s'] / speed['median_kernel_s']:.3f}x it "
            f"({speed['kernel_samples']} kernel samples). Raw: " + ", ".join(
                f"{k} {v:.6g}" for k, v in details["raw"].items()))
    if "yardstick" in details:
        y = details["yardstick"]
        lines.append(
            f"  yardstick: zlib level {y['zlib_level']} {y['zlib_mbps']:.2f} "
            f"MB/s ratio {y['zlib_ratio']:.4f}; repro runs at "
            f"{y['speed_vs_zlib']:.4f}x zlib speed, {y['size_vs_zlib']:.4f}x "
            "zlib size")
    inputs_note = details["inputs"]
    lines.append(f"  inputs: {inputs_note['count']} buffers, sha256 "
                 f"{inputs_note['sha256'][:16]}... "
                 f"({'pinned' if inputs_note['pinned'] else 'not pinned'})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--pin-digests", action="store_true",
                        help="record the input digests of the pinned "
                             "seeds in digests.json and exit")
    args = parser.parse_args(argv)

    if args.pin_digests:
        return pin_digests()
    if args.write_spec:
        with open("BENCHMARK.json", "w") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload)

    program_src()
    wl = WORKLOADS[args.workload]()
    pool, manifest = inputs_manifest(wl, args.seed)
    try:
        pinned = inputs.check_manifest(wl.name, args.seed,
                                       manifest["sha256"])
    except inputs.InputsChanged as exc:
        print(f"perfbench: refusing to time changed inputs: {exc}",
              file=sys.stderr)
        return 3
    warm = wl.warm_inputs()
    start = time.perf_counter()
    repro = import_repro()
    wl.setup(repro, warm)
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "first_setup_s": time.perf_counter() - start,
        "inputs": dict(manifest, pinned=pinned),
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}"
                                 f"-trace{args.trace}")
    try:
        if args.trace:
            metrics, attempted, failed, identical = measure_traced(
                wl, repro, pool, args.seconds, details, stem + "-spans.csv")
        else:
            metrics, attempted, failed = measure(
                wl, repro, pool, args.seconds, details)
            identical = True
    finally:
        wl.close()
    expected = {row[0] for row in (spec.PER_LAYER if args.trace
                                   else spec.END_TO_END)}
    if set(metrics) != expected:
        raise AssertionError(f"metrics differ from spec: "
                             f"{sorted(set(metrics) ^ expected)}")
    details["metrics"] = metrics
    with open(stem + ".json", "w") as handle:
        json.dump(details, handle, indent=1)
    for line in summary_lines(wl.name, args, attempted, failed, metrics,
                              details):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec.unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
