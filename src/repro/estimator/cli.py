"""Command-line front-end for the estimation tool.

Subcommands::

    lzss-estimator run --preset speed --workload wiki --size-kb 256
    lzss-estimator run --file input.bin --window 8192 --hash-bits 13
    lzss-estimator sweep --axis window_size --values 1024,2048,4096
    lzss-estimator resources --preset max-ratio
    lzss-estimator pcompress input.bin --workers 4 --shard-kb 1024
    lzss-estimator verify --total-mb 4
    lzss-estimator presets

Every subcommand prints plain-text reports (the role of the paper's C#
visualiser, minus the GUI).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.estimator.presets import ESTIMATION_PRESETS, estimation_preset
from repro.estimator.sweep import ParameterSweep, run_configuration
from repro.hw.params import HardwareParams
from repro.hw.resources import estimate_resources
from repro.workloads.corpus import WORKLOADS, sample


def _load_data(args: argparse.Namespace) -> bytes:
    if args.file:
        with open(args.file, "rb") as handle:
            return handle.read()
    return sample(args.workload, args.size_kb * 1024)


def _build_params(args: argparse.Namespace) -> HardwareParams:
    if args.preset:
        params = estimation_preset(args.preset)
    else:
        params = HardwareParams()
    overrides = {}
    if args.window is not None:
        overrides["window_size"] = args.window
    if args.hash_bits is not None:
        overrides["hash_bits"] = args.hash_bits
    if args.gen_bits is not None:
        overrides["gen_bits"] = args.gen_bits
    if overrides:
        params = params.with_overrides(**overrides)
    return params


def add_compression_options(
    parser: argparse.ArgumentParser,
    *,
    strategy: bool = True,
    sampling: bool = False,
    zdict: bool = True,
    refine: bool = True,
) -> None:
    """The shared compression flag set for every compressing subcommand.

    ``compress``, ``pcompress``, ``batch`` and ``serve`` all accept the
    same core knobs — one profile, one backend vocabulary, one
    preset-dictionary surface — so the flags are defined once here
    and each command opts out of the few that its engine does not take
    (batch has no block strategy; sampling flags are pcompress-only).

    --backend: which tokenizer runs. ``fast`` is the trace-free
    pure-Python hot path; ``sa`` the suffix-array matcher of the
    ``best`` profile (decode-identical, ratio >= the hash-chain parse);
    ``auto`` picks the fastest (``fast``; the batch command's packed
    kernel where it applies); ``traced`` the instrumented reproduction
    path. All but ``sa`` emit identical bytes — see
    docs/PERFORMANCE.md.

    --strategy: block entropy coding. ``fixed`` is the paper's hardware
    path (default), ``dynamic`` transmits per-block optimal tables,
    ``adaptive`` prices fixed/dynamic/stored per block and emits the
    cheapest (ZLib's choice).

    --refine: iterative re-tokenisation under the adaptive strategy —
    re-parse each block scored by its emerging Huffman code lengths
    (``best`` turns it on; --no-refine switches it off for A/B runs).

    --trace-fraction / --trace-seed: the traced-sampling policy
    (:mod:`repro.lzss.router`), added with ``sampling`` (pcompress only
    — the serial command has one shard, so ``--backend traced`` covers
    it).

    --zdict: preset-dictionary file (RFC 1950 FDICT framing): the
    file's bytes prime the window and the stream carries the DICTID, so
    ``zlib.decompressobj(zdict=...)`` (or ``decompress --zdict``) is
    required — and sufficient — to decode.
    """
    from repro.lzss.backends import BACKEND_NAMES
    from repro.profile import preset_names

    parser.add_argument(
        "--profile", default=None, choices=list(preset_names()),
        help="named CompressionProfile preset (policy, strategy, window, "
        "backend, refine in one flag); explicit flags win over its fields",
    )
    parser.add_argument(
        "--backend", default=None,
        choices=[*BACKEND_NAMES, "auto"],
        help="tokenizer backend: trace-free pure-Python (fast, default), "
        "suffix-array matcher (sa; decode-identical, best ratio), "
        "fastest available (auto), or the instrumented reproduction "
        "path (traced)",
    )
    if strategy:
        parser.add_argument(
            "--strategy", default=None,
            choices=["fixed", "dynamic", "adaptive"],
            help="block entropy coding: fixed tables (paper hardware, "
            "default), per-block dynamic tables, or adaptive "
            "best-of-three",
        )
    if refine:
        parser.add_argument(
            "--refine", action=argparse.BooleanOptionalAction,
            default=None,
            help="re-parse each adaptive block scored by its own Huffman "
            "code lengths (the best profile's setting; default off)",
        )
    if sampling:
        _add_sampling_flags(parser)
    if zdict:
        _add_zdict_flag(parser)


def _add_block_flags(parser: argparse.ArgumentParser) -> None:
    """Adaptive-splitter knobs shared by ``compress`` and ``pcompress``.

    ``--tokens-per-block`` was previously hard-coded to the library
    default; both block-emitting subcommands now accept it. The cut
    search and the incompressibility sniff default on and are
    switchable for A/B runs (``--no-cut-search`` restores the blind
    cadence, ``--no-sniff`` always tokenizes).
    """
    from repro.deflate.splitter import DEFAULT_TOKENS_PER_BLOCK

    parser.add_argument(
        "--tokens-per-block", type=int, default=None,
        help="fixed-cadence block length / cut-search spacing ceiling "
        f"(default {DEFAULT_TOKENS_PER_BLOCK})",
    )
    parser.add_argument(
        "--cut-search", action=argparse.BooleanOptionalAction,
        default=None,
        help="cost-driven block cut-point search (adaptive strategy, "
        "default on; --no-cut-search restores the blind cadence)",
    )
    parser.add_argument(
        "--sniff", action=argparse.BooleanOptionalAction, default=None,
        help="entropy-sniff incompressible input straight to stored "
        "blocks, skipping tokenization (adaptive strategy, default on)",
    )


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """Traced-sampling policy flags (see :mod:`repro.lzss.router`)."""
    parser.add_argument(
        "--trace-fraction", type=float, default=None,
        help="route this fraction of shards through the traced "
        "backend for live cycle-model calibration (default 0.0)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=None,
        help="seed for the deterministic traced-sampling policy "
        "(default 0; same seed + fraction -> same shards sampled)",
    )


def _add_zdict_flag(parser: argparse.ArgumentParser) -> None:
    """--zdict: preset-dictionary file (RFC 1950 FDICT framing).

    Wires :mod:`repro.deflate.preset_dict` end-to-end from the command
    line: the file's bytes prime the compressor's window and the output
    stream carries the DICTID, so ``zlib.decompressobj(zdict=...)`` (or
    ``decompress --zdict``) is required — and sufficient — to decode.
    """
    parser.add_argument(
        "--zdict", metavar="FILE", default=None,
        help="preset dictionary file: primes the window and emits an "
        "FDICT stream (decode with --zdict / zlib decompressobj(zdict=))",
    )


def _read_zdict(args: argparse.Namespace) -> bytes:
    if not getattr(args, "zdict", None):
        return b""
    with open(args.zdict, "rb") as handle:
        data = handle.read()
    if not data:
        raise SystemExit(f"--zdict {args.zdict}: dictionary file is empty")
    return data


def _block_strategy(args: argparse.Namespace):
    """The requested BlockStrategy, or None when --strategy was not given
    (the library default / the profile's choice applies)."""
    from repro.deflate.block_writer import BlockStrategy

    if args.strategy is None:
        return None
    return BlockStrategy(args.strategy)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", help="compress this file instead of a "
                        "generated workload")
    parser.add_argument("--workload", default="wiki",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--size-kb", type=int, default=256,
                        help="generated workload size in KiB")
    parser.add_argument("--preset", choices=sorted(ESTIMATION_PRESETS))
    parser.add_argument("--window", type=int, help="dictionary size bytes")
    parser.add_argument("--hash-bits", type=int)
    parser.add_argument("--gen-bits", type=int)


def _cmd_run(args: argparse.Namespace) -> int:
    data = _load_data(args)
    params = _build_params(args)
    row = run_configuration(params, data)
    print(f"configuration : {params.describe()}")
    print(f"input         : {row.input_bytes} bytes")
    print(f"compressed    : {row.compressed_bytes} bytes "
          f"(ratio {row.ratio:.3f})")
    print(row.stats.format_table())
    print(f"BRAM blocks   : {row.bram36} x 36Kb")
    print(f"LUT estimate  : {row.luts}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    data = _load_data(args)
    values = [_parse_value(v) for v in args.values.split(",")]
    sweep = ParameterSweep(args.axis, values, base=_build_params(args))
    report = sweep.run(data, workload=args.workload)
    print(report.format_table(
        header=f"sweep of {args.axis} on {len(data)} bytes of "
        f"{args.workload}"
    ))
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    params = _build_params(args)
    print(estimate_resources(params).format_table())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.hw.alt_architectures import compare_architectures

    data = _load_data(args)
    comparison = compare_architectures(_build_params(args), data)
    print(comparison.format_table())
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.estimator.pareto import pareto_front, to_csv
    from repro.estimator.sweep import grid_sweep

    data = _load_data(args)
    windows = [1024, 2048, 4096, 8192, 16384]
    hash_bits = [9, 11, 13, 15]
    rows = [
        row
        for report in grid_sweep(data, windows, hash_bits)
        for row in report.rows
    ]
    front = pareto_front(rows)
    print(f"{len(front)} non-dominated of {len(rows)} configurations "
          "(speed / ratio / BRAM):")
    for row in front:
        print(f"  {row.format()}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(to_csv(rows))
        print(f"full sweep written to {args.csv}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.estimator.diff import diff_configurations

    data = _load_data(args)
    base = _build_params(args)
    overrides = {}
    for item in args.set:
        key, _, raw = item.partition("=")
        if not raw:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        overrides[key] = _parse_value(raw)
    other = base.with_overrides(**overrides)
    print(diff_configurations(base, other, data).format())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.workloads.stats import profile_workload

    data = _load_data(args)
    params = _build_params(args)
    profile = profile_workload(
        data, window_size=params.window_size,
        hash_spec=params.hash_spec,
    )
    print(profile.format())
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.api import compress

    with open(args.input, "rb") as handle:
        data = handle.read()
    # Explicit hardware flags pin the matcher configuration; with none
    # given, the profile's window/policy fields apply.
    explicit_hw = bool(
        args.preset or args.window is not None
        or args.hash_bits is not None or args.gen_bits is not None
    )
    params = _build_params(args) if explicit_hw else None
    zdict = _read_zdict(args)
    stream = compress(
        data,
        profile=args.profile,
        window_size=params.window_size if params else None,
        hash_spec=params.hash_spec if params else None,
        policy=params.policy if params else None,
        strategy=_block_strategy(args),
        backend=args.backend,
        tokens_per_block=args.tokens_per_block,
        cut_search=args.cut_search,
        sniff=args.sniff,
        refine=args.refine,
        zdict=zdict or None,
    )
    output = args.output or args.input + ".lzz"
    with open(output, "wb") as handle:
        handle.write(stream)
    ratio = len(data) / len(stream) if stream else 0.0
    framing = ", FDICT" if zdict else ""
    print(f"{args.input}: {len(data)} -> {len(stream)} bytes "
          f"(ratio {ratio:.3f}{framing}) -> {output}")
    return 0


def _cmd_pcompress(args: argparse.Namespace) -> int:
    from repro.parallel import ShardedCompressor

    with open(args.input, "rb") as handle:
        data = handle.read()
    # Explicit hardware flags build a HardwareParams that wins over the
    # profile; with none given, params=None lets profile fields apply.
    explicit_hw = bool(
        args.preset or args.window is not None
        or args.hash_bits is not None or args.gen_bits is not None
    )
    engine = ShardedCompressor(
        params=_build_params(args) if explicit_hw else None,
        workers=args.workers,
        shard_size=args.shard_kb * 1024,
        carry_window=args.carry_window,
        strategy=_block_strategy(args),
        backend=args.backend,
        tokens_per_block=args.tokens_per_block,
        cut_search=args.cut_search,
        sniff=args.sniff,
        refine=args.refine,
        profile=args.profile,
        trace_fraction=args.trace_fraction,
        trace_seed=args.trace_seed,
        zdict=_read_zdict(args),
    )
    result = engine.compress(data)
    output = args.output or args.input + ".lzz"
    with open(output, "wb") as handle:
        handle.write(result.data)
    print(f"{args.input}: {len(data)} -> {len(result.data)} bytes "
          f"(ratio {result.ratio:.3f}) -> {output}")
    print(f"{result.stats.shard_count} shards x {engine.shard_size} bytes "
          f"on {engine.workers} workers: "
          f"{result.stats.throughput_mbps:.2f} MB/s")
    if args.stats:
        print(result.stats.format(per_shard=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compression service (or its self-test load sweep).

    ``--self-test`` hosts the service on an ephemeral port, drives the
    load generator against it, verifies every response byte-for-byte,
    and exits non-zero on any mismatch — the CI smoke path.
    """
    import asyncio

    from repro.serve import format_report, run_loadgen, serve

    config = dict(
        workers=args.workers,
        shard_size=args.shard_kb * 1024,
        max_inflight=args.max_inflight,
        carry_window=args.carry_window,
        strategy=_block_strategy(args),
        backend=args.backend,
        refine=args.refine,
        profile=args.profile,
        zdict=_read_zdict(args),
    )
    if args.self_test:
        streams = tuple(
            int(part) for part in args.streams.split(",") if part
        )
        report = run_loadgen(
            streams_list=streams,
            payload_bytes=args.payload_kb * 1024,
            chunk_bytes=args.chunk_kb * 1024,
            fmt=args.format,
            **config,
        )
        print(format_report(report))
        if not report["all_verified"]:
            print("self-test FAILED: response mismatch", file=sys.stderr)
            return 1
        return 0
    print(f"compression service on {args.host}:{args.port} "
          f"(workers={args.workers or 'auto'}, "
          f"shard {args.shard_kb} KiB) — Ctrl-C to stop")
    try:
        asyncio.run(serve(host=args.host, port=args.port, **config))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro.deflate.zlib_container import decompress as zd

    with open(args.input, "rb") as handle:
        stream = handle.read()
    zdict = _read_zdict(args)
    max_output = args.max_output * 1024 if args.max_output else None
    if args.transcode:
        from repro.transcode import transcode

        result = transcode(stream, window_size=args.window,
                           zdict=zdict or None, max_output=max_output)
        output = args.output or args.input + ".tz"
        with open(output, "wb") as handle:
            handle.write(result.data)
        verb = "re-encoded" if result.changed else "kept"
        print(f"{args.input}: {result.input_size} -> "
              f"{result.output_size} bytes ({result.container}, "
              f"{verb}, payload {result.payload_size}) -> {output}")
        return 0
    if zdict:
        from repro.deflate.preset_dict import decompress_with_dict

        data = decompress_with_dict(stream, zdict, max_output=max_output)
    else:
        data = zd(stream, max_output=max_output)
    output = args.output or (
        args.input[:-4] if args.input.endswith(".lzz")
        else args.input + ".out"
    )
    with open(output, "wb") as handle:
        handle.write(data)
    print(f"{args.input}: {len(stream)} -> {len(data)} bytes -> {output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    paths: List[str] = list(args.inputs)
    if args.manifest:
        base = os.path.dirname(os.path.abspath(args.manifest))
        with open(args.manifest, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                paths.append(line if os.path.isabs(line)
                             else os.path.join(base, line))
    if not paths:
        raise SystemExit("batch: no payloads (give FILES or --manifest)")
    payloads = []
    for path in paths:
        with open(path, "rb") as handle:
            payloads.append(handle.read())

    kwargs = dict(
        profile=args.profile,
        zdict=_read_zdict(args),
        window_size=args.window,
        backend=args.backend,
        shared_plan=args.shared_plan,
    )
    if args.workers is not None and args.workers != 1:
        from repro.parallel import compress_batch_parallel

        result = compress_batch_parallel(
            payloads, workers=args.workers,
            chunk_payloads=args.chunk_payloads, **kwargs,
        )
    else:
        from repro.batch import compress_batch

        result = compress_batch(payloads, **kwargs)

    out_dir = args.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for path, stream in zip(paths, result.streams):
        name = os.path.basename(path) + args.suffix
        target = (os.path.join(out_dir, name) if out_dir
                  else path + args.suffix)
        with open(target, "wb") as handle:
            handle.write(stream)

    stats = result.stats
    ratio = (stats.input_bytes / stats.output_bytes
             if stats.output_bytes else 0.0)
    choice_text = ", ".join(
        f"{name}: {count}"
        for name, count in sorted(stats.choice_counts.items())
    )
    print(f"{stats.payload_count} payloads: {stats.input_bytes} -> "
          f"{stats.output_bytes} bytes (ratio {ratio:.3f})")
    print(f"route: {result.routing.backend} [{result.routing.reason}]; "
          f"block choices: {choice_text or 'none'}")
    print(f"streams written to "
          f"{out_dir or 'alongside inputs'} (*{args.suffix})")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.estimator.recommend import Constraints, recommend

    data = _load_data(args)
    rec = recommend(
        data,
        constraints=Constraints(
            min_throughput_mbps=args.min_speed,
            max_bram36=args.max_bram,
            min_ratio=args.min_ratio,
        ),
        objective=args.objective,
    )
    print(rec.format())
    return 0 if rec.found else 1


def _cmd_paper(args: argparse.Namespace) -> int:
    from repro.analysis.summary import full_reproduction

    report = full_reproduction(sample_bytes=args.size_kb * 1024)
    print(report.render())
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.estimator.workload_report import compare_workloads

    comparison = compare_workloads(
        params=_build_params(args),
        sample_bytes=args.size_kb * 1024,
    )
    print(comparison.format_table())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verification import run_soak

    report = run_soak(
        total_bytes=args.total_mb * 1024 * 1024,
        segment_bytes=args.segment_kb * 1024,
        params=_build_params(args),
    )
    print(report.format())
    print("all cross-checks passed")
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    for name, params in sorted(ESTIMATION_PRESETS.items()):
        print(f"{name:<14s} {params.describe()}")
    return 0


def _parse_value(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "on", "yes"):
        return True
    if lowered in ("false", "off", "no"):
        return False
    return int(lowered)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzss-estimator",
        description="Design-space estimation tool for the FPGA LZSS "
        "compressor (IPDPSW 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="estimate one configuration")
    _add_common(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="sweep one parameter")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--axis", required=True,
                              choices=sorted(ParameterSweep.SWEEPABLE))
    sweep_parser.add_argument("--values", required=True,
                              help="comma-separated values")
    sweep_parser.set_defaults(func=_cmd_sweep)

    res_parser = sub.add_parser("resources", help="FPGA utilisation only")
    _add_common(res_parser)
    res_parser.set_defaults(func=_cmd_resources)

    diff_parser = sub.add_parser(
        "diff",
        help="itemise the cycle/size/BRAM effect of changing one or "
        "more parameters",
    )
    _add_common(diff_parser)
    diff_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override applied to the second configuration "
        "(repeatable), e.g. --set data_bus_bytes=1",
    )
    diff_parser.set_defaults(func=_cmd_diff)

    analyze_parser = sub.add_parser(
        "analyze",
        help="statistical profile of a data sample (entropy, trigram "
        "diversity, match distribution)",
    )
    _add_common(analyze_parser)
    analyze_parser.set_defaults(func=_cmd_analyze)

    compress_parser = sub.add_parser(
        "compress", help="compress a file into a ZLib stream (.lzz)"
    )
    compress_parser.add_argument("input")
    compress_parser.add_argument("-o", "--output")
    compress_parser.add_argument("--preset",
                                 choices=sorted(ESTIMATION_PRESETS))
    compress_parser.add_argument("--window", type=int)
    compress_parser.add_argument("--hash-bits", type=int)
    compress_parser.add_argument("--gen-bits", type=int)
    add_compression_options(compress_parser)
    _add_block_flags(compress_parser)
    compress_parser.set_defaults(func=_cmd_compress)

    batch_parser = sub.add_parser(
        "batch",
        help="compress many small files in one batched pass "
        "(shared Huffman plans, one vectorised match sweep)",
    )
    batch_parser.add_argument(
        "inputs", nargs="*", metavar="FILE",
        help="payload files (each becomes one independent ZLib stream)",
    )
    batch_parser.add_argument(
        "--manifest", metavar="FILE",
        help="file listing payload paths, one per line (relative paths "
        "resolve against the manifest's directory; # comments allowed)",
    )
    batch_parser.add_argument(
        "--out-dir", metavar="DIR",
        help="write streams here (default: next to each input)",
    )
    batch_parser.add_argument(
        "--suffix", default=".lzz",
        help="output filename suffix (default .lzz)",
    )
    batch_parser.add_argument("--window", type=int,
                              help="dictionary window size in bytes")
    batch_parser.add_argument(
        "--shared-plan", action=argparse.BooleanOptionalAction,
        default=None,
        help="pool per-payload histograms into one shared dynamic "
        "Huffman plan (default on; --no-shared-plan pins every payload "
        "to fixed tables)",
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None,
        help="fan chunks of the batch out across processes "
        "(default: serial single pass)",
    )
    from repro.parallel.batch import DEFAULT_CHUNK_PAYLOADS

    batch_parser.add_argument(
        "--chunk-payloads", type=int, default=DEFAULT_CHUNK_PAYLOADS,
        help="payloads per parallel chunk "
        f"(default {DEFAULT_CHUNK_PAYLOADS}; each chunk builds its own "
        "shared plan)",
    )
    # The batched engine has no block strategy (its plan choices are
    # per payload) and no refine loop (payloads are far below the
    # refine floor), so those flags are opted out.
    add_compression_options(batch_parser, strategy=False, refine=False)
    batch_parser.set_defaults(func=_cmd_batch)

    pcompress_parser = sub.add_parser(
        "pcompress",
        help="compress a file with the sharded parallel engine "
        "(pigz-style, single ZLib stream output)",
    )
    pcompress_parser.add_argument("input")
    pcompress_parser.add_argument("-o", "--output")
    pcompress_parser.add_argument("--workers", type=int, default=None,
                                  help="process count (default: CPUs)")
    pcompress_parser.add_argument("--shard-kb", type=int, default=1024,
                                  help="shard size in KiB")
    pcompress_parser.add_argument(
        "--carry-window", action="store_true",
        help="prime each shard with the preceding window "
        "(better ratio, shards stay parallel)",
    )
    pcompress_parser.add_argument("--stats", action="store_true",
                                  help="print per-shard statistics")
    pcompress_parser.add_argument("--preset",
                                  choices=sorted(ESTIMATION_PRESETS))
    pcompress_parser.add_argument("--window", type=int)
    pcompress_parser.add_argument("--hash-bits", type=int)
    pcompress_parser.add_argument("--gen-bits", type=int)
    add_compression_options(pcompress_parser, sampling=True)
    _add_block_flags(pcompress_parser)
    pcompress_parser.set_defaults(func=_cmd_pcompress)

    serve_parser = sub.add_parser(
        "serve",
        help="run the asyncio compression service: zlib/gzip offload "
        "over one shared warm worker pool (LZR1 protocol)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=9123)
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="pool workers (default: CPUs)")
    serve_parser.add_argument("--shard-kb", type=int, default=256,
                              help="shard size in KiB")
    serve_parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="in-flight shard bound per connection "
        "(default: 2 per worker)",
    )
    serve_parser.add_argument(
        "--carry-window", action=argparse.BooleanOptionalAction,
        default=True,
        help="prime each shard with the preceding window (default on: "
        "a served stream is one document)",
    )
    serve_parser.add_argument(
        "--self-test", action="store_true",
        help="host on an ephemeral port, run the load generator, "
        "verify every response byte-for-byte, exit non-zero on "
        "mismatch (CI smoke)",
    )
    serve_parser.add_argument("--streams", default="1,2,4",
                              help="self-test concurrency sweep "
                              "(comma-separated)")
    serve_parser.add_argument("--payload-kb", type=int, default=128,
                              help="self-test payload per stream (KiB)")
    serve_parser.add_argument("--chunk-kb", type=int, default=32,
                              help="self-test client chunk size (KiB)")
    serve_parser.add_argument("--format", default="zlib",
                              choices=["zlib", "gzip"],
                              help="self-test stream format")
    add_compression_options(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    decompress_parser = sub.add_parser(
        "decompress", help="decompress a .lzz / ZLib stream file"
    )
    decompress_parser.add_argument("input")
    decompress_parser.add_argument("-o", "--output")
    decompress_parser.add_argument(
        "--transcode", action="store_true",
        help="re-encode through the adaptive splitter instead of "
        "extracting; writes the smaller verified stream",
    )
    decompress_parser.add_argument("--window", type=int, default=4096,
                                   help="transcode window size")
    decompress_parser.add_argument(
        "--max-output", type=int, default=None, metavar="KIB",
        help="abort if the decoded payload exceeds this many KiB "
        "(decompression-bomb guard, enforced mid-stream)",
    )
    _add_zdict_flag(decompress_parser)
    decompress_parser.set_defaults(func=_cmd_decompress)

    recommend_parser = sub.add_parser(
        "recommend",
        help="find the best configuration for your data under "
        "speed/BRAM/ratio constraints (§VI)",
    )
    _add_common(recommend_parser)
    recommend_parser.add_argument("--min-speed", type=float, default=0.0,
                                  help="minimum MB/s")
    recommend_parser.add_argument("--max-bram", type=int, default=None,
                                  help="BRAM36 budget")
    recommend_parser.add_argument("--min-ratio", type=float, default=0.0)
    recommend_parser.add_argument(
        "--objective", default="ratio",
        choices=["ratio", "throughput_mbps", "bram36"],
    )
    recommend_parser.set_defaults(func=_cmd_recommend)

    paper_parser = sub.add_parser(
        "paper",
        help="regenerate every table and figure of the paper's "
        "evaluation in one report",
    )
    _add_common(paper_parser)
    paper_parser.set_defaults(func=_cmd_paper)

    workloads_parser = sub.add_parser(
        "workloads",
        help="run one configuration across the whole workload corpus",
    )
    _add_common(workloads_parser)
    workloads_parser.set_defaults(func=_cmd_workloads)

    compare_parser = sub.add_parser(
        "compare",
        help="compare the FSM design against systolic/CAM matchers",
    )
    _add_common(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    pareto_parser = sub.add_parser(
        "pareto",
        help="sweep the design space and print the Pareto front",
    )
    _add_common(pareto_parser)
    pareto_parser.add_argument("--csv", help="also export all rows as CSV")
    pareto_parser.set_defaults(func=_cmd_pareto)

    verify_parser = sub.add_parser(
        "verify",
        help="soak-verify the datapath against the zlib reference "
        "(the paper's 1 TB validation, scaled)",
    )
    _add_common(verify_parser)
    verify_parser.add_argument("--total-mb", type=int, default=4)
    verify_parser.add_argument("--segment-kb", type=int, default=64)
    verify_parser.set_defaults(func=_cmd_verify)

    presets_parser = sub.add_parser("presets", help="list presets")
    presets_parser.set_defaults(func=_cmd_presets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
