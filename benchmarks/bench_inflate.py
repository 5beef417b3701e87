"""Throughput of the table-driven inflate vs the symbol-at-a-time loop.

The fast decoder resolves multi-symbol lookup-table entries against a
word-at-a-time refilled bit buffer (fused length+extra records, literal
runs); the baseline below is the pre-rewrite hot loop, inlined so the
comparison survives in-tree: one ``HuffmanDecoder.decode`` call per
symbol, one ``read_bits`` call per extra-bits field, byte-at-a-time
refill. Same tables, same input, same output — the delta is purely the
decode loop.

Every timed decode is byte-compared against ``zlib.decompress`` before
a number is reported, and the transcode rows re-verify their own
round-trip, so a wrong-but-fast decoder cannot post a score.

Results go to ``benchmarks/results/`` (rendered) and
``BENCH_inflate.json`` at the repo root (machine-readable, consumed by
the CI perf-smoke job, which fails the build when the headline decode
drops below ``--min-speedup`` — 3.0x by default).

Runs standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_inflate.py --quick

or in full (1 MiB per workload, the acceptance configuration) without
``--quick``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_inflate.json"

FULL_BYTES = 1024 * 1024
QUICK_BYTES = 256 * 1024

HEADLINE = ("wiki", 6)  # the gated row: 1 MiB text, zlib level 6


# --- inlined pre-rewrite decoder (the baseline under comparison) -----

BitstreamError = HuffmanError = None  # bound on first baseline run


def _bind_errors() -> None:
    global BitstreamError, HuffmanError
    if BitstreamError is None:
        from repro import errors

        BitstreamError = errors.BitstreamError
        HuffmanError = errors.HuffmanError


class _BaselineReader:
    """The pre-rewrite ``BitReader``: byte-at-a-time refill."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0
        self._bitbuf = 0
        self._bitcount = 0

    def read_bits(self, nbits: int) -> int:
        if nbits < 0:
            raise BitstreamError(f"negative bit count: {nbits}")
        while self._bitcount < nbits:
            if self._pos >= len(self._data):
                raise BitstreamError("unexpected end of bitstream")
            self._bitbuf |= self._data[self._pos] << self._bitcount
            self._pos += 1
            self._bitcount += 8
        value = self._bitbuf & ((1 << nbits) - 1)
        self._bitbuf >>= nbits
        self._bitcount -= nbits
        return value

    def peek_bits(self, nbits: int) -> int:
        while self._bitcount < nbits and self._pos < len(self._data):
            self._bitbuf |= self._data[self._pos] << self._bitcount
            self._pos += 1
            self._bitcount += 8
        return self._bitbuf & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        if nbits > self._bitcount:
            raise BitstreamError("skip past end of bitstream")
        self._bitbuf >>= nbits
        self._bitcount -= nbits

    def align_to_byte(self) -> None:
        discard = self._bitcount % 8
        self._bitbuf >>= discard
        self._bitcount -= discard

    def read_bytes(self, count: int) -> bytes:
        out = bytearray()
        while self._bitcount and count:
            out.append(self._bitbuf & 0xFF)
            self._bitbuf >>= 8
            self._bitcount -= 8
            count -= 1
        out.extend(self._data[self._pos:self._pos + count])
        self._pos += count
        return bytes(out)


class _BaselineDecoder:
    """The pre-rewrite Huffman table: one flat ``(symbol, length)``
    entry per ``max_len``-bit window, one peek+skip per symbol."""

    def __init__(self, lengths, allow_incomplete=False) -> None:
        from repro.bitio.writer import reverse_bits
        from repro.huffman.canonical import (
            canonical_codes,
            validate_code_lengths,
        )

        validate_code_lengths(lengths, 15, allow_incomplete)
        self.max_len = max(l for l in lengths if l)
        codes = canonical_codes(list(lengths))
        size = 1 << self.max_len
        table = [(-1, 0)] * size
        for symbol, length in enumerate(lengths):
            if not length:
                continue
            prefix = reverse_bits(codes[symbol], length)
            for index in range(prefix, size, 1 << length):
                table[index] = (symbol, length)
        self._table = table
        self._mask = size - 1

    def decode(self, reader: _BaselineReader) -> int:
        window = reader.peek_bits(self.max_len)
        symbol, length = self._table[window & self._mask]
        if symbol < 0:
            raise HuffmanError(
                f"undecodable bit pattern {window:0{self.max_len}b}"
            )
        reader.skip_bits(length)
        return symbol


_BASELINE_FIXED = None


def _baseline_tables(reader):
    from repro.deflate.constants import CODE_LENGTH_ORDER

    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    cl_lengths = [0] * 19
    for index in range(hclen):
        cl_lengths[CODE_LENGTH_ORDER[index]] = reader.read_bits(3)
    cl_decoder = _BaselineDecoder(cl_lengths)
    lengths = []
    while len(lengths) < hlit + hdist:
        symbol = cl_decoder.decode(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            lengths.extend([lengths[-1]] * (reader.read_bits(2) + 3))
        elif symbol == 17:
            lengths.extend([0] * (reader.read_bits(3) + 3))
        else:
            lengths.extend([0] * (reader.read_bits(7) + 11))
    litlen = _BaselineDecoder(lengths[:hlit])
    dist = _BaselineDecoder(lengths[hlit:], allow_incomplete=True)
    return litlen, dist


def _baseline_inflate(data: bytes) -> bytes:
    """The decoder as it stood before the lookup-table rewrite: one
    table walk per symbol, one ``read_bits`` call per extras field,
    byte-at-a-time bit-buffer refill."""
    global _BASELINE_FIXED
    from repro.deflate.constants import (
        DISTANCE_TABLE,
        END_OF_BLOCK,
        LENGTH_TABLE,
        distance_from_symbol,
        length_from_symbol,
    )
    from repro.errors import DeflateError
    from repro.huffman.fixed import (
        FIXED_DIST_LENGTHS,
        FIXED_LITLEN_LENGTHS,
    )

    _bind_errors()
    if _BASELINE_FIXED is None:
        _BASELINE_FIXED = (_BaselineDecoder(FIXED_LITLEN_LENGTHS),
                           _BaselineDecoder(FIXED_DIST_LENGTHS))
    reader = _BaselineReader(data)
    out = bytearray()
    while True:
        final = reader.read_bits(1)
        btype = reader.read_bits(2)
        if btype == 0b00:
            reader.align_to_byte()
            length = reader.read_bits(16)
            reader.read_bits(16)  # NLEN, unchecked in the bench
            out.extend(reader.read_bytes(length))
            if final:
                return bytes(out)
            continue
        if btype == 0b01:
            litlen, dist = _BASELINE_FIXED
        elif btype == 0b10:
            litlen, dist = _baseline_tables(reader)
        else:
            raise DeflateError("reserved block type 11")
        while True:
            symbol = litlen.decode(reader)
            if symbol < 256:
                out.append(symbol)
            elif symbol == END_OF_BLOCK:
                break
            else:
                extra = LENGTH_TABLE[symbol - 257][1]
                length = length_from_symbol(symbol,
                                            reader.read_bits(extra))
                dsymbol = dist.decode(reader)
                dextra = DISTANCE_TABLE[dsymbol][1]
                distance = distance_from_symbol(
                    dsymbol, reader.read_bits(dextra))
                start = len(out) - distance
                if start < 0:
                    raise DeflateError("distance precedes output start")
                if distance >= length:
                    out.extend(out[start:start + length])
                else:
                    for i in range(length):
                        out.append(out[start + i])
        if final:
            return bytes(out)


def _interleaved_mbps(fns: Sequence[Callable[[], object]], nbytes: int,
                      repeats: int) -> List[float]:
    """Best-of throughput for several decoders, rounds interleaved.

    The gate checks a *ratio*, so the two sides must see the same
    machine: alternating baseline/fast/... within each round cancels
    the slow drift a noisy shared box adds, where timing one decoder's
    rounds back-to-back before the other's would bake the drift into
    the ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best[index]:
                best[index] = elapsed
    return [nbytes / b / 1e6 for b in best]


def inflate_workloads(size_bytes: int) -> Dict[str, bytes]:
    from repro.workloads.corpus import sample
    from repro.workloads.logs import syslog_text

    return {
        "wiki": sample("wiki", size_bytes),
        "syslog": syslog_text(size_bytes, seed=7),
        "zeros": bytes(size_bytes),
    }


def measure_decoders(size_bytes: int, repeats: int) -> List[dict]:
    """Baseline vs fast inflate per workload."""
    from repro.deflate.inflate import inflate

    rows: List[dict] = []
    for workload, data in sorted(inflate_workloads(size_bytes).items()):
        for level in (1, 6):
            if level == 1 and workload != "wiki":
                continue
            engine = zlib.compressobj(level, zlib.DEFLATED, -15)
            body = engine.compress(data) + engine.flush()
            expected = zlib.decompress(body, -15)
            for name, fn in (
                ("baseline", lambda b=body: _baseline_inflate(b)),
                ("fast", lambda b=body: inflate(b)),
            ):
                if fn() != expected:
                    raise AssertionError(
                        f"{name} decode diverges from zlib on "
                        f"{workload}/level{level}"
                    )
            baseline_mbps, scalar_mbps = _interleaved_mbps(
                (lambda: _baseline_inflate(body),
                 lambda: inflate(body)),
                len(data), repeats)
            row = {
                "workload": f"{workload}-l{level}",
                "stream_bytes": len(body),
                "baseline_mbps": round(baseline_mbps, 3),
                "fast_mbps": round(scalar_mbps, 3),
                "speedup": round(scalar_mbps / baseline_mbps, 3),
                "headline": (workload, level) == HEADLINE,
            }
            rows.append(row)
    return rows


def measure_transcode(size_bytes: int) -> List[dict]:
    """Fixed-block streams through the transcoder; round-trip checked."""
    import gzip

    from repro.deflate import gzip_container
    from repro.deflate.zlib_container import compress as zlib_compress
    from repro.transcode import transcode

    data = inflate_workloads(size_bytes)["wiki"]
    rows: List[dict] = []
    for container, stream, redecode in (
        ("zlib", zlib_compress(data),
         lambda s: zlib.decompress(s)),
        ("gzip", gzip_container.compress(data),
         lambda s: gzip.decompress(s)),
    ):
        result = transcode(stream)
        if redecode(result.data) != data:
            raise AssertionError(
                f"transcoded {container} stream fails round-trip")
        if result.output_size > result.input_size:
            raise AssertionError(
                f"transcoded {container} stream grew")
        rows.append({
            "workload": f"transcode-{container}",
            "old_bytes": result.input_size,
            "output_bytes": result.output_size,
            "speedup": round(result.input_size / result.output_size, 3),
        })
    return rows


def build_report(size_bytes: int, repeats: int) -> dict:
    return {
        "benchmark": "inflate",
        "python": platform.python_version(),
        "size_bytes": size_bytes,
        "rows": measure_decoders(size_bytes, repeats)
        + measure_transcode(size_bytes),
    }


def render(report: dict) -> str:
    lines = [
        "EXTENSION — TABLE-DRIVEN INFLATE (multi-symbol entries, "
        "word-at-a-time refill)",
        f"{'workload':<18s} {'baseline':>9s} {'fast':>9s} "
        f"{'speedup':>8s}",
    ]
    for row in report["rows"]:
        if "baseline_mbps" in row:
            lines.append(
                f"{row['workload']:<18s} "
                f"{row['baseline_mbps']:>7.2f}MB "
                f"{row['fast_mbps']:>7.2f}MB "
                f"{row['speedup']:>7.2f}x"
            )
    lines.append("")
    lines.append("TRANSCODE (fixed-block input -> adaptive re-encode, "
                 "verified)")
    lines.append(f"{'stream':<18s} {'in':>9s} {'out':>9s} "
                 f"{'shrink':>8s}")
    for row in report["rows"]:
        if row["workload"].startswith("transcode-"):
            lines.append(
                f"{row['workload']:<18s} {row['old_bytes']:>9d} "
                f"{row['output_bytes']:>9d} {row['speedup']:>7.2f}x"
            )
    return "\n".join(lines)


def check_speedup(report: dict, min_speedup: float) -> None:
    for row in report["rows"]:
        if row.get("headline"):
            assert row["speedup"] >= min_speedup, (
                f"headline inflate speedup {row['speedup']:.2f}x "
                f"below the {min_speedup:.1f}x gate"
            )
            break
    else:
        raise AssertionError("no headline row in report")
    for row in report["rows"]:
        if row["workload"].startswith("transcode-"):
            assert row["output_bytes"] <= row["old_bytes"], row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke: {QUICK_BYTES // 1024} KiB per workload",
    )
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required headline decode speedup")
    parser.add_argument("--json", type=pathlib.Path, default=JSON_PATH,
                        help="machine-readable output path")
    args = parser.parse_args(argv)

    report = build_report(QUICK_BYTES if args.quick else FULL_BYTES,
                          args.repeats)
    report["min_speedup"] = args.min_speedup

    from benchmarks.conftest import save_exhibit

    save_exhibit("extension_inflate", render(report))
    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    print(render(report))
    check_speedup(report, args.min_speedup)
    print(f"headline decode holds >= {args.min_speedup:.1f}x over the "
          "symbol-at-a-time baseline")
    return 0


def test_inflate_speedup(benchmark, sample_bytes):
    from benchmarks.conftest import run_once, save_exhibit

    report = run_once(
        benchmark, lambda: build_report(sample_bytes, repeats=2))
    save_exhibit("extension_inflate", render(report))
    check_speedup(report, 2.0)  # looser under pytest-benchmark overhead


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT))
    sys.exit(main())
