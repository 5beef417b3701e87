"""Entropy sniff: route incompressible shards straight to STORED.

A shard of uniform random bytes pays the full LZSS tokenization — the
most expensive stage of the pipeline — only for the adaptive splitter to
discover that every block prices cheapest as STORED. The GPU/ASIC
accelerators make the same observation (GPULZ's prefix scan and the LZ4
accelerator's early reject both skip low-yield regions to sustain
throughput on incompressible data); the software analogue is a cheap
statistical sniff on the raw bytes *before* the tokenizer runs.

Two signals, both sampled so the sniff stays O(sample) not O(shard):

* **order-0 entropy** of a strided byte sample across the whole shard
  (:func:`sampled_entropy_bits`). Uniform random data measures ~7.99
  bits/byte; anything a Huffman stage could squeeze sits well below the
  :data:`ENTROPY_BYPASS_BITS` threshold.
* **trigram repeats** in short contiguous probe windows
  (:func:`trigram_repeat_fraction`). Order-0 entropy is blind to LZ
  structure — a 0,1,...,255 ramp has maximal byte entropy yet compresses
  almost entirely into matches — so the bypass additionally requires
  that almost no 3-byte window recurs within the probes (a recurring
  trigram is exactly what seeds an LZSS match).

The probe itself is :func:`repro.lzss.router.probe_shard`, which
measures the entropy first and runs the dearer trigram pass only when
the entropy (and the buffer size) could still allow a bypass. Only when
*both* signals say "no yield" is the chunk incompressible, and
:func:`repro.deflate.stream.deflate_chunk` — the per-chunk body of
every ADAPTIVE entry point (one-shot, stream, shard) — emits
multi-chunk stored blocks directly, skipping tokenization entirely.
:func:`looks_incompressible` is the same verdict for a bare buffer. A
false negative merely runs the normal adaptive path; a false positive
costs at most the stored framing (~9 bytes per 64 KiB) on data that
would not have compressed anyway — the sniff never affects
correctness, only where the wall-clock goes.
"""

from __future__ import annotations

import math
from collections import Counter

#: Strided-sample budget for the order-0 entropy estimate.
SNIFF_SAMPLE_BYTES = 1 << 16

#: Length of each contiguous trigram probe window.
SNIFF_PROBE_BYTES = 1 << 13

#: Bypass only above this order-0 entropy (bits/byte). Random data
#: measures ~7.99 even on modest samples (the sample-size bias of the
#: plug-in estimator is ~K/(2N ln 2) ≈ 0.01 bits at 16 KiB); real text
#: and binaries sit at 4-7.5.
ENTROPY_BYPASS_BITS = 7.8

#: Bypass only when fewer than this fraction of probe trigrams recur.
#: A uniform random 8 KiB window repeats ~0.4% of its trigrams
#: (birthday bound over 2^24); LZ-compressible data repeats most.
TRIGRAM_REPEAT_LIMIT = 0.05

#: Below this size the tokenizer is cheap and the sniff is noise.
MIN_SNIFF_BYTES = 4096


def sampled_entropy_bits(data, sample_bytes: int = SNIFF_SAMPLE_BYTES
                         ) -> float:
    """Order-0 entropy (bits/byte) of a strided sample of ``data``.

    The stride spreads the sample across the whole buffer, so a shard
    that is half text and half noise measures the mixture's entropy,
    not the prefix's.
    """
    view = memoryview(data)
    n = len(view)
    if n == 0:
        return 0.0
    step = max(1, n // sample_bytes)
    sampled = view[::step] if step > 1 else view
    total = len(sampled)
    acc = 0.0
    for count in Counter(bytes(sampled)).values():
        p = count / total
        acc -= p * math.log2(p)
    return acc


def trigram_repeat_fraction(data, probe_bytes: int = SNIFF_PROBE_BYTES
                            ) -> float:
    """Fraction of probe-window trigrams that recur within their window.

    Probes the head and the middle of ``data`` (two windows of
    ``probe_bytes``), returning the larger repeat fraction — if either
    region shows match-seeding structure, the shard is worth
    tokenizing.
    """
    data = bytes(data)
    n = len(data)
    if n < 3:
        return 0.0
    starts = [0]
    mid = (n - probe_bytes) // 2
    if mid > probe_bytes:
        starts.append(mid)
    worst = 0.0
    for start in starts:
        window = data[start:start + probe_bytes]
        positions = len(window) - 2
        if positions <= 0:
            continue
        seen = set()
        repeats = 0
        for i in range(positions):
            trigram = window[i:i + 3]
            if trigram in seen:
                repeats += 1
            else:
                seen.add(trigram)
        worst = max(worst, repeats / positions)
    return worst


def looks_incompressible(data) -> bool:
    """True when ``data`` should skip tokenization and go STORED.

    The verdict of :func:`repro.lzss.router.probe_shard`, which applies
    the thresholds above: both the entropy and the trigram signal must
    clear them, and small buffers never bypass — their tokenization is
    cheap and the sample too noisy.
    """
    from repro.lzss.router import probe_shard

    return probe_shard(data).incompressible
