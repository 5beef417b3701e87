"""Batched tokenization of many small payloads in one kernel pass.

The batched small-message engine (:mod:`repro.batch`) packs N
independent payloads into one contiguous buffer and tokenizes them with
a *single* vectorised hash/match pass — the software analogue of GPULZ
padding many buffers into one kernel launch. This module owns the
packing contract:

* every payload becomes one **segment** of the packed buffer, and no
  match ever crosses a segment seam: hash chains are bucketed per
  ``(segment, hash)``, extension limits stop at the segment end, and
  the sub-chain cascade carries a segment guard
  (:func:`repro.lzss.vector.batch_match_arrays`);
* with a preset dictionary each segment is ``dictionary + payload``, so
  matches may reach back into the dictionary (the decompressor's
  window is pre-loaded with it) and the dictionary is hashed as part
  of the same single pass instead of once per payload; the tokens
  covering the dictionary region are trimmed afterwards
  (:func:`~repro.lzss.tokens.trim_prefix_tokens`, the same rule every
  carried-history tokenization applies);
* the per-segment token streams are **bit-identical** to what the
  scalar per-payload tokenizers produce for the same configuration
  (``tests/properties/test_batch_differential.py`` holds the line), so
  batching moves only wall-clock.

Greedy insert-all policies replay all segments in lockstep
(:func:`repro.lzss.vector.replay_greedy_lockstep`); lazy policies fall
back to the per-segment scalar replay, and partial-insert policies or a
missing numpy tokenize each payload with the scalar ``fast`` kernel —
same bytes, no batching win (:func:`packed_kernel_applies`).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

from repro.lzss.backends import resolve
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy
from repro.lzss.tokens import (
    MAX_MATCH,
    MIN_MATCH,
    TokenArray,
    effective_dictionary,  # noqa: F401  (re-exported: the batch API)
    trim_prefix_tokens,
)

#: The batch engine's default matching policy: greedy, insert-all, one
#: chain probe per position. Insert-all makes the chain topology
#: parse-independent (the packed kernels' requirement) and a single
#: chain round keeps the batched pass one `_batch_matches` sweep; the
#: ratio loss against deeper chains is recovered by the shared dynamic
#: Huffman plans (measured on the templated-JSON corpus: batch default
#: beats the per-payload FIXED loop on size *and* speed).
BATCH_GREEDY_POLICY = MatchPolicy(
    max_chain=1,
    good_length=MAX_MATCH,
    nice_length=MAX_MATCH,
    lazy=False,
    max_lazy=0,
    max_insert_length=MAX_MATCH,
)


def _tokenize_one(data, window_size, hash_spec, policy, backend: str):
    """Scalar per-payload tokenization for one concrete backend."""
    if backend == "traced":
        from repro.lzss.compressor import LZSSCompressor

        return LZSSCompressor(
            window_size, hash_spec, policy, backend="traced"
        ).compress(bytes(data)).tokens
    from repro.lzss.fast import compress_fast

    return compress_fast(bytes(data), window_size, hash_spec, policy)


def tokenize_scalar(
    payload,
    dictionary: bytes,
    window_size: int,
    hash_spec: HashSpec,
    policy: MatchPolicy,
    backend: str = "fast",
) -> TokenArray:
    """One payload through the scalar path (fallbacks and overrides).

    With a dictionary, tokenizes ``dictionary + payload`` and trims —
    exactly what ``compress_with_dict`` does, so the batched and serial
    preset-dictionary paths agree byte for byte.
    """
    if not dictionary:
        return _tokenize_one(payload, window_size, hash_spec, policy,
                             backend)
    combined = dictionary + bytes(payload)
    tokens = _tokenize_one(combined, window_size, hash_spec, policy,
                           backend)
    return trim_prefix_tokens(tokens, combined, len(dictionary))


def _split_counts(tok_len, tok_val, counts) -> List[TokenArray]:
    """Cut the segment-major token columns into per-segment arrays."""
    out = []
    start = 0
    for count in counts.tolist():
        stop = start + count
        ta = TokenArray()
        ta.lengths = array("i")
        ta.lengths.frombytes(tok_len[start:stop].tobytes())
        ta.values = array("i")
        ta.values.frombytes(tok_val[start:stop].tobytes())
        out.append(ta)
        start = stop
    return out


def _tokenize_packed(
    payloads: Sequence[bytes],
    dictionary: bytes,
    window_size: int,
    hash_spec: HashSpec,
    policy: MatchPolicy,
) -> List[TokenArray]:
    """The vectorised batch path: one pass over the packed buffer."""
    import numpy as np

    from repro.lzss import vector as V

    base = len(dictionary)
    if base:
        packed = b"".join(dictionary + bytes(p) for p in payloads)
    else:
        packed = b"".join(bytes(p) for p in payloads)
    seg_lens = np.fromiter(
        (base + len(p) for p in payloads), dtype=np.int64,
        count=len(payloads),
    )
    seg_ends = np.cumsum(seg_lens)
    seg_starts = seg_ends - seg_lens
    n = len(packed)
    if n == 0:
        return [TokenArray() for _ in payloads]
    buf = np.frombuffer(packed, dtype=np.uint8)
    seg_of = np.repeat(np.arange(seg_lens.size, dtype=np.int64), seg_lens)
    end_of = np.repeat(seg_ends, seg_lens)
    hcount = max(0, n - MIN_MATCH + 1)
    seam = (
        np.arange(hcount, dtype=np.int64) + MIN_MATCH > end_of[:hcount]
    )

    full_len, full_dist, quart_len, quart_dist = V.batch_match_arrays(
        buf, seg_of, end_of, seam, window_size, hash_spec, policy
    )

    if policy.lazy:
        tokens = []
        for i in range(seg_lens.size):
            s, e = int(seg_starts[i]), int(seg_ends[i])
            tokens.append(V._replay_lazy(
                packed[s:e], e - s, policy,
                full_len[s:e], full_dist[s:e],
                None if quart_len is None else quart_len[s:e],
                None if quart_dist is None else quart_dist[s:e],
            ))
    else:
        tok_len, tok_val, counts = V.replay_greedy_lockstep(
            buf, seg_starts, seg_ends, full_len, full_dist
        )
        tokens = _split_counts(tok_len, tok_val, counts)

    if base:
        view = memoryview(packed)
        tokens = [
            trim_prefix_tokens(
                ta, view[int(seg_starts[i]):int(seg_ends[i])], base
            )
            for i, ta in enumerate(tokens)
        ]
    return tokens


def packed_kernel_applies(policy: Optional[MatchPolicy]) -> bool:
    """Whether the packed kernels can tokenize a batch under ``policy``.

    They need numpy and an insert-all policy: every position enters the
    hash table (all lazy policies, and greedy with ``max_insert_length
    >= MAX_MATCH``), so the chains do not depend on parse decisions and
    can be built in one sort. ``None`` stands for
    :data:`BATCH_GREEDY_POLICY`.
    """
    from repro.lzss.backends import _numpy_usable

    policy = policy or BATCH_GREEDY_POLICY
    insert_all = policy.lazy or policy.max_insert_length >= MAX_MATCH
    return bool(insert_all) and _numpy_usable()


def tokenize_batch(
    payloads: Sequence[bytes],
    window_size: int = 4096,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    backend: str = "auto",
    dictionary: bytes = b"",
) -> List[TokenArray]:
    """Tokenise every payload, batched where the kernel allows it.

    ``"auto"`` runs the packed single-pass kernel when
    :func:`packed_kernel_applies`, and the scalar ``fast`` kernel per
    payload otherwise; a concrete backend name
    (:func:`repro.lzss.backends.resolve`) tokenizes each payload with
    that backend. Output bytes are identical either way.
    ``dictionary`` (already trimmed to the window, see
    :func:`effective_dictionary`) primes every payload's window.
    """
    hash_spec = hash_spec or HashSpec()
    policy = policy or BATCH_GREEDY_POLICY
    if not payloads:
        return []
    if backend == "auto" and packed_kernel_applies(policy):
        return _tokenize_packed(
            payloads, dictionary, window_size, hash_spec, policy
        )
    concrete = resolve(backend, policy)
    return [
        tokenize_scalar(p, dictionary, window_size, hash_spec, policy,
                        concrete)
        for p in payloads
    ]
