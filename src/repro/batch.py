"""Batched small-message compression: N payloads, one vectorised pass.

Small independent records — telemetry frames, log lines, templated JSON
messages — are the worst case for a per-call compressor: each
``compress()`` pays the full fixed cost (backend resolution, hash-table
setup, Huffman table construction, numpy dispatch) for a few kilobytes
of work. The paper's FPGA engine amortises its pipeline fill the same
way this module amortises Python/numpy overhead: pack many messages
into one buffer and run the expensive machinery once.

:func:`compress_batch` is the end-to-end entry point:

1. **One routing decision** for the whole batch
   (:func:`repro.lzss.router.route_batch`): the packed kernel for
   ``auto`` where it applies, else one concrete backend per payload.
2. **One tokenization pass** (:func:`repro.lzss.batch.tokenize_batch`):
   payloads are packed into one contiguous buffer and matched by a
   single vectorised hash/match sweep with seam masks, so no match ever
   crosses a payload boundary. A shared preset dictionary primes every
   payload's window and is hashed once, not N times.
3. **Shared Huffman plans** (:func:`repro.deflate.batch_emit.emit_batch`):
   per-payload histograms are pooled into one dynamic plan built once;
   each payload then picks shared/fixed/stored by exact bit price and
   all non-stored bodies are packed by one vectorised bit packer.
4. **Independent ZLib framing**: every output stream is a complete,
   standalone RFC 1950 stream (FDICT framing when ``zdict`` is given)
   that CPython's ``zlib.decompress`` / ``decompressobj(zdict=...)``
   accepts — batching changes wall-clock and (via shared plans) size,
   never interoperability.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.checksums.adler32 import adler32_many
from repro.deflate.batch_emit import emit_batch
from repro.deflate.zlib_container import make_header
from repro.errors import ConfigError
from repro.lzss.backends import resolve
from repro.lzss.batch import (
    BATCH_GREEDY_POLICY,
    effective_dictionary,
    tokenize_batch,
    tokenize_scalar,
)
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy
from repro.lzss.router import RoutingDecision, route_batch
from repro.profile import CompressionProfile


class BatchStats:
    """Aggregate accounting for one :func:`compress_batch` call."""

    __slots__ = ("payload_count", "input_bytes", "output_bytes",
                 "choice_counts")

    def __init__(self, payload_count: int, input_bytes: int,
                 output_bytes: int, choice_counts: Dict[str, int]) -> None:
        self.payload_count = payload_count
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes
        self.choice_counts = choice_counts

    @property
    def ratio(self) -> float:
        """Compressed/raw byte ratio (1.0 for an empty batch)."""
        if not self.input_bytes:
            return 1.0
        return self.output_bytes / self.input_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchStats(n={self.payload_count}, in={self.input_bytes}, "
            f"out={self.output_bytes}, choices={self.choice_counts})"
        )


class BatchResult:
    """Streams plus the decisions that produced them.

    ``streams[i]`` is payload *i*'s complete ZLib stream; ``choices[i]``
    names its block coding (``"shared"``/``"fixed"``/``"stored"``).
    ``plan`` is the pooled :class:`repro.deflate.dynamic.DynamicPlan`
    when at least the pricing ran with shared plans enabled (``None``
    with ``shared_plan=False``).
    """

    __slots__ = ("streams", "choices", "routing", "plan", "stats")

    def __init__(self, streams: List[bytes], choices: tuple,
                 routing: RoutingDecision, plan, stats: BatchStats) -> None:
        self.streams = streams
        self.choices = choices
        self.routing = routing
        self.plan = plan
        self.stats = stats

    def __len__(self) -> int:
        return len(self.streams)

    def __iter__(self):
        return iter(self.streams)


def compress_batch(
    payloads: Sequence[bytes],
    *,
    profile: Union[None, str, CompressionProfile] = None,
    zdict: bytes = b"",
    window_size: Optional[int] = None,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    backend: Optional[str] = None,
    shared_plan: Optional[bool] = None,
    backends: Optional[Mapping[int, str]] = None,
) -> BatchResult:
    """Compress N independent payloads in one batched pass.

    Returns a :class:`BatchResult` whose ``streams`` decode
    independently with CPython zlib (``zlib.decompress`` for plain
    streams, ``decompressobj(zdict=...)`` for FDICT streams — pass the
    *effective* dictionary, i.e. ``zdict`` trimmed to the window tail,
    when ``zdict`` exceeds ``window_size - 262``).

    ``policy`` defaults to :data:`repro.lzss.batch.BATCH_GREEDY_POLICY`
    (not the serial default): the batch engine's one-sweep greedy
    matcher plus shared dynamic plans is its measured sweet spot. Any
    explicit policy is honoured — unsupported ones degrade to the
    scalar per-payload loop with identical bytes.

    ``backends`` maps payload indices to backend names
    (``{3: "traced"}``) to override the batch route for individual
    payloads — the tokens are bit-identical across backends, so this
    only moves which kernel runs (e.g. tracing one payload of a batch).
    """
    from repro.api import CompressRequest

    resolved = CompressRequest(
        profile=profile,
        window_size=window_size,
        hash_spec=hash_spec,
        policy=policy,
        backend=backend,
        batch_shared_plan=shared_plan,
        zdict=zdict if zdict else None,
    ).resolve(
        backend="auto",
        hash_spec=HashSpec(),
        policy=BATCH_GREEDY_POLICY,
    )
    window_size = resolved.window_size
    hash_spec = resolved.hash_spec or HashSpec()
    policy = resolved.policy
    backend = resolved.backend
    shared = resolved.batch_shared_plan
    zdict = resolved.zdict

    payloads = [bytes(p) for p in payloads]
    overrides = dict(backends or {})
    for index in overrides:
        if not 0 <= index < len(payloads):
            raise ConfigError(
                f"backends override for payload {index} is out of range "
                f"(batch has {len(payloads)} payloads)"
            )

    dictionary = effective_dictionary(zdict, window_size)
    header = make_header(window_size, dictionary)

    if not payloads:
        routing = RoutingDecision(
            backend="fast", requested=backend, reason="empty-batch",
        )
        return BatchResult([], (), routing, None,
                           BatchStats(0, 0, 0, {}))

    routing = route_batch(payloads, backend=backend, policy=policy)
    tokens_list = tokenize_batch(
        payloads, window_size, hash_spec, policy,
        backend=backend, dictionary=dictionary,
    )
    for index, name in overrides.items():
        tokens_list[index] = tokenize_scalar(
            payloads[index], dictionary, window_size, hash_spec,
            policy, resolve(name, policy),
        )
    emission = emit_batch(tokens_list, payloads, shared_plan=shared)
    bodies = emission.bodies
    choices = tuple(emission.choices)
    plan = emission.plan

    trailers = adler32_many(payloads)
    streams = [
        header + body + value.to_bytes(4, "big")
        for body, value in zip(bodies, trailers)
    ]
    counts: Dict[str, int] = {}
    for choice in choices:
        counts[choice] = counts.get(choice, 0) + 1
    stats = BatchStats(
        payload_count=len(payloads),
        input_bytes=sum(len(p) for p in payloads),
        output_bytes=sum(len(s) for s in streams),
        choice_counts=counts,
    )
    return BatchResult(streams, choices, routing, plan, stats)
