"""Per-chunk decisions: stored-bypass probe, traced sampling, batch kernel.

Every compressing entry point makes the same small decisions for each
chunk (stream write, shard, or packed batch) it tokenizes, and this
module is where they are made:

* :func:`probe_shard` — the stored-bypass probe: the entropy/trigram
  sniff of :mod:`repro.deflate.sniff` over a sample of the chunk
  (O(sample), not O(chunk)), packaged as a :class:`ShardProbe` whose
  :attr:`~ShardProbe.incompressible` verdict sends the chunk straight to
  stored blocks.
* :func:`route_shard` — the backend one chunk runs: the caller's
  backend, resolved through :func:`repro.lzss.backends.resolve`, unless
  the traced-sampling policy picks the chunk.
* :func:`should_trace` — a deterministic, seedable sampling policy that
  diverts a configurable fraction of chunks through the instrumented
  ``traced`` backend. Sampled chunks produce the
  :class:`~repro.lzss.trace.MatchTrace` the hardware cycle model
  consumes, which the stream and parallel engines fold into
  :mod:`repro.estimator.calibration` as live calibration points.
* :func:`route_batch` — which kernel a packed batch of small payloads
  runs (:mod:`repro.lzss.batch`): the packed numpy kernels for ``auto``
  when they apply, the scalar per-payload loop otherwise.

No decision changes output bytes: ``traced`` and ``fast`` are
bit-identical by the differential-test contract, and so are the packed
batch kernels. A chunk that asks for ``backend="sa"`` (the exact
suffix-array matcher, deliberately not bit-identical) always runs
``sa`` and is exempt from traced sampling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.deflate.sniff import (
    ENTROPY_BYPASS_BITS,
    MIN_SNIFF_BYTES,
    SNIFF_SAMPLE_BYTES,
    TRIGRAM_REPEAT_LIMIT,
    sampled_entropy_bits,
    trigram_repeat_fraction,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class ShardProbe:
    """One chunk's stored-bypass signals, computed once.

    ``trigram_repeat`` is ``None`` when the probe short-circuited before
    measuring it (a chunk under ``MIN_SNIFF_BYTES`` or below the entropy
    threshold can never bypass).
    """

    input_bytes: int
    entropy_bits: float
    trigram_repeat: Optional[float]

    @property
    def incompressible(self) -> bool:
        """The stored-bypass verdict, from the sampled signals."""
        return (self.trigram_repeat is not None
                and self.trigram_repeat < TRIGRAM_REPEAT_LIMIT)


def probe_shard(data) -> ShardProbe:
    """Probe one chunk: sampled entropy, then trigram repeats if needed.

    The stored-bypass decision point, and the one place its thresholds
    are applied (:func:`repro.deflate.sniff.looks_incompressible` is
    this verdict). Both signals must clear their thresholds; the
    trigram pass — the dearer one — runs only for a chunk of at least
    ``MIN_SNIFF_BYTES`` whose sampled entropy reaches
    ``ENTROPY_BYPASS_BITS``. O(sample) regardless of chunk size (a
    strided entropy sample plus a few short contiguous windows).
    """
    view = memoryview(data)
    entropy = sampled_entropy_bits(view, SNIFF_SAMPLE_BYTES)
    trigram = None
    if len(view) >= MIN_SNIFF_BYTES and entropy >= ENTROPY_BYPASS_BITS:
        trigram = trigram_repeat_fraction(view)
    return ShardProbe(len(view), entropy, trigram)


@dataclass(frozen=True)
class RouterConfig:
    """The traced-sampling policy (frozen, picklable).

    ``trace_fraction``/``trace_seed`` drive :func:`should_trace`.

    >>> RouterConfig(trace_fraction=0.25).trace_fraction
    0.25
    >>> RouterConfig(trace_fraction=2.0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: trace_fraction must be in [0, 1]: 2.0
    """

    trace_fraction: float = 0.0
    trace_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_fraction <= 1.0:
            raise ConfigError(
                f"trace_fraction must be in [0, 1]: {self.trace_fraction}"
            )


@dataclass(frozen=True)
class RoutingDecision:
    """One chunk's routing outcome, surfaced in shard and batch stats.

    ``backend`` is the concrete backend the chunk ran (``"stored"``
    when the stored bypass skipped tokenization, ``"batch"`` for the
    packed batch kernels); ``requested`` is what the caller configured;
    ``reason`` is a short machine-greppable tag explaining the choice.
    """

    backend: str
    requested: str
    reason: str
    traced_sample: bool = False
    probe: Optional[ShardProbe] = None


def should_trace(index: int, fraction: float, seed: int = 0) -> bool:
    """Deterministic, seedable shard-sampling predicate.

    Each shard index hashes (with the seed) to a point on [0, 1); the
    shard is sampled when that point falls below ``fraction``. The
    selection is therefore reproducible run to run and independent of
    worker scheduling, and the two degenerate fractions behave exactly
    as expected:

    >>> [should_trace(i, 0.0) for i in range(4)]
    [False, False, False, False]
    >>> [should_trace(i, 1.0) for i in range(4)]
    [True, True, True, True]
    >>> should_trace(5, 0.25, seed=1) == should_trace(5, 0.25, seed=1)
    True
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8
    ).digest()
    point = int.from_bytes(digest, "big") / float(1 << 64)
    return point < fraction


def route_shard(
    data,
    backend: str = "auto",
    policy=None,
    config: Optional[RouterConfig] = None,
    index: int = 0,
    probe: Optional[ShardProbe] = None,
) -> RoutingDecision:
    """Decide which concrete backend one chunk runs.

    A chunk picked by the traced-sampling policy runs ``traced``
    (telemetry wins, bytes are identical); every other chunk runs the
    static registry resolution of :func:`repro.lzss.backends.resolve`.
    ``data`` is the chunk itself; a ``probe`` taken earlier by the
    stored bypass is carried into the decision record.

    >>> from repro.lzss.policy import MatchPolicy
    >>> route_shard(b"x" * 100, backend="fast",
    ...             policy=MatchPolicy()).backend
    'fast'
    """
    from repro.lzss.backends import resolve

    config = config or RouterConfig()
    # Never trace-sample a chunk that asked for the suffix-array
    # matcher: sa is not bit-identical to traced (it finds matches hash
    # chains miss), so diverting it would change output bytes — and its
    # chain-free search has no MatchTrace for the cycle models anyway.
    if backend != "sa" and should_trace(
            index, config.trace_fraction, config.trace_seed):
        return RoutingDecision(
            backend="traced",
            requested=backend,
            reason="trace-sample",
            traced_sample=True,
            probe=probe,
        )
    return RoutingDecision(
        backend=resolve(backend, policy),
        requested=backend,
        reason="static",
        probe=probe,
    )


def route_batch(
    payloads,
    backend: str = "auto",
    policy=None,
) -> RoutingDecision:
    """Which kernel a batch of small payloads runs.

    ``auto`` runs the packed numpy kernels (one hash/match sweep over
    all payloads packed together, the GPULZ-style amortisation)
    whenever :func:`repro.lzss.batch.packed_kernel_applies` says they
    can serve ``policy``, and the scalar ``fast`` loop otherwise; a
    concrete backend tokenizes each payload with that backend. The
    tokens are bit-identical either way. Batches are never
    trace-sampled.
    """
    from repro.lzss.backends import resolve
    from repro.lzss.batch import packed_kernel_applies

    if backend == "auto":
        if packed_kernel_applies(policy):
            return RoutingDecision(
                backend="batch", requested=backend, reason="batch-kernel",
            )
        return RoutingDecision(
            backend="fast", requested=backend, reason="kernel-unavailable",
        )
    return RoutingDecision(
        backend=resolve(backend, policy), requested=backend,
        reason="static",
    )


def config_from_profile(
    prof,
    trace_fraction: Optional[float] = None,
    trace_seed: Optional[int] = None,
    router: Optional[RouterConfig] = None,
) -> RouterConfig:
    """Build the effective :class:`RouterConfig` for an entry point.

    A whole ``router`` object wins outright; otherwise each knob
    resolves with the library-wide precedence (explicit kwarg > profile
    field > default). ``prof`` is a
    :class:`repro.profile.CompressionProfile`.
    """
    if router is not None:
        return router
    return RouterConfig(
        trace_fraction=prof.pick("trace_fraction", trace_fraction, 0.0),
        trace_seed=prof.pick("trace_seed", trace_seed, 0),
    )
