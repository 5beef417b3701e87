"""One-call compression API: every knob resolved in one place.

Nine PRs of growth left the library with eight compression entry points
(:class:`~repro.lzss.compressor.LZSSCompressor`,
:func:`~repro.lzss.compressor.compress_tokens`,
:class:`~repro.deflate.zlib_container.ZLibCompressor`,
:class:`~repro.deflate.stream.ZLibStreamCompressor`,
:func:`~repro.parallel.engine.compress_shard_body`,
:class:`~repro.parallel.engine.ShardedCompressor`,
:func:`~repro.parallel.engine.compress_parallel`,
:func:`~repro.batch.compress_batch`) that each hand-threaded the same
kwarg > profile > default precedence through a scatter of
``prof.pick(...)`` calls. :class:`CompressRequest` is that precedence,
once: a frozen bundle of every knob the library accepts, whose
:meth:`~CompressRequest.resolve` returns the effective configuration as
a :class:`ResolvedCompression`. Entry points build a request from their
keyword arguments (so the old kwargs keep working unchanged) and read
the resolved values; adding a knob — or a backend — is now a change
here plus the code that consumes it, not eight hand-edits.

Precedence, identical everywhere::

    explicit kwarg > profile field > entry-point default > library default

The deprecated ``trace=``/``traced=`` booleans are gone: passing them
raises :class:`~repro.errors.ConfigError` naming the exact replacement
(:func:`reject_legacy_trace`).

The module also exposes :func:`compress` — the one-call convenience
that takes bytes plus any combination of ``profile=`` and knobs and
returns a finished ZLib stream. There is no per-strategy or
per-dictionary dispatch: every strategy, with or without ``zdict``,
runs the one per-chunk body the stream and shard engines run
(:func:`repro.deflate.stream.deflate_chunk`) under the resolved
settings, and :func:`compress` adds only the (FDICT) header and the
Adler-32 trailer::

    from repro.api import compress
    stream = compress(data, profile="best")
    stream = compress(data, window_size=8192, backend="sa",
                      strategy=BlockStrategy.ADAPTIVE)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigError
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import MatchPolicy
from repro.profile import CompressionProfile, as_profile

if TYPE_CHECKING:  # router imports deflate modules; keep it lazy here
    from repro.lzss.router import RouterConfig


def reject_legacy_trace(param: str, value) -> None:
    """Hard-fail the removed ``trace=``/``traced=`` boolean shims.

    Until PR 9 these booleans selected the instrumented path and were
    accepted with a :class:`DeprecationWarning`. The shim is now
    removed; the error spells out the exact replacement so old call
    sites migrate in one edit.
    """
    if value is None:
        return
    from repro.lzss.backends import BACKEND_NAMES

    replacement = "backend='traced'" if value else "backend='fast'"
    names = "/".join((*BACKEND_NAMES, "auto"))
    raise ConfigError(
        f"{param}= was removed; pass {replacement} instead "
        f"(backends: {names} — see repro.lzss.backends)"
    )


@dataclass(frozen=True)
class ResolvedCompression:
    """The effective settings of one compression call, fully concrete.

    Produced by :meth:`CompressRequest.resolve`; every field has its
    final value (no ``None``-means-unset left), except ``hash_spec``
    and ``policy`` where ``None`` keeps meaning "the consumer's
    built-in default" (:class:`~repro.lzss.hashchain.HashSpec`'s
    defaults, the compressor's default greedy policy) exactly as the
    entry points always treated it.
    """

    window_size: int
    hash_spec: Optional[HashSpec]
    policy: Optional[MatchPolicy]
    strategy: object
    tokens_per_block: int
    cut_search: bool
    sniff: bool
    backend: str
    refine: bool
    zdict: bytes
    batch_shared_plan: bool
    router: RouterConfig

    def tokenizer(self):
        """An :class:`~repro.lzss.compressor.LZSSCompressor` for these
        settings (window, hash, policy and backend)."""
        from repro.lzss.compressor import LZSSCompressor

        return LZSSCompressor(self.window_size, self.hash_spec,
                              self.policy, backend=self.backend)


#: Fields an entry point may supply defaults for in ``resolve()``.
_RESOLVED_FIELDS = frozenset(
    f for f in (
        "window_size", "hash_spec", "policy", "strategy",
        "tokens_per_block", "cut_search", "sniff", "backend", "refine",
        "zdict", "batch_shared_plan",
    )
)


@dataclass(frozen=True)
class CompressRequest:
    """Everything a compression call can be asked to do, unresolved.

    ``None`` means unset, at every layer: an unset request field defers
    to the profile, an unset profile field to the entry point's
    default, and an unset entry-point default to the library default.
    ``profile`` is a preset name, a
    :class:`~repro.profile.CompressionProfile`, or ``None``.

    >>> CompressRequest(profile="balanced").resolve().backend
    'fast'
    >>> CompressRequest(profile="fastest", backend="fast").resolve().backend
    'fast'
    >>> CompressRequest().resolve(backend="traced").backend
    'traced'
    """

    profile: Union[None, str, CompressionProfile] = None
    window_size: Optional[int] = None
    hash_spec: Optional[HashSpec] = None
    policy: Optional[MatchPolicy] = None
    strategy: Optional[object] = None  # BlockStrategy; untyped (cycle)
    tokens_per_block: Optional[int] = None
    cut_search: Optional[bool] = None
    sniff: Optional[bool] = None
    backend: Optional[str] = None
    refine: Optional[bool] = None
    zdict: Optional[bytes] = None
    batch_shared_plan: Optional[bool] = None
    # Traced-sampling knobs; a whole ``router`` object wins over both
    # (it is already a resolved RouterConfig).
    trace_fraction: Optional[float] = None
    trace_seed: Optional[int] = None
    router: Optional[RouterConfig] = None

    def merged(self, **overrides) -> "CompressRequest":
        """A copy with every non-``None`` override applied."""
        filtered = {
            key: value for key, value in overrides.items()
            if value is not None
        }
        unknown = set(filtered) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(
                f"unknown request fields: {', '.join(sorted(unknown))}"
            )
        return replace(self, **filtered)

    def resolve(self, **entry_defaults) -> ResolvedCompression:
        """Apply the full precedence and return concrete settings.

        ``entry_defaults`` are the calling entry point's own defaults
        (e.g. ``backend="traced"`` for the instrumented compressor,
        ``policy=BATCH_GREEDY_POLICY`` for the batch engine); they sit
        between the profile and the library defaults.
        """
        unknown = set(entry_defaults) - _RESOLVED_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown resolve defaults: {', '.join(sorted(unknown))}"
            )
        from repro.deflate.block_writer import BlockStrategy
        from repro.deflate.splitter import DEFAULT_TOKENS_PER_BLOCK
        from repro.lzss.backends import BACKEND_NAMES
        from repro.lzss.router import config_from_profile

        prof = as_profile(self.profile)

        def pick(name, library_default):
            default = entry_defaults.get(name, library_default)
            override = getattr(self, name)
            if override is not None:
                return override
            if name in ("zdict",):
                # Not a profile field: request > entry default only.
                return default
            return prof.pick(name, None, default)

        backend = pick("backend", "fast")
        if backend != "auto" and backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown backend {backend!r}: expected one of "
                f"{', '.join(BACKEND_NAMES)} or 'auto'"
            )
        window_size = pick("window_size", 4096)
        zdict = pick("zdict", b"")
        return ResolvedCompression(
            window_size=window_size,
            hash_spec=pick("hash_spec", None),
            policy=pick("policy", None),
            strategy=pick("strategy", BlockStrategy.FIXED),
            tokens_per_block=pick(
                "tokens_per_block", DEFAULT_TOKENS_PER_BLOCK
            ),
            cut_search=pick("cut_search", True),
            sniff=pick("sniff", True),
            backend=backend,
            refine=pick("refine", False),
            zdict=bytes(zdict) if zdict else b"",
            batch_shared_plan=pick("batch_shared_plan", True),
            router=config_from_profile(
                prof,
                trace_fraction=self.trace_fraction,
                trace_seed=self.trace_seed,
                router=self.router,
            ),
        )


def request_from(
    request: Optional[CompressRequest] = None, **kwargs
) -> CompressRequest:
    """Normalise an entry point's ``(request, **kwargs)`` surface.

    ``request=None`` builds a fresh request from the kwargs; a given
    request is merged with any non-``None`` kwargs (kwargs win —
    they are the most explicit layer).
    """
    for legacy in ("trace", "traced"):
        reject_legacy_trace(legacy, kwargs.pop(legacy, None))
    if request is None:
        return CompressRequest(**{
            key: value for key, value in kwargs.items()
            if value is not None
        })
    return request.merged(**kwargs)


def compress(
    data: bytes,
    request: Optional[CompressRequest] = None,
    **kwargs,
) -> bytes:
    """One call: bytes in, finished ZLib stream out.

    Accepts a ready :class:`CompressRequest` and/or any of its fields
    as keyword arguments (``profile=``, ``backend=``, ``strategy=``,
    ``zdict=``, ...). The body is the one per-chunk pipeline,
    :func:`repro.deflate.stream.deflate_raw`, under the resolved
    settings — every strategy, with the sniff, cut search and refine
    loop as resolved; this function only frames it:

    * the ZLib header, with FDICT and the DICTID when a non-empty
      ``zdict`` is set (its window-reachable tail then primes the
      matcher; decode with ``zlib.decompressobj(zdict=...)``);
    * the Adler-32 trailer.
    """
    from repro.checksums.adler32 import adler32
    from repro.deflate.stream import deflate_raw
    from repro.deflate.zlib_container import make_header
    from repro.lzss.tokens import effective_dictionary

    resolved = request_from(request, **kwargs).resolve()
    dictionary = effective_dictionary(resolved.zdict, resolved.window_size)
    return (
        make_header(resolved.window_size, dictionary)
        + deflate_raw(data, resolved, history=dictionary)
        + adler32(data).to_bytes(4, "big")
    )
