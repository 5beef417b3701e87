"""Tokenizer backend registry: ``traced`` / ``fast`` / ``sa``.

The library has three longest-match tokenizers:

* ``traced`` — the instrumented reproduction path
  (:class:`repro.lzss.compressor.LZSSCompressor`'s in-class parsers),
  recording the per-token :class:`~repro.lzss.trace.MatchTrace` the
  hardware and software cost models consume;
* ``fast`` — the trace-free pure-Python production path
  (:func:`repro.lzss.fast.compress_fast`);
* ``sa`` — the suffix-array exact matcher
  (:func:`repro.lzss.sa.compress_sa`), the ratio backend the ``best``
  profile selects.

``traced`` and ``fast`` produce bit-identical token streams. ``sa``
deliberately does not: it answers longest-match queries exactly where
hash chains stop at ``max_chain`` candidates, so its contract is
round-trip identity and no-worse pricing, not token identity (see
:mod:`repro.lzss.sa`).

This module is the single place that names them. Every ``backend=``
parameter in the library accepts one of :data:`BACKEND_NAMES` plus
``"auto"``, and resolves it here; ``auto`` is ``fast``. ``sa`` never
leaves the registry: without numpy it runs its pure-Python doubling
builder (slower, smaller search history, still exact within that
history). An unknown name raises :class:`~repro.errors.ConfigError`.

The numpy kernels that remain — the ``sa`` builder and the packed
batch kernels of :mod:`repro.lzss.batch` — gate on :func:`_numpy_usable`.
It probes per call (no caching): test suites block numpy via
``sys.modules`` monkeypatching to exercise the fallback paths, and a
cached probe would leak state between tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError

#: Concrete backend names, in oracle-to-fastest-to-strongest order.
#: ``"auto"`` is accepted by :func:`resolve` but is never a concrete
#: backend.
BACKEND_NAMES: Tuple[str, ...] = ("traced", "fast", "sa")

#: Oldest numpy the accelerated kernels are tested against (needs stable
#: ``np.frombuffer``/``sliding-window`` semantics and uint64 sorts).
MIN_NUMPY = (1, 20)


def _numpy_usable() -> bool:
    """Import probe: is a new-enough numpy importable right now?"""
    try:
        import numpy
    except Exception:
        return False
    try:
        parts = numpy.__version__.split(".")
        version = (int(parts[0]), int(parts[1]))
    except (AttributeError, IndexError, ValueError):
        return False
    return version >= MIN_NUMPY


def available() -> Tuple[str, ...]:
    """The backends usable on this machine: all of them, always.

    ``sa`` carries its own pure-Python builder, so no backend depends
    on numpy being installed.
    """
    return BACKEND_NAMES


def resolve(backend: str, policy=None) -> str:
    """Map a requested backend (or ``"auto"``) to a concrete one.

    ``auto`` is ``fast`` — never ``sa``, which trades speed for ratio
    and must be asked for (directly or via the ``best`` profile). ``sa``
    falls back to ``fast`` only for a policy it cannot serve.
    """
    if backend == "auto":
        return "fast"
    if backend not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {backend!r}: expected one of "
            f"{', '.join(BACKEND_NAMES)} or 'auto'"
        )
    if backend == "sa" and policy is not None:
        from repro.lzss.sa import supports as sa_supports

        if not sa_supports(policy):
            return "fast"
    return backend


def registry() -> Dict[str, Callable]:
    """Name -> tokenizer callable for the trace-free backends.

    Every callable has the signature
    ``fn(data, window_size, hash_spec, policy) -> TokenArray``. The
    ``traced`` backend is not listed: it returns a trace alongside the
    tokens and lives inside :class:`~repro.lzss.compressor.LZSSCompressor`;
    callers that resolve to ``"traced"`` dispatch there instead.
    """
    from repro.lzss.fast import compress_fast
    from repro.lzss.sa import compress_sa

    return {"fast": compress_fast, "sa": compress_sa}


def tokenizer(backend: str, policy=None) -> Tuple[str, Optional[Callable]]:
    """Resolve ``backend`` and return ``(concrete_name, callable)``.

    The callable is ``None`` for ``"traced"`` — the instrumented path
    needs the compressor object, not a bare tokenizer function.
    """
    name = resolve(backend, policy)
    if name == "traced":
        return name, None
    return name, registry()[name]
