"""One frozen object for the library's compression knobs.

The end-to-end compressors accumulated eight orthogonal parameters —
window size, hash spec, match policy, block strategy, tokens per block,
cut search, the incompressibility sniff, and (new) the tokenizer
backend. :class:`CompressionProfile` bundles them into a single frozen
value that every end-to-end entry point accepts via ``profile=``
(either a profile object or a preset name), while individual keyword
arguments keep working and win over the profile:

    precedence: explicit kwarg > profile field > library default

A profile field left at ``None`` means "unset": it neither overrides a
kwarg nor shadows the library default, so partial profiles compose the
way partial configs should.

Presets:

* ``fastest`` — greedy level-1 policy, fixed Huffman tables, no cut
  search, ``auto`` backend (the scalar ``fast`` tokenizer): minimum
  latency per byte;
* ``balanced`` — lazy level-6 policy, adaptive best-of-three block
  coding with the cut search and sniff on: the zlib-default trade;
* ``best`` — lazy level-9 policy, 32 KiB window, the exact
  suffix-array matcher (``backend="sa"``) plus iterative block
  re-tokenisation (``refine=True``), everything on: maximum ratio,
  speed last.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Union

from repro.errors import ConfigError
from repro.lzss.hashchain import HashSpec
from repro.lzss.policy import ZLIB_LEVELS, MatchPolicy


@dataclass(frozen=True)
class CompressionProfile:
    """A named bundle of compression settings; ``None`` fields are unset.

    >>> prof = CompressionProfile(window_size=8192, backend="fast")
    >>> prof.merged(backend="sa").backend
    'sa'
    >>> prof.merged(backend=None).window_size  # None kwargs don't unset
    8192
    """

    window_size: Optional[int] = None
    hash_spec: Optional[HashSpec] = None
    policy: Optional[MatchPolicy] = None
    strategy: Optional[object] = None  # BlockStrategy; untyped to avoid cycle
    tokens_per_block: Optional[int] = None
    cut_search: Optional[bool] = None
    sniff: Optional[bool] = None
    backend: Optional[str] = None
    # Iterative re-tokenisation of searched blocks against their own
    # emerging Huffman prices (repro.deflate.splitter.refine_blocks) —
    # a ratio knob, effective only with adaptive strategy + cut search.
    refine: Optional[bool] = None
    # The deterministic traced-sampling telemetry policy
    # (repro.lzss.router.should_trace).
    trace_fraction: Optional[float] = None
    trace_seed: Optional[int] = None
    # Toggles the pooled dynamic Huffman plan in
    # repro.batch.compress_batch (False pins every payload to FIXED).
    batch_shared_plan: Optional[bool] = None

    def merged(self, **overrides) -> "CompressionProfile":
        """A copy with every non-``None`` override applied."""
        filtered = {
            key: value for key, value in overrides.items()
            if value is not None
        }
        unknown = set(filtered) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(
                f"unknown profile fields: {', '.join(sorted(unknown))}"
            )
        return replace(self, **filtered)

    def pick(self, field: str, override, default):
        """Resolve one setting: kwarg > profile field > default."""
        if override is not None:
            return override
        value = getattr(self, field)
        return default if value is None else value


def _presets() -> Dict[str, CompressionProfile]:
    from repro.deflate.block_writer import BlockStrategy

    return {
        "fastest": CompressionProfile(
            window_size=4096,
            policy=ZLIB_LEVELS[1],
            strategy=BlockStrategy.FIXED,
            cut_search=False,
            backend="auto",
        ),
        "balanced": CompressionProfile(
            window_size=16384,
            policy=ZLIB_LEVELS[6],
            strategy=BlockStrategy.ADAPTIVE,
            cut_search=True,
            sniff=True,
            backend="fast",
        ),
        "best": CompressionProfile(
            window_size=32768,
            policy=ZLIB_LEVELS[9],
            strategy=BlockStrategy.ADAPTIVE,
            cut_search=True,
            sniff=True,
            backend="sa",
            refine=True,
        ),
    }


def preset_names() -> tuple:
    """The preset profile names, sorted."""
    return tuple(sorted(_presets()))


def as_profile(
    profile: Union[None, str, CompressionProfile]
) -> CompressionProfile:
    """Normalise a ``profile=`` argument to a :class:`CompressionProfile`.

    ``None`` becomes the empty (all-unset) profile, a string looks up a
    preset, and a profile object passes through.
    """
    if profile is None:
        return CompressionProfile()
    if isinstance(profile, CompressionProfile):
        return profile
    if isinstance(profile, str):
        presets = _presets()
        if profile not in presets:
            raise ConfigError(
                f"unknown profile {profile!r}: expected one of "
                f"{', '.join(sorted(presets))}"
            )
        return presets[profile]
    raise ConfigError(
        f"profile must be a name or CompressionProfile: {profile!r}"
    )
