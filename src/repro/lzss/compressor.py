"""LZSS compression: greedy (deflate_fast) and lazy (deflate_slow) parsing.

The greedy parser is the algorithm the paper's hardware FSM executes: at
each step it searches the chain for the lookahead front, emits either a
copy command or a literal, optionally inserts every byte of a short
match into the hash table, and advances. The lazy parser is ZLib's
deflate_slow, used by the software baseline at levels 4-9 and by the
"what if" estimator comparisons.

Both parsers record a :class:`~repro.lzss.trace.MatchTrace`. For the
greedy parser the trace has exactly one row per emitted token, which is
what the hardware cycle model consumes; for the lazy parser rows are per
*search* (lazy evaluation searches at every input position), which is
what the software cost model consumes.

Callers that only want tokens out (the production compressors in
:mod:`repro.deflate` and :mod:`repro.parallel`) select a trace-free
backend (``backend="fast"`` or ``"sa"``, see
:mod:`repro.lzss.backends`): compression dispatches to the registered
tokenizer and ``CompressResult.trace`` is ``None``. The removed
``trace=`` boolean now raises :class:`~repro.errors.ConfigError` with
the exact replacement.

Knob resolution goes through :class:`repro.api.CompressRequest` — the
single precedence implementation shared by every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.lzss.backends import tokenizer
from repro.lzss.hashchain import ChainTables, HashSpec, hash_all
from repro.lzss.matcher import longest_match
from repro.lzss.policy import MatchPolicy
from repro.lzss.tokens import (
    MAX_MATCH,
    MIN_LOOKAHEAD,
    MIN_MATCH,
    TokenArray,
)
from repro.lzss.trace import MatchTrace

#: ZLib's TOO_FAR: minimum-length matches farther back than this are not
#: worth a length/distance pair under lazy evaluation.
TOO_FAR = 4096


@dataclass
class CompressResult:
    """Output of one LZSS compression pass.

    ``trace`` is ``None`` when the pass ran on a trace-free backend;
    the cost models require a traced pass. ``backend`` records the
    concrete backend that actually ran (after ``auto`` resolution).
    """

    tokens: TokenArray
    trace: Optional[MatchTrace]
    window_size: int
    policy: MatchPolicy
    hash_spec: HashSpec
    input_size: int = 0
    backend: str = "traced"

    @property
    def token_count(self) -> int:
        return len(self.tokens)


class LZSSCompressor:
    """Configurable LZSS token-stream producer.

    Parameters
    ----------
    window_size:
        Dictionary (sliding window) size in bytes; power of two between
        256 and 32768 (Deflate's distance limit).
    hash_spec:
        Hash function configuration (bit count / shift).
    policy:
        Match search policy (chain limits, greedy/lazy, insert limit).
    backend:
        Which tokenizer runs (see :mod:`repro.lzss.backends`):
        ``"traced"`` (default) records a :class:`MatchTrace` for the
        cost models; ``"fast"`` and ``"sa"`` are the trace-free
        production paths; ``"auto"`` is ``"fast"``.
    profile:
        A preset name or :class:`~repro.profile.CompressionProfile`;
        explicit keyword arguments win over its fields
        (:class:`repro.api.CompressRequest` resolution).
    trace:
        Removed boolean equivalent of ``backend``; passing it raises
        :class:`~repro.errors.ConfigError` naming the replacement.
    """

    def __init__(
        self,
        window_size: Optional[int] = None,
        hash_spec: Optional[HashSpec] = None,
        policy: Optional[MatchPolicy] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
        profile=None,
    ) -> None:
        from repro.api import CompressRequest, reject_legacy_trace

        reject_legacy_trace("trace", trace)
        resolved = CompressRequest(
            profile=profile,
            window_size=window_size,
            hash_spec=hash_spec,
            policy=policy,
            backend=backend,
        ).resolve(backend="traced", hash_spec=HashSpec(),
                  policy=MatchPolicy())
        window_size = resolved.window_size
        if window_size & (window_size - 1) or not 256 <= window_size <= 32768:
            raise ConfigError(
                "window_size must be a power of two in [256, 32768]: "
                f"{window_size}"
            )
        self.window_size = window_size
        self.hash_spec = resolved.hash_spec or HashSpec()
        self.policy = resolved.policy or MatchPolicy()
        self.backend = resolved.backend
        # ZLib's MAX_DIST: never match farther back than this, which also
        # makes chain-table aliasing unreachable (see ChainTables).
        self.max_dist = window_size - MIN_LOOKAHEAD
        if self.max_dist < 1:
            raise ConfigError(
                f"window_size {window_size} leaves no usable distance "
                f"(MIN_LOOKAHEAD={MIN_LOOKAHEAD})"
            )

    @property
    def trace(self) -> bool:
        """Whether this compressor runs the instrumented traced path."""
        return self.backend == "traced"

    def compress(
        self,
        data: bytes,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> CompressResult:
        """Produce the token stream (and, on ``traced``, the trace).

        ``backend`` overrides the compressor-level setting for this
        call; ``None`` keeps it. The removed ``trace=`` boolean raises
        :class:`~repro.errors.ConfigError`.
        """
        from repro.api import reject_legacy_trace

        reject_legacy_trace("trace", trace)
        data = bytes(data)
        requested = backend if backend is not None else self.backend
        name, fn = tokenizer(requested, self.policy)
        if fn is not None:
            tokens = fn(data, self.window_size, self.hash_spec, self.policy)
            return CompressResult(
                tokens=tokens,
                trace=None,
                window_size=self.window_size,
                policy=self.policy,
                hash_spec=self.hash_spec,
                input_size=len(data),
                backend=name,
            )
        if self.policy.lazy:
            tokens, trace_rec = self._compress_lazy(data)
        else:
            tokens, trace_rec = self._compress_greedy(data)
        trace_rec.input_size = len(data)
        return CompressResult(
            tokens=tokens,
            trace=trace_rec,
            window_size=self.window_size,
            policy=self.policy,
            hash_spec=self.hash_spec,
            input_size=len(data),
            backend=name,
        )

    # ------------------------------------------------------------------
    # greedy (deflate_fast / the paper's hardware FSM)
    # ------------------------------------------------------------------

    def _compress_greedy(self, data: bytes):
        tokens = TokenArray()
        trace = MatchTrace()
        n = len(data)
        if n == 0:
            return tokens, trace
        pol = self.policy
        hashes = hash_all(data, self.hash_spec)
        tables = ChainTables(self.hash_spec, self.window_size)
        head = tables.head
        prev = tables.prev
        wmask = tables.window_mask
        max_dist = self.max_dist
        hash_limit = n - MIN_MATCH  # last position with a defined hash

        pos = 0
        while pos < n:
            if pos > hash_limit:
                # Tail shorter than MIN_MATCH: literals, no search.
                tokens.append_literal(data[pos])
                trace.record(0, 1, 0, 0, 0, 0)
                pos += 1
                continue
            h = hashes[pos]
            first_cand = head[h]
            # PREPARE state: the head/next tables are updated for `pos`
            # in the same cycle the first candidate address is fetched.
            prev[pos & wmask] = first_cand
            head[h] = pos

            limit = min(MAX_MATCH, n - pos)
            best_len, best_dist, iters, c4, c1 = longest_match(
                data,
                pos,
                first_cand,
                prev,
                wmask,
                max_dist,
                limit,
                pol.max_chain,
                pol.good_length,
                pol.nice_length,
            )
            if best_len >= MIN_MATCH:
                tokens.append_match(best_len, best_dist)
                inserted = 0
                if best_len <= pol.max_insert_length:
                    # UPDATE state: insert every remaining byte of the
                    # match, one cycle each (§IV).
                    stop = min(pos + best_len, hash_limit + 1)
                    for q in range(pos + 1, stop):
                        hq = hashes[q]
                        prev[q & wmask] = head[hq]
                        head[hq] = q
                        inserted += 1
                trace.record(1, best_len, iters, c4, c1, inserted)
                pos += best_len
            else:
                tokens.append_literal(data[pos])
                trace.record(0, 1, iters, c4, c1, 0)
                pos += 1
        return tokens, trace

    # ------------------------------------------------------------------
    # lazy (deflate_slow, software levels 4-9)
    # ------------------------------------------------------------------

    def _compress_lazy(self, data: bytes):
        tokens = TokenArray()
        trace = MatchTrace()
        n = len(data)
        if n == 0:
            return tokens, trace
        pol = self.policy
        hashes = hash_all(data, self.hash_spec)
        tables = ChainTables(self.hash_spec, self.window_size)
        head = tables.head
        prev = tables.prev
        wmask = tables.window_mask
        max_dist = self.max_dist
        hash_limit = n - MIN_MATCH

        pos = 0
        prev_len = MIN_MATCH - 1
        prev_dist = 0
        have_prev = False  # a byte at pos-1 awaits a decision
        while pos < n:
            cur_len = MIN_MATCH - 1
            cur_dist = 0
            if pos <= hash_limit:
                h = hashes[pos]
                first_cand = head[h]
                prev[pos & wmask] = first_cand
                head[h] = pos
                if prev_len < pol.max_lazy:
                    limit = min(MAX_MATCH, n - pos)
                    chain = pol.max_chain
                    if prev_len >= pol.good_length:
                        # ZLib: a good previous match shrinks this
                        # position's budget up front.
                        chain >>= 2
                    cur_len, cur_dist, iters, c4, c1 = longest_match(
                        data,
                        pos,
                        first_cand,
                        prev,
                        wmask,
                        max_dist,
                        limit,
                        chain,
                        pol.good_length,
                        pol.nice_length,
                    )
                    trace.record(
                        1 if cur_len >= MIN_MATCH else 0,
                        max(cur_len, 1),
                        iters,
                        c4,
                        c1,
                        0,
                    )
                    if cur_len == MIN_MATCH and cur_dist > TOO_FAR:
                        cur_len = MIN_MATCH - 1

            if have_prev and prev_len >= MIN_MATCH and prev_len >= cur_len:
                # The match starting at pos-1 wins: emit it, then insert
                # the remaining bytes it covers.
                tokens.append_match(prev_len, prev_dist)
                stop = min(pos - 1 + prev_len, hash_limit + 1)
                for q in range(pos + 1, stop):
                    hq = hashes[q]
                    prev[q & wmask] = head[hq]
                    head[hq] = q
                pos = pos - 1 + prev_len
                have_prev = False
                prev_len = MIN_MATCH - 1
                prev_dist = 0
            else:
                if have_prev:
                    tokens.append_literal(data[pos - 1])
                have_prev = True
                prev_len = cur_len
                prev_dist = cur_dist
                pos += 1
        if have_prev:
            tokens.append_literal(data[n - 1])
        return tokens, trace


def compress_tokens(
    data: bytes,
    window_size: Optional[int] = None,
    hash_spec: Optional[HashSpec] = None,
    policy: Optional[MatchPolicy] = None,
    trace: Optional[bool] = None,
    backend: Optional[str] = None,
    profile=None,
) -> CompressResult:
    """One-shot convenience wrapper around :class:`LZSSCompressor`."""
    from repro.api import reject_legacy_trace

    reject_legacy_trace("trace", trace)
    return LZSSCompressor(
        window_size, hash_spec, policy, backend=backend, profile=profile,
    ).compress(data)
