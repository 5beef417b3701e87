"""Suffix-array exact-match tokenizer (``backend="sa"``).

The hash-chain datapath (the paper's §IV, and every other backend in
this registry) bounds match quality by ``max_chain``: the walk gives up
after a fixed number of candidates, so on chain-heavy data the reported
match is merely the best of a prefix of the candidate list. The two
Ferreira/Oliveira/Figueiredo suffix-array LZ papers (PAPERS.md, arXiv
0903.4251 / 0912.5449) replace the chain with an index that answers the
longest-previous-match query *exactly*: a suffix array over the search
buffer plus its LCP array, where the best previous occurrence of the
suffix at ``i`` is always an SA neighbour of ``rank[i]`` and the match
length is the running minimum of the LCP values between them.

This module implements that matcher as a drop-in tokenizer backend:

* **Suffix array** — prefix-doubling (Manber–Myers) built on numpy
  ``lexsort`` when numpy is usable, with a pure-Python doubling sort
  fallback so the backend never vanishes from the registry (the
  no-numpy CI job runs the same differential suite through it).
* **LCP array** — on the numpy path, vectorised binary lifting over the
  rank snapshots the doubling loop already produced (log n fully
  vectorised passes); on the fallback path, Kasai's O(n) scan.
* **Query** — from ``rank[i]`` walk outward in SA order in both
  directions, carrying the running-min LCP; skip entries outside the
  window (``j >= i`` or ``i - j > max_dist``) and stop as soon as the
  running min cannot beat the best match found (or a fixed step budget
  runs out — the "bounded LCP-interval walk"). Overlapping matches
  (length > distance) need no special casing: the LCP of two suffixes
  of the *same* buffer is exactly the valid copy length.

The buffer slides block-by-block: each rebuild covers the live window
(``max_dist`` bytes of history) plus a parse segment, so amortised
build cost per input byte is the cost of one sort of
``window + segment`` bytes every ``segment`` bytes.

Contract: **not** bit-identical to ``traced`` — it finds matches hash
chains miss — but every token stream decodes to the input
(round-trip differential suite in ``tests/lzss/test_sa_backend.py``)
and prices no worse than ``traced`` on the gated corpus.
"""

from __future__ import annotations

from array import array

from repro.lzss.tokens import (
    MAX_MATCH,
    MIN_LOOKAHEAD,
    MIN_MATCH,
    TokenArray,
)

#: Same constant as the lazy parsers in compressor.py / fast.py
#: (ZLib's TOO_FAR): a minimum-length match further back than this
#: costs more to encode than the three literals it replaces.
_TOO_FAR = 4096

#: Parse-segment length per suffix-array rebuild on the numpy path.
#: The built buffer is ``max_dist + _SEGMENT`` bytes; bigger segments
#: amortise the sort better but cost more peak memory.
_SEGMENT = 1 << 16

#: Parse-segment length for the pure-Python fallback builder (its
#: doubling sort is O(n log^2 n) with tuple keys — keep n small).
_SEGMENT_PY = 1 << 12

#: History cap for the pure-Python fallback. Searching less history
#: than the window allows is always *valid* (the stream still decodes;
#: some matches are just missed), and it keeps the fallback sorts off
#: the test suite's critical path. The numpy path searches the full
#: window.
_HISTORY_CAP_PY = 1 << 13

#: Budget of SA-order steps per direction per query. The running-min
#: LCP termination ends almost every walk in a handful of steps; the
#: budget bounds the pathological case (long runs of equal LCP whose
#: positions all fall outside the window — highly periodic data, where
#: a too-small budget measurably shortens the reported matches).
_WALK_BUDGET = 512

#: Budget per direction for :meth:`SuffixArrayMatcher.match_frontier`.
#: The frontier walk cannot use the can't-beat-best cutoff (it *wants*
#: shorter matches, at closer distances), so on plain text it would run
#: until the common prefix drops below ``MIN_MATCH`` — a fixed small
#: budget keeps the query cheap; the frontier is a best-effort set of
#: valid pairs, not an exhaustive one. 256 recovers the full
#: longest-match quality of ``_WALK_BUDGET`` on the gated corpus at
#: about a fifth of the unbounded walk cost.
_FRONTIER_BUDGET = 256


def supports(policy) -> bool:
    """The exact matcher accepts every policy.

    ``max_chain`` / ``good_length`` / ``nice_length`` are hash-chain
    *search* heuristics; the suffix array answers the search exactly, so
    they have nothing to bound. The parse shape (greedy vs lazy,
    ``max_lazy``) is honoured.
    """
    return True


def _numpy_or_none():
    """Version-gated numpy import (the registry's probe), or ``None``."""
    from repro.lzss.backends import _numpy_usable

    if not _numpy_usable():
        return None
    import numpy

    return numpy


def _build_numpy(data: bytes, np):
    """(sa, rank, lcp) as Python lists, via prefix doubling + lifting.

    ``lcp[r]`` is the LCP of ``sa[r-1]`` and ``sa[r]`` (``lcp[0] == 0``).
    Rank snapshots from each doubling level are reused to compute all
    adjacent LCPs with vectorised binary lifting: at level ``m`` two
    suffixes share a ``2^m``-byte prefix iff their level-``m`` ranks are
    equal (the implicit end sentinel makes truncated prefixes compare
    unequal), so each level either advances every still-equal pair by
    ``2^m`` or leaves it for the finer levels.
    """
    n = len(data)
    rank = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    levels = [rank]
    k = 1
    order = rank.argsort(kind="stable")
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = ((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])).cumsum()
        rank = np.empty(n, dtype=np.int64)
        rank[order] = changed
        levels.append(rank)
        k <<= 1
        if changed[-1] == n - 1 or k >= n:
            break
    sa = order
    # Adjacent-pair LCP by binary lifting over the rank snapshots.
    a = sa[:-1].copy()
    b = sa[1:].copy()
    lcp_adj = np.zeros(n - 1, dtype=np.int64)
    for m in range(len(levels) - 1, -1, -1):
        step = 1 << m
        ok = (a < n) & (b < n)
        snap = levels[m]
        ra = np.where(ok, snap[np.minimum(a, n - 1)], -2)
        rb = np.where(ok, snap[np.minimum(b, n - 1)], -3)
        eq = ra == rb
        lcp_adj += eq * step
        a += eq * step
        b += eq * step
    lcp = [0] * n
    lcp[1:] = lcp_adj.tolist()
    return sa.tolist(), rank.tolist(), lcp


def _build_python(data: bytes):
    """(sa, rank, lcp) in pure Python: doubling sort + Kasai."""
    n = len(data)
    sa = list(range(n))
    rank = list(data)
    k = 1
    while True:
        def key(i, _rank=rank, _k=k, _n=n):
            nxt = _rank[i + _k] if i + _k < _n else -1
            return (_rank[i], nxt)

        sa.sort(key=key)
        new = [0] * n
        prev_key = key(sa[0])
        r = 0
        for t in range(1, n):
            cur_key = key(sa[t])
            if cur_key != prev_key:
                r += 1
                prev_key = cur_key
            new[sa[t]] = r
        rank = new
        if r == n - 1 or k >= n:
            break
        k <<= 1
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            maxh = n - (i if i > j else j)
            while h < maxh and data[i + h] == data[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return sa, rank, lcp


class SuffixArrayMatcher:
    """Exact longest-previous-match queries over one fixed buffer.

    Built once per parse segment; :meth:`longest_match` then answers
    any number of queries against that buffer. ``max_dist`` bounds the
    distance of reported matches (ZLib's ``window - MIN_LOOKAHEAD``).
    """

    __slots__ = ("data", "n", "max_dist", "sa", "rank", "lcp")

    def __init__(self, data: bytes, max_dist: int, use_numpy=None) -> None:
        self.data = data
        self.n = len(data)
        self.max_dist = max_dist
        if self.n < 2:
            self.sa = list(range(self.n))
            self.rank = list(range(self.n))
            self.lcp = [0] * self.n
            return
        np = _numpy_or_none() if use_numpy in (None, True) else None
        if use_numpy is True and np is None:
            raise RuntimeError("numpy requested but not usable")
        if np is not None:
            self.sa, self.rank, self.lcp = _build_numpy(data, np)
        else:
            self.sa, self.rank, self.lcp = _build_python(data)

    def longest_match(self, i: int, limit: int):
        """Best ``(length, distance)`` for the suffix at ``i``.

        Sources are positions ``j < i`` with ``i - j <= max_dist``;
        the returned length is capped at ``limit``. ``(0, 0)`` when no
        match of at least ``MIN_MATCH`` exists. Ties on length prefer
        the smallest distance (cheaper distance code).
        """
        if limit < MIN_MATCH:
            return 0, 0
        sa = self.sa
        lcp = self.lcp
        lo_pos = i - self.max_dist
        r = self.rank[i]
        best_len = MIN_MATCH - 1
        best_dist = 0

        # Walk toward smaller ranks: lcp[q] joins sa[q-1] to sa[q].
        cur = limit
        q = r
        steps = _WALK_BUDGET
        while q > 0 and steps > 0:
            steps -= 1
            h = lcp[q]
            if h < cur:
                cur = h
            if cur < best_len or cur < MIN_MATCH:
                break
            q -= 1
            j = sa[q]
            if j < i and j >= lo_pos:
                if cur > best_len:
                    best_len = cur
                    best_dist = i - j
                elif i - j < best_dist:
                    # The break above guarantees cur == best_len here:
                    # a genuine tie, and the closer source wins. No
                    # best_len >= limit early exit — an equal-length
                    # match at a smaller distance may still follow.
                    best_dist = i - j
                if best_dist == 1:
                    break

        # Walk toward larger ranks: lcp[q+1] joins sa[q] to sa[q+1].
        # Runs even when the first direction reached ``limit`` — this
        # side may hold an equal-length match at a smaller distance —
        # unless the first direction is already unbeatable (full-limit
        # length at distance 1).
        if not (best_dist == 1 and best_len >= limit):
            cur = limit
            q = r
            steps = _WALK_BUDGET
            top = self.n - 1
            while q < top and steps > 0:
                steps -= 1
                h = lcp[q + 1]
                if h < cur:
                    cur = h
                if cur < best_len or cur < MIN_MATCH:
                    break
                q += 1
                j = sa[q]
                if j < i and j >= lo_pos:
                    if cur > best_len:
                        best_len = cur
                        best_dist = i - j
                    elif i - j < best_dist:
                        best_dist = i - j
                    if best_dist == 1:
                        break

        if best_len < MIN_MATCH:
            return 0, 0
        return best_len, best_dist

    def match_frontier(self, i: int, limit: int):
        """Pareto pairs ``(length, distance)`` for the suffix at ``i``.

        Every returned pair is a valid match (``data[i - dist:]`` really
        shares ``length`` bytes with ``data[i:]``); the list is sorted
        by descending length with strictly increasing cheapness — a
        shorter length appears only with a strictly smaller distance
        than every longer one. A price-aware parser can then trade match
        length against distance-code cost instead of being handed only
        the single longest match.

        Unlike :meth:`longest_match` the walk keeps going after the
        running-min LCP falls below the best length (that is where the
        close-but-shorter pairs live), so it is bounded by the smaller
        ``_FRONTIER_BUDGET``; the result is best-effort, not exhaustive.
        Returns ``[]`` when no match of ``MIN_MATCH`` exists.
        """
        if limit < MIN_MATCH:
            return []
        sa = self.sa
        lcp = self.lcp
        lo_pos = i - self.max_dist
        r = self.rank[i]
        pairs = []

        cur = limit
        q = r
        steps = _FRONTIER_BUDGET
        near = self.max_dist + 1  # min distance seen this direction
        while q > 0 and steps > 0:
            steps -= 1
            h = lcp[q]
            if h < cur:
                cur = h
            if cur < MIN_MATCH:
                break
            q -= 1
            j = sa[q]
            if j < i and j >= lo_pos:
                dist = i - j
                if dist < near:
                    near = dist
                    pairs.append((cur, dist))
                    if dist == 1:
                        break

        cur = limit
        q = r
        steps = _FRONTIER_BUDGET
        near = self.max_dist + 1
        top = self.n - 1
        while q < top and steps > 0:
            steps -= 1
            h = lcp[q + 1]
            if h < cur:
                cur = h
            if cur < MIN_MATCH:
                break
            q += 1
            j = sa[q]
            if j < i and j >= lo_pos:
                dist = i - j
                if dist < near:
                    near = dist
                    pairs.append((cur, dist))
                    if dist == 1:
                        break

        if not pairs:
            return []
        # Merge both directions into one Pareto frontier: sort longest
        # first (closest breaks ties), keep strictly closer survivors.
        pairs.sort(key=lambda p: (-p[0], p[1]))
        frontier = []
        near = 1 << 30
        for length, dist in pairs:
            if dist < near:
                near = dist
                frontier.append((length, dist))
        return frontier


def compress_sa(data, window_size, hash_spec, policy) -> TokenArray:
    """Tokenise ``data`` with exact suffix-array matching.

    Registry-callable signature (``hash_spec`` is accepted for
    uniformity and ignored — there is no hash table to shape).
    Dispatches on ``policy.lazy`` like every other backend.
    """
    tokens = TokenArray()
    n = len(data)
    if n == 0:
        return tokens
    data = bytes(data)
    max_dist = window_size - MIN_LOOKAHEAD
    out_lengths: list = []
    out_values: list = []
    if max_dist < 1:
        # Window too small to ever reference history (ZLib's
        # MIN_LOOKAHEAD rule) — the stream is all literals.
        out_lengths = [0] * n
        out_values = list(data)
        tokens.lengths = array("i", out_lengths)
        tokens.values = array("i", out_values)
        return tokens
    use_np = _numpy_or_none() is not None
    segment = _SEGMENT if use_np else _SEGMENT_PY
    history = max_dist if use_np else min(max_dist, _HISTORY_CAP_PY)
    parse = _parse_lazy if policy.lazy else _parse_greedy

    pos = 0
    while pos < n:
        base = pos - history
        if base < 0:
            base = 0
        stop = pos + segment
        if stop > n:
            stop = n
        buf = data[base:stop]
        matcher = SuffixArrayMatcher(buf, max_dist, use_numpy=use_np)
        local_n = len(buf)
        # Stop the parse far enough from the buffer edge that no limit
        # is ever truncated mid-stream; the final segment runs to the
        # true end of input.
        guard = local_n if stop == n else local_n - MAX_MATCH
        done = parse(out_lengths, out_values, buf, matcher,
                     pos - base, guard, policy)
        pos = base + done
    tokens.lengths = array("i", out_lengths)
    tokens.values = array("i", out_values)
    return tokens


def _parse_greedy(out_lengths, out_values, buf, matcher, start, guard,
                  policy):
    """deflate_fast shape: take the best match at each position."""
    lengths_append = out_lengths.append
    values_append = out_values.append
    lm = matcher.longest_match
    n = len(buf)
    pos = start
    while pos < guard:
        limit = n - pos
        if limit > MAX_MATCH:
            limit = MAX_MATCH
        length, dist = lm(pos, limit)
        if length == MIN_MATCH and dist > _TOO_FAR:
            length = 0
        if length >= MIN_MATCH:
            lengths_append(length)
            values_append(dist)
            pos += length
        else:
            lengths_append(0)
            values_append(buf[pos])
            pos += 1
    return pos


def _parse_lazy(out_lengths, out_values, buf, matcher, start, guard,
                policy):
    """deflate_slow shape: defer one position, keep the better match.

    At a non-final segment boundary the pending decision is committed
    greedily (a valid parse — the next segment resumes from wherever
    the commit consumed to).
    """
    lengths_append = out_lengths.append
    values_append = out_values.append
    lm = matcher.longest_match
    max_lazy = policy.max_lazy
    n = len(buf)
    pos = start
    prev_len = 0
    prev_dist = 0
    have_prev = False
    while pos < guard:
        cur_len = 0
        cur_dist = 0
        if prev_len < max_lazy:
            limit = n - pos
            if limit > MAX_MATCH:
                limit = MAX_MATCH
            cur_len, cur_dist = lm(pos, limit)
            if cur_len == MIN_MATCH and cur_dist > _TOO_FAR:
                cur_len = 0
        if have_prev and prev_len >= MIN_MATCH and prev_len >= cur_len:
            lengths_append(prev_len)
            values_append(prev_dist)
            pos = pos - 1 + prev_len
            have_prev = False
            prev_len = 0
            prev_dist = 0
        else:
            if have_prev:
                lengths_append(0)
                values_append(buf[pos - 1])
            have_prev = True
            prev_len = cur_len
            prev_dist = cur_dist
            pos += 1
    if have_prev:
        if prev_len >= MIN_MATCH:
            lengths_append(prev_len)
            values_append(prev_dist)
            pos = pos - 1 + prev_len
        else:
            lengths_append(0)
            values_append(buf[pos - 1])
    return pos
