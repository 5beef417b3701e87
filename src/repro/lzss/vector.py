"""NumPy longest-match kernels for packed batches of small payloads.

:mod:`repro.lzss.batch` packs many small payloads into one buffer and
tokenizes them all in a single pass with these kernels: the GPULZ-style
amortisation (arXiv 2304.07342) of one hash/match sweep over many
payloads. They widen the datapath the way the paper's 32-bit data buses
do ("1 to 4 bytes during the first clock cycle and exactly 4 bytes
during each following one", §IV), by scoring *many* chain candidates
per NumPy operation:

1. **Batched hash computation.** Every position's 3-byte shift-XOR hash
   is computed in one whole-array pass (the paper's hash cache).
2. **Wholesale chain construction.** For insert-all policies (every
   position enters the hash table: all lazy policies, and greedy with
   ``max_insert_length >= MAX_MATCH``) the chain predecessor of a
   position is simply the previous position with the same hash in the
   same payload. One sort of the packed ``(segment, hash, position)``
   keys yields the entire ``prev`` table.
3. **Batched candidate scoring.** The chain walk runs with the *chain
   step* as the outer loop and all still-searching positions as the
   inner (vectorised) axis, applying ZLib's ``good_length``/
   ``nice_length``/budget heuristics as array updates. Positions leave
   the active set exactly when the scalar walk would have broken out
   of its loop.
4. **Replay.** Greedy policies replay every payload in lockstep
   (:func:`replay_greedy_lockstep`); lazy policies run
   :func:`_replay_lazy` per payload.

Per-payload tokens are **bit-identical** to the scalar ``fast`` kernel
(``tests/properties/test_batch_differential.py``). Greedy policies with
``max_insert_length < MAX_MATCH`` skip hash insertion for long matches,
so their chains depend on parse decisions and cannot be precomputed;
:mod:`repro.lzss.batch` tokenizes those with the scalar kernel.

This module must import without NumPy present: the batch engine probes
availability at runtime and falls back to the scalar kernel.
"""

from __future__ import annotations

try:  # probe-gated: repro.lzss.batch decides whether we are used
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from array import array

from repro.lzss.tokens import (
    MAX_MATCH,
    MIN_LOOKAHEAD,
    MIN_MATCH,
    TokenArray,
)

#: Same constant as the scalar lazy parsers (ZLib's TOO_FAR).
_TOO_FAR = 4096


# ----------------------------------------------------------------------
# whole-buffer precomputation
# ----------------------------------------------------------------------


def _hash_all_np(buf, spec):
    """3-byte shift-XOR hash of every position, one whole-array pass.

    Same recurrence as :func:`repro.lzss.hashchain.hash_all`, kept as a
    NumPy array (the argsort below consumes it directly — no boxing).
    """
    b = buf.astype(np.uint32)
    s = np.uint32(spec.shift)
    m = np.uint32(spec.mask)
    h = b[:-2] & m
    h = ((h << s) ^ b[1:-1]) & m
    h = ((h << s) ^ b[2:]) & m
    return h


def _prev_from_keys(keys, pos_bits, want_rank=True):
    """prev/rank tables from packed ``(bucket << pos_bits) | pos`` keys.

    Sorting the packed keys groups equal buckets while preserving
    position order (a counting-sort-stable grouping at plain
    ``np.sort`` speed — measurably faster than a stable argsort); the
    predecessor within each group is then a shifted view.

    ``rank`` is consumed only by the sub-chain budget arithmetic, so
    single-candidate callers pass ``want_rank=False`` to skip its
    scatter and get ``None`` back.
    """
    keys.sort()
    mask = np.uint64((1 << pos_bits) - 1)
    shift = np.uint64(pos_bits)
    order = (keys & mask).astype(np.int64)
    prev_sorted = np.empty_like(order)
    if order.size:
        prev_sorted[0] = -1
        same = (keys[1:] >> shift) == (keys[:-1] >> shift)
        prev_sorted[1:] = np.where(same, order[:-1], np.int64(-1))
    prev_all = np.empty_like(order)
    prev_all[order] = prev_sorted
    if not want_rank:
        return prev_all, None
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return prev_all, rank


def _prev_occurrence_batch(hashes, seg_pos, seam, table_size,
                           want_rank=True):
    """Segment-masked hash chains over a packed multi-payload buffer.

    ``seg_pos[p]`` is the segment id owning byte ``p`` and ``seam``
    marks positions whose 3-byte hash window crosses their segment end.
    Chains are built per ``(segment, hash)`` bucket, so no chain ever
    links across a payload seam; seam positions get a private bucket
    each (chain-less, match-less — exactly the positions the scalar
    per-payload parser never hashes).
    """
    count = hashes.size
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    bucket = (
        seg_pos[:count].astype(np.uint64) * np.uint64(table_size)
        + hashes.astype(np.uint64)
    )
    sentinel_base = np.uint64((int(seg_pos[count - 1]) + 1) * table_size)
    seam_at = np.flatnonzero(seam[:count])
    bucket[seam_at] = sentinel_base + seam_at.astype(np.uint64)
    pos_bits = max(1, int(count - 1).bit_length())
    max_bucket = int(sentinel_base) + count
    if max_bucket.bit_length() + pos_bits > 64:
        raise OverflowError(
            "packed batch too large for 64-bit chain keys; "
            "chunk the batch (repro.parallel.batch)"
        )
    keys = (bucket << np.uint64(pos_bits)) | np.arange(
        count, dtype=np.uint64
    )
    return _prev_from_keys(keys, pos_bits, want_rank=want_rank)


def _words4(buf):
    """Little-endian 4-byte word starting at every position (n-3 of them).

    The batched compare ladder screens candidates with one gathered
    word-equality test — the software rendition of the paper's 32-bit
    compare bus reading 4 bytes per cycle.
    """
    if buf.size < 4:
        return np.empty(0, dtype=np.uint32)
    b = buf.astype(np.uint32)
    return (
        b[:-3]
        | (b[1:-2] << np.uint32(8))
        | (b[2:-1] << np.uint32(16))
        | (b[3:] << np.uint32(24))
    )


def _words8(words4):
    """Little-endian 8-byte word starting at every position (n-7)."""
    if words4.size < 5:
        return np.empty(0, dtype=np.uint64)
    w = words4.astype(np.uint64)
    return w[:-4] | (w[4:] << np.uint64(32))


def _sub_prev(keys):
    """Previous same-key occurrence for arbitrary keys (sub-chains)."""
    prev = np.full(keys.size, -1, dtype=np.int64)
    if keys.size < 2:
        return prev
    order = np.argsort(keys, kind="stable").astype(np.int64)
    prev_sorted = np.empty_like(order)
    prev_sorted[0] = -1
    same = keys[order[1:]] == keys[order[:-1]]
    prev_sorted[1:] = np.where(same, order[:-1], np.int64(-1))
    prev[order] = prev_sorted
    return prev


def _sub_chain(cache, words4, width):
    """Chain over positions sharing their first ``width`` bytes.

    ``width == 8`` groups by the exact 8-byte word; wider levels group
    by a mixed hash of the constituent words — a collision links two
    positions that are not truly prefix-equal, which the walk detects with
    its word verification and skips, so collisions cost a wasted step,
    never a wrong token.
    """
    key = ("prev", width)
    if key not in cache:
        if "w8" not in cache:
            cache["w8"] = _words8(words4)
        w8 = cache["w8"]
        span = width - 8
        if w8.size <= span:
            keys = np.empty(0, dtype=np.uint64)
        elif width == 8:
            keys = w8
        else:
            mix = np.uint64(0x9E3779B97F4A7C15)
            keys = w8[: w8.size - span].copy()
            for off in range(8, width, 8):
                keys *= mix
                keys += w8[off : w8.size - span + off]
        cache[key] = _sub_prev(keys)
    return cache["w8"], cache[key]


# ----------------------------------------------------------------------
# batched longest-match
# ----------------------------------------------------------------------


def _pair_lengths(buf, words4, cand, pos, lim, k0=0):
    """Match length for each (candidate, position) pair, vectorised.

    Extends in 4-byte word strides while both sides agree, then resolves
    the final 0-3 bytes with gathered byte compares. Overlap-safe like
    :func:`repro.lzss.matcher.match_length` (both sides index the same
    buffer). ``k0`` seeds the extension when the caller has already
    proven a common prefix (the W8 sub-chain guarantees 8 bytes).
    """
    k = np.full(cand.size, k0, dtype=np.int64)
    live = np.arange(cand.size)
    while live.size:
        can4 = k[live] + 4 <= lim[live]
        wordy = live[can4]
        equal = words4[cand[wordy] + k[wordy]] == words4[pos[wordy] + k[wordy]]
        advanced = wordy[equal]
        k[advanced] += 4
        # Pairs whose word compare mismatched, or with < 4 bytes of
        # budget left, finish with at most 3 byte probes.
        tail = np.concatenate((live[~can4], wordy[~equal]))
        for _ in range(3):
            tail = tail[k[tail] < lim[tail]]
            if not tail.size:
                break
            more = buf[cand[tail] + k[tail]] == buf[pos[tail] + k[tail]]
            tail = tail[more]
            k[tail] += 1
        live = advanced
    return k


def _padded_words8(buf):
    """8-byte little-endian words over ``buf`` + an 8-byte zero tail.

    Sized ``n + 1`` so a gather at ``pos + k`` stays in bounds for every
    ``pos + k <= n``; the zero padding never leaks into results because
    callers cap the counted extension at the data limit.
    """
    padded = np.zeros(buf.size + 8, dtype=np.uint8)
    padded[:buf.size] = buf
    b = padded.astype(np.uint32)
    w4 = (
        b[:-3]
        | (b[1:-2] << np.uint32(8))
        | (b[2:-1] << np.uint32(16))
        | (b[3:] << np.uint32(24))
    )
    return w4[:-4].astype(np.uint64) | (
        w4[4:].astype(np.uint64) << np.uint64(32)
    )


def _mismatch_bytes(xd):
    """Byte offset of the first set bit in each XOR word (8 if zero).

    ``bitwise_count`` (NumPy >= 2.0) counts the trailing zeros of the
    isolated lowest bit directly — ``popcount(lowbit - 1)``; a zero word
    wraps to all-ones and counts 64, i.e. byte 8, exactly the
    whole-word-equal answer. Older NumPy falls back to an exact float64
    log2 of the isolated bit (a power of two, always representable).
    """
    low = xd & (~xd + np.uint64(1))
    if _BITWISE_COUNT is not None:
        return (
            _BITWISE_COUNT(low - np.uint64(1)).astype(np.int64) >> 3
        )
    tz = np.full(xd.size, 8, dtype=np.int64)
    nz = xd != 0
    tz[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64) >> 3
    return tz


_BITWISE_COUNT = getattr(np, "bitwise_count", None) if np else None


def _pair_lengths8(w8p, cand, pos, lim, k0=0):
    """Match length per (candidate, position) pair, 8 bytes per stride.

    Same contract as :func:`_pair_lengths`, twice the stride: one XOR of
    gathered 8-byte words either advances a pair by 8 or pinpoints its
    first mismatching byte (:func:`_mismatch_bytes`), so short pairs
    resolve in a single round with no byte-probe tail. State is kept
    compact — surviving lanes are filtered, not re-gathered. Every live
    lane scatters its provisional length each round; a lane that
    advances is overwritten by a later round, so its settling round's
    write is the one that sticks and no done-side compaction is needed.
    Requires the padded word array from :func:`_padded_words8`.
    """
    c = cand + np.int64(k0)
    p = pos + np.int64(k0)
    room = lim - np.int64(k0)
    x = w8p[c] ^ w8p[p]
    # Round 0 covers every pair, so its scatter is a direct assignment.
    k_out = np.int64(k0) + np.minimum(_mismatch_bytes(x), room)
    idx = np.flatnonzero((x == 0) & (room > 8))
    c = c[idx] + 8
    p = p[idx] + 8
    room = room[idx] - 8
    k = np.int64(k0 + 8)
    while idx.size:
        x = w8p[c] ^ w8p[p]
        k_out[idx] = k + np.minimum(_mismatch_bytes(x), room)
        full = (x == 0) & (room > 8)
        idx = idx[full]
        c = c[full] + 8
        p = p[full] + 8
        k = k + np.int64(8)
        room = room[full] - 8
    return k_out


def _single_chain_matches(w8p, prev_all, max_dist, end_all):
    """Best matches when the chain budget is a single candidate.

    ``max_chain == 1`` (the batch engine's default greedy policy) visits
    only the nearest previous same-hash occurrence, so the budget /
    good_length / nice_length machinery of :func:`_batch_matches` — and
    its byte-probe screen — collapses to one screen-free extension per
    position. The XOR stride kernel settles most pairs in its first
    gather, which roughly halves the match-pass cost on small-message
    batches.
    """
    count = prev_all.size
    out_len = np.full(count, MIN_MATCH - 1, dtype=np.int64)
    out_dist = np.zeros(count, dtype=np.int64)
    pos = np.flatnonzero(prev_all >= 0)
    cand = prev_all[pos]
    near = pos - cand <= max_dist
    pos = pos[near]
    cand = cand[near]
    lim = np.minimum(np.int64(MAX_MATCH), end_all[pos] - pos)
    k = _pair_lengths8(w8p, cand, pos, lim)
    # Sub-MIN_MATCH lengths land as-is: every consumer treats
    # ``len < MIN_MATCH`` as "no match", so the hit filter would only
    # buy back bytes at the price of three more compactions.
    out_len[pos] = k
    out_dist[pos] = pos - cand
    return out_len, out_dist


#: Best-length threshold for moving a lane from the bucket chain onto
#: the first sub-chain: once best_len >= 7, an improvement needs an
#: 8-byte common prefix, so only W8-equal candidates matter.
_SWITCH_BL = 7

#: Widest sub-chain level; lanes with best_len >= 31 walk 32-byte-prefix
#: chains and stay there (matches cap at 258).
_MAX_WIDTH = 32


def _batch_matches(buf, words4, prev_all, rank, max_dist,
                   max_chain, good_length, nice_length, cache,
                   end_all, seg):
    """Best (length, distance) for *every* hashable position.

    Runs ZLib's ``longest_match`` for all positions at once, with the
    chain step as the outer loop. Candidate order per position is
    identical to the incremental walk, so first-best tie handling, the
    ``good_length`` budget quartering and the ``nice_length`` early
    exit reproduce the scalar semantics exactly; a position leaves the
    active set precisely when the scalar loop would have terminated.

    Lanes whose best length reaches :data:`_SWITCH_BL` leave the
    bucket-chain walk for the sub-chain cascade (:func:`_sub_walk`):
    an improving candidate must share the position's first 8 (then 16,
    then 32) bytes, so only same-prefix chain members need visiting;
    the skipped bucket links in between are charged against the chain
    budget via rank arithmetic, keeping the outcome bit-identical.

    ``end_all``/``seg`` describe the packed multi-payload buffer
    (:mod:`repro.lzss.batch`): ``end_all[p]`` is the exclusive
    data limit for position ``p`` (its segment's end), so no extension
    ever reads across a payload seam, and ``seg`` (per-byte segment
    ids) confines the content-keyed sub-chains to same-segment
    candidates. With segment-masked chains every bucket candidate is
    same-segment and closer than ``lim`` bytes from its own segment
    end, so all word/byte gathers stay inside the candidate's payload.
    """
    count = prev_all.size  # positions 0 .. len(buf) - MIN_MATCH
    out_len = np.full(count, MIN_MATCH - 1, dtype=np.int64)
    out_dist = np.zeros(count, dtype=np.int64)

    # Dense per-active-position state. Every round operates on compact
    # arrays — boolean compressions and whole-array arithmetic — rather
    # than fancy-indexed gathers/scatters into n-sized globals; a
    # position's results are scattered out exactly once, when it dies.
    pos = np.arange(count, dtype=np.int64)
    cand = prev_all.copy()
    start = (cand >= 0) & (cand >= pos - np.int64(max_dist))
    pos = pos[start]
    cand = cand[start]
    lim = np.minimum(np.int64(MAX_MATCH), end_all[pos] - pos)
    min_cand = pos - np.int64(max_dist)
    bl = np.full(pos.size, MIN_MATCH - 1, dtype=np.int64)
    bd = np.zeros(pos.size, dtype=np.int64)
    budget = np.full(pos.size, max_chain, dtype=np.int64)
    switched = []

    while pos.size:
        budget -= 1
        # Quick-reject screen (zlib's peek): a candidate whose byte at
        # offset best_len differs cannot improve on best_len, so the
        # full extension is skipped. Outcome-preserving: such a
        # candidate reaches k <= best_len, which never updates the best
        # match nor triggers the good/nice heuristics.
        screen = buf[cand + bl] == buf[pos + bl]
        spots = np.flatnonzero(screen)
        if spots.size:
            k = _pair_lengths(
                buf, words4, cand[spots], pos[spots], lim[spots]
            )
            improved = k > bl[spots]
            winners = spots[improved]
            won_len = k[improved]
            bl[winners] = won_len
            bd[winners] = pos[winners] - cand[winners]
            # ZLib heuristics, improvement-gated exactly like the
            # scalar walk: nice/limit stops beat the good quartering.
            stop = (won_len >= nice_length) | (won_len >= lim[winners])
            budget[winners[stop]] = 0
            quarter = winners[(~stop) & (won_len >= good_length)]
            budget[quarter] >>= 2
        # Advance every active position one chain link and re-filter.
        cand = prev_all[cand]
        alive = (
            (budget > 0)
            & (cand >= 0)
            & (cand >= min_cand)
            & (bl < lim)
        )
        dead = ~alive
        dp = pos[dead]
        out_len[dp] = bl[dead]
        out_dist[dp] = bd[dead]
        pos = pos[alive]
        cand = cand[alive]
        lim = lim[alive]
        min_cand = min_cand[alive]
        bl = bl[alive]
        bd = bd[alive]
        budget = budget[alive]
        if pos.size:
            sw = bl >= _SWITCH_BL
            if sw.any():
                # The checkpoint rank is one past the next unexamined
                # candidate: reaching a sub-chain member at rank r then
                # costs (checkpoint - r) bucket links of budget.
                switched.append((
                    pos[sw], bl[sw], bd[sw], lim[sw], min_cand[sw],
                    budget[sw], rank[cand[sw]] + 1,
                ))
                keep = ~sw
                pos = pos[keep]
                cand = cand[keep]
                lim = lim[keep]
                min_cand = min_cand[keep]
                bl = bl[keep]
                bd = bd[keep]
                budget = budget[keep]

    if switched:
        state = tuple(
            np.concatenate(parts) for parts in zip(*switched)
        )
        width = 8
        while state is not None:
            w8, prev_sub = _sub_chain(cache, words4, width)
            last = width >= _MAX_WIDTH
            state = _sub_walk(
                buf, words4, w8, prev_sub, rank,
                good_length, nice_length, out_len, out_dist,
                state, width, None if last else 2 * width - 1,
                seg,
            )
            width *= 2
    return out_len, out_dist


def _sub_walk(buf, words4, w8, prev_sub, rank, good_length, nice_length,
              out_len, out_dist, state, width, migrate_bl, seg):
    """Walk ``width``-byte-prefix sub-chains for switched lanes.

    Each round visits one sub-chain member per lane. A member at bucket
    rank ``r`` costs ``checkpoint - r`` budget (the bucket links the
    scalar walk would have stepped through and rejected — none of them
    can improve a best length >= width-1, so skipping them is
    outcome-preserving). Hash-collision members (wider levels use mixed
    keys) fail the word verification and are stepped over for free,
    exactly like any other non-improving candidate outside the budget
    accounting window. Lanes whose best length reaches ``migrate_bl``
    are handed back for the next-wider level; the rest die in place and
    scatter their result.

    ``seg`` (per-byte segment ids) adds a segment-equality term to
    the membership test: the content-keyed sub-chains span the whole
    packed buffer, so a prefix-equal candidate from *another* payload
    must be stepped over for free — mirroring "not in this segment's
    chain at all" — or it would donate a cross-seam distance.
    """
    pos, bl, bd, lim, mc, m, ck = state
    cand = prev_sub[pos]
    mig = []
    nwords = width // 8
    while pos.size:
        ok = (cand >= 0) & (cand >= mc)
        if not ok.all():
            done = ~ok
            dp = pos[done]
            out_len[dp] = bl[done]
            out_dist[dp] = bd[done]
            pos = pos[ok]
            cand = cand[ok]
            bl = bl[ok]
            bd = bd[ok]
            lim = lim[ok]
            mc = mc[ok]
            m = m[ok]
            ck = ck[ok]
            if not pos.size:
                break
        member = (w8[cand] == w8[pos]) & (seg[cand] == seg[pos])
        for off in range(8, width, 8):
            member &= w8[cand + off] == w8[pos + off]
        rc = rank[cand]
        spent = ck - rc
        over = member & (spent > m)
        if over.any():
            dp = pos[over]
            out_len[dp] = bl[over]
            out_dist[dp] = bd[over]
            keep = ~over
            pos = pos[keep]
            cand = cand[keep]
            bl = bl[keep]
            bd = bd[keep]
            lim = lim[keep]
            mc = mc[keep]
            m = m[keep]
            ck = ck[keep]
            member = member[keep]
            rc = rc[keep]
            spent = spent[keep]
            if not pos.size:
                break
        # Members at or above the checkpoint were examined before the
        # switch (and cannot improve) — step over them without charge.
        ex = np.flatnonzero(member & (spent >= 1))
        if ex.size:
            m[ex] -= spent[ex]
            ck[ex] = rc[ex]
            screen = (
                w8[cand[ex] + (bl[ex] - 7)] == w8[pos[ex] + (bl[ex] - 7)]
            )
            spots = ex[screen]
            if spots.size:
                k = _pair_lengths(
                    buf, words4, cand[spots], pos[spots], lim[spots],
                    k0=8 * nwords,
                )
                improved = k > bl[spots]
                winners = spots[improved]
                won = k[improved]
                bl[winners] = won
                bd[winners] = pos[winners] - cand[winners]
                stop = (won >= nice_length) | (won >= lim[winners])
                m[winners[stop]] = 0
                quarter = winners[(~stop) & (won >= good_length)]
                m[quarter] >>= 2
        cand = prev_sub[cand]
        alive = m > 0
        if not alive.all():
            dead = ~alive
            dp = pos[dead]
            out_len[dp] = bl[dead]
            out_dist[dp] = bd[dead]
            pos = pos[alive]
            cand = cand[alive]
            bl = bl[alive]
            bd = bd[alive]
            lim = lim[alive]
            mc = mc[alive]
            m = m[alive]
            ck = ck[alive]
        if migrate_bl is not None and pos.size:
            mg = bl >= migrate_bl
            if mg.any():
                mig.append((
                    pos[mg], bl[mg], bd[mg], lim[mg], mc[mg], m[mg],
                    ck[mg],
                ))
                keep = ~mg
                pos = pos[keep]
                cand = cand[keep]
                bl = bl[keep]
                bd = bd[keep]
                lim = lim[keep]
                mc = mc[keep]
                m = m[keep]
                ck = ck[keep]
    if not mig:
        return None
    return tuple(np.concatenate(parts) for parts in zip(*mig))


# ----------------------------------------------------------------------
# sequential replay
# ----------------------------------------------------------------------


def _replay_lazy(data, n, policy, full_len, full_dist,
                 quart_len, quart_dist):
    """deflate_slow's one-token deferral over precomputed matches.

    ``quart_*`` hold the search results under the quartered chain
    budget ZLib applies when the pending match is already good; ``None``
    means that variant is never consulted (budget quarters to zero, or
    ``good_length >= max_lazy`` makes the branch unreachable).

    Positions where neither track found a match can only emit literals
    (``cur_len`` stays below MIN_MATCH no matter which track the state
    machine consults), so the Python state machine runs only at the
    match-bearing *event* positions and bulk-copies the all-literal
    stretches in between.
    """
    tokens = TokenArray()
    out_lengths = array("i")
    out_values = array("i")
    hash_limit = n - MIN_MATCH
    good_length = policy.good_length
    max_lazy = policy.max_lazy

    interesting = full_len >= MIN_MATCH
    if quart_len is not None:
        interesting = interesting | (quart_len >= MIN_MATCH)
    event_at = np.flatnonzero(interesting)
    events = event_at.tolist()
    fle = full_len[event_at].tolist()
    fde = full_dist[event_at].tolist()
    if quart_len is not None:
        qle = quart_len[event_at].tolist()
        qde = quart_dist[event_at].tolist()
    ne = len(events)

    index = 0
    pos = 0
    prev_len = MIN_MATCH - 1
    prev_dist = 0
    have_prev = False
    while pos < n:
        while index < ne and events[index] < pos:
            index += 1
        nxt = events[index] if index < ne else n
        if pos < nxt:
            # No match can start in [pos, nxt): cur_len is 2 at every
            # step, so the state machine's behaviour collapses to one
            # of three bulk shapes.
            if not have_prev:
                # First step after a match only primes the deferral.
                have_prev = True
                prev_len = MIN_MATCH - 1
                prev_dist = 0
                pos += 1
            elif prev_len >= MIN_MATCH:
                # Pending match beats cur_len == 2: emit it now.
                out_lengths.append(prev_len)
                out_values.append(prev_dist)
                pos = pos - 1 + prev_len
                have_prev = False
                prev_len = MIN_MATCH - 1
                prev_dist = 0
            else:
                # Literal conveyor: each step emits the previous byte.
                out_lengths.extend(bytes(nxt - pos))
                out_values.extend(data[pos - 1:nxt - 1])
                pos = nxt
            continue
        # pos == nxt: a position where a track holds a real match.
        cur_len = MIN_MATCH - 1
        cur_dist = 0
        if pos <= hash_limit and prev_len < max_lazy:
            if prev_len >= good_length:
                if quart_len is not None:
                    cur_len = qle[index]
                    cur_dist = qde[index]
            else:
                cur_len = fle[index]
                cur_dist = fde[index]
            if cur_len == MIN_MATCH and cur_dist > _TOO_FAR:
                cur_len = MIN_MATCH - 1

        if have_prev and prev_len >= MIN_MATCH and prev_len >= cur_len:
            out_lengths.append(prev_len)
            out_values.append(prev_dist)
            pos = pos - 1 + prev_len
            have_prev = False
            prev_len = MIN_MATCH - 1
            prev_dist = 0
        else:
            if have_prev:
                out_lengths.append(0)
                out_values.append(data[pos - 1])
            have_prev = True
            prev_len = cur_len
            prev_dist = cur_dist
            pos += 1
    if have_prev:
        out_lengths.append(0)
        out_values.append(data[n - 1])
    tokens.lengths = out_lengths
    tokens.values = out_values
    return tokens


# ----------------------------------------------------------------------
# packed multi-payload batch mode (repro.lzss.batch)
# ----------------------------------------------------------------------


def batch_match_arrays(buf, seg_of, end_of, seam, window_size, hash_spec,
                       policy):
    """Per-position best matches for a packed multi-segment buffer.

    One hash pass, one chain sort and one (or two, for lazy policies)
    :func:`_batch_matches` sweep cover *every* payload in the batch —
    the GPULZ-style amortisation the batch engine is built on. Returns
    ``(full_len, full_dist, quart_len, quart_dist)``; the quartered
    track is ``None`` for greedy policies or when the lazy policy never
    consults it.

    ``seg_of`` maps each byte to its segment id, ``end_of`` each byte
    to its segment's exclusive end and ``seam`` marks positions whose
    3-byte hash window crosses a segment end. Matches never cross
    seams: chains are bucketed per ``(segment, hash)``, extension
    limits stop at the segment end, and the sub-chain walk is
    segment-guarded.
    """
    hashes = _hash_all_np(buf, hash_spec)
    single_chain = not policy.lazy and policy.max_chain == 1
    prev_all, rank = _prev_occurrence_batch(
        hashes, seg_of, seam, hash_spec.table_size,
        want_rank=not single_chain,
    )
    max_dist = window_size - MIN_LOOKAHEAD
    if single_chain:
        # The batch default (BATCH_GREEDY_POLICY): one candidate per
        # position, no budget bookkeeping worth vectorising.
        full = _single_chain_matches(
            _padded_words8(buf), prev_all, max_dist, end_of
        )
        return full[0], full[1], None, None
    words4 = _words4(buf)
    cache = {}
    full = _batch_matches(
        buf, words4, prev_all, rank, max_dist,
        policy.max_chain, policy.good_length, policy.nice_length,
        cache, end_of, seg_of,
    )
    quart = (None, None)
    if policy.lazy:
        quart_chain = policy.max_chain >> 2
        if quart_chain > 0 and policy.good_length < policy.max_lazy:
            quart = _batch_matches(
                buf, words4, prev_all, rank, max_dist,
                quart_chain, policy.good_length, policy.nice_length,
                cache, end_of, seg_of,
            )
    return full[0], full[1], quart[0], quart[1]


def replay_greedy_lockstep(buf, seg_starts, seg_ends, best_len, best_dist):
    """Greedy replay of every segment at once, round-synchronised.

    A per-payload greedy replay loop runs once per match; over a
    batch of small payloads that is still thousands of Python
    iterations. This version advances *all* segments together: each
    round jumps every active segment to its next match through a
    precomputed next-match suffix array (one gather, no per-round
    search), records (literal-run, match) pairs as arrays, and only
    loops as many times as the match-richest segment has matches.
    Token materialisation is a pure array expansion at the end.

    Returns ``(tok_len, tok_val, counts)``: int32 token columns in
    segment-major order (literals have ``tok_len == 0`` and the byte in
    ``tok_val``; matches carry length/distance) plus the per-segment
    token counts.
    """
    nseg = seg_starts.size
    ends = seg_ends.astype(np.int64)
    limit = int(ends[-1]) if nseg else 0
    match_at = np.flatnonzero(best_len >= MIN_MATCH)
    # nxt[p] = smallest match position >= p, or `limit` past the last
    # match — a reversed running minimum, so each round resolves every
    # lane's next stop with a single gather.
    nxt = np.full(limit + 1, limit, dtype=np.int64)
    nxt[match_at] = match_at
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    c = seg_starts.astype(np.int64)
    e = ends
    active = np.arange(nseg, dtype=np.int64)
    keep = e > c
    if not keep.all():
        active, c, e = active[keep], c[keep], e[keep]
    rec_seg, rec_lit_start, rec_lit_len = [], [], []
    rec_mlen, rec_mdist = [], []
    # Lane state (segment id / cursor / end) rides along compacted, so
    # a round touches no full-width array: one `nxt` gather plus a
    # handful of lane-width ops, and the compaction only happens on the
    # (rare) rounds where some lane drains or lands exactly on its end.
    while active.size:
        q = nxt[c]
        has = q < e
        if not has.all():
            drained = active[~has]
            rec_seg.append(drained)
            rec_lit_start.append(c[~has])
            rec_lit_len.append(e[~has] - c[~has])
            zero = np.zeros(drained.size, dtype=np.int64)
            rec_mlen.append(zero)
            rec_mdist.append(zero)
            active, c, e, q = active[has], c[has], e[has], q[has]
            if not active.size:
                break
        rec_seg.append(active)
        rec_lit_start.append(c)
        rec_lit_len.append(q - c)
        mlen = best_len[q]
        rec_mlen.append(mlen)
        rec_mdist.append(best_dist[q])
        c = q + mlen
        keep = c < e
        if not keep.all():
            active, c, e = active[keep], c[keep], e[keep]

    if not rec_seg:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.zeros(nseg, dtype=np.int64),
        )
    seg_all = np.concatenate(rec_seg)
    lit_start = np.concatenate(rec_lit_start)
    lit_len = np.concatenate(rec_lit_len)
    mlen = np.concatenate(rec_mlen)
    mdist = np.concatenate(rec_mdist)
    # Rounds were appended in replay order, so a stable sort on the
    # segment id alone yields each segment's records in stream order.
    order = np.argsort(seg_all, kind="stable")
    seg_all = seg_all[order]
    lit_start = lit_start[order]
    lit_len = lit_len[order]
    mlen = mlen[order]
    mdist = mdist[order]

    has_match = (mlen > 0).astype(np.int64)
    per_rec = lit_len + has_match
    base = np.concatenate(([0], np.cumsum(per_rec)[:-1]))
    total = int(per_rec.sum())
    tok_len = np.zeros(total, dtype=np.int32)
    tok_val = np.empty(total, dtype=np.int32)
    lit_total = int(lit_len.sum())
    if lit_total:
        rep = np.repeat(np.arange(seg_all.size), lit_len)
        excl = np.concatenate(([0], np.cumsum(lit_len)[:-1]))
        offs = np.arange(lit_total, dtype=np.int64) - excl[rep]
        tok_val[base[rep] + offs] = buf[lit_start[rep] + offs]
    mrec = np.flatnonzero(has_match)
    if mrec.size:
        slot = base[mrec] + lit_len[mrec]
        tok_len[slot] = mlen[mrec]
        tok_val[slot] = mdist[mrec]
    counts = np.bincount(
        seg_all, weights=per_rec, minlength=nseg
    ).astype(np.int64)
    return tok_len, tok_val, counts
