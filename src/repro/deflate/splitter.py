"""Per-block entropy-coding strategy selection with cut-point search.

The paper's hardware commits to the fixed tables for speed; ZLib's
software encoder instead prices each block under all three codings and
emits the cheapest. This module implements that opportunistic choice so
the estimator can quantify exactly what the hardware's commitment costs
on a given workload (the "can be also compensated by increasing LZSS
compression level" discussion of §IV).

Pricing is single-pass, zlib-style: one histogram pass over the block's
tokens yields both the fixed cost (Σ count × (code_len + extra)) and,
via :func:`repro.deflate.dynamic.plan_dynamic_block`, the exact dynamic
cost including the RLE'd table transmission — no scratch encode. The
winning block is then emitted exactly once, and a DYNAMIC winner reuses
the tables already built during pricing (the ``opt_len``/``static_len``
accounting of ZLib's ``deflate.c``, with the emission fused through
:mod:`repro.deflate.fused` and its code-length-keyed table cache).

Block boundaries are no longer a blind cadence. With ``cut_search``
(the default) the splitter accumulates mergeable segment histograms
over candidate boundaries every :data:`DEFAULT_CUT_EVERY` tokens and
prices each boundary: *cut here* (two blocks, two table transmissions)
against *merge with the next candidate* (one block, one combined
table). A boundary survives only when the two separate blocks price
cheaper than the combined one, so homogeneous runs coalesce into a
single table transmission while texture changes — text abutting binary
in a heterogeneous shard — still get their own tables. ``cut_search=
False`` restores the fixed cadence (cut every ``tokens_per_block``
tokens, ZLib's symbol-buffer-fill behaviour).

On top of the searched boundaries sits the refine loop
(:func:`refine_searched_blocks`, ``refine=True`` / the ``best``
profile): the tokenizer chose matches greedily (or one-step lazily)
with no knowledge of the entropy coder, so inside each settled block
the parse and the prices can disagree — a length-17 match that looked
good costs 13 bits under the block's actual dynamic code where two
length-8 matches would have cost 11. The loop queries the exact
longest match at every block offset once (suffix array over the
block plus its reachable history) and then iterates parse → plan a
couple of times, each forward DP scoring candidate token choices by
the previous round's code lengths. A block keeps its refined parse
only when the exact re-price is strictly cheaper, so refinement never
loses a bit.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.bitio.writer import BitWriter
from repro.deflate.block_writer import (
    BlockStrategy,
    fixed_cost_from_histograms,
    stored_block_cost_bits,
    write_fixed_block,
    write_stored_block,
)
from repro.deflate.constants import (
    DIST_EXTRA_BITS,
    END_OF_BLOCK,
    LENGTH_TABLE,
    LITLEN_EXTRA_BITS,
    _DISTANCE_LOOKUP,
    _LENGTH_LOOKUP,
)
from repro.deflate.dynamic import (
    DynamicPlan,
    plan_dynamic_block,
    segment_histograms,
    token_histograms,
    write_dynamic_block,
)
from repro.errors import ConfigError
from repro.lzss.tokens import MAX_MATCH, MIN_LOOKAHEAD, MIN_MATCH, TokenArray

#: Default fixed-cadence block length, in tokens (ZLib's symbol-buffer
#: size); also the ceiling for the candidate spacing of the cut search.
DEFAULT_TOKENS_PER_BLOCK = 16384

#: Default candidate-boundary spacing for the cut-point search, in
#: tokens. Finer spacing isolates texture changes more precisely but
#: prices more boundaries (two :func:`plan_dynamic_block` calls each).
DEFAULT_CUT_EVERY = 4096


@dataclass
class BlockChoice:
    """One block's evaluated coding options.

    ``plan`` carries the dynamic tables built while pricing, so a
    DYNAMIC winner is emitted without recomputing histograms or code
    lengths (``None`` for empty blocks, which never choose DYNAMIC).
    """

    strategy: BlockStrategy
    fixed_bits: int
    dynamic_bits: int
    stored_bits: int
    plan: Optional[DynamicPlan] = field(default=None, repr=False,
                                        compare=False)

    @property
    def chosen_bits(self) -> int:
        return {
            BlockStrategy.FIXED: self.fixed_bits,
            BlockStrategy.DYNAMIC: self.dynamic_bits,
            BlockStrategy.STORED: self.stored_bits,
        }[self.strategy]


def evaluate_block(
    tokens: TokenArray, uncompressed_size: int, bit_offset: int = 0
) -> BlockChoice:
    """Price one block under all three codings and pick the cheapest.

    All three prices are exact: fixed and dynamic from one histogram
    pass over ``tokens``, stored from the multi-chunk formula of
    :func:`stored_block_cost_bits` (``bit_offset`` — the writer's
    pending bit count — pins the first chunk's alignment padding).

    An empty block chooses FIXED explicitly: it has no symbols to
    re-code, DYNAMIC could never be cheaper and has no plan to emit
    with (``plan=None`` would crash the dynamic writer), and STORED
    still pays 35+ framing bits against FIXED's 10. The choice used to
    fall out of ``min()``'s first-wins tie ordering alone.
    """
    litlen_hist, dist_hist = token_histograms(tokens)
    fixed_bits = fixed_cost_from_histograms(litlen_hist, dist_hist)
    stored_bits = stored_block_cost_bits(uncompressed_size, bit_offset)
    if not len(tokens):
        return BlockChoice(
            strategy=BlockStrategy.FIXED,
            fixed_bits=fixed_bits,
            dynamic_bits=fixed_bits,
            stored_bits=stored_bits,
            plan=None,
        )
    plan = plan_dynamic_block(litlen_hist, dist_hist)
    best = min(
        (fixed_bits, BlockStrategy.FIXED),
        (plan.cost_bits, BlockStrategy.DYNAMIC),
        (stored_bits, BlockStrategy.STORED),
        key=lambda pair: pair[0],
    )
    return BlockChoice(
        strategy=best[1],
        fixed_bits=fixed_bits,
        dynamic_bits=plan.cost_bits,
        stored_bits=stored_bits,
        plan=plan,
    )


def _slice_tokens(tokens: TokenArray, start: int, stop: int) -> TokenArray:
    out = TokenArray()
    out.lengths = tokens.lengths[start:stop]
    out.values = tokens.values[start:stop]
    return out


class _SearchedBlock:
    """One cut-search block: token range plus its already-built pricing.

    ``plan`` is ``None`` when the entropy lower bound proved STORED
    wins outright (``dynamic_bits`` then records the bound, which the
    margin in :func:`_price_block_histograms` guarantees can never win
    at emission either).
    """

    __slots__ = ("start", "stop", "raw_len", "fixed_bits", "dynamic_bits",
                 "plan", "search_bits")

    def __init__(self, start, stop, raw_len, fixed_bits, dynamic_bits,
                 plan, search_bits):
        self.start = start
        self.stop = stop
        self.raw_len = raw_len
        self.fixed_bits = fixed_bits
        self.dynamic_bits = dynamic_bits
        self.plan = plan
        self.search_bits = search_bits


def _huffman_payload_bits(weights: List[int]) -> int:
    """Σ count × length of an *unbounded* Huffman code over ``weights``.

    The classic sum-of-internal-nodes identity via a heap — no lengths
    are ever materialized. Because the 15-bit limit only ever adds
    constraints, this is a true floor on the length-limited payload the
    plan would pay, and it is exact (not Shannon) — crucially it does
    not suffer the plug-in entropy's ~(K−1)/(2·ln2) ≈ 184-bit sampling
    deficit on near-uniform histograms, which is larger than the stored
    framing the shortcut needs to resolve.
    """
    if len(weights) == 1:
        return weights[0]
    heap = list(weights)
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        total += merged
        heapq.heappush(heap, merged)
    return total


def _dynamic_lower_bound_bits(litlen_hist, dist_hist) -> int:
    """A floor on any dynamic block's exact cost, without a plan.

    Three certain components: the unbounded-Huffman payload plus extra
    bits (:func:`_huffman_payload_bits` — the 15-bit limit can only
    cost more); 29 header bits (3-bit block header, HLIT/HDIST/HCLEN,
    four mandatory code-length slots); and half a bit of table
    transmission per used symbol (every used symbol's length reaches
    the decoder through the RLE'd code-length stream, whose cheapest
    emission — a 1-bit REP_6 symbol plus its 2 extra bits — covers at
    most six lengths). The search uses the floor to skip package-merge
    entirely when STORED already wins (every segment of an
    incompressible shard) and to reject merges whose floor exceeds the
    split price.
    """
    bits = 29
    used = 0
    for hist, extra in (
        (litlen_hist, LITLEN_EXTRA_BITS),
        (dist_hist, DIST_EXTRA_BITS),
    ):
        weights = []
        for symbol, count in enumerate(hist.counts):
            if count:
                weights.append(count)
                bits += count * extra[symbol]
        if weights:
            used += len(weights)
            bits += _huffman_payload_bits(weights)
    return bits + (used >> 1)


def _price_block_histograms(litlen_hist, dist_hist, raw_len: int,
                            budget: Optional[int] = None):
    """Exact three-way price of a block built from segment histograms.

    Segment histograms exclude END_OF_BLOCK (they are mergeable units,
    not blocks); it is counted in transiently here, once per *block*
    being priced. The stored price uses bit offset 0 — a search-time
    estimate within 7 bits of any emission offset; emission re-prices
    stored at the writer's true offset.

    Returns ``(fixed_bits, dynamic_bits, plan, chosen_bits)``. When the
    entropy floor shows STORED beating both other codings with more
    than a byte to spare (so no emission offset can flip the choice),
    the plan is never built and ``dynamic_bits`` is the floor.

    ``budget`` is the split price a merged block must beat: when even
    the floor ``min(fixed, stored, entropy bound)`` exceeds it the
    answer is already "cut", and ``None`` comes back without the
    package-merge tables ever being built. The two shortcuts between
    them keep the search's exact pricing off the expensive path for
    the two *obvious* decisions — incompressible segments (stored
    wins) and texture boundaries (cut wins) — leaving full plan
    construction only where the choice is genuinely close.
    """
    counts = litlen_hist.counts
    counts[END_OF_BLOCK] += 1
    try:
        fixed_bits = fixed_cost_from_histograms(litlen_hist, dist_hist)
        stored_bits = stored_block_cost_bits(raw_len)
        cheap_floor = min(fixed_bits, stored_bits)
        stored_won = stored_bits + 8 <= fixed_bits
        if stored_won or (budget is not None and cheap_floor > budget):
            floor = _dynamic_lower_bound_bits(litlen_hist, dist_hist)
            if stored_won and stored_bits + 8 <= floor:
                if budget is not None and stored_bits > budget:
                    return None
                return fixed_bits, floor, None, stored_bits
            if budget is not None and min(cheap_floor, floor) > budget:
                return None
        plan = plan_dynamic_block(litlen_hist, dist_hist)
    finally:
        counts[END_OF_BLOCK] -= 1
    chosen = min(fixed_bits, plan.cost_bits, stored_bits)
    if budget is not None and chosen > budget:
        return None
    return fixed_bits, plan.cost_bits, plan, chosen


def search_cut_points(
    tokens: TokenArray,
    cut_every: int = DEFAULT_CUT_EVERY,
    cut_every_max: Optional[int] = None,
) -> List[_SearchedBlock]:
    """Greedy cost-driven block boundaries over candidate cut points.

    Walks candidate boundaries, keeping an accumulated block whose
    histograms are extended by merging each next segment's histograms
    into it. At every candidate the exact prices decide: merge when
    ``cost(acc + seg) <= cost(acc) + cost(seg)`` — one combined table
    transmission beats two — else cut. Histogram merging makes each
    decision O(alphabet), never a re-walk of the tokens; the winning
    block's :class:`~repro.deflate.dynamic.DynamicPlan` is carried to
    emission so nothing is priced twice.

    Candidate spacing starts at ``cut_every`` and doubles after every
    accepted merge, up to ``cut_every_max`` (default ``16 *
    cut_every``); a cut resets it. Stable runs therefore cost
    O(log) pricing decisions instead of one per ``cut_every`` tokens,
    while the tokens right after a texture change — where boundary
    resolution actually buys ratio — are still examined at the fine
    spacing. With ``cut_every_max=cut_every`` the spacing is constant
    and every merged block provably prices no cheaper than the
    equal-cadence split it replaced (the monotonicity property of
    ``tests/deflate/test_cut_search.py``).
    """
    n = len(tokens)
    if cut_every_max is None:
        cut_every_max = 16 * cut_every
    blocks: List[_SearchedBlock] = []
    acc_lit = acc_dist = None
    acc_start = acc_stop = acc_raw = 0
    acc_fixed = acc_dynamic = acc_plan = acc_price = None
    spacing = cut_every
    seg_start = 0
    while seg_start < n:
        seg_stop = min(seg_start + spacing, n)
        lit, dist, raw = segment_histograms(tokens, seg_start, seg_stop)
        fixed_bits, dynamic_bits, plan, price = _price_block_histograms(
            lit, dist, raw
        )
        if acc_lit is None:
            acc_lit, acc_dist, acc_raw = lit, dist, raw
            acc_start, acc_stop = seg_start, seg_stop
            acc_fixed, acc_dynamic, acc_plan, acc_price = (
                fixed_bits, dynamic_bits, plan, price
            )
            seg_start = seg_stop
            continue
        merged_lit = acc_lit.copy()
        merged_lit.merge(lit)
        merged_dist = acc_dist.copy()
        merged_dist.merge(dist)
        merged_raw = acc_raw + raw
        merged = _price_block_histograms(
            merged_lit, merged_dist, merged_raw,
            budget=acc_price + price,
        )
        if merged is not None:
            acc_lit, acc_dist, acc_raw = merged_lit, merged_dist, merged_raw
            acc_stop = seg_stop
            acc_fixed, acc_dynamic, acc_plan, acc_price = merged
            spacing = min(2 * spacing, cut_every_max)
        else:
            blocks.append(_SearchedBlock(
                acc_start, acc_stop, acc_raw, acc_fixed,
                acc_dynamic, acc_plan, acc_price,
            ))
            acc_lit, acc_dist, acc_raw = lit, dist, raw
            acc_start, acc_stop = seg_start, seg_stop
            acc_fixed, acc_dynamic, acc_plan, acc_price = (
                fixed_bits, dynamic_bits, plan, price
            )
            spacing = cut_every
        seg_start = seg_stop
    if acc_lit is not None:
        blocks.append(_SearchedBlock(
            acc_start, acc_stop, acc_raw, acc_fixed,
            acc_dynamic, acc_plan, acc_price,
        ))
    return blocks


@dataclass(frozen=True)
class RefineConfig:
    """Knobs of the iterative block re-tokenisation (the refine loop).

    ``window_size`` must match the tokenizer's (distances the re-parse
    emits are bounded by ``window_size - MIN_LOOKAHEAD``, like every
    backend's). ``iterations`` is the number of parse↔price fixed-point
    rounds; zlib's level-9 refinement converges in 2-3. The two budgets
    cap work: blocks larger than ``max_block_bytes`` and any bytes past
    ``max_total_bytes`` per call are left as parsed.
    """

    window_size: int
    iterations: int = 2
    max_block_bytes: int = 1 << 17
    max_total_bytes: int = 1 << 22

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError(
                f"refine iterations must be >= 1: {self.iterations}"
            )


#: Smallest block worth re-parsing: below this the table transmission
#: dominates and the DP cannot move the price.
_REFINE_MIN_BLOCK = 64

#: DP price of a symbol the current plan assigns no code: the 15-bit
#: ceiling keeps unseen symbols *expensive but reachable*, so the parse
#: can introduce them and the next iteration's plan prices them truly.
_REFINE_UNSEEN_BITS = 15

#: Fixed-point sub-bit resolution of the DP costs. The first iteration
#: prices by the plan's integer code lengths; later iterations price by
#: the *fractional* entropy of the emerging histogram (zopfli's squeeze
#: trick: ``-log2 p`` separates choices that integer Huffman lengths
#: tie), so every cost is carried in units of ``1/_REFINE_SCALE`` bits.
_REFINE_SCALE = 32


def _candidate_length_table():
    """For each longest-match length L: the candidate DP lengths.

    One candidate per Deflate length bucket — the bucket's top, clipped
    to L — plus L itself. Within a bucket every length costs the same
    bits (same symbol, extra bits are a constant count), so the top
    reaches furthest at equal price; ~2-17 candidates per position
    instead of all L-2 lengths keeps the DP near-linear.
    """
    table = [()] * (MAX_MATCH + 1)
    for match_len in range(MIN_MATCH, MAX_MATCH + 1):
        candidates = set()
        for base, extra in LENGTH_TABLE:
            if base > match_len:
                break
            candidates.add(min(base + (1 << extra) - 1, match_len))
        # Length 258 has its own zero-extra symbol (285).
        if match_len == MAX_MATCH:
            candidates.add(MAX_MATCH)
        table[match_len] = tuple(sorted(candidates))
    return table


_REFINE_CANDIDATES = _candidate_length_table()


def _refine_costs(litlen_lengths, dist_lengths):
    """DP costs from integer code lengths, in ``1/_REFINE_SCALE`` bits.

    Used for the first iteration, where the only prices available are
    the original plan's code lengths.
    """
    scale = _REFINE_SCALE
    unseen = _REFINE_UNSEEN_BITS * scale
    lit_cost = [
        (litlen_lengths[b] * scale or unseen) for b in range(256)
    ]
    len_cost = [0] * (MAX_MATCH + 1)
    for match_len in range(MIN_MATCH, MAX_MATCH + 1):
        symbol = 257 + _LENGTH_LOOKUP[match_len]
        code = litlen_lengths[symbol] * scale or unseen
        len_cost[match_len] = code + LITLEN_EXTRA_BITS[symbol] * scale
    dist_cost = [
        (dist_lengths[s] * scale or unseen) + DIST_EXTRA_BITS[s] * scale
        for s in range(len(DIST_EXTRA_BITS))
    ]
    return lit_cost, len_cost, dist_cost


def _entropy_costs(litlen_hist, dist_hist):
    """DP costs from histogram entropy, in ``1/_REFINE_SCALE`` bits.

    ``-log2(freq/total)`` per symbol — the fractional cost a perfect
    entropy coder would charge. Huffman rounds these to integers, and
    pricing the *unrounded* value lets the DP separate choices the
    integer code lengths tie (zopfli's squeeze statistics); the exact
    re-price on acceptance keeps the final comparison honest.
    """
    from math import log2

    scale = _REFINE_SCALE
    unseen = _REFINE_UNSEEN_BITS * scale

    def costs(hist):
        total = sum(hist)
        if not total:
            return [unseen] * len(hist)
        log_total = log2(total)
        cap = unseen
        return [
            min(cap, round((log_total - log2(f)) * scale)) if f else cap
            for f in hist
        ]

    lit_full = costs(litlen_hist.counts)
    lit_cost = lit_full[:256]
    len_cost = [0] * (MAX_MATCH + 1)
    for match_len in range(MIN_MATCH, MAX_MATCH + 1):
        symbol = 257 + _LENGTH_LOOKUP[match_len]
        len_cost[match_len] = (
            lit_full[symbol] + LITLEN_EXTRA_BITS[symbol] * scale
        )
    dist_full = costs(dist_hist.counts)
    dist_cost = [
        dist_full[s] + DIST_EXTRA_BITS[s] * scale
        for s in range(len(DIST_EXTRA_BITS))
    ]
    return lit_cost, len_cost, dist_cost


def _position_candidates(frontier):
    """DP candidates for one position, from its match frontier.

    Each Pareto pair contributes its bucket-top candidate lengths; when
    two pairs offer the same candidate length, the closer distance wins
    (same length symbol, strictly cheaper distance code). The distance
    symbol is resolved here, once — it is loop-invariant across the
    refine iterations, only its price changes.
    """
    best = {}
    for match_len, dist in frontier:
        for length in _REFINE_CANDIDATES[match_len]:
            prev = best.get(length)
            if prev is None or dist < prev:
                best[length] = dist
    dlookup = _DISTANCE_LOOKUP
    return tuple(
        (length, dist, dlookup[dist]) for length, dist in best.items()
    )


def _reparse_block(buf, h0, blen, cands, costs) -> TokenArray:
    """One price-aware forward DP over a block's bytes.

    ``cands[i]`` holds the ``(length, dist, dist_symbol)`` candidates
    at block offset ``i`` (empty = literal only), built by
    :func:`_position_candidates` from the suffix-array match frontier.
    ``costs`` is the ``(lit, len, dist)`` price triple — the block's
    *emerging* prices (:func:`_refine_costs` / :func:`_entropy_costs`),
    not the fixed tables.
    """
    lit_cost, len_cost, dist_cost = costs
    inf = 1 << 60
    cost = [inf] * (blen + 1)
    cost[0] = 0
    back_len = [0] * (blen + 1)
    back_dist = [0] * (blen + 1)
    for i in range(blen):
        ci = cost[i]
        byte = buf[h0 + i]
        c = ci + lit_cost[byte]
        if c < cost[i + 1]:
            cost[i + 1] = c
            back_len[i + 1] = 0
        for length, dist, dsym in cands[i]:
            c = ci + dist_cost[dsym] + len_cost[length]
            j = i + length
            if c < cost[j]:
                cost[j] = c
                back_len[j] = length
                back_dist[j] = dist
    out_lengths = []
    out_values = []
    j = blen
    while j > 0:
        length = back_len[j]
        if length == 0:
            out_lengths.append(0)
            out_values.append(buf[h0 + j - 1])
            j -= 1
        else:
            out_lengths.append(length)
            out_values.append(back_dist[j])
            j -= length
    out_lengths.reverse()
    out_values.reverse()
    tokens = TokenArray()
    tokens.lengths = array("i", out_lengths)
    tokens.values = array("i", out_values)
    return tokens


def refine_searched_blocks(
    view: memoryview,
    blocks: List[_SearchedBlock],
    config: RefineConfig,
):
    """Re-tokenise each searched block against its own Huffman prices.

    The cut search fixed the block boundaries from the *original* parse;
    within each block the match choices were made blind to the block's
    actual code lengths. This loop closes that gap, zopfli-style:
    query the match *frontier* at every block offset once (suffix array
    over history + block; Pareto pairs of length vs distance, so a
    shorter match at a much closer distance is priceable), then iterate
    parse -> plan 2-3 times, each DP scoring candidates by the previous
    round's code lengths.
    A block keeps its refined parse only when the exact re-price is
    strictly cheaper — the refine can never make a stream bigger.

    Returns a list aligned with ``blocks``: ``None`` (keep the original
    parse) or ``(tokens, fixed_bits, dynamic_bits, plan)``.
    """
    from repro.lzss.sa import SuffixArrayMatcher

    results: List[Optional[tuple]] = [None] * len(blocks)
    max_dist = config.window_size - MIN_LOOKAHEAD
    if max_dist < 1:
        return results
    budget = config.max_total_bytes
    consumed = 0
    for index, searched in enumerate(blocks):
        raw_len = searched.raw_len
        start_byte = consumed
        consumed += raw_len
        if (searched.plan is None          # entropy bound: stored wins
                or raw_len < _REFINE_MIN_BLOCK
                or raw_len > config.max_block_bytes
                or raw_len > budget):
            continue
        budget -= raw_len
        hist_start = start_byte - max_dist
        if hist_start < 0:
            hist_start = 0
        buf = bytes(view[hist_start:start_byte + raw_len])
        h0 = start_byte - hist_start
        matcher = SuffixArrayMatcher(buf, max_dist)
        frontier = matcher.match_frontier
        cands = [()] * raw_len
        for i in range(raw_len):
            limit = raw_len - i
            if limit > MAX_MATCH:
                limit = MAX_MATCH
            if limit >= MIN_MATCH:
                pairs = frontier(h0 + i, limit)
                if pairs:
                    cands[i] = _position_candidates(pairs)
        costs = _refine_costs(
            searched.plan.litlen_lengths, searched.plan.dist_lengths
        )
        best = None
        for _ in range(config.iterations):
            tokens = _reparse_block(buf, h0, raw_len, cands, costs)
            litlen_hist, dist_hist = token_histograms(tokens)
            fixed_bits = fixed_cost_from_histograms(litlen_hist, dist_hist)
            plan = plan_dynamic_block(litlen_hist, dist_hist)
            price = min(fixed_bits, plan.cost_bits)
            if best is None or price < best[0]:
                best = (price, tokens, fixed_bits, plan)
            costs = _entropy_costs(litlen_hist, dist_hist)
        old_price = min(searched.fixed_bits, searched.dynamic_bits)
        if best is not None and best[0] < old_price:
            results[index] = (best[1], best[2], best[3].cost_bits, best[3])
    return results


@dataclass
class SplitResult:
    """Outcome of an adaptive-strategy encoding."""

    body: bytes
    choices: List[BlockChoice]

    def strategy_counts(self) -> dict:
        counts: dict = {}
        for choice in self.choices:
            counts[choice.strategy] = counts.get(choice.strategy, 0) + 1
        return counts


def write_adaptive_blocks(
    writer: BitWriter,
    tokens: TokenArray,
    original,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
    final: bool = True,
    cut_search: bool = True,
    cut_every: Optional[int] = None,
    cut_every_max: Optional[int] = None,
    refine: Optional[RefineConfig] = None,
) -> List[BlockChoice]:
    """Emit ``tokens`` into ``writer`` with per-block strategy choice.

    ``original`` supplies the raw bytes for stored blocks (``bytes`` or
    ``memoryview``; stored payloads are sliced zero-copy) and must be
    exactly the buffer the tokens reconstruct — a shorter buffer would
    fail deep inside memoryview slicing on the first STORED block, a
    longer one would silently drop its tail into a corrupt stream, so
    the length is validated up front.

    With ``cut_search`` (default) block boundaries come from
    :func:`search_cut_points`: candidates every ``cut_every`` tokens
    (default ``min(DEFAULT_CUT_EVERY, tokens_per_block)``), kept only
    when two separate blocks price cheaper than one merged block.
    ``cut_search=False`` cuts blindly every ``tokens_per_block`` tokens
    (ZLib cuts on symbol-buffer fill, the same mechanism). With
    ``final=False`` every block is non-final, so the run can sit inside
    a larger stream — the shard bodies of :mod:`repro.parallel` and the
    chunk emission of :class:`repro.deflate.stream.ZLibStreamCompressor`.

    A :class:`RefineConfig` turns on the iterative re-tokenisation of
    each searched block (:func:`refine_searched_blocks`); it is only
    effective together with ``cut_search`` — blind cuts carry no
    per-block plan to refine against.

    Each block is tokenised, priced and emitted exactly once; the
    returned choices record the per-block prices actually paid.
    """
    if tokens_per_block < 1:
        raise ConfigError(
            f"tokens_per_block must be >= 1: {tokens_per_block}"
        )
    if cut_every is None:
        cut_every = min(DEFAULT_CUT_EVERY, tokens_per_block)
    if cut_every < 1:
        raise ConfigError(f"cut_every must be >= 1: {cut_every}")
    view = memoryview(original)
    expected = tokens.uncompressed_size()
    if len(view) != expected:
        raise ConfigError(
            f"original buffer is {len(view)} bytes but the token stream "
            f"reconstructs {expected}"
        )
    n = len(tokens)
    if cut_search and n:
        return _emit_searched_blocks(writer, tokens, view, final,
                                     cut_every, cut_every_max,
                                     refine=refine)
    choices: List[BlockChoice] = []
    block_starts = list(range(0, n, tokens_per_block)) or [0]
    consumed = 0
    for index, start in enumerate(block_starts):
        stop = min(start + tokens_per_block, n)
        block = _slice_tokens(tokens, start, stop)
        raw_len = block.uncompressed_size()
        last = final and index == len(block_starts) - 1
        choice = evaluate_block(
            block, raw_len, bit_offset=writer.bit_length & 7
        )
        choices.append(choice)
        _emit_block(writer, choice, block,
                    view[consumed:consumed + raw_len], last)
        consumed += raw_len
    return choices


def _emit_searched_blocks(
    writer: BitWriter,
    tokens: TokenArray,
    view: memoryview,
    final: bool,
    cut_every: int,
    cut_every_max: Optional[int] = None,
    refine: Optional[RefineConfig] = None,
) -> List[BlockChoice]:
    """Emit the blocks the cut-point search decided on.

    Fixed and dynamic prices (and the dynamic plan) were already built
    during the search; only the stored price is refreshed here, at the
    writer's true bit offset. With a :class:`RefineConfig` each block
    is first offered to :func:`refine_searched_blocks`, and a strictly
    cheaper re-parse replaces the block's tokens and prices.
    """
    blocks = search_cut_points(tokens, cut_every, cut_every_max)
    refined = (
        refine_searched_blocks(view, blocks, refine)
        if refine is not None else [None] * len(blocks)
    )
    choices: List[BlockChoice] = []
    consumed = 0
    for index, searched in enumerate(blocks):
        better = refined[index]
        if better is not None:
            block, fixed_bits, dynamic_bits, plan = better
        else:
            block = None
            fixed_bits = searched.fixed_bits
            dynamic_bits = searched.dynamic_bits
            plan = searched.plan
        stored_bits = stored_block_cost_bits(
            searched.raw_len, writer.bit_length & 7
        )
        best = min(
            (fixed_bits, BlockStrategy.FIXED),
            (dynamic_bits, BlockStrategy.DYNAMIC),
            (stored_bits, BlockStrategy.STORED),
            key=lambda pair: pair[0],
        )
        choice = BlockChoice(
            strategy=best[1],
            fixed_bits=fixed_bits,
            dynamic_bits=dynamic_bits,
            stored_bits=stored_bits,
            plan=plan,
        )
        choices.append(choice)
        if block is None:
            block = _slice_tokens(tokens, searched.start, searched.stop)
        last = final and index == len(blocks) - 1
        _emit_block(writer, choice, block,
                    view[consumed:consumed + searched.raw_len], last)
        consumed += searched.raw_len
    return choices


def _emit_block(writer, choice, block, raw_view, last) -> None:
    if choice.strategy is BlockStrategy.FIXED:
        write_fixed_block(writer, block, final=last)
    elif choice.strategy is BlockStrategy.DYNAMIC:
        write_dynamic_block(writer, block, final=last, plan=choice.plan)
    else:
        write_stored_block(writer, raw_view, final=last)


def deflate_adaptive(
    tokens: TokenArray,
    original,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
    cut_search: bool = True,
    cut_every: Optional[int] = None,
    cut_every_max: Optional[int] = None,
    refine: Optional[RefineConfig] = None,
) -> SplitResult:
    """Encode a token stream with per-block best-strategy choice."""
    writer = BitWriter()
    choices = write_adaptive_blocks(
        writer, tokens, original, tokens_per_block, final=True,
        cut_search=cut_search, cut_every=cut_every,
        cut_every_max=cut_every_max, refine=refine,
    )
    return SplitResult(body=writer.flush(), choices=choices)


def zlib_compress_adaptive(
    data: bytes,
    window_size: Optional[int] = None,
    hash_spec=None,
    policy=None,
    tokens_per_block: Optional[int] = None,
    traced: Optional[bool] = None,
    cut_search: Optional[bool] = None,
    sniff: Optional[bool] = None,
    backend: Optional[str] = None,
    refine: Optional[bool] = None,
    profile=None,
) -> bytes:
    """Full ZLib stream with per-block strategy choice.

    ``repro.api.compress(strategy=ADAPTIVE, ...)``: the trace-free fast
    tokenizer by default (``backend=`` selects another registered
    tokenizer), the cut search, and ``refine=True`` re-parsing each
    searched block against its own emerging Huffman prices
    (:func:`refine_searched_blocks`). ``sniff`` short-circuits data the
    entropy probe (:func:`repro.lzss.router.probe_shard`) deems
    incompressible straight into multi-chunk stored blocks, skipping
    tokenization entirely. The removed ``traced=`` boolean raises
    :class:`~repro.errors.ConfigError`.
    """
    from repro.api import compress, reject_legacy_trace

    reject_legacy_trace("traced", traced)
    return compress(
        data,
        profile=profile,
        window_size=window_size,
        hash_spec=hash_spec,
        policy=policy,
        strategy=BlockStrategy.ADAPTIVE,
        tokens_per_block=tokens_per_block,
        cut_search=cut_search,
        sniff=sniff,
        backend=backend,
        refine=refine,
    )
