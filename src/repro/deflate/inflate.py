"""Full Deflate decoder (RFC 1951): stored, fixed and dynamic blocks.

Independent of CPython's :mod:`zlib`; the test suite cross-validates it
in both directions (our inflate on zlib's output, zlib's inflate on
ours) and a differential fuzz suite feeds both decoders the same
malformed streams. The decoder enforces the structural rules a hardware
decompressor would: LEN/NLEN complement check, complete Huffman code
sets (with the single-code exceptions the spec allows), and in-range
back-references.

The compressed-block hot path is vectorised in spirit even where it is
scalar in code: the :class:`~repro.huffman.decoder.HuffmanDecoder`
tables resolve literal *runs* and fused length+extra records per
lookup, the bit buffer refills a 64-bit word at a time (one
``int.from_bytes`` per token instead of per byte), and back-reference
copies are slice/period-trick bulk operations.

``max_output`` bounds are enforced *mid-stream*: stored blocks check
before extending and compressed blocks after each token — a
decompression bomb aborts after at most one token (≤ 258 bytes) of
overshoot, never after inflating the whole stream.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bitio.reader import BitReader
from repro.deflate.constants import CODE_LENGTH_ORDER, END_OF_BLOCK
from repro.errors import DeflateError
from repro.huffman.decoder import LITLEN_FAST_BITS, HuffmanDecoder
from repro.huffman.fixed import FIXED_DIST_LENGTHS, FIXED_LITLEN_LENGTHS

_FIXED_DECODERS: Optional[tuple] = None


def _fixed_decoders():
    global _FIXED_DECODERS
    if _FIXED_DECODERS is None:
        _FIXED_DECODERS = (
            HuffmanDecoder(FIXED_LITLEN_LENGTHS, role="litlen",
                           fast_bits=LITLEN_FAST_BITS),
            HuffmanDecoder(FIXED_DIST_LENGTHS, role="dist"),
        )
    return _FIXED_DECODERS


def inflate(
    data: bytes,
    max_output: Optional[int] = None,
    zdict: bytes = b"",
) -> bytes:
    """Decode a complete Deflate stream to bytes.

    ``max_output`` guards against decompression bombs in callers that
    feed untrusted input (``None`` means unlimited); decoding aborts
    mid-stream, before the output can grow unboundedly. ``zdict``
    primes the back-reference history, as a preset dictionary (RFC 1950
    FDICT) does — the dictionary bytes are referenceable but not part
    of the returned payload.
    """
    payload, _ = _decode_stream(data, max_output, zdict)
    return payload


def inflate_with_tail(
    data: bytes,
    max_output: Optional[int] = None,
    zdict: bytes = b"",
) -> Tuple[bytes, int]:
    """Like :func:`inflate` but also return the consumed byte count.

    Containers need this to locate their trailing checksum; they thread
    ``max_output`` through so the bomb guard holds *before* the
    checksum is ever reached.
    """
    return _decode_stream(data, max_output, zdict)


def _decode_stream(
    data: bytes,
    max_output: Optional[int],
    zdict: bytes,
) -> Tuple[bytes, int]:
    """The shared block loop behind :func:`inflate` and
    :func:`inflate_with_tail` (one implementation, two return shapes)."""
    reader = BitReader(data)
    out = bytearray(zdict)
    base = len(out)
    limit = None if max_output is None else base + max_output
    while True:
        final = reader.read_bits(1)
        btype = reader.read_bits(2)
        if btype == 0b00:
            _inflate_stored(reader, out, limit)
        elif btype == 0b01:
            litlen, dist = _fixed_decoders()
            _inflate_compressed(reader, out, litlen, dist, limit)
        elif btype == 0b10:
            litlen, dist = _read_dynamic_tables(reader)
            _inflate_compressed(reader, out, litlen, dist, limit)
        else:
            raise DeflateError("reserved block type 11")
        if final:
            break
    consumed = (reader.bits_consumed + 7) // 8
    if base:
        del out[:base]
    return bytes(out), consumed


def _inflate_stored(
    reader: BitReader,
    out: bytearray,
    limit: Optional[int] = None,
) -> None:
    reader.align_to_byte()
    length = reader.read_bits(16)
    nlen = reader.read_bits(16)
    if length ^ nlen != 0xFFFF:
        raise DeflateError(
            f"stored block LEN/NLEN mismatch: {length:#06x}/{nlen:#06x}"
        )
    # Checked *before* the copy: a stored bomb must not be able to
    # overshoot the guard by up to 64 KiB per block.
    if limit is not None and len(out) + length > limit:
        raise DeflateError(
            f"stored block of {length} bytes exceeds max_output"
        )
    out.extend(reader.read_bytes(length))


def _read_dynamic_tables(reader: BitReader):
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    if hlit > 286:
        raise DeflateError(f"HLIT {hlit} exceeds 286")
    if hdist > 30:
        raise DeflateError(f"HDIST {hdist} exceeds 30")
    cl_lengths = [0] * 19
    for index in range(hclen):
        cl_lengths[CODE_LENGTH_ORDER[index]] = reader.read_bits(3)
    cl_decoder = HuffmanDecoder(cl_lengths, max_bits=7)

    lengths = []
    while len(lengths) < hlit + hdist:
        symbol = cl_decoder.decode(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise DeflateError("repeat code with no previous length")
            repeat = reader.read_bits(2) + 3
            lengths.extend([lengths[-1]] * repeat)
        elif symbol == 17:
            repeat = reader.read_bits(3) + 3
            lengths.extend([0] * repeat)
        else:  # 18
            repeat = reader.read_bits(7) + 11
            lengths.extend([0] * repeat)
    if len(lengths) != hlit + hdist:
        raise DeflateError("code length run overflows HLIT+HDIST")

    litlen_lengths = lengths[:hlit]
    dist_lengths = lengths[hlit:]
    if litlen_lengths[END_OF_BLOCK] == 0:
        raise DeflateError("end-of-block symbol has no code")
    # Incomplete litlen/dist sets are rejected except zlib's one
    # tolerated shape — exactly one code of one bit (a lone EOB litlen
    # code, or the single distance code of an RLE-only stream). The
    # code-length code above gets no such exemption.
    litlen = HuffmanDecoder(litlen_lengths, allow_incomplete=True,
                            role="litlen", fast_bits=LITLEN_FAST_BITS)
    if any(dist_lengths):
        dist = HuffmanDecoder(dist_lengths, allow_incomplete=True,
                              role="dist")
    else:
        dist = None
    return litlen, dist


def _inflate_compressed(
    reader: BitReader,
    out: bytearray,
    litlen: HuffmanDecoder,
    dist: Optional[HuffmanDecoder],
    limit: Optional[int],
) -> None:
    """Decode one compressed block's symbols into ``out`` (scalar path).

    The reader state is hoisted into locals for the duration of the
    block (zlib's LOAD/RESTORE discipline); every iteration refills the
    bit buffer to >= 48 bits with at most one 64-bit word load — enough
    for the longest possible token (15+5 length bits, 15+13 distance
    bits). Table entries resolve literal runs and fused length /
    distance values; see :mod:`repro.huffman.decoder` for the layout.

    End-of-input is detected lazily: the refill branch raises once the
    buffer runs dry (every entry consumes >= 1 bit, so a truncated
    stream reaches ``bitcount <= 0`` after at most a few tokens of
    zero-padding garbage) instead of the loop body paying a bounds
    check per token. Callers discard ``out`` when the decoder raises,
    so the short-lived garbage never escapes.

    Unbounded decodes (``limit is None`` — the common trusted-input
    case, and the benchmarked one) dispatch to
    :func:`_inflate_compressed_uncapped`, which drops the per-token
    ``max_output`` accounting entirely; this loop is the guarded
    variant that pays the check on every token.
    """
    if limit is None:
        _inflate_compressed_uncapped(reader, out, litlen, dist)
        return
    data, pos, bitbuf, bitcount = reader.load_state()
    ltable = litlen._table
    lmask = litlen.fast_mask
    lbits = litlen.fast_bits
    if dist is not None:
        dtable = dist._table
        dmask = dist.fast_mask
        dbits = dist.fast_bits
    else:
        # Left unbound on purpose: a length code in a distance-free
        # block trips the NameError handler below, so the hot loop
        # never pays a per-match ``dist is None`` test.
        dmask = 0
    cap = limit
    from_bytes = int.from_bytes
    try:
        while True:
            if bitcount < 48:
                chunk = data[pos:pos + 16]
                if chunk:
                    n = len(chunk)
                    bitbuf |= from_bytes(chunk, "little") << bitcount
                    pos += n
                    bitcount += n << 3
                elif bitcount <= 0:
                    raise DeflateError("unexpected end of bitstream")
            kind, nbits, first, a, b = ltable[bitbuf & lmask]
            if kind == 4:
                kind, nbits, first, a, b = \
                    ltable[a + ((bitbuf >> lbits) & b)]
            # Dispatch in hot-loop frequency order: fused lengths lead
            # on match-heavy streams, literal runs on literal-heavy
            # ones, raw base+extra records and end-of-block trail.
            if kind == 1:
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 0:
                bitbuf >>= nbits
                bitcount -= nbits
                out += a
                if len(out) > cap:
                    raise DeflateError("output exceeds max_output")
                continue
            elif kind == 3:
                a += (bitbuf >> first) & b
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 2:
                bitcount -= nbits
                if bitcount < 0:
                    raise DeflateError("unexpected end of bitstream")
                reader.save_state(pos, bitbuf >> nbits, bitcount)
                return
            else:
                raise DeflateError("undecodable literal/length code")
            kind, nbits, first, distance, b = dtable[bitbuf & dmask]
            if kind == 3:
                distance += (bitbuf >> first) & b
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 1:
                bitbuf >>= nbits
                bitcount -= nbits
            else:
                if kind != 4:
                    raise DeflateError(
                        "undecodable or invalid distance code"
                    )
                kind, nbits, first, distance, b = \
                    dtable[distance + ((bitbuf >> dbits) & b)]
                if kind == 3:
                    distance += (bitbuf >> first) & b
                elif kind != 1:
                    raise DeflateError(
                        "undecodable or invalid distance code"
                    )
                bitbuf >>= nbits
                bitcount -= nbits
            length = a
            start = len(out) - distance
            if start < 0:
                raise DeflateError(
                    f"back-reference distance {distance} precedes output "
                    f"start ({len(out)} bytes emitted)"
                )
            if distance >= length:
                out += out[start:start + length]
            elif distance == 1:
                out += out[start:] * length
            else:
                # Overlapping copy: tile the period, not a byte loop.
                segment = bytes(out[start:])
                out += (segment * (length // distance + 1))[:length]
            if len(out) > cap:
                raise DeflateError("output exceeds max_output")
    except NameError:
        raise DeflateError(
            "length/distance pair in a block with no distance codes"
        ) from None


def _inflate_compressed_uncapped(
    reader: BitReader,
    out: bytearray,
    litlen: HuffmanDecoder,
    dist: Optional[HuffmanDecoder],
) -> None:
    """The ``max_output=None`` specialisation of the scalar hot loop.

    Identical decode semantics to :func:`_inflate_compressed`, minus
    the per-token output-budget accounting (roughly one ``len`` call
    and compare per token), plus a literal-burst inner loop: once a
    literal-run entry hits, consecutive literal entries are drained
    without re-entering the outer dispatch. The burst only looks ahead
    while >= 24 buffered bits remain — more than any litlen entry
    consumes — so a rejected lookahead entry is simply re-decoded by
    the outer loop with identical state.
    """
    data, pos, bitbuf, bitcount = reader.load_state()
    ltable = litlen._table
    lmask = litlen.fast_mask
    lbits = litlen.fast_bits
    if dist is not None:
        dtable = dist._table
        dmask = dist.fast_mask
        dbits = dist.fast_bits
    else:
        # Unbound on purpose — see _inflate_compressed.
        dmask = 0
    from_bytes = int.from_bytes
    try:
        while True:
            if bitcount < 48:
                chunk = data[pos:pos + 16]
                if chunk:
                    n = len(chunk)
                    bitbuf |= from_bytes(chunk, "little") << bitcount
                    pos += n
                    bitcount += n << 3
                elif bitcount <= 0:
                    raise DeflateError("unexpected end of bitstream")
            kind, nbits, first, a, b = ltable[bitbuf & lmask]
            # The fused-length branch leads: on match-heavy streams it
            # takes nearly every iteration, and the rare long codes
            # (subtable links) re-dispatch inside the cold tail branch
            # so the hot branches never pay for them.
            if kind == 1:
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 0:
                # Literal burst: drain consecutive literal-run entries
                # without re-entering the outer dispatch. Lookahead
                # only proceeds with >= 24 buffered bits — more than
                # any root entry consumes — so a rejected entry is
                # re-decoded by the outer loop with identical state.
                while True:
                    bitbuf >>= nbits
                    bitcount -= nbits
                    out += a
                    if bitcount < 24:
                        break
                    kind, nbits, first, a, b = ltable[bitbuf & lmask]
                    if kind:
                        break
                continue
            elif kind == 3:
                a += (bitbuf >> first) & b
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 2:
                bitcount -= nbits
                if bitcount < 0:
                    raise DeflateError("unexpected end of bitstream")
                reader.save_state(pos, bitbuf >> nbits, bitcount)
                return
            else:
                if kind != 4:
                    raise DeflateError("undecodable literal/length code")
                kind, nbits, first, a, b = \
                    ltable[a + ((bitbuf >> lbits) & b)]
                if kind == 1:
                    bitbuf >>= nbits
                    bitcount -= nbits
                elif kind == 0:
                    bitbuf >>= nbits
                    bitcount -= nbits
                    out += a
                    continue
                elif kind == 3:
                    a += (bitbuf >> first) & b
                    bitbuf >>= nbits
                    bitcount -= nbits
                elif kind == 2:
                    bitcount -= nbits
                    if bitcount < 0:
                        raise DeflateError("unexpected end of bitstream")
                    reader.save_state(pos, bitbuf >> nbits, bitcount)
                    return
                else:
                    raise DeflateError("undecodable literal/length code")
            kind, nbits, first, distance, b = dtable[bitbuf & dmask]
            if kind == 3:
                distance += (bitbuf >> first) & b
                bitbuf >>= nbits
                bitcount -= nbits
            elif kind == 1:
                bitbuf >>= nbits
                bitcount -= nbits
            else:
                if kind != 4:
                    raise DeflateError(
                        "undecodable or invalid distance code"
                    )
                kind, nbits, first, distance, b = \
                    dtable[distance + ((bitbuf >> dbits) & b)]
                if kind == 3:
                    distance += (bitbuf >> first) & b
                elif kind != 1:
                    raise DeflateError(
                        "undecodable or invalid distance code"
                    )
                bitbuf >>= nbits
                bitcount -= nbits
            start = len(out) - distance
            if start < 0:
                raise DeflateError(
                    f"back-reference distance {distance} precedes output "
                    f"start ({len(out)} bytes emitted)"
                )
            if distance >= a:
                out += out[start:start + a]
            elif distance == 1:
                out += out[start:] * a
            else:
                # Overlapping copy: tile the period, not a byte loop.
                segment = bytes(out[start:])
                out += (segment * (a // distance + 1))[:a]
    except NameError:
        raise DeflateError(
            "length/distance pair in a block with no distance codes"
        ) from None
