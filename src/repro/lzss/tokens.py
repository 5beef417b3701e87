"""LZSS token types and compact token storage.

Per §III of the paper, a command is either *output one literal* or *copy
L literals found D bytes back*. Minimum copy length is 3 (shorter
repeats are emitted as literals) and the maximum is 258, matching
Deflate's length alphabet (L is stored as ``length - 3`` in 8 bits).
"""

from __future__ import annotations

from array import array
from typing import Iterator, Union

from repro.errors import LZSSError

MIN_MATCH = 3
MAX_MATCH = 258

#: ZLib's MIN_LOOKAHEAD: the matcher never references distances larger
#: than ``window - MIN_LOOKAHEAD``, and the paper's FSM waits until the
#: lookahead ring holds at least this many bytes (§IV: "at least 262").
MIN_LOOKAHEAD = MAX_MATCH + MIN_MATCH + 1


class Literal:
    """A single uncompressed byte."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise LZSSError(f"literal out of byte range: {value}")
        self.value = value

    def __repr__(self) -> str:
        return f"Literal({self.value:#04x})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("lit", self.value))


class Match:
    """A copy command: ``length`` bytes from ``distance`` bytes back."""

    __slots__ = ("length", "distance")

    def __init__(self, length: int, distance: int) -> None:
        if not MIN_MATCH <= length <= MAX_MATCH:
            raise LZSSError(
                f"match length {length} outside [{MIN_MATCH}, {MAX_MATCH}]"
            )
        if distance < 1:
            raise LZSSError(f"match distance must be positive: {distance}")
        self.length = length
        self.distance = distance

    def __repr__(self) -> str:
        return f"Match(length={self.length}, distance={self.distance})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Match)
            and other.length == self.length
            and other.distance == self.distance
        )

    def __hash__(self) -> int:
        return hash(("match", self.length, self.distance))


Token = Union[Literal, Match]


class TokenArray:
    """Compact append-only token storage.

    Tokens are held in two parallel ``array('i')`` columns to keep the
    hot compression loop free of per-token object allocation:

    * literals: ``lengths[i] == 0``, ``values[i]`` = byte value;
    * matches: ``lengths[i]`` = copy length, ``values[i]`` = distance.

    Iteration materialises :class:`Literal`/:class:`Match` objects
    lazily for API consumers.
    """

    __slots__ = ("lengths", "values")

    def __init__(self) -> None:
        self.lengths = array("i")
        self.values = array("i")

    def append_literal(self, byte: int) -> None:
        """Append a literal token (unvalidated: hot path)."""
        self.lengths.append(0)
        self.values.append(byte)

    def append_match(self, length: int, distance: int) -> None:
        """Append a match token (unvalidated: hot path)."""
        self.lengths.append(length)
        self.values.append(distance)

    def append_token(self, token: Token) -> None:
        """Append a validated :class:`Literal` or :class:`Match`."""
        if isinstance(token, Literal):
            self.append_literal(token.value)
        elif isinstance(token, Match):
            self.append_match(token.length, token.distance)
        else:
            raise LZSSError(f"not a token: {token!r}")

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self) -> Iterator[Token]:
        for length, value in zip(self.lengths, self.values):
            if length == 0:
                yield Literal(value)
            else:
                yield Match(length, value)

    def __getitem__(self, index: int) -> Token:
        length = self.lengths[index]
        value = self.values[index]
        return Literal(value) if length == 0 else Match(length, value)

    def uncompressed_size(self) -> int:
        """Number of source bytes the token stream reconstructs."""
        return sum(length if length else 1 for length in self.lengths)

    def literal_count(self) -> int:
        """Number of literal tokens."""
        return sum(1 for length in self.lengths if length == 0)

    def match_count(self) -> int:
        """Number of match tokens."""
        return len(self.lengths) - self.literal_count()


def effective_dictionary(dictionary: bytes, window_size: int) -> bytes:
    """The referenceable tail of a preset dictionary.

    Matches reach back at most ``window_size - MIN_LOOKAHEAD`` bytes, so
    only that much of a longer dictionary can ever prime the window —
    the same clamp CPython's ``zlib`` applies on its side, and the bytes
    an FDICT header's DICTID must cover.
    """
    max_dict = window_size - MIN_LOOKAHEAD
    if len(dictionary) > max_dict:
        return dictionary[-max_dict:]
    return dictionary


def trim_prefix_tokens(tokens: TokenArray, combined, base: int) -> TokenArray:
    """Drop the tokens covering the first ``base`` bytes of ``combined``.

    ``tokens`` parse ``combined = prefix + data`` with
    ``len(prefix) == base`` (a preset dictionary or a carried history);
    the result parses ``data`` alone. Tokens starting at or past ``base``
    are kept verbatim — their distances may reach back into the prefix,
    whose bytes the decoder's window already holds. A match straddling
    the boundary is re-emitted as literals for its data part, since it
    cannot be safely truncated into a shorter match. The prefix tokens
    are skip-scanned (O(prefix)); the rest transfer in two C-level
    ``array.extend`` calls.
    """
    out = TokenArray()
    lengths = tokens.lengths
    values = tokens.values
    pos = 0
    i = 0
    total = len(lengths)
    while i < total and pos < base:
        step = lengths[i] or 1
        if pos + step > base:
            for q in range(base, pos + step):
                out.append_literal(combined[q])
        pos += step
        i += 1
    out.lengths.extend(lengths[i:])
    out.values.extend(values[i:])
    return out
