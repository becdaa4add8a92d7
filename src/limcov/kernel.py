"""Exact arithmetic and Cantor-space set algebra.

Every measure, threshold and function value in this package is a
`fractions.Fraction`; there is no floating point anywhere.  Subsets of Cantor
space (infinite binary sequences) are finite unions of cylinders, where the
cylinder of a binary word x is the set of all sequences extending x and has
measure 2^-len(x) under the uniform measure.

Cylinder sets are kept in a canonical prefix-free form: no listed word is a
prefix of another, and sibling words x0, x1 are never both listed (they merge
into x).  Two canonical sets denote the same point set iff their word sets are
equal, so set equality is structural equality.

All values here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "CylinderSet",
    "EMPTY_WORD_TEXT",
    "InputError",
    "MAX_EXPONENT",
    "RealInterval",
    "WordBlocks",
    "cell_mask",
    "cell_span",
    "check_exponent",
    "format_rational",
    "is_natural",
    "is_token",
    "is_word",
    "parse_rational",
    "spread_indices",
    "word_from_text",
    "word_to_text",
    "words_up_to",
]

ZERO = Fraction(0)

# The root word (whole space) is the empty string in memory and "e" on disk.
EMPTY_WORD_TEXT = "e"


class InputError(ValueError):
    """A precondition on library input is violated."""


# CPython's default limit on the digits of an int converted to or from str.
_MAX_DECIMAL_DIGITS = 4300
# The largest k whose 2^k has at most that many digits: reports render 2^k
# and 2^-k, so larger exponents are refused before 1 << k is built.
MAX_EXPONENT = 14284

_RATIONAL_RE = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or decimal notation into an exact Fraction.

    Only ASCII is accepted: ``[+-]digits[/digits]`` or a decimal with an
    optional exponent; no spaces, underscores or other Unicode digits.  A
    decimal whose mantissa digits plus absolute exponent exceed 4300 is
    refused before its power of ten is built, so every accepted value stays
    small enough to render with str().
    """
    p, slash, q = text.partition("/")
    digits_only = is_natural(p) and is_natural(q)  # the common p/q: no regex
    if not digits_only and not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not a rational number: {text!r}")
    if not slash:
        mantissa, _, exponent = text.lower().partition("e")
        try:
            power = abs(int(exponent)) if exponent else 0
        except ValueError:
            raise InputError(f"not a rational number: {text!r}") from None
        if sum(ch.isdigit() for ch in mantissa) + power > _MAX_DECIMAL_DIGITS:
            raise InputError(
                f"decimal {text!r} has more than {_MAX_DECIMAL_DIGITS} digits"
            )
    try:
        return Fraction(int(p), int(q)) if digits_only else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational number: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, or a bare integer when the denominator is 1;
    InputError when a part has more digits than str() of an int renders."""
    try:
        return str(value)
    except ValueError:
        raise InputError(f"value too large to render: more than {_MAX_DECIMAL_DIGITS} digits") from None


def is_natural(text: str) -> bool:
    """True for non-empty runs of at most 4300 ASCII digits 0-9, the most
    int() converts (no signs, no Unicode digits such as '²' or '١' that
    str.isdigit() also accepts)."""
    return text.isascii() and text.isdigit() and len(text) <= _MAX_DECIMAL_DIGITS


# is_token(text) is truthy for non-empty strings over [A-Za-z0-9_].
is_token = re.compile(r"[A-Za-z0-9_]+").fullmatch


def is_word(text: str) -> bool:
    """True for (possibly empty) strings over the alphabet {0, 1}."""
    return not text.strip("01")


def check_exponent(name: str, k: int) -> None:
    """Refuse a k outside [0, MAX_EXPONENT]: 2^-k must be small enough to
    build and render."""
    if k < 0:
        raise InputError(f"{name} must be non-negative")
    if k > MAX_EXPONENT:
        raise InputError(f"{name} must be at most {MAX_EXPONENT}")


def word_to_text(word: str) -> str:
    return word if word else EMPTY_WORD_TEXT


def word_from_text(text: str) -> str:
    if text == EMPTY_WORD_TEXT:
        return ""
    if text and is_word(text):
        return text
    raise InputError(f"not a binary word: {text!r}")


def words_up_to(depth: int) -> list[str]:
    """All binary words of length <= depth in length-lexicographic order."""
    if depth < 0:
        raise InputError("depth must be non-negative")
    out = [""]
    for length in range(1, depth + 1):
        out.extend(format(i, f"0{length}b") for i in range(1 << length))
    return out


def cell_span(word: str, depth: int) -> tuple[int, int]:
    """Start index and number of depth-level cells below ``word``.

    Cells of length ``depth`` are numbered by their value as binary
    integers, so the cylinder of ``word`` occupies a contiguous index range.
    """
    if len(word) > depth:
        raise InputError(f"word {word!r} longer than depth {depth}")
    span = 1 << (depth - len(word))
    base = (int(word, 2) << (depth - len(word))) if word else 0
    return base, span


def cell_mask(word: str, depth: int) -> int:
    """The cells below ``word`` as a bit mask, cell i at bit i as cell_span numbers it."""
    base, span = cell_span(word, depth)
    return ((1 << span) - 1) << base


class WordBlocks:
    """The words of each length as blocks of a cell mask over the 2^depth
    cells, the word of length depth - k a block of 2^k cells.  A spread
    mask holds one bit at the first cell of each word of one length, so a
    whole length of words is read in a few big-int operations."""

    __slots__ = ("bases", "rests")

    def __init__(self, depth: int):
        full = (1 << (1 << depth)) - 1
        # bases[k]: one bit at the first cell of each span-2^k word; rests[k]:
        # all but the top bit of each such field.
        self.bases = [full // ((1 << (1 << k)) - 1) for k in range(depth + 1)]
        self.rests = [(b << (1 << k) - 1) - b for k, b in enumerate(self.bases)]

    def touched(self, mask: int, k: int) -> int:
        """The span-2^k words with a cell in mask: adding rests[k] carries
        into the top bit of every field with a low bit set."""
        rest = self.rests[k]
        return ((mask & rest) + rest | mask) >> ((1 << k) - 1) & self.bases[k]

    def filled(self, mask: int, k: int) -> int:
        """The span-2^k words with every cell in mask: adding one to the low
        bits carries into the top bit of every field whose low bits are set."""
        base = self.bases[k]
        return ((mask & self.rests[k]) + base & mask) >> ((1 << k) - 1) & base


def spread_indices(spread: int, k: int):
    """The word indices of a span-2^k spread mask, ascending."""
    while spread:
        one = spread & -spread
        yield one.bit_length() - 1 >> k
        spread ^= one


_ROOT_WORDS = frozenset(("",))


def _canon(words: frozenset[str]) -> frozenset[str]:
    # Prefix-free antichain with maximal merging, computed trie-wise: a word
    # absorbs all its listed extensions, and full sibling subtrees merge.
    if not words:
        return frozenset()
    if "" in words:
        return _ROOT_WORDS
    zeros = _canon(frozenset(w[1:] for w in words if w[0] == "0"))
    ones = _canon(frozenset(w[1:] for w in words if w[0] == "1"))
    if zeros == _ROOT_WORDS and ones == _ROOT_WORDS:
        return _ROOT_WORDS
    merged = {"0" + w for w in zeros}
    merged.update("1" + w for w in ones)
    return frozenset(merged)


class CylinderSet:
    """A finite union of cylinders in canonical prefix-free form."""

    __slots__ = ("words",)

    def __init__(self, words: Iterable[str] = ()):
        collected = frozenset(words)
        for w in collected:
            if not is_word(w):
                raise InputError(f"not a binary word: {w!r}")
        self.words: frozenset[str] = _canon(collected)

    @classmethod
    def empty(cls) -> "CylinderSet":
        return cls()

    @classmethod
    def full(cls) -> "CylinderSet":
        return cls(("",))

    @classmethod
    def from_mask(cls, mask: int, depth: int) -> "CylinderSet":
        """The set whose length-``depth`` cells are the one bits of ``mask``,
        cell i at bit i as numbered by cell_span.

        A top-down walk lists a chunk of all ones as its cylinder's word and
        splits any other nonempty chunk into halves, the low half "0".  A
        full chunk is never split, so no two listed words are siblings and
        the result is canonical without _canon.
        """
        full = [(1 << (1 << k)) - 1 for k in range(depth + 1)]
        if not 0 <= mask <= full[depth]:
            raise InputError(f"mask has bits outside the 2^{depth} cells")
        words = []
        stack = [("", mask, depth)]
        while stack:
            word, chunk, k = stack.pop()
            if chunk == full[k]:
                words.append(word)
            elif chunk:
                k -= 1
                stack.append((word + "0", chunk & full[k], k))
                stack.append((word + "1", chunk >> (1 << k), k))
        out = cls.__new__(cls)
        out.words = frozenset(words)
        return out

    def __bool__(self) -> bool:
        return bool(self.words)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CylinderSet):
            return self.words == other.words
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        inside = ", ".join(word_to_text(w) for w in sorted(self.words))
        return f"CylinderSet({{{inside}}})"

    @property
    def depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def measure(self) -> Fraction:
        """Exact uniform measure: sum of 2^-len(w) over the listed words."""
        return sum((Fraction(1, 1 << len(w)) for w in self.words), ZERO)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(self.words | other.words)

    def intersect(self, other: "CylinderSet") -> "CylinderSet":
        # For single cylinders [x] and [y] the intersection is the cylinder
        # of the longer word when one extends the other, empty otherwise;
        # distribute over both antichains.
        out = set()
        for a in self.words:
            for b in other.words:
                if a.startswith(b):
                    out.add(a)
                elif b.startswith(a):
                    out.add(b)
        return CylinderSet(out)

    def subset(self, other: "CylinderSet") -> bool:
        """Point-set inclusion; equivalent to ``self & other == self``."""
        return self.intersect(other) == self

    __or__ = union
    __and__ = intersect
    __le__ = subset

    def cells(self, depth: int) -> frozenset[str]:
        """The length-``depth`` words whose cylinders partition this set."""
        if depth < self.depth:
            raise InputError(f"depth {depth} below set depth {self.depth}")
        out = []
        for w in self.words:
            pad = depth - len(w)
            out.extend(w + format(i, f"0{pad}b") if pad else w for i in range(1 << pad))
        return frozenset(out)


@dataclass(frozen=True)
class RealInterval:
    """An open interval (lo, hi) of the real line with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def measure(self) -> Fraction:
        return max(ZERO, self.hi - self.lo)

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def __repr__(self) -> str:
        return f"({self.lo}, {self.hi})"
