"""Finitely presented enumeration families with stabilized tails.

A trace file presents finitely many enumeration events for a family of
objects U_0 .. U_{nmax-1}; every index n >= nmax denotes the same object as
index nmax-1 (the stabilized tail).  Line order is enumeration time, and the
full trace plays the role of complete oracle knowledge.

Under the tail rule every "for almost all n" question about a family is
decidable by scanning n in [N, nmax-1]; the tail start reads member nmax-1.
The covering modules answer oracle queries that way.  This module also
provides the liminf oracles those constructions are verified against.  The
tail identity makes each of them a read of member nmax-1: every suffix from
nmax-1 on holds only that member, so the largest suffix minimum is its value
and the union of suffix intersections is the member itself.  The oracles
share no logic with the covering processes beyond reading the family;
liminf_values keeps the defining formula as the tests' reference.
member_rows and check_liminf_domination check the two ends of every
covering argument: small members in, checked on the rows each run then
works on, and an output dominating the liminf out; run_size sizes each
run's attempt loop over (start N, key, level) before any row is built.

Trace grammar (UTF-8, LF line endings, single spaces)::

    family <kind> nmax=<INT>              kinds: sets, measure
    family <kind> nmax=<INT> depth=<INT>  kinds: open, tree, func
    add <n> <token>                       sets   (token over [A-Za-z0-9_])
    add <n> <word>                        open   (word over {0,1}, or e)
    raise <n> <token> <value>             measure
    raise <n> <word> <value>              tree, func

Values are positive ASCII rationals written as p/q or in decimal notation.
A duplicate add is idempotent and a raise below the current value is a
no-op, so objects grow monotonically with the stage.  Traces, partial maps,
decoder tables and interval tables are all read by read_lines: single
spaces, a fixed number of fields per line, and a ParseError naming the line.

Parsed families are immutable; the covering modules operate on private
mutable copies and may be run concurrently on the same family.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable

from .kernel import (
    MAX_EXPONENT,
    CylinderSet,
    InputError,
    ZERO,
    cell_mask,
    format_rational,
    is_natural,
    is_token,
    is_word,
    parse_rational,
    word_from_text,
    word_to_text,
    words_up_to,
)
from .verdict import Check

__all__ = [
    "Event",
    "KINDS",
    "ParseError",
    "StabilizedFamily",
    "check_liminf_domination",
    "format_trace",
    "func_eval",
    "heap_rows",
    "liminf_open",
    "liminf_sets",
    "liminf_sets_witness",
    "liminf_table",
    "liminf_values",
    "member_rows",
    "opens_by_index",
    "parse_trace",
    "read_lines",
    "run_size",
    "sets_by_index",
    "split_lines",
    "tree_law_break",
    "universe",
    "values_by_index",
]

KINDS = ("sets", "open", "measure", "tree", "func")
_DEPTH_KINDS = ("open", "tree", "func")
_SET_KINDS = ("sets", "open")
# run_size's limits (2-core host).  gen's caps need 539,616 attempts (func 32x8, grid 5), 2.2e9
# cells (open 64x12 trim: 0.4-0.8 s) and 4.3e6 members (sets 64x1024).  Open 1x16 took 2-3 s,
# func 1x17 at grid 2 17 s and sets 4096x1 2 s: a member scan costs about what 2^9 cells do.
MAX_RUN_ATTEMPTS, MAX_RUN_CELLS, MAX_RUN_MEMBERS = 1 << 20, 1 << 32, 1 << 23


class ParseError(ValueError):
    """A malformed trace line; the message names the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Event:
    """One enumeration event: add ``key`` to U_index, or raise its value."""

    index: int
    key: str
    value: Fraction | None = None


@dataclass(frozen=True)
class StabilizedFamily:
    kind: str
    nmax: int
    depth: int | None
    events: tuple[Event, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if self.nmax < 1:
            raise InputError("nmax must be positive")
        if (self.depth is not None) != (self.kind in _DEPTH_KINDS):
            raise InputError(f"kind {self.kind!r} and depth argument disagree")
        if self.depth is not None and self.depth < 1:
            raise InputError("depth must be positive")
        for e in self.events:
            if not 0 <= e.index < self.nmax:
                raise InputError(f"event index {e.index} not below nmax={self.nmax}")


def split_lines(text: str | bytes) -> list[str]:
    """The LF-separated lines of an input, without the empty string after a
    final LF; bytes are decoded as UTF-8 first (ParseError on line 1)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(1, f"not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_header(line: str) -> tuple[str, int, int | None]:
    fields = line.split(" ")
    if len(fields) < 3 or fields[0] != "family":
        raise ParseError(1, "expected 'family <kind> nmax=<INT> [depth=<INT>]'")
    kind = fields[1]
    if kind not in KINDS:
        raise ParseError(1, f"unknown kind {kind!r}")
    wants_depth = kind in _DEPTH_KINDS
    if len(fields) != (4 if wants_depth else 3):
        raise ParseError(1, f"kind {kind!r} takes {'nmax and depth' if wants_depth else 'nmax only'}")

    def keyed(field: str, key: str) -> int:
        prefix = key + "="
        if not field.startswith(prefix) or not is_natural(field[len(prefix):]):
            raise ParseError(1, f"expected {key}=<INT>, got {field!r}")
        return int(field[len(prefix):])

    nmax = keyed(fields[2], "nmax")
    if nmax < 1:
        raise ParseError(1, "nmax must be positive")
    depth = None
    if wants_depth:
        depth = keyed(fields[3], "depth")
        if depth < 1:
            raise ParseError(1, "depth must be positive")
    return kind, nmax, depth


def read_lines(lines: list[str], width: int, usage: str, parse: Callable, first: int = 1) -> list:
    """parse(*fields) of each line, numbered from ``first``, split at single
    spaces; ParseError naming the line when it has not exactly ``width``
    non-empty fields ("expected <usage>") or when parse raises InputError."""
    out = []
    for lineno, line in enumerate(lines, first):
        fields = line.split(" ")
        if len(fields) != width or "" in fields:
            raise ParseError(lineno, f"expected {usage}")
        try:
            out.append(parse(*fields))
        except InputError as exc:
            raise ParseError(lineno, str(exc)) from None
    return out


def parse_trace(text: str | bytes) -> StabilizedFamily:
    """Parse a trace; raises ParseError naming the offending line."""
    lines = split_lines(text)
    if not lines:
        raise ParseError(1, "empty trace")
    kind, nmax, depth = _parse_header(lines[0])
    verb = "add" if kind in _SET_KINDS else "raise"

    def event(given: str, index: str, key: str, value: str | None = None) -> Event:
        if given != verb:
            raise InputError(f"kind {kind!r} uses verb {verb!r}, got {given!r}")
        if not is_natural(index):
            raise InputError(f"bad index {index!r}")
        if (n := int(index)) >= nmax:
            raise InputError(f"index {n} not below nmax={nmax}")
        if depth is None:
            if not is_token(key):
                raise InputError(f"bad token {key!r}")
        elif len(word := word_from_text(key)) > depth:
            raise InputError(f"word {key!r} longer than depth {depth}")
        else:
            key = word
        rational = None if value is None else parse_rational(value)
        if rational is not None and rational.numerator <= 0:
            raise InputError(f"non-positive rational {value!r}")
        return Event(n, key, rational)

    usage = "'add <n> <key>'" if kind in _SET_KINDS else "'raise <n> <key> <value>'"
    events = read_lines(lines[1:], 3 if kind in _SET_KINDS else 4, usage, event, first=2)
    return StabilizedFamily(kind, nmax, depth, tuple(events))


def format_trace(family: StabilizedFamily) -> str:
    """Inverse of parse_trace (up to event normalization)."""
    head = f"family {family.kind} nmax={family.nmax}"
    if family.depth is not None:
        head += f" depth={family.depth}"
    lines = [head]
    as_text = (lambda k: k) if family.kind in ("sets", "measure") else word_to_text
    for e in family.events:
        if e.value is None:
            lines.append(f"add {e.index} {as_text(e.key)}")
        else:
            lines.append(f"raise {e.index} {as_text(e.key)} {format_rational(e.value)}")
    return "\n".join(lines) + "\n"


def universe(family: StabilizedFamily) -> tuple[str, ...]:
    """Keys appearing anywhere in the trace, in first-appearance order."""
    seen: dict[str, None] = {}
    for e in family.events:
        seen.setdefault(e.key)
    return tuple(seen)


def sets_by_index(family: StabilizedFamily) -> list[frozenset[str]]:
    if family.kind != "sets":
        raise InputError(f"expected a sets family, got {family.kind!r}")
    out: list[set[str]] = [set() for _ in range(family.nmax)]
    for e in family.events:
        out[e.index].add(e.key)
    return [frozenset(s) for s in out]


def _open_words(family: StabilizedFamily) -> list[set[str]]:
    """Each open member's words as listed, not canonicalized."""
    if family.kind != "open":
        raise InputError(f"expected an open family, got {family.kind!r}")
    words: list[set[str]] = [set() for _ in range(family.nmax)]
    for e in family.events:
        words[e.index].add(e.key)
    return words


def opens_by_index(family: StabilizedFamily) -> list[CylinderSet]:
    return [CylinderSet(w) for w in _open_words(family)]


def values_by_index(family: StabilizedFamily) -> list[dict[str, Fraction]]:
    """Per-index value tables for measure/tree/func kinds (absent key = 0)."""
    if family.kind not in ("measure", "tree", "func"):
        raise InputError(f"expected a valued family, got {family.kind!r}")
    out: list[dict[str, Fraction]] = [{} for _ in range(family.nmax)]
    for e in family.events:
        table = out[e.index]
        assert e.value is not None
        if e.value > table.get(e.key, ZERO):
            table[e.key] = e.value
    return out


def func_eval(table: dict[str, Fraction], cell: str, depth: int | None) -> Fraction:
    """Value of a func-kind table at a depth-level cell.

    Each raise of word w to v means "at least v on the cylinder of w", so the
    value at a cell is the maximum over the cell's prefixes.
    """
    if depth is None or len(cell) != depth or not is_word(cell):
        raise InputError(f"func points are cells of length {depth}, got {cell!r}")
    return max((table.get(cell[:i], ZERO) for i in range(depth + 1)), default=ZERO)


def liminf_sets(family: StabilizedFamily) -> frozenset[str]:
    """Elements belonging to almost all U_n: the members of U_{nmax-1}."""
    return sets_by_index(family)[-1]


def liminf_sets_witness(family: StabilizedFamily) -> tuple[frozenset[str], int]:
    """The liminf plus the smallest N with liminf contained in every U_n, n >= N."""
    limit = liminf_sets(family)
    sets_ = sets_by_index(family)
    witness = family.nmax - 1
    for start in range(family.nmax - 1, -1, -1):
        if not limit <= sets_[start]:
            break
        witness = start
    assert all(limit <= sets_[n] for n in range(witness, family.nmax))
    return limit, witness


def liminf_open(family: StabilizedFamily) -> CylinderSet:
    """Exact liminf of an open family: U_{nmax-1}, the union of its suffix
    intersections under the tail rule (at desk scale no interior needs to
    be taken, since cylinder sets are clopen)."""
    return CylinderSet(_open_words(family)[-1])


def liminf_values(family: StabilizedFamily, point: str) -> Fraction:
    """liminf of the values at ``point``: max over N of suffix minima.

    The literal definition, kept as the tests' reference for the oracles.
    """
    tables = values_by_index(family)
    if family.kind == "func":
        vals = [func_eval(t, point, family.depth) for t in tables]
    else:
        vals = [t.get(point, ZERO) for t in tables]
    best = ZERO
    for start in range(family.nmax):
        best = max(best, min(vals[start:]))
    return best


def run_size(family: StabilizedFamily, levels: int = 1) -> int:
    """A run's attempts, (nmax+1) * keys * levels over the 2^(depth+1)-1 words
    or the universe() (at least 1); InputError, from the header and events, when
    the attempts or their scans of 2^depth cells or nmax members pass MAX_RUN_*,
    or when the lcm of the value denominators has more bits than one parsed
    denominator may, MAX_EXPONENT + 1."""
    nmax, depth = family.nmax, family.depth
    shift = min(depth or 0, 64)  # no 2 << depth for a huge depth; past 20 it is refused
    if depth is None:
        keys, width, per, cap = len(universe(family)) or 1, nmax, f"{nmax} members", MAX_RUN_MEMBERS
    else:
        keys, width, per, cap = (2 << shift) - 1, 1 << shift, f"2^{depth} cells", MAX_RUN_CELLS
    attempts = (nmax + 1) * keys * levels
    if attempts > MAX_RUN_ATTEMPTS or attempts * width > cap:
        shown = attempts if attempts < 1 << 64 else f"over 2^{attempts.bit_length() - 1}"
        raise InputError(f"the run needs {shown} attempts of {per} on this {family.kind} family, "
                         f"past the limits of {MAX_RUN_ATTEMPTS} attempts and {cap} scanned")
    scale = 1
    for q in {e.value.denominator for e in family.events if e.value is not None}:
        if (scale := math.lcm(scale, q)).bit_length() > MAX_EXPONENT + 1:
            raise InputError(f"the values' common denominator has more than {MAX_EXPONENT + 1} bits")
    return attempts


def heap_rows(family: StabilizedFamily, scale: int) -> list[list[int]]:
    """Each tree or func member's word values times ``scale``, as ints, for
    a family run_size admits (member_rows sizes it first).

    ``scale`` must be a common multiple of the value denominators.  A row
    is in heap order, word w at int("1" + w, 2) - 1, which is the order of
    words_up_to: the parent of i is at (i - 1) >> 1 and its children at
    2i + 1 and 2i + 2.
    """
    if family.kind not in ("tree", "func"):
        raise InputError(f"expected a tree or func family, got {family.kind!r}")
    rows = [[0] * ((2 << family.depth) - 1) for _ in range(family.nmax)]
    for e in family.events:
        heap, i = rows[e.index], int("1" + e.key, 2) - 1
        heap[i] = max(heap[i], e.value.numerator * (scale // e.value.denominator))
    return rows


def liminf_table(family: StabilizedFamily, points: Iterable[str]) -> dict[str, Fraction]:
    """liminf_values at every point: member nmax-1's value, the last and
    largest of the suffix minima (cells of a func family by func_eval)."""
    last = values_by_index(family)[-1]
    if family.kind == "func":
        return {point: func_eval(last, point, family.depth) for point in points}
    return {point: last.get(point, ZERO) for point in points}


def member_rows(
    family: StabilizedFamily, scale: int | None = None, bound: int | None = None,
    eps: Fraction | None = None,
) -> list:
    """Each member as the row its run works on: the set (sets), the cell
    mask (open), the values over universe() (measure), the heap row (tree)
    or the depth-level cell values (func), as ints times ``scale``, a common
    multiple of the denominators (by default their lcm), once run_size admits
    the run: a caller that passes a scale has sized it first.  InputError
    names the first member that breaks the hypothesis of its construction:
    more than ``bound`` elements (sets), measure (open) or integral (func)
    above ``eps``, a sum above 1 (measure), or the tree law a(y) >= a(y0) +
    a(y1) with a(root) <= 1 (tree; absent words count as 0).  A bound left
    None is not checked."""
    kind, depth = family.kind, family.depth
    if scale is None:
        run_size(family)
        scale = math.lcm(*(e.value.denominator for e in family.events if e.value is not None))
    if kind == "sets":
        rows = sets_by_index(family)
        for n, s in enumerate(rows):
            if bound is not None and len(s) > bound:
                raise InputError(f"U_{n} has {len(s)} elements, above the bound {bound}")
    elif kind == "measure":
        keys = universe(family)
        rows = [[v.numerator * (scale // v.denominator) for v in map(t.get, keys, repeat(ZERO))]
                for t in values_by_index(family)]
        for n, row in enumerate(rows):
            if (total := sum(row)) > scale:
                total = format_rational(Fraction(total, scale))
                raise InputError(f"m_{n} is not a semimeasure: values sum to {total}")
    elif kind == "tree":
        rows = heap_rows(family, scale)
        for n, row in enumerate(rows):
            if row[0] > scale:
                raise InputError(f"a_{n} exceeds 1 at the root")
            if (y := tree_law_break(row)) >= 0:
                word = word_to_text(words_up_to(depth)[y])
                need = Fraction(row[2 * y + 1] + row[2 * y + 2], scale)
                raise InputError(
                    f"a_{n} violates the tree constraint at word {word}: "
                    f"{format_rational(Fraction(row[y], scale))} < {format_rational(need)}"
                )
    else:
        # An open set is the func case of its indicator: measure = integral.
        if kind == "open":
            rows = [0] * family.nmax
            for e in family.events:
                rows[e.index] |= cell_mask(e.key, depth)
            name, what, unit, sizes = "U", "measure", 1 << depth, map(int.bit_count, rows)
        else:
            # Raising every word to its parent's value, top-down, leaves the
            # maxima over each cell's prefixes in the last 2^depth entries.
            rows = heap_rows(family, scale)
            for heap in rows:
                for i in range(1, len(heap)):
                    heap[i] = max(heap[i], heap[(i - 1) >> 1])
            rows = [heap[len(heap) >> 1:] for heap in rows]
            name, what, unit, sizes = "f", "integral", scale << depth, map(sum, rows)
        for n, size in enumerate(sizes):
            if eps is not None and (size := Fraction(size, unit)) > eps:
                raise InputError(
                    f"{name}_{n} has {what} {format_rational(size)}, "
                    f"above eps={format_rational(eps)}"
                )
    return rows


def tree_law_break(row: list[int]) -> int:
    """The first heap index y with row[y] < row[2y+1] + row[2y+2], or -1."""
    broken = list(map(operator.lt, row, map(operator.add, row[1::2], row[2::2])))
    return broken.index(True) if True in broken else -1


def check_liminf_domination(
    name: str, limits: Iterable[int], values: Iterable[int], scale: int, resolution: int,
    show: Callable[[int], str],
) -> Check:
    """The check that values[i] >= the grid floor of limits[i], the liminf,
    at every point i, all ints over ``scale``, a multiple of 2^resolution;
    a failure names the first point below by show(i)."""
    step = scale >> resolution
    for i, (limit, value) in enumerate(zip(limits, values)):
        need = limit // step * step
        if value < need:
            return Check(name, False, f"{show(i)} below {format_rational(Fraction(need, scale))}")
    return Check(name, True)
