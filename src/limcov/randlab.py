"""Randomness-deficiency constructions over toy decoder tables.

True program-size complexity is uncomputable, so the lab replaces it with
the complexity induced by a finite decoder table (program word -> output
word): C(u) is the length of the shortest program producing u, infinite when
none does.  Every counting argument here holds for any description method,
which is exactly what the verifiers check.

From a decoder and a slack parameter c one gets, per length n, the set of
strings whose complexity sits below n - c; there are fewer than 2^(n-c) such
strings because there are only that many shorter programs.  The cylinders of
these strings form an open family of per-member measure at most 2^-c, ready
to be fed to the open-cover construction with eps' = 2^-(c-1).

In the other direction, a two-index table of interval approximations
(stabilizing in the second index) is normalized by a per-index deletion pass
so each column keeps total measure at most 2^-c; the covered strings of each
length n then number at most 2^(n-c) and receive (n-c)-bit codes by rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import opencover, traces
from .kernel import (
    CylinderSet,
    InputError,
    ZERO,
    check_exponent,
    format_rational,
    is_natural,
    is_word,
    word_from_text,
    word_to_text,
)
from .verdict import Check, Verdict

__all__ = [
    "DecoderTable",
    "StabilizeResult",
    "TestApproximation",
    "bar_deficiency",
    "deficiency_bound",
    "deficiency_cover_family",
    "deficiency_eps",
    "deficiency_pipeline",
    "deficiency_sets",
    "parse_decoder",
    "parse_test_table",
    "stabilize_test",
    "verify_bar_deficiency",
    "verify_deficiency_sets",
    "verify_stabilize",
]


@dataclass(frozen=True)
class DecoderTable:
    """A finite description method: program word -> output word."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for program, output in self.entries:
            if program in seen:
                raise InputError(f"duplicate program {word_to_text(program)}")
            seen.add(program)
            for side in (program, output):
                if not is_word(side):
                    raise InputError(f"not a binary word: {side!r}")

    def complexity(self) -> dict[str, int]:
        """Minimal program length per output (outputs without programs are
        simply absent, i.e. have infinite complexity)."""
        out: dict[str, int] = {}
        for program, output in self.entries:
            length = len(program)
            if output not in out or length < out[output]:
                out[output] = length
        return out


def parse_decoder(text: str | bytes) -> DecoderTable:
    """Parse lines ``<program> <output>`` (binary words, ``e`` for empty)."""
    seen = set()

    def entry(program_text: str, output_text: str) -> tuple[str, str]:
        program, output = word_from_text(program_text), word_from_text(output_text)
        if program in seen:
            raise InputError(f"duplicate program {program_text}")
        seen.add(program)
        return program, output

    lines = traces.split_lines(text)
    return DecoderTable(tuple(traces.read_lines(lines, 2, "'<program> <output>'", entry)))


def deficiency_sets(decoder: DecoderTable, n: int, c: int) -> frozenset[str]:
    """Strings of length n with complexity below n - c.

    At most 2^(n-c) - 1 of these exist: that is the number of programs
    shorter than n - c.  Empty whenever c >= n.
    """
    if n < 0 or c < 0:
        raise InputError("n and c must be non-negative")
    cutoff = n - c
    return frozenset(
        output
        for program, output in decoder.entries
        if len(output) == n and len(program) < cutoff
    )


def deficiency_bound(n: int, c: int) -> int:
    """2^(n-c) - 1, or 0 when c >= n: the number of programs shorter than
    n - c, and so the most strings deficiency_sets(decoder, n, c) holds."""
    return (1 << max(n - c, 0)) - 1


def verify_deficiency_sets(
    decoder: DecoderTable, n: int, c: int, dset: frozenset[str]
) -> Verdict:
    """Check a deficiency set against an exhaustive oracle and against
    deficiency_bound.

    The oracle scores every string of length n by its complexity instead of
    collecting decoder outputs, so it is limited to n <= 16.
    """
    if n > 16:
        raise InputError("n beyond exhaustive-verification scale (max 16)")
    complexity = decoder.complexity()
    expected = {
        u
        for u in (format(i, f"0{n}b") if n else "" for i in range(1 << n))
        if complexity.get(u, n + 1) < n - c
    }
    agree = dset == expected
    within = len(dset) <= deficiency_bound(n, c)
    return Verdict(
        (
            Check("oracle-agreement", agree, "" if agree else "enumeration differs"),
            Check("count-bound", within, "" if within else str(len(dset))),
        )
    )


def deficiency_cover_family(
    decoder: DecoderTable, c: int, nmax: int, depth: int
) -> traces.StabilizedFamily:
    """The open family whose member n is the union of cylinders of the
    length-n strings of deficiency above c; each member has measure at most
    2^-c, so the family is valid covering input at eps = 2^-c."""
    if depth < nmax:
        raise InputError(f"depth {depth} must be at least nmax {nmax}")
    if c < 0:
        raise InputError("c must be non-negative")
    traces.run_size(traces.StabilizedFamily("open", nmax, depth, ()))
    events = []
    for n in range(nmax):
        for u in sorted(deficiency_sets(decoder, n, c)):
            events.append(traces.Event(n, u))
    return traces.StabilizedFamily("open", nmax, depth, tuple(events))


def deficiency_eps(c: int) -> tuple[Fraction, Fraction]:
    """eps = 2^-c and eps' = 2^-(c-1), the bounds the deficiency family is
    covered at; requires c >= 1 so that eps' <= 1."""
    if c < 1:
        raise InputError("the covering step needs c >= 1 (eps' = 2^-(c-1))")
    check_exponent("c", c)
    return Fraction(1, 1 << c), Fraction(1, 1 << (c - 1))


def deficiency_pipeline(
    decoder: DecoderTable, c: int, nmax: int, depth: int
) -> tuple[traces.StabilizedFamily, opencover.OpenCoverResult, Verdict]:
    """Build the deficiency family and cover its liminf at deficiency_eps(c)."""
    eps, eps_prime = deficiency_eps(c)
    family = deficiency_cover_family(decoder, c, nmax, depth)
    result = opencover.run_trim_cover(family, eps, eps_prime)
    verdict = opencover.verify_open_cover(family, eps, eps_prime, result)
    return family, result, verdict


def bar_deficiency(decoder: DecoderTable, x: str, limit: int) -> int | None:
    """Least deficiency among the described extensions of x up to length
    ``limit`` (a truncated rendering of the infimum over all extensions;
    the truncation bound must be reported alongside).

    Undescribed extensions carry no deficiency value and are skipped; None
    means x has no described extension within the bound.
    """
    if not is_word(x):
        raise InputError(f"not a binary word: {x!r}")
    if len(x) > limit:
        raise InputError(f"|x| = {len(x)} exceeds the bound {limit}")
    best: int | None = None
    for output, c in decoder.complexity().items():
        if len(output) <= limit and output.startswith(x):
            d = len(output) - c
            if best is None or d < best:
                best = d
    return best


def verify_bar_deficiency(
    decoder: DecoderTable, x: str, limit: int, value: int | None
) -> Verdict:
    """Check bar_deficiency against an explicit enumeration of every
    extension of x up to length ``limit``, at most 16 bits past x."""
    if limit - len(x) > 16:
        raise InputError("extension range beyond exhaustive-verification scale")
    complexity = decoder.complexity()
    expected = None
    for extra in range(limit - len(x) + 1):
        for j in range(1 << extra):
            y = x + (format(j, f"0{extra}b") if extra else "")
            if y in complexity:
                d = len(y) - complexity[y]
                if expected is None or d < expected:
                    expected = d
    agree = value == expected
    return Verdict(
        (Check("oracle-agreement", agree, "" if agree else f"{value} vs {expected}"),)
    )


@dataclass(frozen=True)
class TestApproximation:
    """Computable approximations I_{i,n} of a sequence of intervals.

    ``intervals`` maps (i, n) to a cylinder word; missing pairs mean the
    empty placeholder.  Structural invariants: nothing at n < i, and the
    word at (i, n) has length at most n (measure at least 2^-n).
    """

    intervals: dict[tuple[int, int], str]
    c: int

    def __post_init__(self):
        check_exponent("c", self.c)
        for (i, n), word in self.intervals.items():
            _check_interval(i, n, word)


def _check_interval(i: int, n: int, word: str) -> None:
    """The structural invariants of the interval at (i, n)."""
    if i < 0 or n < 0:
        raise InputError("interval indices must be non-negative")
    if n < i:
        raise InputError(f"interval at (i={i}, n={n}) sits before its index")
    if not is_word(word):
        raise InputError(f"not a binary word: {word!r}")
    if len(word) > n:
        raise InputError(f"interval at (i={i}, n={n}) has measure below 2^-{n}")


def parse_test_table(text: str | bytes, c: int) -> TestApproximation:
    """Parse lines ``<i> <n> <word>`` into a TestApproximation."""
    check_exponent("c", c)
    table: dict[tuple[int, int], str] = {}

    def interval(i_text: str, n_text: str, word_text: str) -> None:
        if not is_natural(i_text) or not is_natural(n_text):
            raise InputError("indices must be non-negative integers")
        i, n = int(i_text), int(n_text)
        if (i, n) in table:
            raise InputError(f"duplicate interval at ({i}, {n})")
        table[i, n] = word_from_text(word_text)
        _check_interval(i, n, table[i, n])

    traces.read_lines(traces.split_lines(text), 3, "'<i> <n> <word>'", interval)
    return TestApproximation(table, c)


@dataclass(frozen=True)
class StabilizeResult:
    surviving: dict[tuple[int, int], str]
    deleted: tuple[tuple[int, int], ...]
    covered: dict[int, tuple[str, ...]]
    codes: dict[int, dict[str, str]]
    totals: dict[int, Fraction]


def stabilize_test(test: TestApproximation) -> StabilizeResult:
    """Normalize the approximation table and code the covered strings.

    Per second index n, intervals are scanned in ascending first index and
    deleted as soon as keeping them would push the column's total measure
    above 2^-c; stabilization of the limit intervals means every limit
    interval is eventually let through.  The strings of length n covered by
    the survivors number at most 2^(n-c) and are coded by the (n-c)-bit
    binary form of their lexicographic rank.  They are listed one by one,
    so a table with n - c above 16 at some interval is refused.
    """
    c = test.c
    for i, n in test.intervals:
        if n - c > 16:
            raise InputError(
                f"interval at (i={i}, n={n}): n - c beyond exhaustive-expansion scale (max 16)"
            )
    cap = Fraction(1, 1 << c)
    by_n: dict[int, list[tuple[int, str]]] = {}
    for (i, n), word in sorted(test.intervals.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        by_n.setdefault(n, []).append((i, word))

    surviving: dict[tuple[int, int], str] = {}
    deleted: list[tuple[int, int]] = []
    covered: dict[int, tuple[str, ...]] = {}
    codes: dict[int, dict[str, str]] = {}
    totals: dict[int, Fraction] = {}
    for n, column in by_n.items():
        total = ZERO
        kept: list[str] = []
        for i, word in column:
            mu = Fraction(1, 1 << len(word))
            if total + mu > cap:
                deleted.append((i, n))
                continue
            total += mu
            surviving[(i, n)] = word
            kept.append(word)
        totals[n] = total

        strings: set[str] = set()
        for word in kept:
            pad = n - len(word)
            strings.update(
                word + format(j, f"0{pad}b") if pad else word for j in range(1 << pad)
            )
        ranked = sorted(strings)
        covered[n] = tuple(ranked)
        width = n - c
        codes[n] = {
            u: (format(rank, f"0{width}b") if width else "")
            for rank, u in enumerate(ranked)
        }
    return StabilizeResult(surviving, tuple(deleted), covered, codes, totals)


def verify_stabilize(test: TestApproximation, result: StabilizeResult) -> Verdict:
    """Re-derive the bounds of a stabilization from the input table and the
    result's survivors and codes, per second index n of the table.

    measure-bound: every survivor is an interval of the table, and those at
    n have total measure at most 2^-c, which is the result's total; the
    survivors and the deleted pairs partition the table, and each deleted
    (i, n) would push column n above 2^-c on top of the survivors at
    smaller i.
    count-bound: the length-n strings they cover (expanded here through
    CylinderSet.cells) are the result's covered strings and number at most
    2^(n-c).  code-injectivity: the codes map exactly those strings to
    distinct (n-c)-bit words.  Each failing check names where it failed.
    """
    c = test.c
    cap = Fraction(1, 1 << c)
    kept: dict[int, list[str]] = {}
    measure = count = code = ""
    for (i, n), word in result.surviving.items():
        if not measure and test.intervals.get((i, n)) != word:
            measure = f"({i}, {n}) is not an interval of the table"
        kept.setdefault(n, []).append(word)
    for n in sorted({n for _, n in test.intervals}):
        total = sum((Fraction(1, 1 << len(w)) for w in kept.get(n, ())), ZERO)
        if not measure and (total > cap or result.totals.get(n) != total):
            measure = f"n={n}: {format_rational(total)}"
        strings = sorted(CylinderSet(kept.get(n, ())).cells(n))
        bound = 1 << (n - c) if n >= c else 0
        if not count and (len(strings) > bound or result.covered.get(n) != tuple(strings)):
            count = f"n={n}: {len(strings)} strings"
        column = result.codes.get(n, {})
        if not code and (
            sorted(column) != strings
            or len(set(column.values())) != len(column)
            or any(len(v) != n - c for v in column.values())
        ):
            code = f"n={n}"
    if not measure and sorted([*result.surviving, *result.deleted]) != sorted(test.intervals):
        measure = "survivors and deletions do not partition the table"
    for i, n in result.deleted:
        if measure:
            break
        before = sum(
            (Fraction(1, 1 << len(w)) for (j, m), w in result.surviving.items() if m == n and j < i),
            ZERO,
        )
        if before + Fraction(1, 1 << len(test.intervals[i, n])) <= cap:
            measure = f"({i}, {n}) deleted within the bound"
    return Verdict(
        (
            Check("count-bound", not count, count),
            Check("measure-bound", not measure, measure),
            Check("code-injectivity", not code, code),
        )
    )


def deficiency_family_verdict(
    decoder: DecoderTable, c: int, family: traces.StabilizedFamily
) -> Verdict:
    """Independent checks of the family bounds: per-n cardinality below
    2^(n-c) and per-n measure at most 2^-c, recomputed from scratch."""
    complexity = decoder.complexity()
    witness_count = ""
    witness_measure = ""
    for n, s in enumerate(traces.opens_by_index(family)):
        expected = {
            u for u, k in complexity.items() if len(u) == n and k < n - c
        }
        if len(expected) > deficiency_bound(n, c) and not witness_count:
            witness_count = f"n={n}"
        mu = CylinderSet(expected).measure()
        if mu > Fraction(1, 1 << c) and not witness_measure:
            witness_measure = f"n={n}: {format_rational(mu)}"
        if s != CylinderSet(expected) and not witness_count:
            witness_count = f"n={n}: family disagrees with the deficiency sets"
    return Verdict(
        (
            Check("deficiency-counts", not witness_count, witness_count),
            Check("member-measures", not witness_measure, witness_measure),
        )
    )
