"""Increase operations for semimeasures: flat, frequency, and tree variants.

The process upgrades the liminf of a stabilized sequence of semimeasures
m_n into a single semimeasure m' that dominates it.  For a triple (u, N, r)
the *increase operation* raises every m_n(u) with n >= N up to the rational
r (values already >= r stay put); it is acceptable when all m_n remain
semimeasures afterwards.  m'(u) is the largest accepted r.  A no-change
increase is always acceptable, so m'(u) is at least the largest grid point
below the tail value of u, which is the liminf under the tail rule.

Flat and tree semimeasures share one headroom rule: raising u to r in m_n
is acceptable iff r <= 1 - outside_n(u), one minus the mass of m_n outside
u.  On a flat semimeasure that is the sum of the other values.  On the
binary tree an increase of a(x) is followed by the minimal upward repair
a(y) := max(a(y), a(y0) + a(y1)) to the root, which must stay <= 1; the
mass outside x is the sum of a(s) over the siblings s of x and of each of
its proper ancestors below the root.  An increase of u changes no mass
outside u, so the headroom taken when u comes up holds for all of u's
attempts, and the largest accepted r per (u, N) is the grid floor of the
suffix headroom minimum.  This is observationally identical to iterating
the triples (u in key order, N ascending over [0, nmax], r ascending over
the grid), which the test suite checks against literal references; the tail
start N = nmax reads member nmax-1 alone and raises nothing.  The gate: that
member lies in every suffix, so its headroom bounds every cap, and a key with
less than one grid step of headroom there is never raised or read further.
On a tree no word below a gated word is read: outside(child) is outside(parent)
plus the sibling's value and lifts only raise values, so headroom only falls
down the tree and over the run, and a gated word's descendants are gated too.

Both runs work in integers over one common denominator (as in fatou), so
grid floors are integer floors to multiples of scale / 2^g and the tables
and logs, converted back to Fractions, are exact.  The rows come from
traces.member_rows, which checks the member bounds on them: a flat row
holds the values over the universe, to which the run appends their running
sum; a tree row is a member's heap row.

All runs are single-threaded and deterministic on private working copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping

from . import traces
from .kernel import MAX_EXPONENT, InputError, ZERO, format_rational, is_word, word_to_text
from .verdict import Check, Verdict

__all__ = [
    "MeasureCoverResult",
    "RationalGrid",
    "frequency_semimeasures",
    "frequency_trace",
    "run_measure_cover",
    "run_tree_cover",
    "verify_frequency_cover",
    "verify_measure_cover",
    "verify_tree_cover",
]


@dataclass(frozen=True)
class RationalGrid:
    """The dyadic grid {j / 2^g : 1 <= j <= 2^g}, a finite stand-in for
    "every rational r"; answers are exact at resolution 2^-g."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise InputError("grid resolution must be positive")
        if self.resolution > MAX_EXPONENT:
            raise InputError(f"grid resolution must be at most {MAX_EXPONENT}")

    def floor(self, value: Fraction) -> Fraction:
        """Largest grid multiple <= value (0 below the first grid point)."""
        j = (value.numerator << self.resolution) // value.denominator
        return Fraction(j, 1 << self.resolution) if j > 0 else ZERO

    def common_scale(self, values: Iterable[Fraction]) -> int:
        """The lcm of 2^g and the denominators of ``values``: every value and
        every grid point is an integer multiple of 1/scale."""
        return math.lcm(1 << self.resolution, *{v.denominator for v in values})


@dataclass(frozen=True)
class MeasureCoverResult:
    """Output table m' and its high-water acceptance log, of the flat and
    the tree increase process alike.

    The log holds one entry (u, N, r) per increase that pushed m'(u) to a
    new maximum, in iteration order; m'(u) is the largest logged r for u.
    """

    table: dict[str, Fraction]
    log: tuple[tuple[str, int, Fraction], ...]


def _increase(
    roots: Iterable[int],
    below: Callable[[int], Iterable[int]],
    name: Callable[[int], str],
    rows: list[list[int]],
    scale: int,
    grid: RationalGrid,
    outside: Callable[[int, list[list[int]]], list[int]],
    lift: Callable[[list[int], int, int], None],
) -> MeasureCoverResult:
    """The increase process over integer rows, the members' values times
    ``scale``, on ``roots`` and below(i) of each key i past the gate, in
    ascending order, logging key i as name(i).  outside(i, rows) is the
    mass outside key i in each of rows.  For a key past the gate and each
    start N < nmax, lift(row, i, r) raises key i to r in every row from N on,
    r the largest grid multiple at most the headroom of all those rows."""
    step = scale >> grid.resolution
    log: list[tuple[str, int, Fraction]] = []
    keys = list(roots)
    for i in keys:  # a breadth-first walk: keys grows by below(i)
        if scale - outside(i, rows[-1:])[0] < step:
            continue  # gated, as is every key below i (see the module docstring)
        keys.extend(below(i))
        # The least headroom over the rows from each start N on.
        caps = list(accumulate(reversed([scale - mass for mass in outside(i, rows)]), min))[::-1]
        best = 0
        for start, cap in enumerate(caps):
            r = cap // step * step
            if r <= best:
                continue
            best = r
            log.append((name(i), start, Fraction(r, scale)))
            for row in rows[start:]:
                lift(row, i, r)
    # Each key's logged values rise, so its last one is its best.
    return MeasureCoverResult({key: r for key, _, r in log}, tuple(log))


def run_measure_cover(
    family: traces.StabilizedFamily, grid: RationalGrid
) -> MeasureCoverResult:
    """Run the increase process over the elements appearing in the trace;
    m' dominates the grid floor of every tail value."""
    if family.kind != "measure":
        raise InputError(f"expected a measure family, got {family.kind!r}")
    keys = traces.universe(family)
    traces.run_size(family)  # before the common denominator is built
    scale = grid.common_scale(e.value for e in family.events)
    rows = traces.member_rows(family, scale)
    for row in rows:
        row.append(sum(row))  # the running sum, past the values

    def lift(row: list[int], i: int, r: int) -> None:
        if row[i] < r:
            row[-1] += r - row[i]
            row[i] = r
            assert row[-1] <= scale

    return _increase(range(len(keys)), lambda i: (), keys.__getitem__, rows, scale, grid,
                     lambda i, rows: [row[-1] - row[i] for row in rows], lift)


def _replay_log(result: MeasureCoverResult) -> tuple[dict[str, Fraction], Check]:
    """The table rebuilt from an increase log, and the log-consistency check:
    every entry must raise its key to a new maximum, and the maxima must be
    exactly the result's table."""
    from_log: dict[str, Fraction] = {}
    ordered = True
    for key, _, r in result.log:
        if r <= from_log.get(key, ZERO):
            ordered = False
        from_log[key] = max(from_log.get(key, ZERO), r)
    consistent = ordered and from_log == result.table
    return from_log, Check(
        "log-consistency",
        consistent,
        "" if consistent else "table disagrees with the acceptance log",
    )


def verify_measure_cover(
    family: traces.StabilizedFamily,
    grid: RationalGrid,
    result: MeasureCoverResult,
) -> Verdict:
    """Check m' against the liminf oracle, trusting only the log."""
    from_log, consistency = _replay_log(result)
    checks = [consistency]

    total = sum(from_log.values(), ZERO)
    nonneg = all(v >= 0 for v in from_log.values())
    ok = total <= 1 and nonneg
    checks.append(Check("semimeasure", ok, "" if ok else f"sum {format_rational(total)}"))

    keys = traces.universe(family)
    oracle = traces.liminf_table(family, keys)
    scale = grid.common_scale([*oracle.values(), *from_log.values()])
    limits, values = ([int(t.get(u, ZERO) * scale) for u in keys] for t in (oracle, from_log))
    checks.append(traces.check_liminf_domination(
        "grid-floor", limits, values, scale, grid.resolution, keys.__getitem__
    ))
    return Verdict(tuple(checks))


def frequency_semimeasures(
    values: Mapping[int, str], horizon: int
) -> list[dict[str, Fraction]]:
    """The occurrence-fraction tables mu_1 .. mu_horizon of a partial map.

    mu_n(x) counts the positions i < n with value x, divided by n; undefined
    positions count in the denominator only, so each mu_n is a semimeasure.
    """
    if horizon < 1:
        raise InputError("horizon must be positive")
    for i in values:
        if not 0 <= i < horizon:
            raise InputError(f"position {i} outside [0, {horizon})")
    events = tuple(traces.Event(i, x) for i, x in values.items())  # sized as its trace
    traces.run_size(traces.StabilizedFamily("measure", horizon, None, events))
    out: list[dict[str, Fraction]] = []
    counts: dict[str, int] = {}
    for n in range(1, horizon + 1):
        x = values.get(n - 1)
        if x is not None:
            counts[x] = counts.get(x, 0) + 1
        out.append({key: Fraction(c, n) for key, c in counts.items()})
    return out


def frequency_trace(values: Mapping[int, str], horizon: int) -> traces.StabilizedFamily:
    """A measure-kind family with nmax=horizon whose member n is mu_{n+1},
    suitable as input for run_measure_cover."""
    mus = frequency_semimeasures(values, horizon)
    order: dict[str, None] = {}
    for i in sorted(values):
        order.setdefault(values[i])
    events = []
    for n, mu in enumerate(mus):
        for key in order:
            v = mu.get(key, ZERO)
            if v > 0:
                events.append(traces.Event(n, key, v))
    return traces.StabilizedFamily("measure", horizon, None, tuple(events))


def verify_frequency_cover(
    values: Mapping[int, str],
    horizon: int,
    grid: RationalGrid,
    result: MeasureCoverResult,
) -> Verdict:
    """Check that m' dominates the liminf of the fractions at grid precision:
    m'(x) >= gridfloor(mu_T(x)) for each x, where mu_T(x), the last
    fraction, is the largest of the suffix minima min_{N<=n<=T} mu_n(x)."""
    final = frequency_semimeasures(values, horizon)[-1]
    xs = list(dict.fromkeys(values.values()))
    scale = grid.common_scale([*final.values(), *result.table.values()])
    limits, got = ([int(t.get(x, ZERO) * scale) for x in xs] for t in (final, result.table))
    checks = [traces.check_liminf_domination(
        "suffix-domination", limits, got, scale, grid.resolution, xs.__getitem__
    )]
    total = sum(result.table.values(), ZERO)
    checks.append(
        Check("semimeasure", total <= 1, "" if total <= 1 else format_rational(total))
    )
    return Verdict(tuple(checks))


def run_tree_cover(
    family: traces.StabilizedFamily, grid: RationalGrid
) -> MeasureCoverResult:
    """The increase process on binary-tree semimeasures.

    Words up to the family depth below no gated word are visited in
    length-lexicographic order, so parents settle before their children;
    each (x, N) performs the largest acceptable grid increase, where
    acceptability means every repaired root over n in [N, nmax] stays <= 1.
    """
    if family.kind != "tree":
        raise InputError(f"expected a tree family, got {family.kind!r}")
    traces.run_size(family)  # before the common denominator is built
    scale = grid.common_scale(e.value for e in family.events)
    rows = traces.member_rows(family, scale)

    def outside(i: int, rows: list[list[int]]) -> list[int]:
        # The mass outside word i: its sibling and the siblings of its
        # proper ancestors below the root, read up the heap from i.
        siblings = []
        while i:
            siblings.append(((i + 1) ^ 1) - 1)
            i = (i - 1) >> 1
        return [sum([row[s] for s in siblings]) for row in rows]

    def lift(row: list[int], i: int, r: int) -> None:
        if row[i] >= r:
            return
        # Raise the word and repair its ancestors minimally upward.
        row[i] = r
        while i:
            i = (i - 1) >> 1
            need = row[2 * i + 1] + row[2 * i + 2]
            if row[i] >= need:
                break
            row[i] = need
        assert row[0] <= scale
        if __debug__:  # the tree law holds above where the repair stopped
            while i:
                i = (i - 1) >> 1
                assert row[i] >= row[2 * i + 1] + row[2 * i + 2]

    return _increase((0,), lambda i: range(2 * i + 1, min(2 * i + 3, len(rows[0]))), _word,
                     rows, scale, grid, outside, lift)


def _word(i: int) -> str:
    """The word at heap index i, the inverse of int("1" + w, 2) - 1."""
    return f"{i + 1:b}"[1:]


def verify_tree_cover(
    family: traces.StabilizedFamily, grid: RationalGrid, result: MeasureCoverResult
) -> Verdict:
    """Check the output tree law and the grid-floor bound via the oracle in
    integer heap rows over the words up to the depth; log keys of no such
    word are left out."""
    from_log, consistency = _replay_log(result)
    checks = [consistency]

    assert family.depth is not None
    last = traces.last_values(family)  # the liminf oracle: member nmax-1
    scale = grid.common_scale([*from_log.values(), *last.values()])
    limits, out = ([0] * ((2 << family.depth) - 1) for _ in range(2))
    for row, table in ((limits, last), (out, from_log)):
        for w, v in table.items():
            if len(w) <= family.depth and is_word(w):  # a log key may be no word
                row[int("1" + w, 2) - 1] = v.numerator * (scale // v.denominator)
    tree_witness = ""
    if out[0] > scale:
        tree_witness = f"root value {format_rational(from_log[''])}"
    elif (y := traces.tree_law_break(out)) >= 0:
        tree_witness = word_to_text(_word(y))
    checks.append(Check("tree-law", not tree_witness, tree_witness))

    checks.append(traces.check_liminf_domination(
        "grid-floor", limits, out, scale, grid.resolution, lambda i: word_to_text(_word(i))
    ))
    return Verdict(tuple(checks))
