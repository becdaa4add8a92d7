"""Increase operations for semimeasures: flat, frequency, and tree variants.

The flat process upgrades the liminf of a stabilized sequence of
semimeasures m_n into a single semimeasure m' that dominates it.  For a
triple (u, N, r) the *increase operation* raises every m_n(u) with n >= N up
to the rational r (values already >= r stay put); it is acceptable when all
m_n remain semimeasures afterwards.  m'(u) is the largest accepted r.  A
no-change increase is always acceptable, so m'(u) is at least the largest
grid point below the tail value of u, which is the liminf under the tail
rule.

Rather than materializing every (u, N, r) attempt, the run exploits that
acceptability of (u, N, r) is exactly r <= min over n in [N, nmax] of
cap_n(u), where cap_n(u) = m_n(u) + (1 - sum(m_n)) is the headroom of u at
index n.  Increases of u leave u's own caps unchanged (value and sum rise
together), so the caps computed when u comes up are valid for all of u's
attempts, and the largest accepted r per (u, N) is the grid floor of the
suffix cap minimum.  This is observationally identical to iterating the
triples (u first-appearance order, N ascending over [0, nmax], r ascending
over the grid) and is checked against a literal reference in the test suite.

The tree variant raises values on binary words; an increase of a(x) is
followed by the minimal upward repair a(y) := max(a(y), a(y0) + a(y1)) from
x's parent to the root and is acceptable iff every repaired root stays <= 1.
The headroom formula picks up the slack along the ancestor path:
cap_n(x) = a_n(x) + sum of slack_n(y) over proper ancestors y
+ (1 - a_n(root)), which telescopes to at most 1.

The tree run works in integers: every value is rescaled to one common
denominator (the lcm of 2^g and the trace's denominators, as in fatou), and
each working tree is a flat list in heap order, word w at index
2^len(w) - 1 + int(w, 2), which is the order of words_up_to, with the parent
of i at (i - 1) >> 1 and its children at 2i + 1 and 2i + 2.  Grid floors are
integer floors to multiples of scale / 2^g, and the results are converted
back to Fractions, so tables and logs are exactly those of the Fraction
formulation.

All runs are single-threaded and deterministic on private working copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping

from . import traces
from .kernel import MAX_EXPONENT, InputError, ZERO, format_rational, word_to_text, words_up_to
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
        if value <= 0:
            return ZERO
        g = self.resolution
        return Fraction((value.numerator << g) // value.denominator, 1 << g)

    def common_scale(self, values: Iterable[Fraction]) -> int:
        """The lcm of 2^g and the denominators of ``values``: every value and
        every grid point is an integer multiple of 1/scale."""
        scale = 1 << self.resolution
        for v in values:
            scale = math.lcm(scale, v.denominator)
        return scale


@dataclass(frozen=True)
class MeasureCoverResult:
    """Output table m' and its high-water acceptance log, of the flat and
    the tree increase process alike.

    The log holds one entry (u, N, r) per increase that pushed m'(u) to a
    new maximum, in iteration order; m'(u) is the largest logged r for u.
    """

    table: dict[str, Fraction]
    log: tuple[tuple[str, int, Fraction], ...]


def _suffix_minima(values: list) -> list:
    """min(values[n:]) for every n, in one backward pass."""
    out = list(accumulate(reversed(values), min))
    out.reverse()
    return out


def run_measure_cover(
    family: traces.StabilizedFamily, grid: RationalGrid
) -> MeasureCoverResult:
    """Run the increase process over the elements appearing in the trace;
    m' dominates the grid floor of every tail value."""
    if family.kind != "measure":
        raise InputError(f"expected a measure family, got {family.kind!r}")
    traces.check_member_bounds(family)

    tables = traces.values_by_index(family)
    working = [dict(t) for t in tables]
    working.append(dict(tables[-1]))  # index nmax: the shared tail
    sums = [sum(t.values(), ZERO) for t in working]

    table: dict[str, Fraction] = {}
    log: list[tuple[str, int, Fraction]] = []
    top = family.nmax + 1
    for u in traces.universe(family):
        # Headroom of u per index; increases of u itself never change it.
        caps = _suffix_minima([working[n].get(u, ZERO) + 1 - sums[n] for n in range(top)])
        best = ZERO
        for start in range(top):
            r = grid.floor(caps[start])
            if r <= best:
                continue
            best = r
            log.append((u, start, r))
            for n in range(start, top):
                current = working[n].get(u, ZERO)
                if current < r:
                    sums[n] += r - current
                    working[n][u] = r
                assert sums[n] <= 1
        if best > 0:
            table[u] = best
    return MeasureCoverResult(table, tuple(log))


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

    limits = traces.liminf_table(family, traces.universe(family))
    checks.append(traces.check_liminf_domination(
        "grid-floor", limits, lambda u: from_log.get(u, ZERO), grid.floor
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
    limits = {x: final[x] for x in dict.fromkeys(values.values())}
    checks = [traces.check_liminf_domination(
        "suffix-domination", limits, lambda x: result.table.get(x, ZERO), grid.floor
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

    Words are visited in length-lexicographic order over all words up to the
    family depth, so parents settle before their children; each (x, N)
    performs the largest acceptable grid increase, where acceptability means
    every repaired root over n in [N, nmax] stays <= 1.
    """
    if family.kind != "tree":
        raise InputError(f"expected a tree family, got {family.kind!r}")
    traces.check_member_bounds(family)
    assert family.depth is not None

    tables = traces.values_by_index(family)
    scale = grid.common_scale(v for t in tables for v in t.values())
    step = scale >> grid.resolution
    words = words_up_to(family.depth)
    working = []
    for t in tables:
        row = [0] * len(words)
        for w, v in t.items():
            row[(1 << len(w)) - 1 + (int(w, 2) if w else 0)] = int(v * scale)
        working.append(row)
    working.append(list(working[-1]))  # index nmax: the shared tail
    top = family.nmax + 1

    table: dict[str, Fraction] = {}
    log: list[tuple[str, int, Fraction]] = []
    for i, word in enumerate(words):
        ancestors = []
        y = i
        while y:
            y = (y - 1) >> 1
            ancestors.append(y)
        # Headroom of the word per index: its value, the slack of every proper
        # ancestor, and the root's headroom.
        caps = _suffix_minima([
            row[i] + scale - row[0]
            + sum(row[y] - row[2 * y + 1] - row[2 * y + 2] for y in ancestors)
            for row in working
        ])
        best = 0
        for start in range(top):
            r = caps[start] // step * step
            if r <= best:
                continue
            best = r
            log.append((word, start, Fraction(r, scale)))
            for n in range(start, top):
                row = working[n]
                if row[i] >= r:
                    continue
                # Raise the word and repair its ancestors minimally upward.
                row[i] = r
                for y in ancestors:
                    need = row[2 * y + 1] + row[2 * y + 2]
                    if row[y] >= need:
                        break
                    row[y] = need
                assert row[0] <= scale
                if __debug__:  # the tree law holds along the repaired path
                    for y in ancestors:
                        assert row[y] >= row[2 * y + 1] + row[2 * y + 2]
        if best > 0:
            table[word] = Fraction(best, scale)
    return MeasureCoverResult(table, tuple(log))


def verify_tree_cover(
    family: traces.StabilizedFamily, grid: RationalGrid, result: MeasureCoverResult
) -> Verdict:
    """Check the output tree law and the grid-floor bound via the oracle."""
    from_log, consistency = _replay_log(result)
    checks = [consistency]

    assert family.depth is not None
    tree_witness = ""
    if from_log.get("", ZERO) > 1:
        tree_witness = f"root value {format_rational(from_log.get('', ZERO))}"
    else:
        for y in words_up_to(family.depth - 1):
            need = from_log.get(y + "0", ZERO) + from_log.get(y + "1", ZERO)
            if from_log.get(y, ZERO) < need:
                tree_witness = word_to_text(y)
                break
    checks.append(Check("tree-law", not tree_witness, tree_witness))

    limits = traces.liminf_table(family, words_up_to(family.depth))
    checks.append(traces.check_liminf_domination(
        "grid-floor", limits, lambda w: from_log.get(w, ZERO), grid.floor, word_to_text
    ))
    return Verdict(tuple(checks))
