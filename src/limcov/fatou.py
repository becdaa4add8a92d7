"""Dominating the liminf of step functions with a controlled integral.

This generalizes the open-set covering: an open set is the special case of
an indicator function.  The tests hold the run to that link: the
specialization check in tests/reference.py embeds sets, semimeasure and
open families and checks phi against each one's own cover.

Attempts run over triples (start index m, cylinder word U, level r); each
attempt raises the global threshold by its delta and proposes the auxiliary
function u = r on the cylinder of U, 0 elsewhere.
While some first s >= m would see its integral pushed above the threshold by
the raise f_s := max(f_s, u), the candidate is capped: u := min(u, f_s).
Each cap removes more than the attempt's delta from the integral of u (the
overhang past the previous threshold), so capping terminates; afterwards
f_s := max(f_s, u) is committed for every s >= m and u is folded into the
running output phi := max(phi, u).

Every index n >= nmax is member nmax-1 (the tail rule), so the run keeps
one row per member and the tail start m = nmax reads member nmax-1.  phi
never exceeds that member's final working function, so its integral stays
below eps'; and on any cell whose liminf value reaches a level r, the
attempt at that cell with that r from a late enough start index commits
unchanged, so phi dominates the grid floor of every cell's liminf value.

Candidate levels are the positive multiples of the grid step 2^-g; they
extend past 1 when the family's values do, so the domination guarantee
holds for arbitrary non-negative step functions (for families bounded by 1
the levels are exactly the grid).

Internally one run rescales all values to a common integer denominator, so
the inner comparisons are integer sums against floor(theta_t * 2^D * scale),
read by attempt number from opencover.DeltaSchedule.floor_table.  The
members' integer cell rows come from traces.member_rows (one top-down
prefix-max pass over the words, checked on their integrals) and are kept as
level masks: with t_1 < ... < t_K the positive values the rows hold, a row
f is the nested masks L_k = {f >= t_k}, one int per threshold with bit c for
cell c, and f = sum_k h_k * L_k with h_k = t_k - t_(k-1).  phi and the
cellwise minimum of the members from the start on are rows too.  Raising f
to max(f, u) is an OR per layer and the cap min(u, f) an AND; the integral
of max(f, u) is integral(f) + integral(u) - sum_k h_k * |u_k & L_k|, a
popcount per layer, and "u <= f" is u_k & L_k == u_k on every layer.  An
attempt at a level r between two thresholds takes the layers below r and one
layer cut at r, whose mask in every row is the next threshold's, since no
row holds a value in between.  When a commit, a fold or phi's growth makes r
a value some row holds, the layer at the next threshold splits at r; a
threshold that no row holds any more (each row's mask there equals its mask
at the next one, or is empty at the top) merges into the next layer, and at
each start the thresholds only the dropped member held go.  Splits and
merges change no row's values, so every sum and test is the one on cell
lists, exactly; and the layers stay as few as the values the rows hold,
however fine the grid.  StepFunction itself stays in Fractions.

Three rules skip work without changing phi or the log; every attempt still
counts toward the result's attempt count and consumes its threshold.  For
a fixed (m, U) the levels rise with the attempts:

- Fast path.  When r <= min over the cylinder of the cellwise minimum of
  f_m, f_{m+1}, ..., no member gains anything, so the attempt caps and
  commits nothing; only the fold of r into phi remains.  These levels are
  a prefix, since a commit at a level above that minimum leaves some cell
  of the cylinder at most at that level, so the run folds the whole prefix
  at once and logs each of its levels above the minimum of phi there.
- Replica.  Take a simulated attempt at level L whose first overflowing
  member is s1, with L >= max of f_{s1} on the cylinder, so that its first
  cap sets u to f_{s1} there, and which committed nothing.  A later attempt
  at L' > L overflows at s1 too (the gain is monotone in the level).  If
  the integer threshold is unchanged, nothing has committed since and no
  member in [m, s1) overflows at L', its first cap leaves the same u, so the
  rest of the process and the final u are the same; phi already holds u, so
  nothing is logged.  The last condition holds when the least slack
  tf - integral(max(f_s, u)) over [m, s1) at L is at least (L' - L) * span,
  since the gain rises by at most span (the cylinder's cell count) per
  level step; otherwise the member scan decides it, as the first hit being
  s1 again.  Once tf has settled, every level up to that reach is skipped
  in one step.
- Cross-start replica.  Each (U, level) keeps a memo of its last scanned
  attempt that committed nothing.  An attempt at a later start m with no
  commit since, the same integer threshold and the memo's first hit at or
  after min(m, nmax-1) caps and ends the same way: a scan hits a member only
  once every earlier one has passed and a cap only shrinks u, so the members
  m drops lay before every hit.  It restores the memo's replica, whose reach
  is a lower bound at m (the least slack is now taken over fewer members),
  and logs nothing, since phi already holds u.

A cap removes at least one integer unit from u, so the run stops checking
trim counts from DeltaSchedule.settled_attempt(levels * step * 2^depth *
unit) on.  A member whose room tf - integral(f_s) covers the integral of u
cannot overflow; the scan skips its row and takes that room less the
integral as its slack, a lower bound that may shorten a replica's reach.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, or_

from . import traces
from .kernel import InputError, ZERO, cell_span, format_rational, words_up_to
from .measurecover import RationalGrid
from .opencover import DeltaSchedule
from .verdict import Check, Verdict

__all__ = [
    "FatouResult",
    "StepFunction",
    "run_fatou",
    "verify_fatou",
]


@dataclass(frozen=True)
class StepFunction:
    """A non-negative function constant on each cell of a fixed depth."""

    depth: int
    cells: tuple[Fraction, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise InputError("depth must be positive")
        if len(self.cells) != 1 << self.depth:
            raise InputError(f"expected {1 << self.depth} cells, got {len(self.cells)}")
        if any(v < 0 for v in self.cells):
            raise InputError("step functions are non-negative")

    def value(self, cell: str) -> Fraction:
        if len(cell) != self.depth:
            raise InputError(f"cells have length {self.depth}, got {cell!r}")
        return self.cells[int(cell, 2)]

    def integral(self) -> Fraction:
        return sum(self.cells, ZERO) * Fraction(1, 1 << self.depth)


@dataclass(frozen=True)
class FatouResult:
    phi: StepFunction
    attempts: int
    log: tuple[tuple[int, int, str, Fraction, int], ...]
    """(attempt, start, word, level, trims) for attempts that grew phi."""


_BITS = bytes.maketrans(b"\0\1", b"01")


def _level_masks(row: list[int], tops: list[int]) -> list[int]:
    """A row's level masks, one int per threshold t in ``tops``: bit c is
    set when the row is at least t on cell c.  Each is read from a string of
    binary digits, in time linear in the cells."""
    cells = row[::-1]  # cell 0 is the lowest bit
    return [int(bytes(map(t.__le__, cells)).translate(_BITS), 2) for t in tops]


def _least(masks: list[int], tops: list[int], cyl: int) -> int:
    """The least value on the cells of ``cyl`` of the row with these masks."""
    value = 0
    for t, m in zip(tops, masks):
        if m & cyl != cyl:
            break
        value = t
    return value


def _split(rows: list[list[int]], tops: list[int], heights: list[int], k: int, t: int) -> None:
    """Make t, which no row holds, threshold k (tops[k-1] < t < tops[k]):
    every row is at least t where it is at least tops[k]."""
    below = tops[k - 1] if k else 0
    if k < len(tops):
        heights[k] -= t - below
        for row in rows:
            row.insert(k, row[k])
    else:
        for row in rows:
            row.append(0)
    tops.insert(k, t)
    heights.insert(k, t - below)


def _merge(rows: list[list[int]], tops: list[int], heights: list[int], stop: int) -> None:
    """Drop each threshold below index ``stop`` that no row holds: every
    row's mask there equals its mask at the next threshold (or is empty)."""
    for k in reversed(range(min(stop, len(tops)))):
        above = k + 1 < len(tops)
        for row in rows:
            if row[k] != (row[k + 1] if above else 0):
                break
        else:
            for row in rows:
                del row[k]
            del tops[k]
            h = heights.pop(k)
            if above:
                heights[k] += h


def _first_raise(
    u: list[int],
    heights: list[int],
    total: int,
    work: list[list[int]],
    integrals: list[int],
    members: range,
    tf: int,
) -> tuple[int, int | None]:
    """First s in members whose integral of max(f_s, u) exceeds tf (-1 if
    none), and a lower bound on the least slack tf - integral(max(f_r, u))
    over the members r scanned before it (None if there are none).  u is
    given by its level masks, their heights and its integral ``total``."""
    slack = None
    for s in members:
        room = tf - integrals[s] - total
        if room < 0:
            room += sum(map(operator.mul, heights, map(int.bit_count, map(and_, u, work[s]))))
            if room < 0:
                return s, slack
        if slack is None or room < slack:
            slack = room
    return -1, slack


def run_fatou(
    family: traces.StabilizedFamily,
    eps: Fraction,
    eps_prime: Fraction,
    grid: RationalGrid,
) -> FatouResult:
    if family.kind != "func":
        raise InputError(f"expected a func family, got {family.kind!r}")
    schedule = DeltaSchedule(eps, eps_prime)
    depth = family.depth
    assert depth is not None

    # Candidate levels: positive grid multiples up to the largest value seen.
    g = grid.resolution
    levels = max(1 << g, math.ceil(max((e.value for e in family.events), default=ZERO) * (1 << g)))
    attempts = traces.run_size(family, levels)  # one per (start, word, level)

    # Everything in integers over a common denominator; integrals in units
    # of 1 / (scale * 2^depth).
    scale = grid.common_scale(e.value for e in family.events)
    unit = scale << depth
    cell_rows = traces.member_rows(family, scale, eps=eps)
    integrals = [sum(row) for row in cell_rows]
    top, ncells = family.nmax, 1 << depth
    step_scaled = scale >> g

    # Every row as level masks over the thresholds the rows hold, ascending;
    # heights[k] = tops[k] - tops[k-1].
    tops = sorted({v for row in cell_rows for v in row} - {0})
    heights = list(map(operator.sub, tops, [0, *tops]))
    work = [_level_masks(row, tops) for row in cell_rows]
    phi = [0] * len(tops)

    words = words_up_to(depth)
    floors, settled_tf = schedule.floor_table(unit, attempts)
    # Each cap removes at least one unit from u, whose integral starts at
    # most at levels * step * 2^depth units.
    settled = schedule.settled_attempt(levels * step_scaled * unit << depth)
    spans = [cell_span(word, depth) for word in words]
    log: list[tuple[int, int, str, Fraction, int]] = []
    # memos[w][j-1]: (attempt, tf, first hit, replica after it) of the last
    # scanned attempt at word w and level j that committed nothing.
    memos = [[(-1, -1, -1, None)] * levels for _ in words]
    attempt = changed = -1
    for start in range(top + 1):
        low = min(start, top - 1)  # the tail start reads member nmax-1
        members = range(low, top)
        # Thresholds only the members before low held go.  The cellwise
        # minimum of work[low:] is the AND of their masks; a commit raises
        # every member to u, so it rises to u too.  Where u stays under it
        # no member gains anything: the attempt caps and commits nothing.
        _merge([*work[low:], phi], tops, heights, len(tops))
        lows = [reduce(and_, layer) for layer in zip(*work[low:])]
        rows = [phi, lows, *work[low:]]
        for word, (base, span), memo in zip(words, spans, memos):
            cyl = ((1 << span) - 1) << base  # the cylinder's cells
            before = attempt  # level j is attempt before + j
            # The fast path, folded at once: see the module docstring.
            j = min(levels, _least(lows, tops, cyl) // step_scaled)
            level = j * step_scaled
            k = bisect_left(tops, level)  # the lows reach level: k < len(tops)
            if j and phi[k] & cyl != cyl:
                floor = _least(phi, tops, cyl)
                if tops[k] != level:
                    _split(rows, tops, heights, k, level)
                phi[:k + 1] = [m | cyl for m in phi[:k + 1]]
                _merge(rows, tops, heights, k)
                for i in range(floor // step_scaled + 1, j + 1):
                    log.append((before + i, start, word, Fraction(i, 1 << g), 0))
            # (tf, first hit, highest level known to replay) of the last
            # attempt that later ones replay exactly; see the module docstring.
            replica = None
            while j < levels:
                j += 1
                attempt = before + j
                tf = floors[attempt] if attempt < len(floors) else settled_tf
                level = j * step_scaled
                # A replayed attempt has the same trims as the original at a
                # larger level and attempt number, so it keeps the trim-count
                # bound a fortiori.
                if replica is not None and replica[0] == tf and level <= replica[2]:
                    if tf == settled_tf:
                        # tf has settled: every level up to the reach replays.
                        j = min(levels, replica[2] // step_scaled)
                    continue
                seen, seen_tf, hit, seen_replica = memo[j - 1]
                if changed < seen and seen_tf == tf and hit >= low:
                    # A cross-start replica: see the module docstring.
                    replica = seen_replica
                    continue
                # u = level on the cylinder: the layers up to threshold k,
                # the last cut at level when level lies between thresholds
                # (above every threshold, no member reaches it).
                k = bisect_left(tops, level)
                above = bisect_right(tops, level, k)
                u = [cyl] * (k + 1)
                hu = heights if above > k or k == len(tops) else [
                    *heights[:k], level - (tops[k - 1] if k else 0)]
                total = level * span
                trims = 0
                hit, slack = _first_raise(u, hu, total, work, integrals, members, tf)
                row = work[hit]  # unused when hit is -1: a commit follows
                if hit >= 0 and (above == len(tops) or not row[above] & cyl):
                    # The first cap sets u to work[hit] on the cylinder, and
                    # each level step adds at most span to a member's gain.
                    reach = (levels * step_scaled if slack is None
                             else level + slack // span)
                    replayed = replica is not None and replica[:2] == (tf, hit)
                    replica = (tf, hit, reach)
                    if replayed:
                        memo[j - 1] = (attempt, tf, hit, replica)
                        continue
                else:
                    replica = None
                first = hit
                while hit >= 0:
                    u = list(map(and_, u, row))
                    trims += 1
                    # Each cap removes more than delta_t from the integral
                    # of u, which starts at level * span / unit.
                    assert attempt >= settled or schedule.allows_trims(
                        attempt, trims, level * span, unit)
                    if not any(map(operator.ne, map(and_, u, lows), u)):
                        memo[j - 1] = (attempt, tf, first, replica)
                        break
                    total = sum(map(operator.mul, hu, map(int.bit_count, u)))
                    hit = _first_raise(u, hu, total, work, integrals, members, tf)[0]
                    row = work[hit]
                # An uncapped u above every threshold rises above phi.
                grows = len(u) > len(phi) or any(map(operator.ne, map(and_, u, phi), u))
                if hit >= 0 and not grows:
                    continue
                if k == above and k < len(u) and u[k]:
                    # u takes the value level, which no row holds yet.
                    _split(rows, tops, heights, k, level)
                if hit < 0:
                    # No member overflows and u rises above some member:
                    # commit.  Rows that gain nothing keep their bound: tf
                    # never decreases.
                    for s in members:
                        row = work[s]
                        gained = total - sum(map(operator.mul, hu, map(
                            int.bit_count, map(and_, u, row))))
                        if gained:
                            row[:len(u)] = map(or_, u, row)
                            integrals[s] += gained
                            assert integrals[s] <= tf
                    lows[:len(u)] = map(or_, u, lows)
                    replica = None
                    changed = attempt
                if grows:
                    phi[:len(u)] = map(or_, u, phi)
                    log.append((attempt, start, word, Fraction(j, 1 << g), trims))
                # Thresholds up to level that no row holds any more go.
                _merge(rows, tops, heights, k + 1)
            attempt = before + levels
    # phi on a cell is the threshold of the last of its layers holding it.
    values = [ZERO, *(Fraction(t, scale) for t in tops)]
    bits = [format(m, f"0{ncells}b")[::-1] for m in phi]
    cells = [values[held.count("1")] for held in zip(*bits)] if bits else [ZERO] * ncells
    phi_fn = StepFunction(depth, tuple(cells))
    return FatouResult(phi_fn, attempt + 1, tuple(log))


def verify_fatou(
    family: traces.StabilizedFamily,
    eps: Fraction,
    eps_prime: Fraction,
    grid: RationalGrid,
    result: FatouResult,
) -> Verdict:
    """Check the integral bound, the threshold and cellwise domination.

    The attempt count is re-derived from the input: a run makes one attempt
    per (start, word, level), (nmax+1) * (2^(depth+1)-1) * levels in all,
    with levels the grid multiples up to the largest value in the trace.
    """
    assert family.depth is not None
    integral = result.phi.integral()
    g = grid.resolution
    top = max((e.value for e in family.events), default=ZERO)
    levels = max(1 << g, math.ceil(top * (1 << g)))
    attempts = (family.nmax + 1) * ((2 << family.depth) - 1) * levels
    schedule = DeltaSchedule(eps, eps_prime)
    if result.phi.depth != family.depth:
        raise InputError(f"phi has cells of depth {result.phi.depth}, the family {family.depth}")
    last = traces.values_by_index(family)[-1]  # the liminf oracle: member nmax-1
    scale = grid.common_scale([*last.values(), *result.phi.cells])
    limits = [0] * (1 << family.depth)  # a cell's limit: its prefixes' largest value
    for v, word in sorted((v.numerator * (scale // v.denominator), w) for w, v in last.items()):
        base, span = cell_span(word, family.depth)
        limits[base:base + span] = [v] * span  # ascending, so the largest is painted last
    phi = [v.numerator * (scale // v.denominator) for v in result.phi.cells]
    return Verdict((
        Check(
            "integral-bound",
            integral <= eps_prime,
            "" if integral <= eps_prime else format_rational(integral),
        ),
        schedule.threshold_check(attempts, result.attempts),
        traces.check_liminf_domination("cell-domination", limits, phi, scale, g,
                                       lambda i: format(i, f"0{family.depth}b")),
    ))
