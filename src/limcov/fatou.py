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
members come from traces.member_rows as level masks, checked on their
integrals: with t_1 < ... < t_K the positive values the rows hold, a row f
is the nested masks L_k = {f >= t_k}, one int per threshold with bit c for
cell c (the OR of the cylinders raised to t_k or more), and f = sum_k h_k *
L_k with h_k = t_k - t_(k-1); the first start's merge drops the event values
no cell holds, raised only under larger ones.  phi and the cellwise minimum
of the members from the start on are rows too.  Raising f to max(f, u) is
an OR per layer and the cap min(u, f) an AND; the integral
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
values, exactly; and the layers stay as few as the values the rows hold,
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
- Active cells.  Let lows be the cellwise minimum of f_m, f_{m+1}, ...;
  phi never exceeds it, since each u folded into phi is at most lows or is
  committed and lifts lows with it.  Each cap takes the minimum with a row
  at least lows, and the caps stop once u <= lows, so an attempt at level r
  that commits nothing ends at u = min(r, lows) on its cylinder and grows
  phi only where phi < lows.  One that commits lifts some cell c of its
  cylinder from lows(c) to u(c) <= r, where u(c) is r or a member's value,
  so u(c) >= min(r, t(c)) with t(c) the least value a member holds on c
  above lows(c); each member at lows on c gains that much, so c is
  unblocked at r: lows(c) < r and min(r, t(c)) - lows(c) <= R(c), the least
  room tf - integral(f_s) of those members.  Taken at the settled tf, which
  no attempt's tf exceeds, R(c) bounds every attempt's room, and c stays
  unblocked up to the top level if t(c) - lows(c) <= R(c), else up to
  lows(c) + R(c).  The run keys each cell by that last level and runs each
  (m, U) only up to the highest key on its cylinder, or up to the top level
  while phi < lows somewhere: the levels above commit nothing and leave phi
  as it is.  The keys hold for the rest of the start.  Rooms only shrink; a
  later commit that lifts c lifts the member that had the least room at
  lows on c too, by as much in all, and to r or a value some member held on
  c above lows(c).  So the keys are built at each start and, only to skip
  more, again after a commit.

The level rule.  A start's root runs up to the top level when phi < lows
somewhere, and that attempt, run or replayed, ends at u >= lows (every cap
takes the minimum with a row at least lows); a commit lifts phi with lows.
So phi = lows after the root, and no other word's fold is due (it lifts phi
where it is below level j <= lows): a (start, word) pair has a level to run
exactly when its cylinder meets the cells keyed above its j, and is idle,
changing no state, otherwise.  So the run decides the words of one (start,
length) at once: they are disjoint blocks of 2^e cells, and a spread mask
holds one bit at the first cell of each (kernel.WordBlocks).  The words
whose cylinder c layers of lows fill share the least value of lows there,
tops[c-1] (0 for c = 0), hence j, and one pass over the layers marks the
words that meet the cells keyed above their j, in O(layers) int operations;
where phi != lows it marks the root.  Only marked words run the per-word
body, in heap order; every skipped word still counts its levels as
attempts.  This is exact.  The keys are the same whenever they are built
between two commits of a start (they read only lows, the rows and the
rooms), so the pass builds them at its head, at each start and after a
commit.  A word's marks read lows on its own cylinder, which the other
words of its length do not touch, so they hold until a commit; the pass
then decides the rest of the length again.  Marks taken before a commit
would still be exact, since keys built earlier in a start stay valid
bounds: deciding again only keeps the bodies to the active words.

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
from itertools import accumulate
from operator import and_, itemgetter, or_, xor
from typing import Sequence

from . import traces
from .kernel import InputError, WordBlocks, ZERO, cell_span, format_rational, spread_indices
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


def _reach(lows: list[int], tops: list[int], rooms: list[tuple[int, list[int]]], full: int,
           step: int, levels: int) -> tuple[list[int], list[int]]:
    """The unblocked cells, keyed by the last level j at which each stays
    unblocked (see the module docstring): ascending keys from 0 and nested
    masks, masks[i] the cells whose key is at least keys[i] (all cells at
    key 0).  ``rooms`` pairs each member's room with its row, least first."""
    # bands[k]: the cells where lows is tops[k-1] (0 for k = 0); a member is
    # above lows there where it reaches tops[k].
    bands = list(map(xor, [full, *lows], [*lows, 0]))
    ends: dict[int, int] = {}
    left = full  # the cells no member with less room sits at lows on
    for room, row in rooms:
        above = reduce(or_, map(xor, row, lows), 0)  # where the member is above lows
        at, left = left & ~above, left & above
        for k, band in enumerate(bands):
            cells = band & at
            if cells:
                # Where a member holds a value within the room above lows, u
                # may be capped to it at every level.
                base = tops[k - 1] if k else 0
                cut = bisect_right(tops, base + room)
                capped = 0
                if cut > k:  # tops[k] lies within the room
                    for _, other in rooms:
                        capped |= cells & other[k] & ~(other[cut] if cut < len(tops) else 0)
                        if capped == cells:
                            break
                if capped:
                    ends[levels] = ends.get(levels, 0) | capped
                key = min(levels, (base + room) // step)
                if cells != capped and key > base // step:
                    ends[key] = ends.get(key, 0) | cells ^ capped
        if not left:
            break
    keys = sorted(ends, reverse=True)
    masks = list(accumulate(map(ends.get, keys), or_))
    return [0, *keys[::-1]], [full, *masks[::-1]]


def _active(blocks: WordBlocks, e: int, region: int, lows: list[int], tops: list[int],
            step: int, keys: Sequence[int], masks: list[int]) -> int:
    """The words of ``region``, a spread mask of span-2^e words, that meet
    the cells keyed above their j (see "The level rule" in the module
    docstring)."""
    touched = blocks.touched
    active = 0
    words, j = region, 0  # the words whose cylinder c layers of lows at least fill
    for c in range(len(tops) + 1):
        more = blocks.filled(lows[c], e) & words if c < len(tops) else 0
        i = bisect_right(keys, j)  # the first key above j
        if words != more and i < len(keys):  # the least of lows there is tops[c-1]
            active |= (words ^ more) & touched(masks[i], e)
        if not more:
            return active
        words, j = more, tops[c] // step
    return active


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
    # Every row as level masks over the event values, ascending;
    # heights[k] = tops[k] - tops[k-1].
    tops, work = traces.member_rows(family, scale, eps=eps)
    heights = list(map(operator.sub, tops, [0, *tops]))
    integrals = [sum(map(operator.mul, heights, map(int.bit_count, row))) for row in work]
    top, ncells = family.nmax, 1 << depth
    step_scaled = scale >> g
    phi = [0] * len(tops)

    floors, settled_tf = schedule.floor_table(unit, attempts)
    # Each cap removes at least one unit from u, whose integral starts at
    # most at levels * step * 2^depth units.
    settled = schedule.settled_attempt(levels * step_scaled * unit << depth)
    blocks = WordBlocks(depth)
    width = 2 * ncells - 1  # words a start, in heap order: word w is int("1" + w, 2) - 1
    log: list[tuple[int, int, str, Fraction, int]] = []
    full = (1 << ncells) - 1
    for start in range(top + 1):
        low = min(start, top - 1)  # the tail start reads member nmax-1
        members = range(low, top)
        # Thresholds no row holds go: event values raised only under larger
        # ones, then those only the members before low held.  The cellwise
        # minimum of work[low:] is the AND of their masks; a commit raises
        # every member to u, so it rises to u too.  Where u stays under it
        # no member gains anything: the attempt caps and commits nothing.
        _merge([*work[low:], phi], tops, heights, len(tops))
        lows = [reduce(and_, layer) for layer in zip(*work[low:])]
        rows = [phi, lows, *work[low:]]
        keys = None  # built at each start, again after a commit
        for e in reversed(range(depth + 1)):  # the words of length depth - e
            assert e == depth or phi == lows, "phi < lows after a root"  # see "The level rule"
            n, span = 1 << depth - e, 1 << e
            pos = 0
            while pos < n:
                # The level rule: see the module docstring.
                if keys is None:
                    keys, masks = _reach(lows, tops, sorted(
                        ((settled_tf - integrals[s], work[s]) for s in members),
                        key=itemgetter(0)), full, step_scaled, levels)
                region = blocks.bases[e] >> (pos << e) << (pos << e)
                active = region if phi != lows else _active(
                    blocks, e, region, lows, tops, step_scaled, keys, masks)
                pos = n
                for i in spread_indices(active, e):
                    word, cyl = f"{n + i:b}"[1:], (1 << span) - 1 << (i << e)
                    before = (start * width + n - 1 + i) * levels - 1  # level j: attempt before + j
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
                        for folded in range(floor // step_scaled + 1, j + 1):
                            log.append((before + folded, start, word, Fraction(folded, 1 << g), 0))
                    # Levels above the highest key on the cylinder commit nothing and
                    # leave phi as it is, save at a root with phi < lows: see the docstring.
                    jend = levels if e == depth and phi != lows else keys[
                        bisect_left(masks, True, key=lambda m: not m & cyl) - 1]
                    # (tf, first hit, highest level known to replay) of the last
                    # attempt that later ones replay exactly; see the module docstring.
                    replica = None
                    while j < jend:
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
                                continue
                        else:
                            replica = None
                        while hit >= 0:
                            u = list(map(and_, u, row))
                            trims += 1
                            # Each cap removes more than delta_t from the integral
                            # of u, which starts at level * span / unit.
                            assert attempt >= settled or schedule.allows_trims(
                                attempt, trims, level * span, unit)
                            if not any(map(operator.ne, map(and_, u, lows), u)):
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
                            replica = keys = None
                        if grows:
                            phi[:len(u)] = map(or_, u, phi)
                            log.append((attempt, start, word, Fraction(j, 1 << g), trims))
                        # Thresholds up to level that no row holds any more go.
                        _merge(rows, tops, heights, k + 1)
                    if keys is None:  # a commit
                        pos = i + 1  # the rest of the length is decided again
                        break
    # phi on a cell is the threshold of the last of its layers holding it.
    values = [ZERO, *(Fraction(t, scale) for t in tops)]
    bits = [format(m, f"0{ncells}b")[::-1] for m in phi]
    cells = [values[held.count("1")] for held in zip(*bits)] if bits else [ZERO] * ncells
    phi_fn = StepFunction(depth, tuple(cells))
    return FatouResult(phi_fn, attempts, tuple(log))


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
    last = traces.last_values(family)  # the liminf oracle: member nmax-1
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
