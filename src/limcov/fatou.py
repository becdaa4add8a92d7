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
read by attempt number from opencover.DeltaSchedule.floor_table; this is
exact.  The members' integer cell rows are built from the trace by one
top-down prefix-max pass over the words (traces.func_cell_rows).
StepFunction itself stays in Fractions.

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
- Cross-start replica.  The trim-mode rule in the opencover module
  docstring, kept per (U, level): an attempt that repeats the last scanned one at the same
  U and level from an earlier start, with no commit since, the same integer
  threshold and that attempt's first hit at or after min(m, nmax-1), caps
  and ends the same way.  It restores that attempt's replica, whose reach
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
from dataclasses import dataclass
from fractions import Fraction

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


def _first_raise(
    u: list[int],
    work: list[list[int]],
    integrals: list[int],
    members: range,
    base: int,
    tf: int,
) -> tuple[int, int | None]:
    """First s in members whose integral of max(f_s, u) exceeds tf (-1 if
    none), and a lower bound on the least slack tf - integral(max(f_r, u))
    over the members r scanned before it (None if there are none)."""
    total = sum(u)
    end = base + len(u)
    slack = None
    for s in members:
        room = tf - integrals[s] - total
        if room < 0:
            row = work[s][base:end]
            room += total - sum(map(max, u, row)) + sum(row)
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
    traces.check_member_bounds(family, eps=eps)
    depth = family.depth
    assert depth is not None
    ncells = 1 << depth

    # Everything in integers over a common denominator; integrals in units
    # of 1 / (scale * 2^depth).
    scale = grid.common_scale(e.value for e in family.events)
    unit = scale << depth
    work = traces.func_cell_rows(family, scale)
    integrals = [sum(cells) for cells in work]
    top = family.nmax

    # Candidate levels: positive grid multiples up to the largest value seen.
    g = grid.resolution
    max_scaled = max(max(cells) for cells in work)
    levels = max(1 << g, -((-max_scaled << g) // scale))
    step_scaled = scale >> g

    words = words_up_to(depth)
    floors, settled_tf = schedule.floor_table(unit, (top + 1) * len(words) * levels)
    # Each cap removes at least one unit from u, whose integral starts at
    # most at levels * step * 2^depth units.
    settled = schedule.settled_attempt(levels * step_scaled * unit << depth)
    spans = [cell_span(word, depth) for word in words]
    phi = [0] * ncells
    log: list[tuple[int, int, str, Fraction, int]] = []
    # memos[w][j-1]: (attempt, tf, first hit, replica after it) of the last
    # scanned attempt at word w and level j that committed nothing.
    memos = [[(-1, -1, -1, None)] * levels for _ in words]
    attempt = changed = -1
    for start in range(top + 1):
        low = min(start, top - 1)  # the tail start reads member nmax-1
        members = range(low, top)
        # The cellwise minimum of work[low:].  A commit raises every member
        # to u, so it rises to u too.  Where u stays under it no member gains
        # anything: the attempt caps nothing and commits nothing.
        lows = [min(column) for column in zip(*work[low:])]
        for word, (base, span), memo in zip(words, spans, memos):
            end = base + span
            cyl_lows = lows[base:end]
            before = attempt  # level j is attempt before + j
            # The fast path, folded at once: see the module docstring.
            j = min(levels, min(cyl_lows) // step_scaled)
            floor = min(phi[base:end])
            if j * step_scaled > floor:
                phi[base:end] = [max(v, j * step_scaled) for v in phi[base:end]]
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
                u = [level] * span
                trims = 0
                hit, slack = _first_raise(u, work, integrals, members, base, tf)
                row = work[hit][base:end]  # unused when hit is -1: a commit follows
                if hit >= 0 and level >= max(row):
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
                    u = list(map(min, u, row))
                    trims += 1
                    # Each cap removes more than delta_t from the integral
                    # of u, which starts at level * span / unit.
                    assert attempt >= settled or schedule.allows_trims(
                        attempt, trims, level * span, unit)
                    if not any(map(operator.gt, u, cyl_lows)):
                        memo[j - 1] = (attempt, tf, first, replica)
                        break
                    hit = _first_raise(u, work, integrals, members, base, tf)[0]
                    row = work[hit][base:end]
                else:
                    # No member overflows and u rises above some member:
                    # commit.  Rows that gain nothing keep their bound: tf
                    # never decreases.
                    for s in members:
                        row = work[s]
                        old = row[base:end]
                        new = list(map(max, u, old))
                        gained = sum(new) - sum(old)
                        if gained:
                            row[base:end] = new
                            integrals[s] += gained
                            assert integrals[s] <= tf
                    cyl_lows = list(map(max, u, cyl_lows))
                    lows[base:end] = cyl_lows
                    replica = None
                    changed = attempt
                old = phi[base:end]
                if any(map(operator.gt, u, old)):
                    phi[base:end] = list(map(max, u, old))
                    log.append((attempt, start, word, Fraction(j, 1 << g), trims))
            attempt = before + levels
    phi_fn = StepFunction(depth, tuple(Fraction(v, scale) for v in phi))
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
