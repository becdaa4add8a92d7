"""Checks the tests hold the library to, kept out of the library itself.

trim_limit is the closed-form trim cap of the open-cover argument,
trim_cover_per_word the trim or naive run one attempt at a time, with no
rule that skips or batches attempts, and fatou_per_word the step-function
run one (start, word) at a time, with no pass that decides a length of
words at once.
fatou_specializes is the paper's "same argument" as a test: a finite set,
a semimeasure or an open set is the indicator case of a step function, so
the step-function pipeline run on the embedded family must guarantee
everything the set, semimeasure or open pipeline guarantees.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, itemgetter, or_, xor

from limcov import fatou, measurecover, opencover, setcover, traces
from limcov.kernel import InputError, ZERO, cell_mask, cell_span, format_rational, words_up_to
from limcov.measurecover import RationalGrid
from limcov.verdict import Check, Verdict


def delta(schedule, attempt):
    """The increment of attempt t: budget * 2^-(t+1)."""
    return schedule.budget / (1 << (attempt + 1))


def trim_limit(schedule, attempt):
    """ceil(1 / delta_t): every trim of attempt t removes more than delta_t,
    so its trim counts stay strictly below this."""
    return math.ceil(1 / delta(schedule, attempt))


def trim_cover_per_word(family, eps, eps_prime, trim=True):
    """The trim run as the opencover module docstring states it, on cell
    masks: at each (start, word) in heap order the candidate, the word's
    cylinder, is cut down to the first member from min(start, nmax-1) on
    that it would push past the attempt's floor, until none is, and is then
    added to every member from there on (a candidate inside all of them
    changes none, and none can overflow).  With ``trim`` false it is the
    naive run: a candidate that would push a member past the floor is
    dropped, and adds nothing.  Returns the pieces as (word, start, attempt,
    trims, cell mask), the cover's cell mask and every attempt's trim
    count."""
    depth, top = family.depth, family.nmax
    masks = traces.member_rows(family, eps=eps)
    floors, settled = opencover.DeltaSchedule(eps, eps_prime).floor_table(
        1 << depth, traces.run_size(family))
    words = words_up_to(depth)
    cylinders = [cell_mask(word, depth) for word in words]
    full = uncovered = (1 << (1 << depth)) - 1
    pieces, trims = [], []
    for start in range(top + 1):
        members = range(min(start, top - 1), top)
        outside = full ^ reduce(and_, masks[members.start:])
        for word, candidate in zip(words, cylinders):
            attempt = len(trims)
            tf = floors[attempt] if attempt < len(floors) else settled
            count = 0
            while candidate & outside and (hit := next(
                    (m for m in members if (masks[m] | candidate).bit_count() > tf), -1)) >= 0:
                if not trim:
                    candidate = 0
                    break
                candidate &= masks[hit]
                count += 1
            if candidate & outside:
                for m in members:
                    masks[m] |= candidate
                outside &= ~candidate
            if candidate & uncovered:
                pieces.append((word, start, attempt, count, candidate))
                uncovered &= ~candidate
            trims.append(count)
    return pieces, full ^ uncovered, trims


def fatou_per_word(family, eps, eps_prime, grid):
    """The step-function run as it was before the level rule: every
    (start, word) in heap order runs the per-word body (the fast path's
    fold, growing, the keys and the level loop), with no pass that decides
    a length of words at once.  The helpers are fatou's own, read through
    the module, so a test that counts fatou._first_raise counts both runs'
    scans."""
    if family.kind != "func":
        raise InputError(f"expected a func family, got {family.kind!r}")
    schedule = opencover.DeltaSchedule(eps, eps_prime)
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

    words = words_up_to(depth)
    floors, settled_tf = schedule.floor_table(unit, attempts)
    # Each cap removes at least one unit from u, whose integral starts at
    # most at levels * step * 2^depth units.
    settled = schedule.settled_attempt(levels * step_scaled * unit << depth)
    spans = [cell_span(word, depth) for word in words]
    log: list[tuple[int, int, str, Fraction, int]] = []
    full = (1 << ncells) - 1
    attempt = -1
    for start in range(top + 1):
        low = min(start, top - 1)  # the tail start reads member nmax-1
        members = range(low, top)
        # Thresholds no row holds go: event values raised only under larger
        # ones, then those only the members before low held.  The cellwise
        # minimum of work[low:] is the AND of their masks; a commit raises
        # every member to u, so it rises to u too.  Where u stays under it
        # no member gains anything: the attempt caps and commits nothing.
        fatou._merge([*work[low:], phi], tops, heights, len(tops))
        lows = [reduce(and_, layer) for layer in zip(*work[low:])]
        rows = [phi, lows, *work[low:]]
        keys = growing = None  # built when first needed, again after a change
        for word, (base, span) in zip(words, spans):
            cyl = ((1 << span) - 1) << base  # the cylinder's cells
            before = attempt  # level j is attempt before + j
            # The fast path, folded at once: see the module docstring.
            j = min(levels, fatou._least(lows, tops, cyl) // step_scaled)
            level = j * step_scaled
            k = bisect_left(tops, level)  # the lows reach level: k < len(tops)
            if j and phi[k] & cyl != cyl:
                floor = fatou._least(phi, tops, cyl)
                if tops[k] != level:
                    fatou._split(rows, tops, heights, k, level)
                phi[:k + 1] = [m | cyl for m in phi[:k + 1]]
                fatou._merge(rows, tops, heights, k)
                for i in range(floor // step_scaled + 1, j + 1):
                    log.append((before + i, start, word, Fraction(i, 1 << g), 0))
            # Levels above the highest key on the cylinder commit nothing and
            # leave phi as it is: see the module docstring.
            if growing is None:  # the cells where phi is below lows
                growing = reduce(or_, map(xor, lows, phi), 0)
            jend = levels
            if not growing & cyl:
                if keys is None:
                    keys, masks = fatou._reach(lows, tops, sorted(
                        ((settled_tf - integrals[s], work[s]) for s in members),
                        key=itemgetter(0)), full, step_scaled, levels)
                jend = keys[bisect_left(masks, True, key=lambda m: not m & cyl) - 1]
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
                hit, slack = fatou._first_raise(u, hu, total, work, integrals, members, tf)
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
                    hit = fatou._first_raise(u, hu, total, work, integrals, members, tf)[0]
                    row = work[hit]
                # An uncapped u above every threshold rises above phi.
                grows = len(u) > len(phi) or any(map(operator.ne, map(and_, u, phi), u))
                if hit >= 0 and not grows:
                    continue
                if k == above and k < len(u) and u[k]:
                    # u takes the value level, which no row holds yet.
                    fatou._split(rows, tops, heights, k, level)
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
                    growing = None
                    log.append((attempt, start, word, Fraction(j, 1 << g), trims))
                # Thresholds up to level that no row holds any more go.
                fatou._merge(rows, tops, heights, k + 1)
            attempt = before + levels
    # phi on a cell is the threshold of the last of its layers holding it.
    values = [ZERO, *(Fraction(t, scale) for t in tops)]
    bits = [format(m, f"0{ncells}b")[::-1] for m in phi]
    cells = [values[held.count("1")] for held in zip(*bits)] if bits else [ZERO] * ncells
    phi_fn = fatou.StepFunction(depth, tuple(cells))
    return fatou.FatouResult(phi_fn, attempt + 1, tuple(log))


@dataclass(frozen=True)
class SpecializeReport:
    """Per-element agreement between the step-function pipeline and the
    set, semimeasure or open pipeline on an embedded family."""

    rows: tuple[tuple[str, bool, str], ...]
    verdict: Verdict


def _embedding(elements: tuple[str, ...], depth: int | None) -> tuple[int, dict[str, str]]:
    if depth is None:
        depth = max(1, (max(len(elements) - 1, 0)).bit_length())
    if len(elements) > 1 << depth:
        raise InputError(f"{len(elements)} elements exceed the {1 << depth} cells at depth {depth}")
    return depth, {u: format(i, f"0{depth}b") for i, u in enumerate(elements)}


def fatou_specializes(
    family: traces.StabilizedFamily,
    grid: RationalGrid,
    depth: int | None = None,
) -> SpecializeReport:
    """Embed a sets, measure or open family as step functions, run the
    function pipeline, and check elementwise that it reproduces what the set
    cover, the semimeasure cover or the open trim cover guarantees.

    For a sets family each element becomes a cell and each U_n the indicator
    of its cells; the check per liminf element is that phi reaches 1 on the
    element's cell and that the set cover contains the element.  For a
    measure family the check per element is that both phi on the cell and m'
    dominate the grid floor of the element's tail value.  For an open family
    each U_n becomes its indicator at the family's own depth; the check per
    liminf cell is that phi reaches 1 there and that the trim cover contains
    the cell, and a last row, ``measure``, checks that
    the cells where phi reaches 1 have measure at most eps' = (1 + eps) / 2,
    eps the largest member measure.
    """
    if family.kind == "open":
        return _open_specializes(family, grid)
    if family.kind not in ("sets", "measure"):
        raise InputError(f"specialization takes sets, measure or open families, got {family.kind!r}")
    univ = traces.universe(family)
    depth, cell_of = _embedding(univ, depth)
    # An added element (no value) is worth 1 on its cell.
    events = tuple(
        traces.Event(e.index, cell_of[e.key], e.value or Fraction(1)) for e in family.events
    )
    embedded = traces.StabilizedFamily("func", family.nmax, depth, events)
    if family.kind == "sets":
        sets_ = traces.sets_by_index(family)
        biggest = max((len(s) for s in sets_), default=0)
        k = max(0, biggest - 1).bit_length() if biggest > 1 else 0
        eps = max(Fraction(biggest, 1 << depth), Fraction(1, 1 << (depth + 1)))
        cover = setcover.run_set_cover(family, k)
        outcome = fatou.run_fatou(embedded, eps, 2 * eps, grid)
        rows = []
        for u in sorted(traces.liminf_sets(family)):
            got = outcome.phi.value(cell_of[u])
            ok = got >= 1 and u in cover.cover
            rows.append((u, ok, f"phi={format_rational(got)} covered={u in cover.cover}"))
    else:
        integrals = [
            sum(t.values(), ZERO) / (1 << depth) for t in traces.values_by_index(family)
        ]
        eps = max(max(integrals, default=ZERO), Fraction(1, 1 << (depth + 1)))
        table = measurecover.run_measure_cover(family, grid)
        outcome = fatou.run_fatou(embedded, eps, 2 * eps, grid)
        limits = traces.liminf_table(family, univ)
        rows = []
        for u in univ:
            need = grid.floor(limits[u])
            got = outcome.phi.value(cell_of[u])
            ok = got >= need and table.table.get(u, ZERO) >= need
            rows.append(
                (
                    u,
                    ok,
                    f"phi={format_rational(got)} m'={format_rational(table.table.get(u, ZERO))} "
                    f"floor={format_rational(need)}",
                )
            )
    return _report(rows)


def _open_specializes(family: traces.StabilizedFamily, grid: RationalGrid) -> SpecializeReport:
    depth = family.depth
    measures = [u.measure() for u in traces.opens_by_index(family)]
    if any(mu == 1 for mu in measures):
        raise InputError(f"member {measures.index(1)} is the whole space: no eps' above its measure")
    eps = max([*measures, Fraction(1, 1 << (depth + 1))])
    eps_prime = (1 + eps) / 2
    # Each add of a word w to U_n becomes the raise of w to 1 in f_n.
    events = tuple(traces.Event(e.index, e.key, Fraction(1)) for e in family.events)
    embedded = traces.StabilizedFamily("func", family.nmax, depth, events)
    outcome = fatou.run_fatou(embedded, eps, eps_prime, grid)
    cover = opencover.run_trim_cover(family, eps, eps_prime).cover.cells(depth)
    rows = []
    for cell in sorted(traces.liminf_open(family).cells(depth)):
        got = outcome.phi.value(cell)
        ok = got >= 1 and cell in cover
        rows.append((cell, ok, f"phi={format_rational(got)} covered={cell in cover}"))
    reached = Fraction(sum(v >= 1 for v in outcome.phi.cells), 1 << depth)
    rows.append(("measure", reached <= eps_prime,
                 f"phi>=1 on {format_rational(reached)} eps'={format_rational(eps_prime)}"))
    return _report(rows)


def _report(rows: list[tuple[str, bool, str]]) -> SpecializeReport:
    failed = [u for u, ok, _ in rows if not ok]
    verdict = Verdict((Check("specialization", not failed, failed[0] if failed else ""),))
    return SpecializeReport(tuple(rows), verdict)
