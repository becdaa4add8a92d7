"""Checks the tests hold the library to, kept out of the library itself.

trim_limit is the closed-form trim cap of the open-cover argument, and
trim_cover_per_word the trim run one attempt at a time, with no rule that
skips or batches attempts.
fatou_specializes is the paper's "same argument" as a test: a finite set,
a semimeasure or an open set is the indicator case of a step function, so
the step-function pipeline run on the embedded family must guarantee
everything the set, semimeasure or open pipeline guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_

from limcov import fatou, measurecover, opencover, setcover, traces
from limcov.kernel import InputError, ZERO, cell_mask, format_rational, words_up_to
from limcov.measurecover import RationalGrid
from limcov.verdict import Check, Verdict


def delta(schedule, attempt):
    """The increment of attempt t: budget * 2^-(t+1)."""
    return schedule.budget / (1 << (attempt + 1))


def trim_limit(schedule, attempt):
    """ceil(1 / delta_t): every trim of attempt t removes more than delta_t,
    so its trim counts stay strictly below this."""
    return math.ceil(1 / delta(schedule, attempt))


def trim_cover_per_word(family, eps, eps_prime):
    """The trim run as the opencover module docstring states it, on cell
    masks: at each (start, word) in heap order the candidate, the word's
    cylinder, is cut down to the first member from min(start, nmax-1) on
    that it would push past the attempt's floor, until none is, and is then
    added to every member from there on (a candidate inside all of them
    changes none, and none can overflow).  Returns the pieces as (word,
    start, attempt, trims, cell mask), the cover's cell mask and every
    attempt's trim count."""
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
