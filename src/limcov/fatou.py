"""Dominating the liminf of step functions with a controlled integral.

This generalizes the open-set covering: an open set is the special case of
an indicator function.  Attempts run over triples (start index m, cylinder
word U, level r); each attempt raises the global threshold by its delta and
proposes the auxiliary function u = r on the cylinder of U, 0 elsewhere.
While some first s >= m would see its integral pushed above the threshold by
the raise f_s := max(f_s, u), the candidate is capped: u := min(u, f_s).
Each cap removes more than the attempt's delta from the integral of u (the
overhang past the previous threshold), so capping terminates; afterwards
f_s := max(f_s, u) is committed for every s >= m and u is folded into the
running output phi := max(phi, u).

phi never exceeds the final working tail function, so its integral stays
below eps'; and on any cell whose liminf value reaches a level r, the
attempt at that cell with that r from a late enough start index commits
unchanged, so phi dominates the grid floor of every cell's liminf value.

Candidate levels are the positive multiples of the grid step 2^-g; they
extend past 1 when the family's values do, so the domination guarantee
holds for arbitrary non-negative step functions (for families bounded by 1
the levels are exactly the grid).

Internally one run rescales all values to a common integer denominator, so
the inner comparisons are integer sums against floor(theta_t * 2^D * scale),
taken from the integer closed form of opencover.DeltaSchedule; this is
exact.  Where the candidate stays under every member from the start index
on, the attempt caps and commits nothing and skips the member scan.
StepFunction itself stays in Fractions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import measurecover, setcover, traces
from .kernel import (
    CylinderSet,
    InputError,
    ZERO,
    cell_span,
    format_rational,
    word_to_text,
    words_up_to,
)
from .measurecover import RationalGrid
from .opencover import DeltaSchedule
from .verdict import Check, Verdict

__all__ = [
    "FatouResult",
    "SpecializeReport",
    "StepFunction",
    "fatou_specializes",
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

    @classmethod
    def zero(cls, depth: int) -> "StepFunction":
        return cls(depth, (ZERO,) * (1 << depth))

    @classmethod
    def indicator(cls, word: str, depth: int, level: Fraction = Fraction(1)) -> "StepFunction":
        base, span = cell_span(word, depth)
        cells = [ZERO] * (1 << depth)
        for i in range(base, base + span):
            cells[i] = level
        return cls(depth, tuple(cells))

    @classmethod
    def from_table(cls, table: Mapping[str, Fraction], depth: int) -> "StepFunction":
        """Pointwise maximum of level-on-cylinder entries (word -> level)."""
        cells = [ZERO] * (1 << depth)
        for word, level in table.items():
            base, span = cell_span(word, depth)
            for i in range(base, base + span):
                if cells[i] < level:
                    cells[i] = level
        return cls(depth, tuple(cells))

    def value(self, cell: str) -> Fraction:
        if len(cell) != self.depth:
            raise InputError(f"cells have length {self.depth}, got {cell!r}")
        return self.cells[int(cell, 2)]

    def integral(self) -> Fraction:
        return sum(self.cells, ZERO) * Fraction(1, 1 << self.depth)

    def pointwise_max(self, other: "StepFunction") -> "StepFunction":
        self._same_depth(other)
        return StepFunction(self.depth, tuple(map(max, self.cells, other.cells)))

    def pointwise_min(self, other: "StepFunction") -> "StepFunction":
        self._same_depth(other)
        return StepFunction(self.depth, tuple(map(min, self.cells, other.cells)))

    def _same_depth(self, other: "StepFunction") -> None:
        if self.depth != other.depth:
            raise InputError(f"depth mismatch: {self.depth} vs {other.depth}")


@dataclass(frozen=True)
class FatouResult:
    phi: StepFunction
    theta: Fraction
    log: tuple[tuple[int, int, str, Fraction, int], ...]
    """(attempt, start, word, level, trims) for attempts that grew phi."""
    grid: RationalGrid


def _family_step_tables(family: traces.StabilizedFamily) -> list[list[Fraction]]:
    assert family.depth is not None
    depth = family.depth
    out = []
    for table in traces.values_by_index(family):
        fn = StepFunction.from_table(table, depth)
        out.append(list(fn.cells))
    return out


def _above(u: list[int], lows: list[int], base: int) -> bool:
    """True when u exceeds lows somewhere on the cells from base on."""
    return any(map(operator.gt, u, lows[base:base + len(u)]))


def _first_raise(
    u: list[int],
    work: list[list[int]],
    integrals: list[int],
    members: range,
    base: int,
    tf: int,
) -> int:
    """First s in members whose integral max(f_s, u) exceeds tf, else -1."""
    for s in members:
        row = work[s][base:base + len(u)]
        if integrals[s] + sum(map(max, u, row)) - sum(row) > tf:
            return s
    return -1


def run_fatou(
    family: traces.StabilizedFamily,
    eps: Fraction,
    eps_prime: Fraction,
    grid: RationalGrid,
) -> FatouResult:
    if family.kind != "func":
        raise InputError(f"expected a func family, got {family.kind!r}")
    if not 0 < eps < eps_prime:
        raise InputError(
            f"need 0 < eps < eps', got eps={format_rational(eps)}, "
            f"eps'={format_rational(eps_prime)}"
        )
    depth = family.depth
    assert depth is not None
    ncells = 1 << depth
    tables = _family_step_tables(family)
    for n, cells in enumerate(tables):
        integral = sum(cells, ZERO) / ncells
        if integral > eps:
            raise InputError(
                f"f_{n} has integral {format_rational(integral)}, "
                f"above eps={format_rational(eps)}"
            )

    # Rescale everything to a common integer denominator.
    scale = grid.common_scale(v for cells in tables for v in cells)
    work = [[int(v * scale) for v in cells] for cells in tables]
    work.append(list(work[-1]))  # index nmax: the shared tail
    integrals = [sum(cells) for cells in work]
    top = family.nmax + 1

    # Candidate levels: positive grid multiples up to the largest value seen.
    g = grid.resolution
    max_scaled = max((max(cells, default=0) for cells in work), default=0)
    levels = max(1 << g, -((-max_scaled << g) // scale))
    step_scaled = scale >> g

    schedule = DeltaSchedule(eps_prime - eps, eps)
    floors = schedule.theta_floors(scale << depth)
    budget_num = schedule.budget.numerator
    budget_den = schedule.budget.denominator
    words = words_up_to(depth)
    phi = [0] * ncells
    log: list[tuple[int, int, str, Fraction, int]] = []
    attempt = -1
    for start in range(top):
        members = range(start, top)
        # The cellwise minimum of work[start:].  A commit raises every member
        # to u, so it rises to u too.  Where u stays under it no member gains
        # anything: the attempt caps nothing and commits nothing.
        lows = [min(column) for column in zip(*work[start:])]
        for word in words:
            base, span = cell_span(word, depth)
            cells = range(base, base + span)
            for j in range(1, levels + 1):
                attempt += 1
                tf = next(floors)
                level = j * step_scaled
                u = [level] * span
                trims = 0
                if _above(u, lows, base):
                    hit = _first_raise(u, work, integrals, members, base, tf)
                    while hit >= 0:
                        row = work[hit]
                        for offset, c in enumerate(cells):
                            if u[offset] > row[c]:
                                u[offset] = row[c]
                        trims += 1
                        # Each cap removes more than delta_t from the integral
                        # of u, so the count stays below integral(u)/delta_t.
                        removed = trims * budget_num * (scale << depth)
                        assert removed.bit_length() <= attempt + 1 or removed < (
                            level * span * budget_den << (attempt + 1)
                        )
                        hit = (
                            _first_raise(u, work, integrals, members, base, tf)
                            if _above(u, lows, base)
                            else -1
                        )
                    if _above(u, lows, base):
                        # Rows that gain nothing keep their bound: tf never
                        # decreases.
                        for s in members:
                            row = work[s]
                            gained = 0
                            for offset, c in enumerate(cells):
                                gap = u[offset] - row[c]
                                if gap > 0:
                                    row[c] += gap
                                    gained += gap
                            if gained:
                                integrals[s] += gained
                                assert integrals[s] <= tf
                        for offset, c in enumerate(cells):
                            if u[offset] > lows[c]:
                                lows[c] = u[offset]
                changed = False
                for offset, c in enumerate(cells):
                    if u[offset] > phi[c]:
                        phi[c] = u[offset]
                        changed = True
                if changed:
                    log.append((attempt, start, word, Fraction(j, 1 << g), trims))
    phi_fn = StepFunction(depth, tuple(Fraction(v, scale) for v in phi))
    return FatouResult(phi_fn, schedule.theta_after(attempt + 1), tuple(log), grid)


def verify_fatou(
    family: traces.StabilizedFamily,
    eps: Fraction,
    eps_prime: Fraction,
    grid: RationalGrid,
    result: FatouResult,
) -> Verdict:
    """Check the integral bound and cellwise domination via the oracle."""
    assert family.depth is not None
    integral = result.phi.integral()
    checks = [
        Check(
            "integral-bound",
            integral <= eps_prime,
            "" if integral <= eps_prime else format_rational(integral),
        ),
        Check(
            "threshold-bound",
            result.theta <= eps_prime,
            "" if result.theta <= eps_prime else format_rational(result.theta),
        ),
    ]
    limits = traces.liminf_table(family, sorted(CylinderSet.full().cells(family.depth)))
    witness = ""
    for cell, limit in limits.items():
        need = grid.floor(limit)
        if result.phi.value(cell) < need:
            witness = f"{cell} below {format_rational(need)}"
            break
    checks.append(Check("cell-domination", not witness, witness))
    return Verdict(tuple(checks))


@dataclass(frozen=True)
class SpecializeReport:
    """Per-element agreement between the step-function pipeline and the
    set/semimeasure pipelines on an embedded family."""

    kind: str
    depth: int
    cell_of: dict[str, str]
    rows: tuple[tuple[str, bool, str], ...]
    verdict: Verdict


def _embedding(elements: Iterable[str], depth: int | None) -> tuple[int, dict[str, str]]:
    elements = list(elements)
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
    """Embed a sets or measure family as step functions, run the function
    pipeline, and check elementwise that it reproduces what the set cover or
    the semimeasure cover guarantees.

    For a sets family each element becomes a cell and each U_n the indicator
    of its cells; the check per liminf element is that phi reaches 1 on the
    element's cell and that the set cover contains the element.  For a
    measure family the check per element is that both phi on the cell and m'
    dominate the grid floor of the element's tail value.
    """
    if family.kind == "sets":
        sets_ = traces.sets_by_index(family)
        univ = traces.universe(family)
        depth, cell_of = _embedding(univ, depth)
        events = tuple(
            traces.Event(e.index, cell_of[e.key], Fraction(1)) for e in family.events
        )
        embedded = traces.StabilizedFamily("func", family.nmax, depth, events)
        biggest = max((len(s) for s in sets_), default=0)
        k = max(0, biggest - 1).bit_length() if biggest > 1 else 0
        eps = max(Fraction(biggest, 1 << depth), Fraction(1, 1 << (depth + 1)))
        cover = setcover.run_set_cover(family, k)
        outcome = run_fatou(embedded, eps, 2 * eps, grid)
        rows = []
        for u in sorted(traces.liminf_sets(family)):
            got = outcome.phi.value(cell_of[u])
            ok = got >= 1 and u in cover.cover
            rows.append((u, ok, f"phi={format_rational(got)} covered={u in cover.cover}"))
    elif family.kind == "measure":
        univ = traces.universe(family)
        depth, cell_of = _embedding(univ, depth)
        events = tuple(
            traces.Event(e.index, cell_of[e.key], e.value) for e in family.events
        )
        embedded = traces.StabilizedFamily("func", family.nmax, depth, events)
        integrals = [
            sum(t.values(), ZERO) / (1 << depth) for t in traces.values_by_index(family)
        ]
        eps = max(max(integrals, default=ZERO), Fraction(1, 1 << (depth + 1)))
        table = measurecover.run_measure_cover(family, grid)
        outcome = run_fatou(embedded, eps, 2 * eps, grid)
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
    else:
        raise InputError(f"specialization takes sets or measure families, got {family.kind!r}")

    failed = [u for u, ok, _ in rows if not ok]
    verdict = Verdict(
        (Check("specialization", not failed, failed[0] if failed else ""),)
    )
    return SpecializeReport(family.kind, depth, cell_of, tuple(rows), verdict)
