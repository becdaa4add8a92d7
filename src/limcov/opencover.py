"""Covering the liminf of open sets of small measure, three ways.

All three modes take a stabilized open family with every member of measure
at most eps and produce an open cover V of the liminf with measure at most
eps' > eps, verified exactly.

``trim`` mode: attempts run over pairs (cylinder word x, start index i).
Each attempt raises a global threshold (initially eps) by the attempt's
delta; the candidate set starts as the cylinder of x and, while some first
m >= i would be pushed above the threshold by adding it, is replaced by its
intersection with that U_m.  Every such trim removes measure strictly above
the attempt's delta (the overhang past the previous threshold), so trimming
terminates in fewer than 1/delta steps; the surviving candidate is added to
every U_n with n >= i.  A point lying in all U_n from some index on is never
trimmed away, so the union of added sets covers the liminf.

``naive`` mode: same attempt loop, but an attempt whose addition would cross
the threshold is skipped outright.  In general this only covers the union of
the interiors of the suffix intersections, but stabilized families are
clopen at desk scale, so here it covers the liminf exactly as well.

``blocks`` mode: non-adaptive.  With thresholds eps_j = eps +
(eps'-eps)(1 - 2^-j), pick the smallest k_1 such that the intersection
U_0..U_{k_1} joined with any single later U_i stays within eps_1, then the
smallest k_2 > k_1 for the two-block union against eps_2, and so on; the
union of the block intersections plus the tail intersection covers the
liminf within eps'.

Internally the working sets live as bit masks over the 2^depth cells of the
family's depth, built by traces.member_rows, which checks the members'
measures on them; measure comparisons are integer popcounts (one cached per
member).  Every index n >= nmax is member nmax-1 (the tail rule), so a run
keeps one mask per member and the tail start reads member nmax-1.  Cell
counts are compared with floor(theta_t * 2^depth), which is exact;
DeltaSchedule.floor_table computes it in integers from the closed form
theta_t = eps' - (eps'-eps) * 2^-(t+1): a list of the floors up to a number
of attempts logarithmic in 2^depth and the denominators, and never past the
run's own attempts, then one settled floor.  Runs look it up by attempt
number, no threshold is accumulated, and a result records its attempt count
T, not the threshold theta_after(T).  An attempt whose candidate lies inside
every member from its start index on is skipped without a scan: it can trim
nothing and change no mask.

The level rule.  From attempt max(len(floors),
settled_attempt(2^depth)) on, tf is the settled floor and no trim count is
checked, so a run decides the words of one (start, level) together: they
are disjoint blocks of 2^k cells, and a spread mask holds one bit at the
first cell of each.  Word x overflows member m when more than room =
tf - |U_m| of its cells lie outside U_m.  A block popcount of the cells
outside U_m (SWAR, one field per word), plus 2^k - 1 - room in every field,
carries into bit k of just the fields that overflow; when room >= 2^k no
word can, and the pass skips m.  The masks are cached per member until a
commit grows it.  One pass over the members from min(start, nmax-1) on,
hit = pending & over(m) and pending ^= hit, gives every word with a cell
outside its first overflowing member, the one its scan trims it by first.
A naive run drops such a word where trim cuts it: it commits nothing and
adds no piece.  A word hit at m whose trimmed candidate x & U_m has no cell
outside lies in every member from the start on, so its scan ends there with
one trim and commits nothing; a word with no cell outside keeps its cylinder.
Every other word, trimmed and still outside or overflowing nothing (a
commit), runs the per-word scan in heap order, and so does every attempt
before that first one.  This is exact: an attempt that commits nothing
changes no mask, so each word of the level up to the next commit meets the
masks the pass read, and a commit makes the pass decide the rest of the
level again.  Pieces change only the cover, and words of one level are
disjoint, so the level's pieces, each a word's final candidate where it is
new to the cover, are taken at its end in heap order.

Each trim removes at least one cell, so from
DeltaSchedule.settled_attempt(2^depth) on no trim count can break the cap
and the run stops checking it.  Pieces and the cover are built once each by
CylinderSet.from_mask, canonical by construction; the verifier works purely
on those plus the liminf oracle.

Runs are single-threaded and deterministic; results are immutable.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import and_
from typing import Sequence

from . import traces
from .kernel import (
    CylinderSet,
    InputError,
    RealInterval,
    WordBlocks,
    format_rational,
    spread_indices,
    word_to_text,
)
from .verdict import Check, Verdict

__all__ = [
    "DeltaSchedule",
    "OmegaFamilyResult",
    "OpenCoverResult",
    "Piece",
    "omega_family",
    "run_block_cover",
    "run_naive_cover",
    "run_trim_cover",
    "verify_omega_family",
    "verify_open_cover",
]


@dataclass(frozen=True)
class DeltaSchedule:
    """Per-attempt threshold increments delta_t = budget * 2^-(t+1) above eps,
    with budget = eps' - eps.

    Attempt t runs at theta_t = eps + delta_0 + ... + delta_t, which in closed
    form is eps' - budget * 2^-(t+1).  All increments are positive and their
    total stays strictly below the budget, so the threshold never reaches
    eps'.  A run of T attempts ends at theta_after(T): the pair and T fix
    it, so results record T and never the threshold itself.
    """

    eps: Fraction
    eps_prime: Fraction

    def __post_init__(self):
        if not 0 < self.eps < self.eps_prime:
            raise InputError(
                f"need 0 < eps < eps', got eps={format_rational(self.eps)}, "
                f"eps'={format_rational(self.eps_prime)}"
            )

    @cached_property
    def budget(self) -> Fraction:
        return self.eps_prime - self.eps

    def allows_trims(self, attempt: int, trims: int, mass_num: int = 1, mass_den: int = 1) -> bool:
        """Each trim (cap) removes more than delta_t from a candidate of mass
        mass_num / mass_den > 0, so trims * num * mass_den < mass_num * den *
        2^(attempt+1).  When the left side has at most attempt+1 bits this
        holds for any mass_num, den >= 1, so the 2^attempt-sized numbers are
        only built early on.
        """
        removed = trims * self.budget.numerator * mass_den
        if removed.bit_length() <= attempt + 1:
            return True
        return removed < (mass_num * self.budget.denominator << (attempt + 1))

    def settled_attempt(self, most: int) -> int:
        """The attempt from which allows_trims(t, n) holds for every
        n <= ``most`` by its bit-length test alone: most * num has at most
        t+1 bits from there on, and n * num no more."""
        return (most * self.budget.numerator).bit_length() - 1

    def theta_after(self, attempts: int) -> Fraction:
        """The threshold once ``attempts`` increments have been added."""
        return self.eps_prime - self.budget / (1 << attempts)

    def threshold_text(self, attempts: int) -> str:
        """theta_after(attempts) as ``eps'-budget*2^-T``: exact in O(log T)
        characters, where the digits of the threshold itself grow with T past
        what str() of an int may render."""
        return (
            f"{format_rational(self.eps_prime)}-{format_rational(self.budget)}"
            f"*2^-{attempts}"
        )

    def threshold_check(self, attempts: int, claimed: int) -> Check:
        """threshold-bound: a run of ``attempts`` attempts ends at
        theta_after(attempts), within eps'; the witness is the threshold the
        run's ``claimed`` attempt count names."""
        ok = claimed == attempts
        return Check("threshold-bound", ok, "" if ok else self.threshold_text(claimed))

    def floor_table(self, scale: int, attempts: int) -> tuple[list[int], int]:
        """floor(theta_t * scale) in integer arithmetic for a run of
        ``attempts`` attempts, as the floors before they settle (no more
        than ``attempts``) and the settled floor: attempt t runs under
        floors[t] while t < len(floors), and under the settled floor from
        there on.

        theta_t * scale = top - y_t with top = eps' * scale and
        y_t = budget * scale * 2^-(t+1) falling to 0, so the floor settles at
        ceil(top) - 1 as soon as y_t <= top - (ceil(top) - 1); every floor
        before that lies below it.
        """
        top = self.eps_prime * scale
        settled = -(-top.numerator // top.denominator) - 1
        gap = top - settled  # in (0, 1]
        p, q = top.numerator, top.denominator
        a, b = self.budget.numerator * scale, self.budget.denominator
        pb, aq, qb = p * b, a * q, q * b
        over, under = a * gap.denominator, gap.numerator * b
        floors = []
        shift = 1
        while shift <= attempts and over > under << shift:
            # (p*b*2^shift - a*q) / (q*b*2^shift) = top - y_t, t = shift - 1
            floors.append(((pb << shift) - aq) // (qb << shift))
            shift += 1
        return floors, settled


@dataclass(frozen=True)
class Piece:
    """One contribution to the cover.

    For trim/naive mode: the candidate cylinder word, its start index, the
    global attempt number, the trim count, and the final added set.  For
    blocks mode: ``word`` is None, ``start``/``stop`` delimit the block
    intersection (``stop`` None for the tail block), and ``attempt`` is -1.
    """

    word: str | None
    start: int
    stop: int | None
    attempt: int
    trims: int
    added: CylinderSet


@dataclass(frozen=True)
class OpenCoverResult:
    mode: str
    cover: CylinderSet
    pieces: tuple[Piece, ...]
    attempts: int
    trims: Sequence[int]  # trims[t]: attempt t's trim count; empty for naive and blocks

    @property
    def trim_events(self) -> tuple[tuple[int, int], ...]:
        return tuple((t, count) for t, count in enumerate(self.trims) if count)


def _member_masks(
    family: traces.StabilizedFamily, eps: Fraction, eps_prime: Fraction
) -> list[int]:
    """The members' cell masks, once the preconditions hold."""
    if family.kind != "open":
        raise InputError(f"expected an open family, got {family.kind!r}")
    if not 0 < eps < eps_prime <= 1:
        raise InputError(
            f"need 0 < eps < eps' <= 1, got eps={format_rational(eps)}, "
            f"eps'={format_rational(eps_prime)}"
        )
    return traces.member_rows(family, eps=eps)


def _first_overflow(
    candidate: int, masks: list[int], counts: list[int], members: range, tf: int
) -> int:
    """First m in ``members`` with |masks[m] | candidate| > tf, else -1."""
    # |masks[m] | candidate| = counts[m] + |candidate| - |candidate & masks[m]|
    slack = tf - candidate.bit_count()
    for m in members:
        if counts[m] - (candidate & masks[m]).bit_count() > slack:
            return m
    return -1


def run_trim_cover(
    family: traces.StabilizedFamily, eps: Fraction, eps_prime: Fraction
) -> OpenCoverResult:
    """Trimming mode; covers the liminf within measure eps'."""
    return _open_run(family, eps, eps_prime, True)


def run_naive_cover(
    family: traces.StabilizedFamily, eps: Fraction, eps_prime: Fraction
) -> OpenCoverResult:
    """No-trimming mode: violating attempts are skipped.  Covers the union
    of interiors of suffix intersections, which equals the liminf here."""
    return _open_run(family, eps, eps_prime, False)


def _open_run(
    family: traces.StabilizedFamily, eps: Fraction, eps_prime: Fraction, trim: bool
) -> OpenCoverResult:
    """The trim run, or with ``trim`` false the naive run: one attempt loop
    that cuts an overflowing candidate down, or drops it."""
    masks = _member_masks(family, eps, eps_prime)
    counts = [m.bit_count() for m in masks]
    depth, top, cells = family.depth, family.nmax, 1 << family.depth
    width = 2 * cells - 1  # words a start, in heap order: word w is int("1" + w, 2) - 1
    full = uncovered = (1 << cells) - 1
    schedule = DeltaSchedule(eps, eps_prime)
    attempts = traces.run_size(family)
    floors, settled_tf = schedule.floor_table(cells, attempts)
    # Every trim removes at least one of the 2^depth cells.
    settled = schedule.settled_attempt(cells)
    # From this attempt on tf is settled_tf and no count is checked: the level rule.
    level_from = max(len(floors), settled)
    blocks = WordBlocks(depth)
    bases, touched = blocks.bases, blocks.touched
    # halves[k]: the low half of each span-2^k field.
    halves = [(b << (1 << k >> 1)) - b for k, b in enumerate(bases)]

    def overflows(m: int) -> list[int]:
        # over[k]: the span-2^k words with more than room = tf - counts[m]
        # cells outside masks[m], by a block popcount plus 2^k - 1 - room per
        # field; read only where room < 2^k, so the sum stays in its field.
        room, count = settled_tf - counts[m], full ^ masks[m]
        over = [count]
        for k in range(1, depth + 1):
            count = (count & halves[k]) + (count >> (1 << k >> 1) & halves[k])
            over.append(count + ((1 << k) - 1 - room) * bases[k] >> k & bases[k])
        return over

    pieces: list[Piece] = []
    # trims[t]: attempt t's count, kept in trim mode only (naive counts stay 0).
    # "H" holds it: no count passes run_size's 2^depth <= 2^15 cells.
    trims = array("H", [0]) * (attempts if trim else 0)
    ones_at = memoryview(trims).cast("B")[sys.byteorder == "big"::2]  # each count's low byte
    digits = bytes.maketrans(b"01", b"\0\1")
    over: list = [None] * top  # overflows(m), until a commit grows masks[m]
    for start in range(top + 1):
        low = min(start, top - 1)  # the tail start reads member nmax-1
        # The cells outside the AND of masks[low:]; a commit adds the
        # candidate to every member from low on, so it joins that AND too.
        outside = full ^ reduce(and_, masks[low:], full)
        for level in range(depth + 1):
            k, n = depth - level, 1 << level
            span, row = 1 << k, start * width + n - 1  # row: its first attempt
            finals = written = pos = 0  # finals: the final candidates decided so far
            while pos < n:
                if row + pos < level_from:
                    slow, fin = range(pos, stop := min(n, level_from - row)), 0
                else:
                    # The level rule: see the module docstring.
                    region = full >> (pos << k) << (pos << k)
                    pending = touched(outside & region, k)
                    inside = bases[k] & region ^ pending
                    fin, ones, ragged = (inside << span) - inside, 0, 0
                    for m in range(low, top):
                        if not pending:
                            break
                        if settled_tf - counts[m] < span:
                            if over[m] is None:
                                over[m] = overflows(m)
                            if hit := pending & over[m][k]:
                                pending ^= hit  # naive drops the words trim cuts
                                if trim:
                                    one = hit & ~touched(masks[m] & outside, k)
                                    ones, ragged = ones | one, ragged | hit ^ one
                                    fin |= (one << span) - one & masks[m]
                    if trim and (ones or written):  # the record is kept in trim mode only
                        bits = bin(ones | 1 << cells)[-1 - (pos << k):-1 - cells:-span]
                        ones_at[row + pos:row + n] = bits.encode().translate(digits)
                        written = ones
                    slow, stop = spread_indices(ragged | pending, k) if ragged | pending else (), n
                for i in slow:
                    attempt = row + i
                    candidate = (1 << span) - 1 << (i << k)
                    if candidate & outside:
                        tf = floors[attempt] if attempt < len(floors) else settled_tf
                        hit = _first_overflow(candidate, masks, counts, range(low, top), tf)
                        if hit >= 0 and not trim:
                            continue
                        count = 0
                        while hit >= 0:
                            candidate &= masks[hit]
                            count += 1
                            assert attempt >= settled or schedule.allows_trims(attempt, count)
                            if not candidate & outside:
                                break  # it fits every member; else those up to hit still fit
                            hit = _first_overflow(candidate, masks, counts, range(hit + 1, top), tf)
                        if trim:
                            trims[attempt] = count
                    finals |= candidate
                    if candidate & outside:  # commit: add it to every member from low on
                        for m in range(low, top):
                            masks[m] |= candidate
                            counts[m] = masks[m].bit_count()
                            assert counts[m] <= tf
                        outside &= ~candidate
                        over[low:] = [None] * (top - low)
                        stop = i + 1  # the rest of the level is decided again
                        break
                finals |= fin & (1 << (stop << k)) - 1
                pos = stop
            if new := finals & uncovered:
                for i in spread_indices(touched(new, k), k):
                    added = CylinderSet.from_mask(finals & (1 << span) - 1 << (i << k), depth)
                    word = f"{(1 << level) + i:b}"[1:]
                    count = trims[row + i] if trim else 0
                    pieces.append(Piece(word, start, None, row + i, count, added))
                uncovered ^= new
    cover = CylinderSet.from_mask(full ^ uncovered, depth)
    record = memoryview(trims).toreadonly() if trim else ()
    return OpenCoverResult("trim" if trim else "naive", cover, tuple(pieces), attempts, record)


def run_block_cover(
    family: traces.StabilizedFamily, eps: Fraction, eps_prime: Fraction
) -> OpenCoverResult:
    """Block-union mode over the original (unmodified) family."""
    masks = _member_masks(family, eps, eps_prime)
    depth = family.depth
    assert depth is not None
    top = family.nmax
    # Block j is held to eps_j = theta_after(j), the threshold of attempt j-1;
    # each block holds a member, so there are at most nmax.
    floors, settled = DeltaSchedule(eps, eps_prime).floor_table(1 << depth, top)

    tail = masks[-1]
    pieces: list[Piece] = []
    union_mask = 0
    start = 0
    block_index = 0
    while True:
        tf = floors[block_index] if block_index < len(floors) else settled
        block_index += 1
        inter = ~0
        # stop = nmax-1 has no later member to compare with, so it qualifies.
        for stop in range(start, top):
            inter &= masks[stop]
            joined = union_mask | inter
            if all((joined | masks[i]).bit_count() <= tf for i in range(stop + 1, top)):
                break
        inter_mask = inter & ((1 << (1 << depth)) - 1)
        pieces.append(Piece(None, start, stop, -1, 0, CylinderSet.from_mask(inter_mask, depth)))
        union_mask |= inter_mask
        if stop == top - 1:
            break
        start = stop + 1

    pieces.append(Piece(None, top, None, -1, 0, CylinderSet.from_mask(tail, depth)))
    union_mask |= tail
    assert union_mask.bit_count() <= tf
    return OpenCoverResult(
        "blocks",
        CylinderSet.from_mask(union_mask, depth),
        tuple(pieces),
        block_index,
        (),
    )


def verify_open_cover(
    family: traces.StabilizedFamily,
    eps: Fraction,
    eps_prime: Fraction,
    result: OpenCoverResult,
) -> Verdict:
    """Re-check the cover from its pieces against the liminf oracle.

    Works entirely on canonical CylinderSets and exact Fractions; shares no
    working-set machinery with the construction runs.  The attempt count is
    re-derived from the input: trim and naive runs make one attempt per
    (start, word), (nmax+1) * (2^(depth+1)-1) in all, and a blocks run takes
    one increment per block piece, every piece but the tail.  trim-bound
    reads the run's own trims, up to the settled attempt of their largest.
    """
    union = CylinderSet(w for piece in result.pieces for w in piece.added.words)
    consistent = union == result.cover
    checks = [
        Check(
            "piece-consistency",
            consistent,
            "" if consistent else "cover disagrees with the union of pieces",
        )
    ]

    mu = union.measure()
    checks.append(
        Check("measure-bound", mu <= eps_prime, "" if mu <= eps_prime else format_rational(mu))
    )
    assert family.depth is not None
    schedule = DeltaSchedule(eps, eps_prime)
    if result.mode == "blocks":
        attempts = len(result.pieces) - 1
    else:
        attempts = (family.nmax + 1) * ((2 << family.depth) - 1)
    checks.append(schedule.threshold_check(attempts, result.attempts))

    limit = traces.liminf_open(family)
    covered = limit.subset(union)
    missing = "" if covered else word_to_text(
        min(w for w in limit.words if not CylinderSet([w]).subset(union))
    )
    checks.append(Check("coverage", covered, missing))

    trim_witness = ""
    settled = schedule.settled_attempt(max(result.trims, default=0))
    for attempt, count in enumerate(result.trims[:max(settled, 0)]):
        if not schedule.allows_trims(attempt, count):
            trim_witness = f"attempt {attempt}: {count} trims"
            break
    checks.append(Check("trim-bound", not trim_witness, trim_witness))
    return Verdict(tuple(checks))


@dataclass(frozen=True)
class OmegaFamilyResult:
    """The interval family built from an eventually periodic rational
    sequence, materialized for two full periods past the prefix; members
    beyond that repeat with the cycle."""

    intervals: tuple[RealInterval, ...]
    w_min: Fraction


def omega_family(
    prefix: Sequence[Fraction], cycle: Sequence[Fraction], eps: Fraction
) -> OmegaFamilyResult:
    """Intervals U_i = (inf_{j>=i} w_j - eps/3, w_i + eps/3) for the sequence
    w that runs through ``prefix`` and then repeats ``cycle`` forever.

    Past the prefix the infimum is always the cycle minimum w_min, so the
    tail intervals repeat with the cycle.
    """
    if not cycle:
        raise InputError("cycle must be nonempty")
    if eps <= 0:
        raise InputError("eps must be positive")
    w_min = min(cycle)
    third = eps / 3
    # The cycle repeats forever, so the infimum from i on is the least of
    # the prefix's rest and w_min: suffix minima in one backward pass.
    infima = [*accumulate(reversed(prefix), min, initial=w_min)][::-1]
    infima += [w_min] * (2 * len(cycle) - 1)
    intervals = tuple(
        RealInterval(low - third, w_i + third)
        for low, w_i in zip(infima, [*prefix, *cycle, *cycle])
    )
    return OmegaFamilyResult(intervals, w_min)


def verify_omega_family(
    prefix: Sequence[Fraction],
    cycle: Sequence[Fraction],
    eps: Fraction,
    result: OmegaFamilyResult,
) -> Verdict:
    """Check the intervals against the sequence itself.

    Each prefix interval must be U_i = (min(prefix[i:] + [w_min]) - eps/3,
    prefix[i] + eps/3).  The cycle minimum w_min, recomputed from ``cycle``,
    must be the result's and lie in every tail interval; tail intervals at
    cycle-minimum positions have measure exactly 2*eps/3 (in particular,
    below eps infinitely often), and every other tail interval has measure
    w_i - w_min + 2*eps/3.  Each failing check names the first index that
    breaks it.
    """
    w_min = min(cycle)
    third = eps / 3
    lows = [w_min] * (len(prefix) + 1)  # lows[i] = min(prefix[i:] + [w_min])
    for i in reversed(range(len(prefix))):
        lows[i] = min(prefix[i], lows[i + 1])
    head = ""
    for i, w_i in enumerate(prefix):
        expected = RealInterval(lows[i] - third, w_i + third)
        if result.intervals[i:i + 1] != (expected,):
            head = f"i={i}"
            break
    member = "" if result.w_min == w_min else f"w_min={format_rational(result.w_min)}"
    small = shape = ""
    for i, interval in enumerate(result.intervals[len(prefix):], start=len(prefix)):
        w_i = cycle[(i - len(prefix)) % len(cycle)]
        if not member and not interval.contains(w_min):
            member = f"i={i}"
        if not shape and interval.measure() != w_i - w_min + 2 * third:
            shape = f"i={i}"
        if not small and w_i == w_min and interval.measure() != 2 * third:
            small = f"i={i}"
    return Verdict(
        (
            Check("prefix-intervals", not head, head),
            Check("tail-membership", not member, member),
            Check("min-position-measure", not small, small),
            Check("tail-measure-identity", not shape, shape),
        )
    )
