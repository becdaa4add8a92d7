"""Step-function domination: integral algebra, the raise/cap process, and
its specialization to the set, semimeasure and open pipelines."""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limcov import fatou, gen, traces
from limcov.fatou import StepFunction, run_fatou, verify_fatou
from limcov.kernel import InputError, cell_span, format_rational, words_up_to
from limcov.measurecover import RationalGrid
from limcov.opencover import DeltaSchedule
from limcov.traces import parse_trace
from reference import fatou_per_word, fatou_specializes, trim_is_one_level

F = Fraction
ZERO = F(0)


# The literal reference's step-function operations, on StepFunctions of
# one depth.


def indicator(word, depth, level=F(1)):
    """``level`` on the cylinder of ``word``, 0 elsewhere."""
    base, span = cell_span(word, depth)
    cells = [ZERO] * (1 << depth)
    cells[base:base + span] = [level] * span
    return StepFunction(depth, tuple(cells))


def from_table(table, depth):
    """Pointwise maximum of level-on-cylinder entries (word -> level)."""
    out = StepFunction(depth, (ZERO,) * (1 << depth))
    for word, level in table.items():
        out = pointwise_max(out, indicator(word, depth, level))
    return out


def pointwise_max(f, g):
    return StepFunction(f.depth, tuple(map(max, f.cells, g.cells)))


def pointwise_min(f, g):
    return StepFunction(f.depth, tuple(map(min, f.cells, g.cells)))


def literal_fatou(family, eps, eps_prime, grid):
    """Reference run in plain Fractions over StepFunction operations.

    Returns (phi, theta, log) with log rows (attempt, start, word, level,
    trims) for the attempts that grew phi."""
    depth = family.depth
    fns = [from_table(t, depth) for t in traces.values_by_index(family)]
    working = fns + [fns[-1]]
    top = family.nmax + 1
    budget = eps_prime - eps
    g = grid.resolution
    maxval = max((max(fn.cells) for fn in working), default=ZERO)
    levels = max(1 << g, math.ceil(maxval * (1 << g)))
    theta = eps
    phi = StepFunction(depth, (ZERO,) * (1 << depth))
    log = []
    attempt = -1
    for start in range(top):
        for word in words_up_to(depth):
            for j in range(1, levels + 1):
                attempt += 1
                theta += budget / (1 << (attempt + 1))
                u = indicator(word, depth, F(j, 1 << g))
                trims = 0
                while True:
                    hit = -1
                    for s in range(start, top):
                        if pointwise_max(working[s], u).integral() > theta:
                            hit = s
                            break
                    if hit < 0:
                        break
                    u = pointwise_min(u, working[hit])
                    trims += 1
                for s in range(start, top):
                    working[s] = pointwise_max(working[s], u)
                grown = pointwise_max(phi, u)
                if grown != phi:
                    log.append((attempt, start, word, F(j, 1 << g), trims))
                phi = grown
    return phi, theta, log


def test_step_function_basics():
    g = indicator("0", 1, F(1, 2))
    assert g.integral() == F(1, 4)
    assert StepFunction(3, (ZERO,) * 8).integral() == 0
    h = indicator("00", 2)
    assert h.integral() == F(1, 4)
    assert h.value("00") == 1 and h.value("10") == 0
    with pytest.raises(InputError):
        StepFunction(1, (F(-1), F(0)))
    with pytest.raises(InputError):
        StepFunction(2, (ZERO,) * 2)
    assert from_table({"": F(1, 4), "01": F(1, 2)}, 2).cells == (F(1, 4), F(1, 2), F(1, 4), F(1, 4))


cells4 = st.tuples(*([st.fractions(min_value=0, max_value=2, max_denominator=16)] * 4))


@given(cells4, cells4)
def test_max_min_integral_identity(a, b):
    f = StepFunction(2, a)
    g = StepFunction(2, b)
    assert (
        pointwise_max(f, g).integral() + pointwise_min(f, g).integral()
        == f.integral() + g.integral()
    )


def test_constant_half_family():
    fam = parse_trace("family func nmax=2 depth=1\nraise 0 0 1/2\nraise 1 0 1/2\n")
    grid = RationalGrid(1)
    res = run_fatou(fam, F(1, 4), F(1, 2), grid)
    assert res.phi.value("0") >= F(1, 2)
    assert res.phi.integral() <= F(1, 2)
    assert verify_fatou(fam, F(1, 4), F(1, 2), grid, res).passed


def test_zero_family_is_dominated_cheaply():
    fam = traces.StabilizedFamily("func", 1, 2, ())
    res = run_fatou(fam, F(1, 4), F(1, 2), RationalGrid(2))
    assert res.phi.integral() <= F(1, 2)  # phi may well be nonzero


def test_capping_preserves_surviving_cell():
    # f_0 lives on cell 00, later members on 11; theliminf is empty but the
    # process must still respect every bound while capping repeatedly.
    fam = parse_trace("family func nmax=2 depth=2\nraise 0 00 1\nraise 1 11 1\n")
    grid = RationalGrid(2)
    res = run_fatou(fam, F(1, 4), F(1, 2), grid)
    assert res.phi.value("11") == 1  # tail value survives at full height
    assert res.phi.integral() <= F(1, 2)
    assert verify_fatou(fam, F(1, 4), F(1, 2), grid, res).passed
    assert any(trims for *_, trims in res.log)


def test_lowered_phi_flips_cell_domination():
    fam = parse_trace("family func nmax=2 depth=2\nraise 0 00 1\nraise 1 11 1\n")
    grid = RationalGrid(2)
    res = run_fatou(fam, F(1, 4), F(1, 2), grid)
    assert traces.liminf_values(fam, "11") == 1
    cells = list(res.phi.cells)
    cells[0b11] = F(3, 4)
    lowered = replace(res, phi=StepFunction(2, tuple(cells)))
    failed = verify_fatou(fam, F(1, 4), F(1, 2), grid, lowered).failures()
    assert [c.name for c in failed] == ["cell-domination"]


def test_phi_of_another_depth_is_refused():
    fam = parse_trace("family func nmax=2 depth=2\nraise 0 00 1\nraise 1 11 1\n")
    grid = RationalGrid(2)
    res = run_fatou(fam, F(1, 4), F(1, 2), grid)
    for depth in (1, 3):
        other = replace(res, phi=StepFunction(depth, (ZERO,) * (1 << depth)))
        with pytest.raises(InputError, match=f"depth {depth}, the family 2"):
            verify_fatou(fam, F(1, 4), F(1, 2), grid, other)


def test_integral_precondition_names_index():
    fam = parse_trace("family func nmax=2 depth=2\nraise 1 0 1\n")
    with pytest.raises(InputError, match="f_1"):
        run_fatou(fam, F(1, 4), F(1, 2), RationalGrid(1))
    with pytest.raises(InputError):
        run_fatou(fam, F(1, 2), F(1, 2), RationalGrid(1))


def test_values_above_one_are_still_dominated():
    fam = parse_trace("family func nmax=1 depth=2\nraise 0 00 3\n")
    grid = RationalGrid(1)
    res = run_fatou(fam, F(3, 4), F(7, 8), grid)
    assert res.phi.value("00") >= 3
    assert verify_fatou(fam, F(3, 4), F(7, 8), grid, res).passed


def test_matches_literal_reference():
    rng = random.Random(31)
    for i in range(40):
        nmax, depth = rng.randint(1, 6), rng.randint(1, 4)
        eps = rng.choice([F(1, 4), F(1, 2)])
        fam = parse_trace(gen.gen_trace("func", nmax, seed=9000 + i, depth=depth, eps=eps))
        grid = RationalGrid(rng.randint(1, 4))
        fast = run_fatou(fam, eps, eps + F(1, 8), grid)
        phi, theta, log = literal_fatou(fam, eps, eps + F(1, 8), grid)
        assert fast.phi == phi
        assert DeltaSchedule(eps, eps + F(1, 8)).theta_after(fast.attempts) == theta
        assert list(fast.log) == log


# Generated families are dyadic and bounded by 1.  These have values above 1
# (more levels than grid points) or non-dyadic values (a scale that is not a
# power of two); each takes the fast path, replays and commits.
@pytest.mark.parametrize(
    "text,eps,eps_prime,g",
    [
        (
            "family func nmax=3 depth=2\nraise 0 00 3\nraise 1 0 5/3\n"
            "raise 2 00 7/3\nraise 2 1 1/3\n",
            F(5, 6), F(1), 1,
        ),
        (
            "family func nmax=4 depth=3\nraise 0 0 1/3\nraise 1 01 2/3\n"
            "raise 2 1 1/3\nraise 3 0 1/3\nraise 3 110 1/5\n",
            F(1, 3), F(1, 2), 2,
        ),
        (
            "family func nmax=2 depth=3\nraise 0 e 1/3\nraise 0 01 4/3\n"
            "raise 1 e 2/5\nraise 1 011 7/5\n",
            F(3, 5), F(2, 3), 2,
        ),
        (
            "family func nmax=3 depth=2\nraise 0 0 2/3\nraise 1 1 2/3\n"
            "raise 2 0 1/3\nraise 2 11 5/3\n",
            F(7, 12), F(3, 4), 3,
        ),
        # A member before the first hit overflows one level later although
        # its slack exceeds the level step: the slack must cover the step
        # once per cell of the cylinder.
        (
            "family func nmax=5 depth=3\nraise 1 111 5/2\nraise 0 0 5/8\n"
            "raise 1 011 11/3\nraise 4 e 3/4\n",
            F(43, 48), F(23, 24), 1,
        ),
        # The threshold floor rises between two attempts at the root that
        # share their first hit: the later one commits, so it is no replica.
        (
            "family func nmax=2 depth=1\nraise 0 0 11/8\nraise 1 1 13/8\n",
            F(13, 16), F(25, 16), 1,
        ),
    ],
)
def test_hand_written_traces_match_literal_reference(text, eps, eps_prime, g):
    fam = parse_trace(text)
    grid = RationalGrid(g)
    fast = run_fatou(fam, eps, eps_prime, grid)
    phi, theta, log = literal_fatou(fam, eps, eps_prime, grid)
    assert fast.phi == phi
    assert DeltaSchedule(eps, eps_prime).theta_after(fast.attempts) == theta
    assert list(fast.log) == log
    assert any(trims for *_, trims in log)
    assert verify_fatou(fam, eps, eps_prime, grid, fast).passed


def test_off_grid_sweep_matches_literal_reference():
    # Hand-built families whose values have denominators 3, 5, 7 and 12 and
    # reach past 1, at grids 1-4: their values fall between the levels, so
    # the run's thresholds split and merge where a dyadic gen family's never
    # do.  eps is the largest member integral and eps' lies a little above;
    # the deeper the family, the coarser the grid, to bound the reference's
    # time.
    rng = random.Random(34)
    logged = trimmed = 0
    for _ in range(40):
        nmax, depth = rng.randint(1, 4), rng.randint(1, 3)
        words = words_up_to(depth)
        lines = [f"family func nmax={nmax} depth={depth}"]
        for n in range(nmax):
            for _ in range(rng.randint(1, 3)):
                d = rng.choice([3, 5, 7, 12])
                word = rng.choice(words + words[-(1 << depth):]) or "e"
                lines.append(f"raise {n} {word} {F(rng.randint(1, 2 * d + 3), d)}")
        fam = parse_trace("\n".join(lines) + "\n")
        eps = max(from_table(t, depth).integral() for t in traces.values_by_index(fam))
        eps_prime = eps + rng.choice([F(1, 12), F(1, 7), F(2, 5), F(1, 3)])
        grid = RationalGrid(rng.randint(1, 5 - depth))
        fast = run_fatou(fam, eps, eps_prime, grid)
        phi, theta, log = literal_fatou(fam, eps, eps_prime, grid)
        assert fast.phi == phi, lines
        assert DeltaSchedule(eps, eps_prime).theta_after(fast.attempts) == theta
        assert list(fast.log) == log, lines
        logged += len(log)
        trimmed += sum(1 for *_, trims in log if trims)
    assert logged and trimmed


def test_equivalence_sweep_matches_literal_reference():
    # 303 gen families (grids 1-5, eps' up to eps + 1/2) and 40 hand-built
    # ones with off-grid values up to 2: the skip rules leave phi, the
    # threshold and the log as the literal run has them.  A shape (nmax
    # 1-16, depth 1-6) is drawn again while nmax^2 * 4^depth * 2^grid, about
    # the reference's work, passes 2^9, which leaves nmax 1-8 and depth 1-4;
    # func 16x1, 2x5 and 1x6 follow.  The sweep takes about 6 s.
    rng = random.Random(35)
    shapes = []
    while len(shapes) < 300:
        nmax, depth, g = rng.randint(1, 16), rng.randint(1, 6), rng.randint(1, 5)
        if nmax * nmax << (2 * depth + g) <= 1 << 9:
            shapes.append((nmax, depth, g))
    cases = []
    for nmax, depth, g in [*shapes, (16, 1, 2), (2, 5, 1), (1, 6, 1)]:
        eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
        text = gen.gen_trace("func", nmax, seed=rng.randrange(10**6), depth=depth, eps=eps)
        eps_prime = eps + rng.choice([F(1, 64), F(1, 8), F(1, 4), F(1, 2)])
        cases.append((parse_trace(text), eps, eps_prime, g))
    for _ in range(40):
        nmax, depth = rng.randint(1, 4), rng.randint(1, 3)
        words = words_up_to(depth)
        lines = [f"family func nmax={nmax} depth={depth}"]
        for n in range(nmax):
            for _ in range(rng.randint(1, 3)):
                d = rng.choice([3, 5, 6, 7, 12])
                word = rng.choice(words + words[-(1 << depth):]) or "e"
                lines.append(f"raise {n} {word} {F(rng.randint(1, 2 * d), d)}")
        fam = parse_trace("\n".join(lines) + "\n")
        eps = max(from_table(t, depth).integral() for t in traces.values_by_index(fam))
        eps_prime = eps + rng.choice([F(1, 12), F(1, 7), F(1, 3), F(1, 2)])
        cases.append((fam, eps, eps_prime, rng.randint(1, 4 - depth)))
    for fam, eps, eps_prime, g in cases:
        fast = run_fatou(fam, eps, eps_prime, RationalGrid(g))
        phi, theta, log = literal_fatou(fam, eps, eps_prime, RationalGrid(g))
        assert fast.phi == phi
        assert DeltaSchedule(eps, eps_prime).theta_after(fast.attempts) == theta
        assert list(fast.log) == log


# Each case drops or loosens one condition of the active-cell rule (see the
# fatou module docstring): the run matches the literal reference and the
# mutant, which skips an attempt that grows phi, does not.  A mutant that
# leaves phi below lows after a start's root stops at the run's own check.
@pytest.mark.parametrize(
    "function,old,new,text,eps,eps_prime,g",
    [
        # The least room among the members at lows, not among all members.
        # Integrals are counted in units of 1/16 and tf is 8 throughout.  At
        # start 0 the root at level 1/2 (attempt 0) is capped to U_0, which
        # is full but above lows on cell 1, and commits 1/2 there: U_1, at
        # lows there, has room for it.  Counting U_0's room blocks cell 1.
        (
            "_reach", "reduce(or_, map(xor, row, lows), 0)", "0",
            "family func nmax=2 depth=1\nraise 0 1 1\nraise 1 0 1/8\n",
            F(1, 2), F(9, 16), 1,
        ),
        # The gap is cut at a value a member holds above lows.  Units of
        # 1/48; tf is 29 from attempt 2 on.  Attempt 20 lifts U_1 to 1/4 on
        # cell 10, leaving it 2 units of room; cell 10 at level 1/2 (attempt
        # 21) is then capped to U_0's 1/3 there and commits, a gain of 1 unit
        # to U_1, where the whole step to the level would be 3.
        (
            "_reach", "if cut > k:", "if False:",
            "family func nmax=2 depth=2\nraise 0 e 1/3\nraise 0 00 1/2\nraise 1 0 1\n",
            F(1, 2), F(5, 8), 2,
        ),
        # The root runs to the top level where phi is below lows.  One
        # member, 2 on cell 0; the root commits at levels 1/4 and 1/2 and
        # fills its room, and from 3/4 on (attempts 2-7) it is capped to U_0,
        # commits nothing and still grows phi on cell 0, where no cell is
        # unblocked.
        pytest.param(
            "run_fatou", "levels if e == depth and phi != lows else ", "",
            "family func nmax=1 depth=1\nraise 0 0 2\n",
            F(1), F(4, 3), 2, id="root-to-top-level",
        ),
        # The keys are built anew at each start.  Units of 1/96; tf is 55
        # from attempt 4 on.  Start 1 drops U_0, and U_1, at 4/3 on cell 10
        # with 2 units of room, takes cell 10 at level 11/8 (attempt 142);
        # in start 0's keys U_0, at lows 1/2 there with 1 unit of room,
        # blocks it.
        pytest.param(
            "run_fatou", "keys = None  # built at each start",
            "keys = keys if start else None  # built at each start",
            "family func nmax=2 depth=2\nraise 0 00 5/4\nraise 1 10 4/3\n",
            F(1, 3), F(7, 12), 3, id="keys-at-each-start",
        ),
        # The pass marks the root where phi is below lows, at every start.
        # Units of 1/4, tf 2.  At start 0 lows is 0 everywhere; at start 1,
        # which drops U_0, it is U_1's 1 on cell 1, and the root (attempts
        # 6-7), which no key marks, is capped to U_1 and grows phi there.
        pytest.param(
            "run_fatou", "region if phi != lows else ", "",
            "family func nmax=2 depth=1\nraise 0 0 1\nraise 1 1 1\n",
            F(1, 2), F(5, 8), 1, id="root-mark",
        ),
    ],
)
def test_each_active_cell_condition_is_needed(
    mutant, monkeypatch, function, old, new, text, eps, eps_prime, g
):
    fam = parse_trace(text)
    grid = RationalGrid(g)
    schedule = DeltaSchedule(eps, eps_prime)

    def rows(res):
        return res.phi, schedule.theta_after(res.attempts), list(res.log)

    literal = literal_fatou(fam, eps, eps_prime, grid)
    assert rows(run_fatou(fam, eps, eps_prime, grid)) == literal
    broken = mutant(getattr(fatou, function), old, new)
    monkeypatch.setattr(fatou, function, broken)
    if "phi != lows" in old:
        with pytest.raises(AssertionError, match="phi < lows after a root"):
            fatou.run_fatou(fam, eps, eps_prime, grid)
    else:
        assert rows(fatou.run_fatou(fam, eps, eps_prime, grid)) != literal


# Each case changes one rule of the level loop: the run matches the literal
# reference and the mutant does not.
@pytest.mark.parametrize(
    "old,new,text,eps,eps_prime,g",
    [
        # The members start below the start only at the tail start.
        # Integrals are counted in units of 1/4; the floor of 4 * theta_t is
        # 2 up to attempt 13 and 3 from attempt 14 on.  At start 1 the run
        # reads U_1 alone, so the root at level 1 (attempt 7) is capped once
        # to U_1 and grows phi to 1 on cell 0.  A member floor one below
        # every start would read U_0 there too and cap u to nothing, and phi
        # would grow at the tail start (attempt 13) instead.
        (
            "min(start, top - 1)", "max(start - 1, 0)",
            "family func nmax=2 depth=1\nraise 0 1 1/2\nraise 1 0 1\n",
            F(1, 2), F(49153, 65536), 1,
        ),
        # A replica's levels are skipped in one jump only once tf has
        # settled.  Integrals are counted in units of 1/16; the floor of
        # 16 * theta_t is 11 from attempt 1 to 6 and 12 from attempt 7 on.
        # At start 0 the root at level 3/4 first overflows U_0 (attempt 5),
        # and its replica reaches level 1.  Level 7/8 replays it, but at
        # level 1 (attempt 7) the threshold has risen and the root commits.
        (
            "if tf == settled_tf:", "if True:",
            "family func nmax=2 depth=1\nraise 0 0 3/4\nraise 1 1 3/4\n",
            F(1, 2), F(385, 512), 3,
        ),
    ],
)
def test_each_level_loop_rule_is_needed(mutant, old, new, text, eps, eps_prime, g):
    fam = parse_trace(text)
    grid = RationalGrid(g)
    schedule = DeltaSchedule(eps, eps_prime)

    def rows(res):
        return res.phi, schedule.theta_after(res.attempts), list(res.log)

    literal = literal_fatou(fam, eps, eps_prime, grid)
    assert rows(run_fatou(fam, eps, eps_prime, grid)) == literal
    broken = mutant(run_fatou, old, new)
    assert rows(broken(fam, eps, eps_prime, grid)) != literal


def test_run_scans_the_same_member_ranges(monkeypatch):
    # Func 8x6 (gen seed 1) at grid 3: the run makes 195 member scans, whose
    # member ranges total 1,104, of 9,144 attempts.  The counts pin which
    # attempts the skip rules leave to a scan, not how rows are held: the
    # cross-start memo this rule replaced scanned 1,642 ranges totalling
    # 7,694.
    fam = parse_trace(gen.gen_trace("func", 8, seed=1, depth=6, eps=F(1, 4)))
    grid = RationalGrid(3)
    expected = run_fatou(fam, F(1, 4), F(3, 8), grid)
    calls = []
    first_raise = fatou._first_raise

    def counting(u, heights, total, work, integrals, members, tf):
        calls.append(len(members))
        return first_raise(u, heights, total, work, integrals, members, tf)

    monkeypatch.setattr(fatou, "_first_raise", counting)
    assert run_fatou(fam, F(1, 4), F(3, 8), grid) == expected
    assert (len(calls), sum(calls)) == (195, 1_104)


# The keys are rebuilt after a commit only to skip more: the keys built
# earlier in a start still bound every attempt (see the fatou module
# docstring).  Without the rebuild the run is the same and scans more: func
# 16x6 (gen seed 1) at grid 3 makes 389 scans, and 903 with stale keys.
@pytest.mark.parametrize("old,new,scans", [("replica = keys = None", "replica = None", 903)])
def test_active_cells_are_rebuilt_only_to_skip_more(mutant, monkeypatch, old, new, scans):
    fam = parse_trace(gen.gen_trace("func", 16, seed=1, depth=6, eps=F(1, 4)))
    grid = RationalGrid(3)
    calls = []
    first_raise = fatou._first_raise

    def counting(*args):
        calls.append(1)
        return first_raise(*args)

    monkeypatch.setattr(fatou, "_first_raise", counting)
    expected = run_fatou(fam, F(1, 4), F(3, 8), grid)
    assert len(calls) == 389
    calls.clear()
    assert mutant(run_fatou, old, new)(fam, F(1, 4), F(3, 8), grid) == expected
    assert len(calls) == scans


def member_scans(monkeypatch):
    """Record each fatou._first_raise call, run_fatou's and fatou_per_word's
    alike, as its member range, threshold and integral of u."""
    calls = []
    first_raise = fatou._first_raise

    def recording(u, heights, total, work, integrals, members, tf):
        calls.append((members.start, members.stop, tf, total))
        return first_raise(u, heights, total, work, integrals, members, tf)

    monkeypatch.setattr(fatou, "_first_raise", recording)
    return calls


def test_level_pass_matches_the_per_word_run(monkeypatch):
    # 300 gen families at depths 5-8, past the literal sweeps' depth 4
    # (nmax 1-16 and grids 1-5, a shape drawn again while (nmax+1) *
    # 2^(depth+grid) passes 2^14; eps' up to eps + 1/2), and 200 hand-built
    # off-grid ones (denominators 3-12, values up to 3, nmax 1-6, depth 1-6,
    # grids 1-5, eps the largest member integral), the first the family
    # whose start 1 drops U_0 and sees phi below lows at its root (see
    # test_each_active_cell_condition_is_needed).  The run and
    # fatou_per_word, which visits every (start, word), give the same phi,
    # attempts and log and make the same member scans in the same order.
    # The sweep takes about 5 s.
    scans = member_scans(monkeypatch)
    rng = random.Random(36)
    cases = []
    while len(cases) < 300:
        nmax, depth, g = rng.randint(1, 16), rng.randint(5, 8), rng.randint(1, 5)
        if (nmax + 1) << (depth + g) <= 1 << 14:
            eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
            fam = parse_trace(gen.gen_trace("func", nmax, seed=rng.randrange(10**6), depth=depth, eps=eps))
            cases.append((fam, eps, eps + rng.choice([F(1, 64), F(1, 8), F(1, 4), F(1, 2)]), g))
    cases.append((parse_trace("family func nmax=2 depth=1\nraise 0 0 1\nraise 1 1 1\n"),
                  F(1, 2), F(5, 8), 1))
    while len(cases) < 500:
        nmax, depth = rng.randint(1, 6), rng.randint(1, 6)
        words = words_up_to(depth)
        lines = [f"family func nmax={nmax} depth={depth}"]
        for n in range(nmax):
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(3, 12)
                word = rng.choice(words + words[-(1 << depth):]) or "e"
                lines.append(f"raise {n} {word} {F(rng.randint(1, 3 * d), d)}")
        fam = parse_trace("\n".join(lines) + "\n")
        eps = max(from_table(t, depth).integral() for t in traces.values_by_index(fam))
        cases.append((fam, eps, eps + rng.choice([F(1, 12), F(1, 7), F(2, 5), F(1)]), rng.randint(1, 5)))
    # The pass marks a root without _active where phi != lows there: each
    # start's first _active call (a new lows) is then below the root.
    starts = []
    active = fatou._active

    def marking(blocks, e, region, lows, *rest):
        if not starts or starts[-1][0] is not lows:
            starts.append((lows, e))
        return active(blocks, e, region, lows, *rest)

    monkeypatch.setattr(fatou, "_active", marking)
    later = []
    for fam, eps, eps_prime, g in cases:
        expected = fatou_per_word(fam, eps, eps_prime, RationalGrid(g))
        per_word = scans[:]
        scans.clear()
        starts.clear()
        assert run_fatou(fam, eps, eps_prime, RationalGrid(g)) == expected
        assert scans == per_word
        scans.clear()
        later.append(sum(e < fam.depth for _, e in starts[1:]))
    assert later[300] == 1 and sum(later) > 1


def test_level_pass_marks_the_words_the_keys_unblock(mutant, monkeypatch):
    # One empty member at depth 1, grid 2; integrals are counted in units of
    # 1/8 and tf is 1 throughout.  Every cell is keyed by level 1 (room 1).
    # The root at level 1/4 (attempt 0) would add 2 units and is capped
    # away; word 0 at level 1/4 (attempt 4) adds 1, commits and grows phi.
    # phi = lows after the root, so only its key marks word 0: a pass that
    # drops the key mark skips it, and phi stays 0.
    fam = parse_trace("family func nmax=1 depth=1\n")
    grid = RationalGrid(2)
    expected = fatou_per_word(fam, F(1, 8), F(1, 4), grid)
    assert expected.log == ((4, 0, "0", F(1, 4), 0),)
    assert run_fatou(fam, F(1, 8), F(1, 4), grid) == expected
    monkeypatch.setattr(fatou, "_active", mutant(fatou._active, "touched(masks[i], e)", "0"))
    assert fatou.run_fatou(fam, F(1, 8), F(1, 4), grid) != expected


# The run makes the per-word body for the words the level pass marks and
# for each root where phi != lows.  Func 8x6 and 16x6 (gen seed 1) at grid 3
# have 1,143 and 2,159 (start, word) pairs.  Deciding the rest of a length
# again after a commit only keeps the bodies to the active words (marks taken
# before it over-approximate): with the keys rebuilt in place instead, the
# run is the same, makes the same scans and runs more bodies.
@pytest.mark.parametrize("nmax,bodies,undecided", [(8, 60, 97), (16, 75, 116)])
def test_level_pass_runs_only_the_marked_bodies(mutant, monkeypatch, nmax, bodies, undecided):
    fam = parse_trace(gen.gen_trace("func", nmax, seed=1, depth=6, eps=F(1, 4)))
    grid = RationalGrid(3)
    scans = member_scans(monkeypatch)
    expected = fatou_per_word(fam, F(1, 4), F(3, 8), grid)
    per_word = scans[:]
    visited = []
    spread_indices = fatou.spread_indices

    def counting(spread, e):
        for i in spread_indices(spread, e):
            visited.append(i)
            yield i

    monkeypatch.setattr(fatou, "spread_indices", counting)
    for run, count in [
        (run_fatou, bodies),
        (mutant(run_fatou, "pos = i + 1  # the rest of the length is decided again\n"
                           "                        break",
                "keys, masks = _reach(lows, tops, sorted(((settled_tf - integrals[s], work[s])"
                " for s in members), key=itemgetter(0)), full, step_scaled, levels)"), undecided),
    ]:
        scans.clear()
        visited.clear()
        assert run(fam, F(1, 4), F(3, 8), grid) == expected
        assert scans == per_word
        assert len(visited) == count


def test_fine_grid_keeps_only_the_thresholds_the_rows_hold():
    # One member at grid 14: 2^14 levels, and phi grows 8,192 times, each
    # time to a new level.  The run keeps as thresholds only the values the
    # rows hold, a few layers; left unmerged, the layers pile up one per
    # level and the run takes over a hundred times as long.
    fam = parse_trace("family func nmax=1 depth=2\nraise 0 00 1/2\n")
    grid = RationalGrid(14)
    began = time.perf_counter()
    res = run_fatou(fam, F(1, 4), F(3, 8), grid)
    assert time.perf_counter() - began < 3
    assert len(res.log) == 8_192
    assert verify_fatou(fam, F(1, 4), F(3, 8), grid, res).passed


def test_raised_phi_past_eps_prime_flips_integral_bound():
    # Raising phi keeps it above the liminf's grid floor, so only the
    # integral bound can fail: 4 on cell 01 alone integrates to 1 > eps'.
    fam = parse_trace("family func nmax=2 depth=2\nraise 0 00 1\nraise 1 11 3/2\n")
    grid = RationalGrid(2)
    eps, eps_prime = F(3, 8), F(1, 2)
    res = run_fatou(fam, eps, eps_prime, grid)
    assert verify_fatou(fam, eps, eps_prime, grid, res).passed
    cells = list(res.phi.cells)
    cells[0b01] = F(4)
    raised = replace(res, phi=StepFunction(2, tuple(cells)))
    integral = raised.phi.integral()
    assert integral > eps_prime
    failed = verify_fatou(fam, eps, eps_prime, grid, raised).failures()
    assert [(c.name, c.witness) for c in failed] == [("integral-bound", format_rational(integral))]


def test_uncounted_attempt_flips_threshold_bound():
    fam = parse_trace("family func nmax=2 depth=2\nraise 0 00 1\nraise 1 11 3/2\n")
    grid = RationalGrid(2)
    eps, eps_prime = F(3, 8), F(1, 2)
    res = run_fatou(fam, eps, eps_prime, grid)
    attempts = 3 * 7 * 6  # (nmax+1) * (2^(depth+1)-1) * levels, levels = 3/2 * 2^2
    assert res.attempts == attempts
    assert verify_fatou(fam, eps, eps_prime, grid, res).passed
    schedule = DeltaSchedule(eps, eps_prime)
    for forged in (attempts - 1, 0):
        short = replace(res, attempts=forged)
        failed = verify_fatou(fam, eps, eps_prime, grid, short).failures()
        assert [(c.name, c.witness) for c in failed] == [
            ("threshold-bound", schedule.threshold_text(forged))
        ]


def test_random_sweep():
    rng = random.Random(32)
    for i in range(25):
        nmax, depth = rng.randint(1, 5), rng.randint(1, 4)
        eps = rng.choice([F(1, 8), F(1, 4)])
        fam = parse_trace(gen.gen_trace("func", nmax, seed=9500 + i, depth=depth, eps=eps))
        grid = RationalGrid(rng.randint(1, 4))
        res = run_fatou(fam, eps, eps + F(1, 8), grid)
        verdict = verify_fatou(fam, eps, eps + F(1, 8), grid, res)
        assert verdict.passed, verdict.failures()


# specialization to the other pipelines


def test_specializes_sets_singleton():
    fam = parse_trace("family sets nmax=2\nadd 0 a\nadd 1 a\n")
    report = fatou_specializes(fam, RationalGrid(2), depth=1)
    assert report.verdict.passed
    assert report.rows == (("a", True, report.rows[0][2]),)


def test_specializes_measure_constant():
    fam = parse_trace("family measure nmax=1\nraise 0 a 1/2\n")
    report = fatou_specializes(fam, RationalGrid(2))
    assert report.verdict.passed


def test_specializes_empty_family_vacuously():
    fam = parse_trace("family sets nmax=1\n")
    report = fatou_specializes(fam, RationalGrid(1))
    assert report.verdict.passed and report.rows == ()


def _phi_replaced(monkeypatch, cells):
    """Make fatou.run_fatou return phi with ``cells`` (a map from cell
    index to value) written over its own values."""
    real = fatou.run_fatou

    def replaced(family, eps, eps_prime, grid):
        res = real(family, eps, eps_prime, grid)
        values = [cells.get(i, v) for i, v in enumerate(res.phi.cells)]
        return replace(res, phi=StepFunction(res.phi.depth, tuple(values)))

    monkeypatch.setattr(fatou, "run_fatou", replaced)


def test_lowered_phi_flips_specialization(monkeypatch):
    fam = parse_trace("family sets nmax=2\nadd 0 a\nadd 0 b\nadd 1 a\n")
    assert fatou_specializes(fam, RationalGrid(2)).verdict.passed
    # Element a, the family's liminf, comes first and sits on cell 0.
    _phi_replaced(monkeypatch, {0: F(1, 2)})
    report = fatou_specializes(fam, RationalGrid(2))
    assert [(c.name, c.witness) for c in report.verdict.failures()] == [("specialization", "a")]


# The liminf is the cylinder of 1, cells 10 and 11; eps = 3/4, the measure
# of member 0, and eps' = 7/8.
OPEN_EMBEDDED = "family open nmax=2 depth=2\nadd 0 1\nadd 1 1\nadd 0 00\n"


def test_specializes_open():
    report = fatou_specializes(parse_trace(OPEN_EMBEDDED), RationalGrid(2))
    assert report.verdict.passed
    assert [u for u, _, _ in report.rows] == ["10", "11", "measure", "cover", "attempts", "log", "trims"]
    assert report.rows[2][2] == "phi>=1 on 3/4 eps'=7/8"


def test_lowered_phi_on_a_liminf_cell_flips_open_specialization(monkeypatch):
    _phi_replaced(monkeypatch, {3: F(3, 4)})
    report = fatou_specializes(parse_trace(OPEN_EMBEDDED), RationalGrid(2))
    assert [(c.name, c.witness) for c in report.verdict.failures()] == [("specialization", "11")]


def test_raised_phi_past_eps_prime_fails_the_measure_row(monkeypatch):
    # phi = 1 on every cell: the liminf cells still pass, but phi >= 1 on
    # measure 1 > eps'.
    _phi_replaced(monkeypatch, {0: F(1), 1: F(1)})
    report = fatou_specializes(parse_trace(OPEN_EMBEDDED), RationalGrid(2))
    assert [(c.name, c.witness) for c in report.verdict.failures()] == [("specialization", "measure")]
    assert report.rows[2] == ("measure", False, "phi>=1 on 1 eps'=7/8")


def test_open_trim_is_the_one_level_step_function_run():
    # 300 gen families, then open 64x12 at gen's cap: the cover, the
    # attempts, the log against the pieces and the trim counts, exactly.
    rng = random.Random(35)
    families = [
        parse_trace(gen.gen_trace("open", rng.randint(1, 12), 9900 + i, depth=rng.randint(1, 8),
                                  eps=F(1, 4)))
        for i in range(300)
    ]
    families.append(parse_trace(gen.gen_trace("open", gen.NMAX_CAP, 1, depth=gen.DEPTH_CAP,
                                              eps=F(1, 4))))
    for fam in families:
        rows = trim_is_one_level(fam, F(1, 4), F(3, 8))
        assert [name for name, ok, _ in rows if not ok] == [], (fam.nmax, fam.depth, rows)
    assert rows[2] == ("log", True, "55 logged, 55 pieces")


def test_one_level_rows_fail_on_a_forged_run(monkeypatch):
    fam = parse_trace(OPEN_EMBEDDED)
    real = fatou.run_fatou

    def forged(family, eps, eps_prime, grid):
        res = real(family, eps, eps_prime, grid)
        log = tuple((a + 1, n, w, v, t + 1) for a, n, w, v, t in res.log)
        return replace(res, attempts=res.attempts + 1, log=log,
                       phi=StepFunction(res.phi.depth, (F(1, 2),) * len(res.phi.cells)))

    monkeypatch.setattr(fatou, "run_fatou", forged)
    rows = trim_is_one_level(fam, F(3, 4), F(7, 8))
    assert [name for name, ok, _ in rows if not ok] == ["cover", "attempts", "log", "trims"]


def test_specializes_overflow():
    fam = parse_trace("family sets nmax=1\nadd 0 a\nadd 0 b\nadd 0 c\n")
    with pytest.raises(InputError):
        fatou_specializes(fam, RationalGrid(1), depth=1)
    # An open member that is the whole space leaves no eps' above eps.
    fam = parse_trace("family open nmax=2 depth=1\nadd 0 0\nadd 1 e\n")
    with pytest.raises(InputError, match="member 1 is the whole space"):
        fatou_specializes(fam, RationalGrid(1))


def test_specializes_random_sweep():
    rng = random.Random(33)
    for i in range(20):
        kind = "sets" if i % 2 == 0 else "measure"
        fam = parse_trace(
            gen.gen_trace(kind, rng.randint(1, 4), seed=9800 + i, universe=4, bound=4)
        )
        report = fatou_specializes(fam, RationalGrid(rng.randint(1, 3)))
        assert report.verdict.passed, report.rows
    for i in range(20):
        fam = parse_trace(gen.gen_trace(
            "open", rng.randint(1, 6), seed=9850 + i, depth=rng.randint(1, 5),
            eps=rng.choice([F(1, 8), F(1, 4), F(1, 2)]),
        ))
        report = fatou_specializes(fam, RationalGrid(rng.randint(1, 3)))
        assert report.verdict.passed, report.rows
