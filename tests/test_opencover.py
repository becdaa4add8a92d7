"""Open-set covering in all three modes, plus the interval counterexample.

The bitmask working-set implementation is cross-checked on small random
families against a literal reference that manipulates canonical CylinderSets
and exact Fraction thresholds directly.
"""

import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from limcov import gen, opencover, traces
from limcov.kernel import CylinderSet, InputError, RealInterval, words_up_to
from limcov.opencover import (
    DeltaSchedule,
    omega_family,
    run_block_cover,
    run_naive_cover,
    run_trim_cover,
    verify_omega_family,
    verify_open_cover,
)
from limcov.traces import liminf_open, parse_trace
from reference import delta, trim_cover_per_word, trim_limit

F = Fraction

DRIFT = "family open nmax=2 depth=2\nadd 0 00\nadd 1 11\n"
ALL_RUNNERS = (run_trim_cover, run_naive_cover, run_block_cover)


def literal_cover(family, eps, eps_prime, trim):
    """Reference trim/naive run on CylinderSets with Fraction thresholds.

    Returns (cover, theta, pieces, trim_events) with pieces as (word, start,
    attempt, trims, added) tuples."""
    opens = traces.opens_by_index(family)
    working = list(opens) + [opens[-1]]
    top = family.nmax + 1
    budget = eps_prime - eps
    theta = eps
    cover = CylinderSet.empty()
    pieces = []
    trim_events = []
    attempt = -1
    for start in range(top):
        for word in words_up_to(family.depth):
            attempt += 1
            theta += budget / (1 << (attempt + 1))
            candidate = CylinderSet([word])
            trims = 0
            if trim:
                while True:
                    hit = -1
                    for m in range(start, top):
                        if (working[m] | candidate).measure() > theta:
                            hit = m
                            break
                    if hit < 0:
                        break
                    candidate = candidate & working[hit]
                    trims += 1
            else:
                if any(
                    (working[m] | candidate).measure() > theta for m in range(start, top)
                ):
                    continue
            if trims:
                trim_events.append((attempt, trims))
            for n in range(start, top):
                working[n] = working[n] | candidate
            if not candidate.subset(cover):
                pieces.append((word, start, attempt, trims, candidate))
            cover = cover | candidate
    return cover, theta, pieces, trim_events


def piece_rows(result):
    return [(p.word, p.start, p.attempt, p.trims, p.added) for p in result.pieces]


def run_rows(res, eps, eps_prime):
    """A result in literal_cover's terms: (cover, theta, pieces, trim_events)."""
    theta = DeltaSchedule(eps, eps_prime).theta_after(res.attempts)
    return res.cover, theta, piece_rows(res), list(res.trim_events)


def test_delta_schedule_sums_below_budget():
    schedule = DeltaSchedule(F(1, 4), F(3, 8))
    total = sum((delta(schedule, t) for t in range(40)), F(0))
    assert 0 < total < F(1, 8)
    assert trim_limit(schedule, 0) == 16  # ceil(1 / (1/16))


def test_schedule_closed_forms_match_running_sums():
    for eps, eps_prime in [(F(1, 4), F(3, 8)), (F(1, 3), F(1, 2)), (F(2, 7), F(5, 7))]:
        schedule = DeltaSchedule(eps, eps_prime)
        for scale in (1, 4, 256, 3 << 10):
            floors, settled = schedule.floor_table(scale, 80)
            assert len(floors) < 70  # the floors below are checked past the settle point
            theta = eps
            for t in range(80):
                theta += delta(schedule, t)
                assert schedule.theta_after(t + 1) == theta
                floor = floors[t] if t < len(floors) else settled
                assert floor == math.floor(theta * scale), (eps, scale, t)
        assert schedule.threshold_text(21) == f"{eps_prime}-{eps_prime - eps}*2^-21"
    schedule = DeltaSchedule(F(1, 8), F(1, 2))
    for t in range(12):
        for trims in range(0, 2 * trim_limit(schedule, t)):
            assert schedule.allows_trims(t, trims) == (trims < trim_limit(schedule, t))


def test_floor_table_lists_at_most_one_floor_per_attempt(monkeypatch):
    # With q of 4,299 digits the floors of eps' = 1/2 + 1/q settle only after
    # some 14,000 attempts; a run lists no more floors than it has attempts.
    eps, eps_prime = F(1, 4), F(1, 2) + F(1, 10**4298 + 1)
    schedule = DeltaSchedule(eps, eps_prime)
    floors, _ = schedule.floor_table(4, 21)
    assert floors == [math.floor(schedule.theta_after(t + 1) * 4) for t in range(21)]
    listed = []
    table = DeltaSchedule.floor_table

    def recording(self, scale, attempts):
        floors, settled = table(self, scale, attempts)
        listed.append(len(floors))
        return floors, settled

    monkeypatch.setattr(DeltaSchedule, "floor_table", recording)
    fam = parse_trace(DRIFT)
    for runner in ALL_RUNNERS:
        res = runner(fam, eps, eps_prime)
        assert verify_open_cover(fam, eps, eps_prime, res).passed
    # Trim and naive runs make 3 * 7 attempts; a blocks run takes at most
    # one per member.
    assert listed == [21, 21, 2]


def test_constant_family_all_modes():
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 0\nadd 1 0\n")
    for runner in ALL_RUNNERS:
        res = runner(fam, F(1, 2), F(3, 4))
        assert CylinderSet(["0"]).subset(res.cover)
        assert res.cover.measure() <= F(3, 4)
        assert verify_open_cover(fam, F(1, 2), F(3, 4), res).passed


def test_trimming_is_exercised_and_liminf_survives():
    fam = parse_trace(DRIFT)
    res = run_trim_cover(fam, F(1, 4), F(1, 2))
    assert res.trim_events, "the drifting family must force trims"
    assert liminf_open(fam).subset(res.cover)
    assert res.cover.measure() <= F(1, 2)
    assert verify_open_cover(fam, F(1, 4), F(1, 2), res).passed


def test_empty_family_all_modes():
    fam = traces.StabilizedFamily("open", 1, 2, ())
    for runner in ALL_RUNNERS:
        res = runner(fam, F(1, 4), F(1, 2))
        assert res.cover.measure() <= F(1, 2)
        assert verify_open_cover(fam, F(1, 4), F(1, 2), res).passed
    assert run_block_cover(fam, F(1, 4), F(1, 2)).cover == CylinderSet.empty()


def test_naive_covers_clopen_liminf():
    fam = parse_trace(DRIFT)
    res = run_naive_cover(fam, F(1, 4), F(1, 2))
    assert liminf_open(fam).subset(res.cover)
    assert verify_open_cover(fam, F(1, 4), F(1, 2), res).passed


def test_blocks_tail_block_covers_liminf():
    fam = parse_trace(DRIFT)
    res = run_block_cover(fam, F(1, 4), F(1, 2))
    assert liminf_open(fam).subset(res.cover)
    assert res.pieces[-1].word is None and res.pieces[-1].stop is None
    assert DeltaSchedule(F(1, 4), F(1, 2)).theta_after(res.attempts) <= F(1, 2)


def test_blocks_shrinking_family_by_hand():
    # U_0 = [0], later members [00]: the first block closes at index 0
    # (joining any later member keeps measure 1/2), the second at index 1,
    # and the tail block is [00]; the union is [0] of measure 1/2 <= 3/4.
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 0\nadd 1 00\n")
    res = run_block_cover(fam, F(1, 2), F(3, 4))
    assert res.cover == CylinderSet(["0"])
    assert [(p.start, p.stop) for p in res.pieces] == [(0, 0), (1, 1), (2, None)]
    assert res.pieces[-1].added == CylinderSet(["00"])
    assert liminf_open(fam).subset(res.cover)
    assert verify_open_cover(fam, F(1, 2), F(3, 4), res).passed


def test_precondition_violations():
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 0\nadd 1 00\n")
    # measure(U_0) = 1/2 > 1/4: the stated bound must hold for every member
    with pytest.raises(InputError, match="U_0"):
        run_trim_cover(fam, F(1, 4), F(1, 2))
    with pytest.raises(InputError):
        run_trim_cover(fam, F(1, 2), F(1, 4))  # eps' <= eps
    with pytest.raises(InputError):
        run_trim_cover(fam, F(1, 2), F(5, 4))  # eps' > 1


def test_theta_stays_below_eps_prime():
    fam = parse_trace(DRIFT)
    for runner in ALL_RUNNERS:
        res = runner(fam, F(1, 4), F(1, 2))
        assert DeltaSchedule(F(1, 4), F(1, 2)).theta_after(res.attempts) <= F(1, 2)


def test_piece_union_is_the_cover():
    fam = parse_trace(DRIFT)
    for runner in ALL_RUNNERS:
        res = runner(fam, F(1, 4), F(1, 2))
        union = CylinderSet.empty()
        for piece in res.pieces:
            union = union | piece.added
        assert union == res.cover


def test_mutated_piece_flips_verdict():
    fam = parse_trace(DRIFT)
    res = run_trim_cover(fam, F(1, 4), F(1, 2))
    inflated = type(res)(
        mode=res.mode,
        cover=res.cover,
        pieces=res.pieces[:-1]
        + (type(res.pieces[-1])(
            word=res.pieces[-1].word,
            start=res.pieces[-1].start,
            stop=res.pieces[-1].stop,
            attempt=res.pieces[-1].attempt,
            trims=res.pieces[-1].trims,
            added=CylinderSet.full(),
        ),),
        attempts=res.attempts,
        trims=res.trims,
    )
    verdict = verify_open_cover(fam, F(1, 4), F(1, 2), inflated)
    assert not verdict.passed


@pytest.mark.parametrize("runner", ALL_RUNNERS)
def test_uncounted_attempt_flips_threshold_bound(runner):
    fam = parse_trace(DRIFT)
    eps, eps_prime = F(1, 4), F(1, 2)
    res = runner(fam, eps, eps_prime)
    # trim and naive: (nmax+1) * (2^(depth+1)-1) attempts; blocks: one per
    # block piece, every piece but the tail.
    attempts = len(res.pieces) - 1 if res.mode == "blocks" else 3 * 7
    assert res.attempts == attempts
    assert verify_open_cover(fam, eps, eps_prime, res).passed
    schedule = DeltaSchedule(eps, eps_prime)
    for forged in (attempts - 1, 0):
        short = dataclasses.replace(res, attempts=forged)
        failed = verify_open_cover(fam, eps, eps_prime, short).failures()
        assert [(c.name, c.witness) for c in failed] == [
            ("threshold-bound", schedule.threshold_text(forged))
        ]


def test_forged_trim_count_fails_trim_bound():
    fam = parse_trace(DRIFT)
    eps, eps_prime = F(1, 4), F(1, 2)
    res = run_trim_cover(fam, eps, eps_prime)
    schedule = DeltaSchedule(eps, eps_prime)
    # The second count lies past the attempt from which the run stops
    # checking trim counts; the verifier must still check it.  It may pass
    # 2^16, so the record is a tuple.
    late = schedule.settled_attempt(1 << fam.depth) + 10
    for attempt in (0, late):
        count = trim_limit(schedule, attempt)
        forged = dataclasses.replace(res, trims=(0,) * attempt + (count,))
        failed = verify_open_cover(fam, eps, eps_prime, forged).failures()
        assert [(c.name, c.witness) for c in failed] == [
            ("trim-bound", f"attempt {attempt}: {count} trims")
        ]


def test_coverage_witness_names_an_uncovered_word():
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 00\nadd 0 11\nadd 1 00\nadd 1 11\n")
    res = run_trim_cover(fam, F(1, 2), F(3, 4))
    cut = CylinderSet(["00"])
    piece = dataclasses.replace(res.pieces[0], added=cut)
    short = dataclasses.replace(res, cover=cut, pieces=(piece,))
    failed = verify_open_cover(fam, F(1, 2), F(3, 4), short).failures()
    assert [(c.name, c.witness) for c in failed] == [("coverage", "11")]


def test_piece_consistency_compares_the_cover_with_its_pieces():
    # The verifier reads coverage and measure off the pieces, so a cover
    # that claims less than they add fails this check alone.
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 00\nadd 0 11\nadd 1 00\nadd 1 11\n")
    res = run_trim_cover(fam, F(1, 2), F(3, 4))
    assert verify_open_cover(fam, F(1, 2), F(3, 4), res).passed
    short = dataclasses.replace(res, cover=CylinderSet(["00"]))
    failed = verify_open_cover(fam, F(1, 2), F(3, 4), short).failures()
    assert [(c.name, c.witness) for c in failed] == [
        ("piece-consistency", "cover disagrees with the union of pieces")
    ]


def test_measure_bound_names_the_measure_of_the_pieces():
    # One more piece, the cylinder 1, takes the union to 3/4 > eps' = 5/8;
    # the cover names the same union, so no other check fails.
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 00\nadd 0 11\nadd 1 00\nadd 1 11\n")
    eps, eps_prime = F(1, 2), F(5, 8)
    res = run_naive_cover(fam, eps, eps_prime)
    assert verify_open_cover(fam, eps, eps_prime, res).passed
    extra = dataclasses.replace(res.pieces[0], word="1", added=CylinderSet(["1"]))
    wide = dataclasses.replace(res, cover=res.cover | extra.added, pieces=(*res.pieces, extra))
    failed = verify_open_cover(fam, eps, eps_prime, wide).failures()
    assert [(c.name, c.witness) for c in failed] == [("measure-bound", "3/4")]


def test_matches_literal_reference():
    rng = random.Random(21)
    for i in range(25):
        nmax, depth = rng.randint(1, 6), rng.randint(1, 4)
        eps = rng.choice([F(1, 4), F(1, 2)])
        eps_prime = eps + F(1, 8)
        text = gen.gen_trace("open", nmax, seed=7000 + i, depth=depth, eps=eps)
        fam = parse_trace(text)
        for trim in (True, False):
            runner = run_trim_cover if trim else run_naive_cover
            fast = runner(fam, eps, eps_prime)
            cover, theta, pieces, trim_events = literal_cover(fam, eps, eps_prime, trim)
            assert fast.cover == cover, (text, trim)
            assert DeltaSchedule(eps, eps_prime).theta_after(fast.attempts) == theta
            assert piece_rows(fast) == pieces, (text, trim)
            assert list(fast.trim_events) == trim_events, (text, trim)


def test_matches_literal_reference_while_the_floor_rises():
    # With eps' = 1/2 + 2^-40 the floors settle only at attempt 37 or 38.
    # At depth 2 (7 words a start) that is past the run for nmax up to 4,
    # in the tail start for nmax 5 and in an earlier start for nmax 6 and
    # 7; at depth 3 (15 words) the same holds for nmax 1, 2 and 3.  So
    # words scanned before the floors settle are due at every kind of start.
    eps_prime = F(1, 2) + F(1, 1 << 40)
    for depth, nmax in [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 4)]:
        for eps in (F(1, 4), F(3, 8)):
            for seed in range(3):
                text = gen.gen_trace("open", nmax, seed=9000 + seed, depth=depth, eps=eps)
                fam = parse_trace(text)
                for trim in (True, False):
                    runner = run_trim_cover if trim else run_naive_cover
                    fast = run_rows(runner(fam, eps, eps_prime), eps, eps_prime)
                    assert fast == literal_cover(fam, eps, eps_prime, trim), (text, eps, trim)


def test_matches_a_per_word_reference_past_depth_4():
    # literal_cover stops at depth 4, and the level rule's popcount fields
    # behave differently at spans 1, 2 and 4 and up; eps' = 1/2 + 2^-40
    # keeps the floors rising for some 38 attempts.  Both modes run the
    # level rule, so both are checked.
    rng = random.Random(26)
    for i in range(300):
        nmax, depth = rng.randint(1, 40), rng.randint(1, 10)
        eps = rng.choice([F(1, 8), F(1, 4), F(3, 8)])
        eps_prime = rng.choice([eps + F(1, 8), (1 + eps) / 2, F(1, 2) + F(1, 1 << 40)])
        text = gen.gen_trace("open", nmax, seed=10_000 + i, depth=depth, eps=eps)
        fam = parse_trace(text)
        for trim in (True, False):
            res = (run_trim_cover if trim else run_naive_cover)(fam, eps, eps_prime)
            pieces, cover, trims = trim_cover_per_word(fam, eps, eps_prime, trim)
            assert [(p.word, p.start, p.attempt, p.trims, p.added) for p in res.pieces] == [
                (w, s, a, t, CylinderSet.from_mask(c, depth)) for w, s, a, t, c in pieces
            ], (text, eps_prime, trim)
            assert res.cover == CylinderSet.from_mask(cover, depth)
            assert res.attempts == len(trims)
            record = array("H", trims) if trim else ()
            assert bytes(res.trims) == bytes(record), (text, eps_prime, trim)


def member_scans(monkeypatch, runner, text):
    """A run's _first_overflow calls and the members they read, at eps 1/4
    and eps' 3/8; the run must pass its verifier."""
    fam = parse_trace(text)
    calls = []
    first_overflow = opencover._first_overflow

    def counting(candidate, masks, counts, members, tf):
        calls.append(len(members))
        return first_overflow(candidate, masks, counts, members, tf)

    monkeypatch.setattr(opencover, "_first_overflow", counting)
    res = runner(fam, F(1, 4), F(3, 8))
    monkeypatch.undo()
    assert verify_open_cover(fam, F(1, 4), F(3, 8), res).passed
    return len(calls), sum(calls)


def test_trim_run_scans_only_the_words_the_level_rule_leaves_open(monkeypatch):
    # Open 32x8 (gen seed 1), 16,863 attempts: the level rule decides the
    # rest, and the per-word scans left make 743 member scans over 12,166
    # members in all.
    text = gen.gen_trace("open", 32, seed=1, depth=8, eps=F(1, 4))
    assert member_scans(monkeypatch, run_trim_cover, text) == (743, 12_166)


def test_naive_run_scans_only_the_attempts_the_rule_leaves_open(monkeypatch):
    # The naive run drops in the level pass the words that trim cuts, so
    # only its commits and the attempts before the level rule are scanned:
    # open 32x8 and 64x12 (gen seed 1), and nmax=1 depth=15.
    cases = [
        (gen.gen_trace("open", 32, seed=1, depth=8, eps=F(1, 4)), (13, 416)),
        (gen.gen_trace("open", 64, seed=1, depth=12, eps=F(1, 4)), (50, 1_989)),
        ("family open nmax=1 depth=15\nadd 0 000000\n", (25, 25)),
    ]
    for text, scans in cases:
        assert member_scans(monkeypatch, run_naive_cover, text) == scans, text.split("\n")[0]


def test_naive_piece_inside_every_later_member():
    # Word 0 lies inside U_0, U_1 and the tail: the attempt changes no
    # member, yet its cylinder is new to the cover and must become a piece.
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 0\nadd 1 0\n")
    res = run_naive_cover(fam, F(1, 2), F(3, 4))
    assert piece_rows(res)[0] == ("0", 0, 1, 0, CylinderSet(["0"]))
    cover, theta, pieces, trim_events = literal_cover(fam, F(1, 2), F(3, 4), False)
    res_theta = DeltaSchedule(F(1, 2), F(3, 4)).theta_after(res.attempts)
    assert (res.cover, res_theta, piece_rows(res), list(res.trim_events)) == (
        cover, theta, pieces, trim_events
    )


@pytest.mark.parametrize(
    "text,eps,eps_prime",
    [
        # At start 0 word 1 first overflows the tail and is trimmed away
        # once.  The commit of word 00 then fills U_1, which word 1
        # overflows first at start 1, so it is trimmed twice there.
        ("family open nmax=3 depth=2\nadd 1 10\nadd 2 01\nadd 2 00\n", F(1, 2), F(3, 4)),
        # At start 0 word 01 first overflows U_0; from start 1 on it fits
        # every member and commits.
        ("family open nmax=4 depth=2\nadd 0 10\nadd 1 01\nadd 3 01\n", F(1, 4), F(1, 2)),
        # The floor of 4 * theta_t is 1 up to attempt 7 and 2 from attempt 8
        # on.  Word 00 first overflows U_1 at start 0 (attempt 3); at start 1
        # (attempt 10) it fits every member and commits.
        ("family open nmax=3 depth=2\nadd 0 00\nadd 1 01\nadd 2 10\n", F(1, 4), F(513, 1024)),
        # At start 0 (threshold 3 of 4 cells throughout) word 0 first
        # overflows U_1.  Its sibling 1 then commits, which fills U_0 to
        # cells 01, 10 and 11, so the child 00 first overflows U_0, before
        # its parent's first overflow; in naive mode it must not commit.
        ("family open nmax=2 depth=2\nadd 0 01\nadd 1 1\n", F(1, 2), F(1)),
        # The floor of 8 * theta_t is 3 up to attempt 37 and 4 from attempt
        # 38 on.  Word 011 overflows U_1 at start 1 (attempt 25); at the
        # tail start (attempt 40) it fits and commits.
        ("family open nmax=2 depth=3\n", F(1, 4), F(1, 2) + F(1, 1 << 40)),
    ],
    ids=[
        "twice-after-a-commit", "fits-from-next-start", "floor-rises", "commit-moves-first-hit",
        "fits-at-the-tail-start",
    ],
)
def test_hand_built_families_match_literal_reference(text, eps, eps_prime):
    fam = parse_trace(text)
    for trim in (True, False):
        res = (run_trim_cover if trim else run_naive_cover)(fam, eps, eps_prime)
        assert run_rows(res, eps, eps_prime) == literal_cover(fam, eps, eps_prime, trim), trim
        assert verify_open_cover(fam, eps, eps_prime, res).passed


# Each case breaks one condition of the level rule (see the opencover module
# docstring): the run matches the literal reference and the mutant does not.
@pytest.mark.parametrize(
    "old,new,text,eps,eps_prime",
    [
        # The carry constant 2^k - 1 - room.  The floor of 4 * theta_t is 2
        # from attempt 7 on, and the level rule starts at attempt 9, word 1
        # of the tail start.  That word has one cell outside U_0 = 10, room
        # 2 - 1 = 1, so it fits and commits; a constant one larger would
        # count |x \ U_0| = room as an overflow and trim it.
        (
            "((1 << k) - 1 - room)", "((1 << k) - room)",
            "family open nmax=1 depth=2\nadd 0 10\n",
            F(3, 8), F(513, 1024),
        ),
        # A member whose room is at least the span overflows no word of the
        # level.  U_0 is empty with room 1, so at attempt 1 cell 0 fits and
        # commits; read there, the level-0 entry (cut for room 0) would
        # trim both cells away.
        (
            "if settled_tf - counts[m] < span:", "if True:",
            "family open nmax=1 depth=1\n",
            F(1, 2), F(3, 4),
        ),
        # A trimmed candidate must lie in every member to end its scan.  At
        # start 1 the root first overflows U_1 = 0 and is trimmed to cell 0,
        # which U_3 = 1 lacks, so U_3 trims it away: 2 trims.  Taken as
        # inside, it would stop at one trim and make the piece 0.
        (
            "touched(masks[m] & outside, k)", "0",
            "family open nmax=4 depth=1\nadd 1 0\nadd 3 1\n",
            F(3, 4), F(7, 8),
        ),
        # A commit makes the pass decide the rest of the level again.  At
        # start 0 word 00 (attempt 3) commits and fills U_0 to cells 00, 101
        # and 11.  Decided before that, word 10 first overflows U_1 = 0 and
        # is trimmed away; decided again, it first overflows U_0, is trimmed
        # to 101 and commits it: a piece at attempt 5, not 12.
        (
            "stop = i + 1  # the rest of the level is decided again\n"
            "                        break",
            "pass",
            "family open nmax=2 depth=3\nadd 0 101\nadd 0 11\nadd 1 0\n",
            F(1, 2), F(3, 4),
        ),
        # Attempts before the floor settles run the per-word scan.  The floor
        # of 8 * theta_t is 3 up to attempt 37 and 4 from attempt 38 on.
        # Word 0 (attempt 1) overflows U_0 and then U_1 under 3: 2 trims;
        # under the settled floor 4 the level rule would give it one.
        (
            "max(len(floors), settled)", "0",
            "family open nmax=3 depth=3\nadd 0 01\nadd 1 10\n",
            F(1, 4), F(1, 2) + F(1, 1 << 40),
        ),
    ],
    ids=["carry", "room-skip", "still-outside", "decided-again", "per-word-first"],
)
def test_each_level_rule_condition_is_needed(mutant, old, new, text, eps, eps_prime):
    fam = parse_trace(text)
    broken = mutant(opencover._open_run, old, new)
    literal = literal_cover(fam, eps, eps_prime, True)
    assert run_rows(run_trim_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert run_rows(broken(fam, eps, eps_prime, True), eps, eps_prime) != literal


# Each case makes the naive run trim where it must drop, in one of the two
# places the shared loop tells the modes apart: the run matches the literal
# reference and the mutant does not.
@pytest.mark.parametrize(
    "old,new,text,eps,eps_prime",
    [
        # The level pass.  The floor of 4 * theta_t is 1 throughout, and the
        # level rule starts at attempt 2, word 1 of start 0.  U_0 = 10 has
        # no room, so word 1 overflows it; naive drops it, and the piece 10
        # comes at word 10 (attempt 5).  Made to trim, the pass would cut
        # word 1 to 10, inside U_0, and take the piece there.
        (
            "pending ^= hit  # naive drops the words trim cuts\n"
            "                                if trim:",
            "pending ^= hit\n"
            "                                if True:",
            "family open nmax=1 depth=2\nadd 0 10\n",
            F(1, 4), F(1, 2),
        ),
        # The per-word scan.  The floor of 2 * theta_t is 1 throughout, and
        # the root (attempt 0) runs before the level rule.  It overflows
        # U_0 = 0; naive drops it, and the piece 0 comes at word 0 (attempt
        # 1).  Made to trim, the scan would cut the root to 0 and take the
        # piece there.
        (
            "hit >= 0 and not trim", "hit >= 0 and False",
            "family open nmax=1 depth=1\nadd 0 0\n",
            F(1, 2), F(3, 4),
        ),
    ],
    ids=["level-pass", "per-word-scan"],
)
def test_naive_drops_each_word_trim_would_cut(mutant, old, new, text, eps, eps_prime):
    fam = parse_trace(text)
    broken = mutant(opencover._open_run, old, new)
    literal = literal_cover(fam, eps, eps_prime, False)
    assert run_rows(run_naive_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert run_rows(broken(fam, eps, eps_prime, False), eps, eps_prime) != literal


def test_member_floor_drops_only_at_the_tail_start(mutant):
    # Cells are counted in quarters; the floor of 4 * theta_t is 2 up to
    # attempt 13 and 3 from attempt 14 on.  The root overflows U_0 = 1 and
    # U_1 = 0 alike.  At start 1 the run reads U_1 alone, so the root
    # (attempt 7) is trimmed once, to the new piece 0.  A member floor one
    # below every start would read U_0 there too and trim the root away
    # twice, and the piece 0 would wait for the tail start (attempt 14).
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 1\nadd 1 0\n")
    eps, eps_prime = F(1, 2), F(49153, 65536)
    broken = mutant(opencover._open_run, "min(start, top - 1)", "max(start - 1, 0)")
    literal = literal_cover(fam, eps, eps_prime, True)
    assert run_rows(run_trim_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert literal[2][0][:4] == ("", 1, 7, 1)
    assert piece_rows(broken(fam, eps, eps_prime, True))[0][:4] == ("", 2, 14, 1)


# The end of a child process that prints its own peak RSS in KiB: VmHWM, as
# ru_maxrss keeps the peak of the process that started it (here pytest's).
PRINT_PEAK = """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

# One run on open 64x12 (gen seed 1) in a fresh process.
PEAK_RSS_CHILD = """
import sys
from fractions import Fraction as F
from limcov import gen, opencover, traces
family = traces.parse_trace(gen.gen_trace("open", 64, seed=1, depth=12, eps=F(1, 4)))
getattr(opencover, sys.argv[1])(family, F(1, 4), F(3, 8))
""" + PRINT_PEAK


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM in /proc on Linux")
def test_trim_run_takes_about_the_memory_of_a_naive_run():
    # A trim run keeps one 2-byte trim count per attempt, 532,415 of them:
    # 1 MiB.  One tuple per trimming attempt took 47 MB more than naive.
    env = {**os.environ, "PYTHONPATH": str(Path(opencover.__file__).parents[1])}
    peak = {}
    for run in ("run_trim_cover", "run_naive_cover"):
        child = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, run], env=env,
                               capture_output=True, text=True, check=True)
        peak[run] = int(child.stdout) / 1024
    assert peak["run_trim_cover"] - peak["run_naive_cover"] < 8, peak


# One opencover call on the deepest open family run_size admits, in a fresh
# process, which prints its exit code and then its peak RSS.
DEEP_RSS_CHILD = """
import os, sys
from limcov import cli
print(cli.main(["opencover", "--mode", sys.argv[1], "--trace", sys.argv[2],
                "--eps", "1/4", "--eps-prime", "3/8", "--out", os.devnull]))
""" + PRINT_PEAK


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM in /proc on Linux")
@pytest.mark.parametrize("mode", ["trim", "naive"])
def test_the_deepest_admitted_open_run_stays_under_64_mb(tmp_path, mode):
    # Open nmax=1 depth=15: 65,535 words of up to 2^15 cells.  A mask per
    # word, built before the run, took 167 MB; the runs build a word's mask
    # from its heap index when they visit it.
    trace = tmp_path / "deep.trace"
    trace.write_text("family open nmax=1 depth=15\nadd 0 000000\n")
    env = {**os.environ, "PYTHONPATH": str(Path(opencover.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", DEEP_RSS_CHILD, mode, str(trace)], env=env,
                           capture_output=True, text=True, check=True)
    code, peak = map(int, child.stdout.split())
    assert code == 0 and peak / 1024 < 64, (code, peak)


def test_random_sweep_all_modes():
    rng = random.Random(22)
    for i in range(40):
        nmax, depth = rng.randint(1, 6), rng.randint(1, 5)
        eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
        eps_prime = eps + F(1, 8)
        fam = parse_trace(gen.gen_trace("open", nmax, seed=8000 + i, depth=depth, eps=eps))
        for runner in ALL_RUNNERS:
            res = runner(fam, eps, eps_prime)
            verdict = verify_open_cover(fam, eps, eps_prime, res)
            assert verdict.passed, (runner.__name__, verdict.failures())


# the interval family over an eventually periodic sequence


def test_omega_two_value_cycle():
    res = omega_family([], [F(1, 4), F(1, 2)], F(3, 8))
    assert res.w_min == F(1, 4)
    assert res.intervals[0].lo == F(1, 8) and res.intervals[0].hi == F(3, 8)
    assert res.intervals[0].measure() == F(1, 4) == 2 * F(3, 8) / 3
    assert res.intervals[1].measure() == F(1, 2) > F(3, 8)
    assert all(iv.contains(res.w_min) for iv in res.intervals)
    assert verify_omega_family([], [F(1, 4), F(1, 2)], F(3, 8), res).passed


def test_omega_constant_cycle():
    res = omega_family([], [F(1, 3)], F(1, 5))
    assert all(iv.measure() == 2 * F(1, 5) / 3 for iv in res.intervals)
    assert verify_omega_family([], [F(1, 3)], F(1, 5), res).passed


def test_omega_closed_form_tail():
    # Two full periods past the prefix; the second repeats the first.
    res = omega_family([F(2)], [F(1, 4), F(1, 2)], F(3, 8))
    assert len(res.intervals) == 5
    assert res.intervals[3:] == res.intervals[1:3]


def test_omega_prefix_intervals_are_checked():
    prefix, cycle, eps = [F(2)], [F(1, 4), F(1, 2)], F(3, 8)
    res = omega_family(prefix, cycle, eps)
    assert verify_omega_family(prefix, cycle, eps, res).passed
    forged = dataclasses.replace(res, intervals=(RealInterval(F(0), F(100)), *res.intervals[1:]))
    failed = verify_omega_family(prefix, cycle, eps, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [("prefix-intervals", "i=0")]


def test_omega_tail_membership_is_checked():
    # The first tail interval moved past w_min keeps its measure, so only
    # membership fails.
    prefix, cycle, eps = [F(2)], [F(1, 4), F(1, 2)], F(3, 8)
    res = omega_family(prefix, cycle, eps)
    moved = RealInterval(res.intervals[1].lo + 1, res.intervals[1].hi + 1)
    forged = dataclasses.replace(res, intervals=(res.intervals[0], moved, *res.intervals[2:]))
    failed = verify_omega_family(prefix, cycle, eps, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [("tail-membership", "i=1")]


def test_omega_prefix_then_zero():
    res = omega_family([F(1)], [F(0)], F(1, 4))
    tail = res.intervals[1]
    assert tail.lo == -F(1, 12) and tail.hi == F(1, 12)
    assert tail.contains(F(0))
    assert verify_omega_family([F(1)], [F(0)], F(1, 4), res).passed


def test_omega_long_prefix_is_linear():
    # Both the run and the verifier take the prefix's suffix minima in one
    # backward pass each, so the time grows linearly with the prefix.
    prefix = [F(i * 7 % 13 + 1, i % 5 + 2) for i in range(4000)]
    began = time.perf_counter()
    res = omega_family(prefix, [F(1, 2)], F(1, 4))
    assert verify_omega_family(prefix, [F(1, 2)], F(1, 4), res).passed
    assert time.perf_counter() - began < 2
    assert res.intervals[0].lo == min(prefix) - F(1, 12)


def test_omega_rejects_bad_input():
    with pytest.raises(InputError):
        omega_family([], [], F(1, 2))
    with pytest.raises(InputError):
        omega_family([], [F(1)], F(0))


def test_omega_random_identities():
    rng = random.Random(23)
    for _ in range(30):
        prefix = [F(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]
        cycle = [F(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        eps = F(rng.randint(1, 9), rng.randint(1, 9) * 3)
        res = omega_family(prefix, cycle, eps)
        assert verify_omega_family(prefix, cycle, eps, res).passed
        w_min = min(cycle)
        for pos, iv in enumerate(res.intervals[len(prefix):]):
            w_i = cycle[pos % len(cycle)]
            assert iv.measure() == w_i - w_min + 2 * eps / 3
            assert iv.contains(w_min)
