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
from reference import delta, trim_limit

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


@pytest.mark.parametrize("hinted,members", [(True, 57_575), (False, 67_488)])
def test_trim_run_scans_from_the_parent_hint(monkeypatch, mutant, hinted, members):
    # Open 32x8 (gen seed 1): the trim run makes 3,833 member scans.  Started
    # at the parent's first hit, their member ranges total 57,575; started at
    # the start's first member, 67,488.  Results are the same either way.
    fam = parse_trace(gen.gen_trace("open", 32, seed=1, depth=8, eps=F(1, 4)))
    expected = run_trim_cover(fam, F(1, 4), F(3, 8))
    calls = []
    first_overflow = opencover._first_overflow

    def counting(candidate, masks, counts, members, tf):
        calls.append(len(members))
        return first_overflow(candidate, masks, counts, members, tf)

    # A mutant copies the module's names, so it is built after the patch.
    monkeypatch.setattr(opencover, "_first_overflow", counting)
    run = opencover.run_trim_cover if hinted else mutant(
        opencover.run_trim_cover, "hit if j and changed < seen else low", "low"
    )
    assert run(fam, F(1, 4), F(3, 8)) == expected
    assert (len(calls), sum(calls)) == (3_833, members)


def test_naive_run_scans_only_the_attempts_the_rule_leaves_open(monkeypatch):
    # Open 32x8 (gen seed 1): scanning every attempt whose candidate is not
    # inside takes 3,363 member scans; the naive rule leaves 465.
    fam = parse_trace(gen.gen_trace("open", 32, seed=1, depth=8, eps=F(1, 4)))
    calls = []
    first_overflow = opencover._first_overflow

    def counting(*args):
        calls.append(args)
        return first_overflow(*args)

    monkeypatch.setattr(opencover, "_first_overflow", counting)
    res = run_naive_cover(fam, F(1, 4), F(3, 8))
    assert verify_open_cover(fam, F(1, 4), F(3, 8), res).passed
    assert len(calls) == 465


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


def test_parent_hint_is_dropped_after_a_commit():
    # At start 0 (threshold 3 of 4 cells throughout) word 0 first overflows
    # U_1.  Its sibling 1 then commits, which fills U_0 to cells 01, 10,
    # 11, so the child 00 first overflows U_0, before its parent's first
    # overflow.  A scan that resumed at U_1 would commit 00 in naive mode
    # and push U_0 past the threshold.
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 01\nadd 1 1\n")
    eps, eps_prime = F(1, 2), F(1)
    for trim in (True, False):
        res = (run_trim_cover if trim else run_naive_cover)(fam, eps, eps_prime)
        cover, theta, pieces, trim_events = literal_cover(fam, eps, eps_prime, trim)
        res_theta = DeltaSchedule(eps, eps_prime).theta_after(res.attempts)
        assert (res.cover, res_theta, piece_rows(res), list(res.trim_events)) == (
            cover, theta, pieces, trim_events
        ), trim
        assert verify_open_cover(fam, eps, eps_prime, res).passed


# Each case drops one condition under which a trim attempt reuses its word's
# outcome from an earlier start (see the opencover module docstring): the
# run matches the literal reference and the mutant does not.
@pytest.mark.parametrize(
    "condition,text,eps,eps_prime",
    [
        # No commit since.  At start 0 word 1 first overflows the tail and
        # is trimmed away once.  The commit of word 00 then fills U_1, which
        # word 1 overflows first at start 1, so it is trimmed twice there.
        (
            "changed < seen and ",
            "family open nmax=3 depth=2\nadd 1 10\nadd 2 01\nadd 2 00\n",
            F(1, 2), F(3, 4),
        ),
        # The first hit lies at or after the new start's first member.  At
        # start 0 word 01 first overflows U_0; from start 1 on it fits every
        # member and commits.
        (
            " and hit >= low",
            "family open nmax=4 depth=2\nadd 0 10\nadd 1 01\nadd 3 01\n",
            F(1, 4), F(1, 2),
        ),
        # The same threshold floor.  The floor of 4 * theta_t is 1 up to
        # attempt 7 and 2 from attempt 8 on.  Word 00 first overflows U_1 at
        # start 0 (attempt 3); at start 1 (attempt 10) it fits every member
        # and commits.
        (
            " and seen_tf == tf",
            "family open nmax=3 depth=2\nadd 0 00\nadd 1 01\nadd 2 10\n",
            F(1, 4), F(513, 1024),
        ),
    ],
)
def test_each_cross_start_replica_condition_is_needed(mutant, condition, text, eps, eps_prime):
    fam = parse_trace(text)
    broken = mutant(opencover.run_trim_cover, condition, "")
    literal = literal_cover(fam, eps, eps_prime, True)
    assert run_rows(run_trim_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert run_rows(broken(fam, eps, eps_prime), eps, eps_prime) != literal


# Each case breaks one condition of the naive rule (see the opencover module
# docstring): the run matches the literal reference and the mutant does not.
@pytest.mark.parametrize(
    "old,new,text,eps,eps_prime",
    [
        # A word is filed under a member only once tf has settled.  The
        # floor of 4 * theta_t is 1 up to attempt 7 and 2 from attempt 8 on.
        # Word 00 overflows U_1 and U_2 at start 0 (attempt 3); at start 1
        # (attempt 10) it fits every member and commits.  Filed under U_2,
        # it would wait for the tail start.
        (
            "attempt < len(floors):", "False:",
            "family open nmax=3 depth=2\nadd 0 00\nadd 1 01\nadd 2 10\n",
            F(1, 4), F(513, 1024),
        ),
        # Words scanned before tf settles are visited again at the tail
        # start too.  The floor of 8 * theta_t is 3 up to attempt 37 and 4
        # from attempt 38 on.  Word 011 overflows U_1 at start 1 (attempt
        # 25); at the tail start (attempt 40) it fits and commits.
        (
            "start < top:", "start < top - 1:",
            "family open nmax=2 depth=3\n",
            F(1, 4), F(1, 2) + F(1, 1 << 40),
        ),
        # A word filed under member m is visited again at start m + 1.  At
        # start 0 word 01 overflows U_0 alone; at start 1 it fits every
        # member and commits.
        (
            "due[hit + 1]", "due[hit + 2]",
            "family open nmax=4 depth=2\nadd 0 10\nadd 1 01\nadd 3 01\n",
            F(1, 4), F(1, 2),
        ),
    ],
)
def test_each_naive_rule_condition_is_needed(mutant, old, new, text, eps, eps_prime):
    fam = parse_trace(text)
    broken = mutant(opencover.run_naive_cover, old, new)
    literal = literal_cover(fam, eps, eps_prime, False)
    assert run_rows(run_naive_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert run_rows(broken(fam, eps, eps_prime), eps, eps_prime) != literal


def test_member_floor_drops_only_at_the_tail_start(mutant):
    # Cells are counted in quarters; the floor of 4 * theta_t is 2 up to
    # attempt 13 and 3 from attempt 14 on.  The root overflows U_0 = 1 and
    # U_1 = 0 alike.  At start 1 the run reads U_1 alone, so the root
    # (attempt 7) is trimmed once, to the new piece 0.  A member floor one
    # below every start would read U_0 there too and trim the root away
    # twice, and the piece 0 would wait for the tail start (attempt 14).
    fam = parse_trace("family open nmax=2 depth=2\nadd 0 1\nadd 1 0\n")
    eps, eps_prime = F(1, 2), F(49153, 65536)
    broken = mutant(opencover.run_trim_cover, "min(start, top - 1)", "max(start - 1, 0)")
    literal = literal_cover(fam, eps, eps_prime, True)
    assert run_rows(run_trim_cover(fam, eps, eps_prime), eps, eps_prime) == literal
    assert literal[2][0][:4] == ("", 1, 7, 1)
    assert piece_rows(broken(fam, eps, eps_prime))[0][:4] == ("", 2, 14, 1)


# One run on open 64x12 (gen seed 1) in a fresh process, which prints its
# peak RSS in KiB.
PEAK_RSS_CHILD = """
import resource, sys
from fractions import Fraction as F
from limcov import gen, opencover, traces
family = traces.parse_trace(gen.gen_trace("open", 64, seed=1, depth=12, eps=F(1, 4)))
getattr(opencover, sys.argv[1])(family, F(1, 4), F(3, 8))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
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
