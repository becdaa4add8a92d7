"""The finite-set covering pass: examples, guarantees, determinism."""

import random

import pytest

from limcov import gen, traces
from limcov.kernel import InputError
from limcov.setcover import run_set_cover, verify_set_cover
from limcov.traces import liminf_sets, parse_trace

SHIFT_TRACE = "family sets nmax=2\nadd 0 a\nadd 0 b\nadd 1 b\nadd 1 c\n"


def literal_set_cover(family, k):
    """Reference: every pair (N, u) with N over [0, nmax], where index nmax
    is a copy of the last member for the tail; u is added to every set from
    N on when each of them, u added, holds at most 2^k elements.

    Returns (cover, log) with one log entry (N, u) per newly covered u."""
    sets_ = traces.sets_by_index(family)
    working = [set(s) for s in sets_] + [set(sets_[-1])]
    cover = set()
    log = []
    for start in range(family.nmax + 1):
        for u in traces.universe(family):
            grown = [s | {u} for s in working[start:]]
            if all(len(s) <= 1 << k for s in grown):
                working[start:] = grown
                if u not in cover:
                    cover.add(u)
                    log.append((start, u))
    return frozenset(cover), log


def test_constant_singleton_family():
    fam = parse_trace("family sets nmax=2\nadd 0 a\nadd 1 a\n")
    res = run_set_cover(fam, 0)
    assert res.cover == frozenset({"a"})
    assert verify_set_cover(fam, 0, res).passed


def test_empty_family():
    fam = parse_trace("family sets nmax=1\n")
    res = run_set_cover(fam, 0)
    assert len(res.cover) <= 1
    assert verify_set_cover(fam, 0, res).passed


def test_two_set_example():
    fam = parse_trace(SHIFT_TRACE)
    res = run_set_cover(fam, 1)
    assert res.cover == frozenset({"b", "c"})
    assert res.bound == 2
    assert verify_set_cover(fam, 1, res).passed


def test_an_acceptance_that_fills_a_member_refuses_later_elements():
    # At start 0, a fills U_1 = {y, z, w}, so x, which fit U_1 before, is
    # refused there; y and z still fit, z fills U_0, and w waits for start 1.
    fam = parse_trace("family sets nmax=2\nadd 0 a\nadd 0 x\nadd 1 y\nadd 1 z\nadd 1 w\n")
    res = run_set_cover(fam, 2)
    assert res.log == ((0, "a"), (0, "y"), (0, "z"), (1, "w"))
    assert (res.cover, list(res.log)) == literal_set_cover(fam, 2)


def test_rejected_element_stays_out():
    # (0, a) must be rejected: U_1 would grow to three elements.
    fam = parse_trace(SHIFT_TRACE)
    res = run_set_cover(fam, 1)
    assert "a" not in res.cover


def test_precondition_violation_names_index():
    fam = parse_trace("family sets nmax=2\nadd 1 a\nadd 1 b\n")
    with pytest.raises(InputError, match="U_1"):
        run_set_cover(fam, 0)
    with pytest.raises(InputError):
        run_set_cover(fam, -1)


def test_verify_fail_names_witness():
    fam = parse_trace(SHIFT_TRACE)
    res = run_set_cover(fam, 1)
    crippled = type(res)(
        cover=frozenset({"b"}),
        log=tuple(entry for entry in res.log if entry[1] == "b"),
        bound=res.bound,
    )
    verdict = verify_set_cover(fam, 1, crippled)
    assert not verdict.passed
    assert any(c.name == "coverage" and c.witness == "c" for c in verdict.checks)


def test_oversized_cover_fails_only_cardinality():
    # Two elements added to both the cover and the log: the log still
    # matches the cover and covers the liminf, but 4 elements pass 2^1.
    fam = parse_trace(SHIFT_TRACE)
    res = run_set_cover(fam, 1)
    forged = type(res)(
        cover=res.cover | {"x", "y"}, log=(*res.log, (1, "x"), (1, "y")), bound=res.bound
    )
    failed = verify_set_cover(fam, 1, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [("cardinality", "4 elements exceed 2")]


def test_cover_off_its_log_fails_only_log_consistency():
    # An element in the cover that no log entry accepted: the log alone
    # still covers the liminf within 2^1 elements.
    fam = parse_trace(SHIFT_TRACE)
    res = run_set_cover(fam, 1)
    forged = type(res)(cover=res.cover | {"x"}, log=res.log, bound=res.bound)
    failed = verify_set_cover(fam, 1, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [
        ("log-consistency", "cover disagrees with the acceptance log")]


def test_verify_accepts_the_liminf_itself():
    fam = parse_trace(SHIFT_TRACE)
    limit = liminf_sets(fam)
    res = type(run_set_cover(fam, 1))(
        cover=limit, log=tuple((0, u) for u in sorted(limit)), bound=2
    )
    assert verify_set_cover(fam, 1, res).passed


def test_replay_determinism():
    fam = parse_trace(SHIFT_TRACE)
    first = run_set_cover(fam, 1)
    second = run_set_cover(parse_trace(SHIFT_TRACE), 1)
    assert first == second


def test_redundant_duplicate_events_do_not_change_cover():
    fam = parse_trace(SHIFT_TRACE)
    fam_dup = parse_trace(SHIFT_TRACE + "add 0 b\nadd 1 c\n")
    assert run_set_cover(fam, 1).cover == run_set_cover(fam_dup, 1).cover


def test_random_sweep_all_pass():
    rng = random.Random(42)
    for i in range(150):
        k = rng.randint(0, 3)
        text = gen.gen_trace(
            "sets",
            rng.randint(1, 8),
            seed=1000 + i,
            universe=rng.randint(1, 12),
            bound=1 << k,
        )
        fam = parse_trace(text)
        res = run_set_cover(fam, k)
        verdict = verify_set_cover(fam, k, res)
        assert verdict.passed, (text, verdict.failures())
        assert liminf_sets(fam) <= res.cover
        assert len(res.cover) <= 1 << k


def test_matches_literal_reference():
    rng = random.Random(43)
    for i in range(200):
        k = rng.randint(0, 3)
        nmax = rng.randint(1, 24)
        text = gen.gen_trace(
            "sets", nmax, seed=2000 + i, universe=rng.randint(1, 16), bound=1 << k
        )
        fam = parse_trace(text)
        fast = run_set_cover(fam, k)
        cover, log = literal_set_cover(fam, k)
        assert (fast.cover, list(fast.log)) == (cover, log), text
        # The tail start adds nothing, so runs stop at start nmax-1.
        assert all(start < nmax for start, _ in log)
