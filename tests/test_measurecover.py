"""Increase processes for semimeasures, frequencies, and tree semimeasures.

Besides the worked examples, the fast implementations are cross-checked on
small random families against literal references that iterate every
(u, N, r) triple and re-test acceptability by brute force.
"""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from limcov import gen, measurecover, traces
from limcov.kernel import InputError, words_up_to
from limcov.measurecover import (
    MeasureCoverResult,
    RationalGrid,
    frequency_semimeasures,
    frequency_trace,
    run_measure_cover,
    run_tree_cover,
    verify_frequency_cover,
    verify_measure_cover,
    verify_tree_cover,
)
from limcov.traces import parse_trace

F = Fraction
ZERO = F(0)


def grid_values(grid):
    """The grid points j / 2^g, 1 <= j <= 2^g, in ascending order."""
    g = grid.resolution
    return [F(j, 1 << g) for j in range(1, (1 << g) + 1)]


def literal_measure_cover(family, grid):
    """Reference: every (u, N, r) attempt, acceptability by full re-check.

    Returns (table, log); the log holds, per (u, N), the largest accepted r
    when it exceeds every r accepted for u before."""
    tables = traces.values_by_index(family)
    working = [dict(t) for t in tables] + [dict(tables[-1])]
    top = family.nmax + 1
    out = {}
    log = []
    for u in traces.universe(family):
        best = ZERO
        for start in range(top):
            accepted = ZERO
            for r in grid_values(grid):
                ok = True
                for n in range(start, top):
                    t = working[n]
                    total = sum(t.values(), ZERO) - t.get(u, ZERO) + max(t.get(u, ZERO), r)
                    if total > 1:
                        ok = False
                        break
                if not ok:
                    continue
                for n in range(start, top):
                    if working[n].get(u, ZERO) < r:
                        working[n][u] = r
                accepted = r
            if accepted > best:
                best = accepted
                log.append((u, start, accepted))
        if best > 0:
            out[u] = best
    return out, log


def literal_tree_cover(family, grid):
    """Reference: increase with full upward repair, root checked per index.

    Returns (table, log); the log holds, per (word, N), the largest accepted
    r when it exceeds every r accepted for the word before."""
    tables = traces.values_by_index(family)
    working = [dict(t) for t in tables] + [dict(tables[-1])]
    top = family.nmax + 1

    def raised(table, word, r):
        t = dict(table)
        if t.get(word, ZERO) < r:
            t[word] = r
        y = word
        while y:
            y = y[:-1]
            need = t.get(y + "0", ZERO) + t.get(y + "1", ZERO)
            if t.get(y, ZERO) < need:
                t[y] = need
        return t

    out = {}
    log = []
    for word in words_up_to(family.depth):
        best = ZERO
        for start in range(top):
            accepted = ZERO
            for r in grid_values(grid):
                candidates = [raised(working[n], word, r) for n in range(start, top)]
                if all(t.get("", ZERO) <= 1 for t in candidates):
                    for n, t in zip(range(start, top), candidates):
                        working[n] = t
                    accepted = r
            if accepted > best:
                best = accepted
                log.append((word, start, accepted))
        if best > 0:
            out[word] = best
    return out, log


def test_grid():
    grid = RationalGrid(2)
    assert grid_values(grid) == [F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert grid.floor(F(2, 3)) == F(1, 2)
    assert grid.floor(F(1, 5)) == 0
    assert grid.floor(F(1)) == 1
    assert grid.floor(F(-1, 2)) == 0
    with pytest.raises(InputError):
        RationalGrid(0)


def test_constant_value_is_kept():
    fam = parse_trace("family measure nmax=2\nraise 0 a 1/2\nraise 1 a 1/2\n")
    res = run_measure_cover(fam, RationalGrid(1))
    assert res.table["a"] >= F(1, 2)
    assert verify_measure_cover(fam, RationalGrid(1), res).passed


def test_all_zero_family_raises_to_one():
    # a is 0 from member 1 on, so its liminf is 0; every member leaves it
    # headroom 1.
    fam = parse_trace("family measure nmax=2\nraise 0 a 1/4\n")
    res = run_measure_cover(fam, RationalGrid(1))
    assert traces.liminf_values(fam, "a") == 0
    assert res.table["a"] == 1  # upper bound, not equality with the liminf
    assert verify_measure_cover(fam, RationalGrid(1), res).passed


def test_two_halves_pinch_exactly():
    fam = parse_trace("family measure nmax=1\nraise 0 a 1/2\nraise 0 b 1/2\n")
    res = run_measure_cover(fam, RationalGrid(2))
    assert res.table == {"a": F(1, 2), "b": F(1, 2)}


def test_semimeasure_precondition_names_index():
    fam = parse_trace("family measure nmax=2\nraise 1 a 3/4\nraise 1 b 3/4\n")
    with pytest.raises(InputError, match="m_1"):
        run_measure_cover(fam, RationalGrid(2))


def test_output_always_a_semimeasure_and_floor_dominating():
    rng = random.Random(7)
    for i in range(60):
        text = gen.gen_trace(
            "measure", rng.randint(1, 6), seed=2000 + i, universe=rng.randint(1, 8)
        )
        fam = parse_trace(text)
        grid = RationalGrid(rng.randint(1, 4))
        res = run_measure_cover(fam, grid)
        assert sum(res.table.values(), ZERO) <= 1
        for u in traces.universe(fam):
            assert res.table.get(u, ZERO) >= grid.floor(traces.liminf_values(fam, u))
        assert verify_measure_cover(fam, grid, res).passed


def test_grid_refinement_never_lowers_the_floor():
    rng = random.Random(8)
    for i in range(20):
        fam = parse_trace(gen.gen_trace("measure", rng.randint(1, 5), seed=2500 + i, universe=5))
        for u in traces.universe(fam):
            v = traces.liminf_values(fam, u)
            for g in range(1, 6):
                assert RationalGrid(g).floor(v) <= RationalGrid(g + 1).floor(v)


# Values 2/3, 1/3, 1/7 and 1/5: the common denominator is not a power of
# two, and m_0 leaves c no headroom, so c's increase starts at N=1.
NON_DYADIC_MEASURE = (
    "family measure nmax=3\n"
    "raise 0 a 2/3\nraise 0 b 1/3\nraise 1 a 1/3\nraise 1 b 1/7\nraise 1 c 1/5\n"
    "raise 2 a 1/3\nraise 2 b 1/7\nraise 2 c 1/5\n"
)


def literal_reference_inputs():
    """Seeded measure traces, frequency traces (values c/n) and one
    non-dyadic trace, each with a grid."""
    rng = random.Random(9)
    for i in range(40):
        fam = parse_trace(
            gen.gen_trace("measure", rng.randint(1, 4), seed=3000 + i, universe=rng.randint(1, 4))
        )
        yield fam, RationalGrid(rng.randint(1, 3))
    for i in range(19):
        horizon = rng.randint(1, 8)
        values = gen.parse_function_table(
            gen.gen_function_text(7000 + i, horizon, value_range=3)
        )
        yield frequency_trace(values, horizon), RationalGrid(rng.randint(1, 3))
    yield parse_trace(NON_DYADIC_MEASURE), RationalGrid(3)


def test_matches_literal_reference():
    for fam, grid in literal_reference_inputs():
        fast = run_measure_cover(fam, grid)
        table, log = literal_measure_cover(fam, grid)
        assert (fast.table, list(fast.log)) == (table, log)
        # The tail start raises nothing, so runs stop at start nmax-1.
        assert all(start < fam.nmax for _, start, _ in log)


def test_mutated_log_flips_verdict():
    fam = parse_trace("family measure nmax=2\nraise 0 a 1/2\nraise 1 a 1/2\n")
    grid = RationalGrid(2)
    res = run_measure_cover(fam, grid)
    assert res.log
    broken = replace(res, log=res.log[:-1])
    assert not verify_measure_cover(fam, grid, broken).passed


def test_table_past_one_fails_only_the_semimeasure_check():
    # A key outside the family's universe raised to 1 in the table and its
    # log: the log replays to the table and the universe stays dominated,
    # but the total is 2.
    fam = parse_trace("family measure nmax=2\nraise 0 a 1/2\nraise 1 a 1/2\n")
    grid = RationalGrid(2)
    res = run_measure_cover(fam, grid)
    forged = replace(res, table={**res.table, "z": F(1)}, log=(*res.log, ("z", 1, F(1))))
    failed = verify_measure_cover(fam, grid, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [("semimeasure", "sum 2")]


# frequency semimeasures


def test_frequency_total_function():
    mus = frequency_semimeasures({i: "x" for i in range(4)}, 4)
    assert all(mu["x"] == 1 for mu in mus)


def test_frequency_undefined_everywhere():
    mus = frequency_semimeasures({}, 3)
    assert mus == [{}, {}, {}]


def test_frequency_counts_by_formula():
    mus = frequency_semimeasures({0: "a", 1: "b", 2: "a"}, 3)
    assert mus[2] == {"a": F(2, 3), "b": F(1, 3)}


def test_frequency_rejects_bad_input():
    with pytest.raises(InputError):
        frequency_semimeasures({}, 0)
    with pytest.raises(InputError):
        frequency_semimeasures({5: "a"}, 3)


def test_frequency_trace_members_are_the_fractions():
    values = {0: "a", 1: "b", 2: "a"}
    fam = frequency_trace(values, 3)
    assert fam.kind == "measure" and fam.nmax == 3
    mus = frequency_semimeasures(values, 3)
    for n, table in enumerate(traces.values_by_index(fam)):
        assert table == {k: v for k, v in mus[n].items() if v > 0}


def test_frequency_pipeline_dominates_suffix_minima():
    rng = random.Random(11)
    for i in range(25):
        horizon = rng.randint(1, 12)
        values = gen.parse_function_table(
            gen.gen_function_text(4000 + i, horizon, value_range=4)
        )
        grid = RationalGrid(rng.randint(1, 4))
        fam = frequency_trace(values, horizon)
        res = run_measure_cover(fam, grid)
        assert verify_frequency_cover(values, horizon, grid, res).passed


def test_frequencies_past_one_fail_only_the_semimeasure_check():
    # A value the function never takes raised to 1: every fraction stays
    # dominated, but the table's total is 7/4.
    values = {0: "a", 1: "b", 2: "a"}
    grid = RationalGrid(2)
    res = run_measure_cover(frequency_trace(values, 3), grid)
    forged = replace(res, table={**res.table, "z": F(1)})
    failed = verify_frequency_cover(values, 3, grid, forged).failures()
    assert [(c.name, c.witness) for c in failed] == [("semimeasure", "7/4")]


# tree semimeasures


def test_tree_raise_on_empty_family():
    fam = traces.StabilizedFamily("tree", 1, 1, ())
    res = run_tree_cover(fam, RationalGrid(1))
    # the root and the first child saturate; the second child must stay 0
    assert res.table[""] == 1 and res.table["0"] == 1 and "1" not in res.table
    assert verify_tree_cover(fam, RationalGrid(1), res).passed


def test_tree_blocked_sibling():
    fam = parse_trace("family tree nmax=1 depth=1\nraise 0 e 3/4\nraise 0 0 3/4\n")
    res = run_tree_cover(fam, RationalGrid(2))
    # raising a("1") implies a(root) >= a("0") + a("1") > 1, so "1" stays 0
    assert "1" not in res.table
    assert res.table["0"] >= F(3, 4)
    assert verify_tree_cover(fam, RationalGrid(2), res).passed


def test_tree_low_raise_is_noop():
    fam = parse_trace("family tree nmax=1 depth=1\nraise 0 e 1/2\nraise 0 0 1/2\n")
    res = run_tree_cover(fam, RationalGrid(1))
    assert res.table["0"] >= F(1, 2)


def test_tree_precondition_names_word_and_index():
    fam = parse_trace("family tree nmax=1 depth=2\nraise 0 00 1/2\nraise 0 01 1/2\n")
    with pytest.raises(InputError, match="a_0"):
        run_tree_cover(fam, RationalGrid(1))


def test_tree_matches_literal_reference():
    rng = random.Random(13)
    for i in range(30):
        fam = parse_trace(gen.gen_trace("tree", rng.randint(1, 6), seed=5000 + i, depth=rng.randint(1, 4)))
        grid = RationalGrid(rng.randint(1, 5))
        fast = run_tree_cover(fam, grid)
        table, log = literal_tree_cover(fam, grid)
        assert fast.table == table
        assert list(fast.log) == log
        # The tail start raises nothing, so runs stop at start nmax-1.
        assert all(start < fam.nmax for _, start, _ in log)


# Caps of 1/3 and 2/3 floor to the 1/8 grid; the common denominator is 24.
NON_DYADIC_TREE = (
    "family tree nmax=2 depth=1\n"
    "raise 0 e 2/3\nraise 0 1 2/3\nraise 1 e 1/3\nraise 1 1 1/3\n"
)


def test_tree_non_dyadic_values_floor_exactly():
    fam = parse_trace(NON_DYADIC_TREE)
    grid = RationalGrid(3)
    res = run_tree_cover(fam, grid)
    assert res.table == {"": 1, "0": F(5, 8), "1": F(3, 8)}
    assert res.log == (("", 0, 1), ("0", 0, F(1, 4)), ("0", 1, F(5, 8)), ("1", 0, F(3, 8)))
    assert (res.table, list(res.log)) == literal_tree_cover(fam, grid)
    assert verify_tree_cover(fam, grid, res).passed


def test_tree_sweep_keeps_law_and_floor():
    rng = random.Random(14)
    for i in range(40):
        fam = parse_trace(gen.gen_trace("tree", rng.randint(1, 5), seed=6000 + i, depth=rng.randint(1, 4)))
        grid = RationalGrid(rng.randint(1, 4))
        res = run_tree_cover(fam, grid)
        verdict = verify_tree_cover(fam, grid, res)
        assert verdict.passed, verdict.failures()


def test_tree_mutations_flip_their_checks():
    fam = parse_trace(NON_DYADIC_TREE)
    grid = RationalGrid(3)
    res = run_tree_cover(fam, grid)
    assert verify_tree_cover(fam, grid, res).passed

    dropped = replace(res, log=res.log[:-1])
    failed = verify_tree_cover(fam, grid, dropped).failures()
    assert "log-consistency" in [c.name for c in failed]

    # "1" has liminf 1/3, floor 1/4 on the 1/8 grid; 1/8 keeps log and tree law.
    assert traces.liminf_values(fam, "1") == F(1, 3)
    lowered = type(res)(
        {**res.table, "1": F(1, 8)},
        tuple((w, n, F(1, 8) if w == "1" else r) for w, n, r in res.log),
    )
    failed = verify_tree_cover(fam, grid, lowered).failures()
    assert [c.name for c in failed] == ["grid-floor"]


def test_tree_run_memory_follows_its_heap_rows():
    # One root raise at depth 14: 32,767 heap entries.  Each key's sibling
    # path is read up the heap from its index: a path kept for every index
    # (depth * 2^depth entries) takes the peak to about 9.6 MB, where the
    # run needs about 2.6 MB.
    fam = parse_trace("family tree nmax=1 depth=14\nraise 0 e 1/2\n")
    tracemalloc.start()
    try:
        result = run_tree_cover(fam, RationalGrid(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.table[""] == F(1)
    assert peak < 5_000_000


def test_tree_verifier_ignores_log_keys_outside_the_tree():
    """Log keys that are no word of length <= depth are in no heap row: a
    result that also raises them gets the verdict of the result without."""
    fam = parse_trace(NON_DYADIC_TREE)
    grid = RationalGrid(3)
    res = run_tree_cover(fam, grid)
    extra = {"0" * (fam.depth + 1): F(1, 2), "x": F(1, 4)}
    padded = type(res)({**res.table, **extra}, (*res.log, *((k, 0, r) for k, r in extra.items())))
    assert verify_tree_cover(fam, grid, padded) == verify_tree_cover(fam, grid, res)


# The gate: a key with less than a grid step of headroom in member nmax-1 is
# never raised.  In GATE_MEMBER "0" has no headroom in member 0 but all of it
# in member 1; in GATE_STEP "0" has exactly one step (1/4) of headroom.
GATE_MEMBER = "family tree nmax=2 depth=1\nraise 0 e 1\nraise 0 1 1\n"
GATE_STEP = "family tree nmax=1 depth=1\nraise 0 e 1\nraise 0 1 3/4\n"


@pytest.mark.parametrize("old,new,text,grid", [
    ("rows[-1:]", "rows[:1]", GATE_MEMBER, 1),
    ("< step", "< 2 * step", GATE_STEP, 2),
], ids=["gate-on-member-0", "gate-at-two-steps"])
def test_each_gate_condition_is_needed(monkeypatch, mutant, old, new, text, grid):
    fam, grid = parse_trace(text), RationalGrid(grid)
    expected = literal_tree_cover(fam, grid)
    res = run_tree_cover(fam, grid)
    assert (res.table, list(res.log)) == expected
    assert "0" in res.table
    monkeypatch.setattr(measurecover, "_increase", mutant(measurecover._increase, old, new))
    res = run_tree_cover(fam, grid)
    assert (res.table, list(res.log)) != expected


def outside_reads(increase):
    """``increase`` wrapped to note the key of each outside() call: on
    member nmax-1 alone (the gate) into the first list, on every row into
    the second."""
    gates, full = [], []

    def counting(roots, below, name, rows, scale, grid, outside, lift):
        def counted(i, part):
            (full if part is rows else gates).append(i)
            return outside(i, part)
        return increase(roots, below, name, rows, scale, grid, counted, lift)
    return counting, gates, full


@pytest.mark.parametrize("kind,nmax,depth,grid,keys,entries", [
    ("tree", 64, 12, 4, 24, 60),
    ("measure", 16, None, 3, 2, 4),
])
def test_only_logged_keys_read_every_row(monkeypatch, kind, nmax, depth, grid, keys, entries):
    """Keys past the gate are exactly the logged ones: a key that passes it
    has a grid step of headroom at the last start, so it logs there or
    earlier.  Tree 64x12 (seed 1, grid 4) logs 24 of its 8,191 words and
    measure 16 (seed 1, grid 3) 2 of its 15 elements."""
    counting, _, full_reads = outside_reads(measurecover._increase)
    monkeypatch.setattr(measurecover, "_increase", counting)
    fam = parse_trace(gen.gen_trace(kind, nmax, 1, depth=depth))
    run = run_tree_cover if kind == "tree" else run_measure_cover
    res = run(fam, RationalGrid(grid))
    ordered = words_up_to(depth) if kind == "tree" else traces.universe(fam)
    assert [ordered[i] for i in full_reads] == [k for k in ordered if k in res.table]
    assert (len(full_reads), len(res.log)) == (keys, entries)


# The deepest tree the run limits admit: e, 0, ..., 0^15 valued 1/2 .. 1/2^16.
TREE_1X15 = "family tree nmax=1 depth=15\n" + "".join(
    f"raise 0 {'0' * k or 'e'} 1/{2 << k}\n" for k in range(16)
)


@pytest.mark.parametrize("kind,nmax,depth,grid,reads", [
    ("tree", 64, 12, 4, 45),
    ("tree", 1, 15, 4, 31),
    ("measure", 16, None, 3, 15),
], ids=["tree-64x12", "tree-1x15", "measure-16"])
def test_gate_reads_skip_the_words_below_a_gated_word(monkeypatch, kind, nmax, depth, grid, reads):
    """A tree reads the gate of the root and of the children of each word
    past it, in heap order: tree 64x12 (seed 1, grid 4) 45 of its 8,191
    words, where 24 pass, and tree 1x15 31 of its 65,535, where the 16
    words e .. 0^15 pass.  A flat run reads every key's gate."""
    counting, got, _ = outside_reads(measurecover._increase)
    monkeypatch.setattr(measurecover, "_increase", counting)
    fam = parse_trace(TREE_1X15 if nmax == 1 else gen.gen_trace(kind, nmax, 1, depth=depth))
    (run_tree_cover if kind == "tree" else run_measure_cover)(fam, RationalGrid(grid))
    assert len(got) == reads
    assert got == sorted(got)


def test_gated_subtrees_skip_no_raise(monkeypatch, mutant):
    """The run equals a copy that also visits every word below a gated
    word, on 200 gen tree families up to depth 9 and on tree 1x15."""
    rng = random.Random(32)
    unpruned = mutant(
        measurecover._increase,
        "continue  # gated",
        "keys.extend(below(i))\n            continue  # gated",
    )
    cases = [(TREE_1X15, 4)] + [
        (gen.gen_trace("tree", rng.randint(1, 16), 3200 + k, depth=rng.randint(1, 9)),
         rng.randint(1, 5))
        for k in range(200)
    ]
    increase, skipped = measurecover._increase, 0
    for text, grid in cases:
        fam, grid = parse_trace(text), RationalGrid(grid)
        pruned, reads, _ = outside_reads(increase)
        monkeypatch.setattr(measurecover, "_increase", pruned)
        res = run_tree_cover(fam, grid)
        full, all_reads, _ = outside_reads(unpruned)
        monkeypatch.setattr(measurecover, "_increase", full)
        assert run_tree_cover(fam, grid) == res, text
        assert len(all_reads) == (2 << fam.depth) - 1
        skipped += len(all_reads) - len(reads)
    assert skipped > 0


@pytest.mark.parametrize("text,table,witness", [
    (NON_DYADIC_TREE, {"": F(9, 8), "0": F(5, 8), "1": F(3, 8)}, "root value 9/8"),
    (NON_DYADIC_TREE, {"": F(1), "0": F(5, 8), "1": F(1, 2)}, "e"),
    ("family tree nmax=1 depth=2\n", {"": F(1), "0": F(1, 2), "00": F(1, 3), "01": F(1, 5)}, "0"),
], ids=["root-above-one", "law-at-root", "law-below-root"])
def test_tree_law_witness_names_the_first_broken_word(text, table, witness):
    result = MeasureCoverResult(table, tuple((w, 0, r) for w, r in table.items()))
    failed = verify_tree_cover(parse_trace(text), RationalGrid(3), result).failures()
    assert [(c.name, c.witness) for c in failed if c.name == "tree-law"] == [("tree-law", witness)]
