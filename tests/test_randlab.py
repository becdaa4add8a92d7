"""Deficiency sets, covers, bar-deficiency, and test stabilization."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from limcov import gen, traces
from limcov.kernel import CylinderSet, InputError
from limcov.randlab import (
    DecoderTable,
    TestApproximation,
    bar_deficiency,
    deficiency_bound,
    deficiency_cover_family,
    deficiency_family_verdict,
    deficiency_pipeline,
    deficiency_sets,
    parse_decoder,
    parse_test_table,
    stabilize_test,
    verify_bar_deficiency,
    verify_deficiency_sets,
    verify_stabilize,
)

F = Fraction

ONE_ENTRY = DecoderTable((("0", "00"),))


def random_decoder(seed: int) -> DecoderTable:
    return parse_decoder(gen.gen_decoder_text(seed, entries=random.Random(seed).randint(0, 14)))


def test_parse_decoder():
    dec = parse_decoder("0 00\ne 1\n")
    assert dec.entries == (("0", "00"), ("", "1"))
    with pytest.raises(traces.ParseError):
        parse_decoder("0 00\n0 11\n")  # duplicate program
    with pytest.raises(traces.ParseError):
        parse_decoder("0 2\n")


def test_complexity_takes_the_shortest_program():
    dec = DecoderTable((("0", "1"), ("00", "1"), ("111", "0")))
    assert dec.complexity() == {"1": 1, "0": 3}
    assert {u: len(u) - k for u, k in dec.complexity().items()} == {"1": 0, "0": -2}


def test_deficiency_set_examples():
    assert deficiency_sets(ONE_ENTRY, 2, 0) == frozenset({"00"})
    assert deficiency_sets(DecoderTable(()), 5, 2) == frozenset()
    assert deficiency_sets(ONE_ENTRY, 2, 2) == frozenset()


def test_deficiency_counting_bound():
    rng = random.Random(41)
    for i in range(60):
        dec = random_decoder(10_000 + i)
        for n in range(0, 11):
            for c in range(0, n + 1):
                dset = deficiency_sets(dec, n, c)
                assert len(dset) <= max(0, (1 << (n - c)) - 1)
                assert all(len(u) == n for u in dset)


def test_cover_family_examples():
    fam = deficiency_cover_family(DecoderTable(()), 1, 3, 3)
    assert all(s == CylinderSet.empty() for s in traces.opens_by_index(fam))
    fam = deficiency_cover_family(ONE_ENTRY, 0, 3, 3)
    assert traces.opens_by_index(fam)[2] == CylinderSet({"00"})
    assert traces.opens_by_index(fam)[2].measure() == F(1, 4)
    fam = deficiency_cover_family(ONE_ENTRY, 3, 3, 3)
    assert all(s == CylinderSet.empty() for s in traces.opens_by_index(fam))


def test_cover_family_measure_bound():
    rng = random.Random(43)
    for i in range(30):
        dec = random_decoder(11_000 + i)
        c = rng.randint(0, 3)
        fam = deficiency_cover_family(dec, c, 6, 6)
        for s in traces.opens_by_index(fam):
            assert s.measure() <= F(1, 1 << c)
        assert deficiency_family_verdict(dec, c, fam).passed


def test_cover_family_depth_precondition():
    with pytest.raises(InputError):
        deficiency_cover_family(ONE_ENTRY, 1, 4, 3)


def test_pipeline_covers_at_doubled_measure():
    _, result, verdict = deficiency_pipeline(ONE_ENTRY, 1, 4, 4)
    assert verdict.passed
    assert result.cover.measure() <= F(1, 1)
    with pytest.raises(InputError):
        deficiency_pipeline(ONE_ENTRY, 0, 4, 4)


def test_bar_deficiency_examples():
    assert bar_deficiency(ONE_ENTRY, "0", 2) == 1
    assert bar_deficiency(ONE_ENTRY, "00", 2) == 1  # the string itself
    assert bar_deficiency(DecoderTable(()), "0", 4) is None
    with pytest.raises(InputError):
        bar_deficiency(ONE_ENTRY, "000", 2)


def test_bar_deficiency_is_bounded_by_described_witnesses():
    rng = random.Random(44)
    for i in range(40):
        dec = random_decoder(12_000 + i)
        for y, k in dec.complexity().items():
            d = len(y) - k
            for cut in range(len(y) + 1):
                x = y[:cut]
                got = bar_deficiency(dec, x, max(len(y), len(x)))
                assert got is not None and got <= d


def test_deficiency_oracle_catches_wrong_sets():
    dec = DecoderTable((("0", "00"), ("1", "01"), ("00", "10")))
    dset = deficiency_sets(dec, 2, 0)
    assert dset == frozenset({"00", "01"}) and deficiency_bound(2, 0) == 3
    assert verify_deficiency_sets(dec, 2, 0, dset).passed
    for wrong, failing in ((dset - {"01"}, ["oracle-agreement"]),
                           (dset | {"11"}, ["oracle-agreement"]),
                           (frozenset({"00", "01", "10", "11"}), ["oracle-agreement", "count-bound"])):
        failed = verify_deficiency_sets(dec, 2, 0, wrong).failures()
        assert [c.name for c in failed] == failing
    with pytest.raises(InputError, match="max 16"):
        verify_deficiency_sets(dec, 17, 0, frozenset())


def test_bar_deficiency_oracle_catches_wrong_values():
    assert verify_bar_deficiency(ONE_ENTRY, "0", 2, 1).passed
    assert verify_bar_deficiency(DecoderTable(()), "0", 4, None).passed
    for wrong in (0, 2, None):
        failed = verify_bar_deficiency(ONE_ENTRY, "0", 2, wrong).failures()
        assert [c.name for c in failed] == ["oracle-agreement"]
    with pytest.raises(InputError, match="exhaustive-verification scale"):
        verify_bar_deficiency(ONE_ENTRY, "", 17, None)


def test_stabilize_single_interval():
    out = stabilize_test(TestApproximation({(0, 2): "01"}, 0))
    assert out.covered[2] == ("01",)
    assert out.codes[2] == {"01": "00"}
    assert verify_stabilize(TestApproximation({(0, 2): "01"}, 0), out).passed


def test_stabilize_empty_table():
    out = stabilize_test(TestApproximation({}, 1))
    assert out.covered == {} and out.deleted == ()


def test_stabilize_deletion_pass():
    out = stabilize_test(TestApproximation({(0, 1): "0", (1, 1): "1"}, 1))
    assert out.deleted == ((1, 1),)
    assert out.covered[1] == ("0",)
    assert out.totals[1] == F(1, 2)


def test_stabilize_codes_have_width_n_minus_c():
    out = stabilize_test(
        TestApproximation({(0, 3): "0", (1, 3): "10", (2, 3): "110"}, 1)
    )
    covered = out.covered[3]
    assert len(covered) <= 4
    codes = out.codes[3]
    assert all(len(code) == 2 for code in codes.values())
    assert len(set(codes.values())) == len(codes)


def test_stabilize_rejects_structural_violations():
    with pytest.raises(InputError):
        TestApproximation({(3, 1): "0"}, 0)  # interval before its index
    with pytest.raises(InputError):
        TestApproximation({(0, 1): "00"}, 0)  # measure below 2^-n
    with pytest.raises(InputError):
        TestApproximation({(0, 1): "0"}, -1)


def test_stabilize_failures_name_their_witness():
    table = TestApproximation({(0, 3): "0", (1, 3): "1"}, 1)
    out = stabilize_test(table)
    assert out.deleted == ((1, 3),) and verify_stabilize(table, out).passed

    def witnesses(result):
        return {c.name: c.witness for c in verify_stabilize(table, result).failures()}

    assert witnesses(replace(out, surviving={**out.surviving, (1, 3): "1"})) == {
        "count-bound": "n=3: 8 strings", "measure-bound": "n=3: 1", "code-injectivity": "n=3"
    }
    assert witnesses(replace(out, totals={3: F(1, 4)})) == {"measure-bound": "n=3: 1/2"}
    assert witnesses(replace(out, surviving={(0, 3): "00"}, totals={3: F(1, 4)})) == {
        "count-bound": "n=3: 2 strings",
        "measure-bound": "(0, 3) is not an interval of the table",
        "code-injectivity": "n=3",
    }
    colliding = {3: dict.fromkeys(out.codes[3], "00")}
    assert witnesses(replace(out, codes=colliding)) == {"code-injectivity": "n=3"}


def test_stabilize_deletion_pass_is_checked():
    table = TestApproximation({(0, 3): "0", (1, 3): "1"}, 1)
    out = stabilize_test(table)

    def witnesses(result):
        return {c.name: c.witness for c in verify_stabilize(table, result).failures()}

    # Deleting (0, 3) as well lets no interval through, yet keeping it fits.
    none_kept = replace(
        out, surviving={}, deleted=((0, 3), (1, 3)), covered={3: ()}, codes={3: {}},
        totals={3: F(0)},
    )
    assert witnesses(none_kept) == {"measure-bound": "(0, 3) deleted within the bound"}
    assert witnesses(replace(out, deleted=())) == {
        "measure-bound": "survivors and deletions do not partition the table"
    }


def test_stabilize_refuses_long_expansions():
    with pytest.raises(InputError, match="max 16"):
        stabilize_test(TestApproximation({(0, 40): "0"}, 1))
    out = stabilize_test(TestApproximation({(0, 17): "0" * 17}, 1))  # n - c = 16
    assert out.covered[17] == ("0" * 17,)


def test_parse_test_table():
    t = parse_test_table("0 2 01\n1 2 1\n", 0)
    assert t.intervals == {(0, 2): "01", (1, 2): "1"}
    with pytest.raises(traces.ParseError):
        parse_test_table("0 2 01\n0 2 11\n", 0)
    with pytest.raises(traces.ParseError):
        parse_test_table("2 1 0\n", 0)
    with pytest.raises(traces.ParseError) as err:
        parse_test_table("0 2 01\n\u0661 2 1\n", 0)
    assert err.value.lineno == 2


def test_stabilize_random_tables():
    rng = random.Random(45)
    for i in range(40):
        c = rng.randint(0, 3)
        text = gen.gen_test_table_text(13_000 + i, c, max_n=7)
        table = parse_test_table(text, c)
        out = stabilize_test(table)
        assert verify_stabilize(table, out).passed
        for n, strings in out.covered.items():
            assert len(strings) <= (1 << (n - c) if n >= c else 0)
            assert out.totals[n] <= F(1, 1 << c)
            codes = out.codes[n]
            assert len(set(codes.values())) == len(codes)
            for code in codes.values():
                assert len(code) == n - c
