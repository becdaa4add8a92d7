"""Kernel invariants: canonical form, exact measures, set algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limcov.kernel import (
    CylinderSet,
    MAX_EXPONENT,
    InputError,
    RealInterval,
    cell_span,
    is_natural,
    is_word,
    parse_rational,
    word_from_text,
    word_to_text,
    words_up_to,
)

F = Fraction

words = st.text(alphabet="01", min_size=0, max_size=8)
word_sets = st.frozensets(words, max_size=12)
rationals = st.fractions(max_denominator=64)


@pytest.mark.parametrize(
    "inside,expected",
    [
        ({"01"}, F(1, 4)),
        (set(), F(0)),
        ({"0", "1"}, F(1)),
        ({"00", "11"}, F(1, 2)),
    ],
)
def test_measure_examples(inside, expected):
    assert CylinderSet(inside).measure() == expected


def test_whole_space_canonicalizes_to_root():
    assert CylinderSet({"0", "1"}).words == frozenset({""})


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ({"0"}, {"1"}, {""}),
        ({"0"}, {"01"}, {"0"}),
        ({"00"}, {"11"}, {"00", "11"}),
    ],
)
def test_union_examples(a, b, expected):
    assert (CylinderSet(a) | CylinderSet(b)).words == frozenset(expected)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ({"0"}, {"01"}, {"01"}),
        ({"00"}, {"11"}, set()),
        ({"0"}, {"0", "10"}, {"0"}),
    ],
)
def test_intersect_examples(a, b, expected):
    assert (CylinderSet(a) & CylinderSet(b)).words == frozenset(expected)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ({"01"}, {"0"}, True),
        ({"0"}, {"01"}, False),
        (set(), {"1"}, True),
        (set(), set(), True),
    ],
)
def test_subset_examples(a, b, expected):
    assert CylinderSet(a).subset(CylinderSet(b)) is expected


def test_rejects_non_binary_words():
    with pytest.raises(InputError):
        CylinderSet({"0a"})


@given(word_sets)
def test_canonicalization_idempotent(ws):
    once = CylinderSet(ws)
    assert CylinderSet(once.words).words == once.words


@given(word_sets)
def test_canonical_form_is_prefix_free_antichain(ws):
    canon = CylinderSet(ws).words
    for a in canon:
        for b in canon:
            if a != b:
                assert not a.startswith(b) and not b.startswith(a)
    # maximal merging: no sibling pair x0, x1 survives
    for a in canon:
        if a and (a[:-1] + "0") in canon and (a[:-1] + "1") in canon:
            raise AssertionError(f"unmerged siblings below {a[:-1]!r}")


def test_inclusion_exclusion_exhaustive_depth_three():
    # All 256 point sets of depth <= 3 are unions of the eight depth-3 cells.
    cells = [format(i, "03b") for i in range(8)]
    sets = []
    measures = []
    for mask in range(256):
        s = CylinderSet(c for i, c in enumerate(cells) if mask >> i & 1)
        sets.append(s)
        measures.append(s.measure())
    for i in range(256):
        a = sets[i]
        for j in range(i, 256):
            b = sets[j]
            assert (a | b) == sets[i | j]
            assert (a & b) == sets[i & j]
            assert measures[i | j] + measures[i & j] == measures[i] + measures[j]


@settings(max_examples=200)
@given(word_sets, word_sets)
def test_inclusion_exclusion_randomized(ws_a, ws_b):
    a, b = CylinderSet(ws_a), CylinderSet(ws_b)
    assert (a | b).measure() + (a & b).measure() == a.measure() + b.measure()


@given(word_sets, word_sets)
def test_measure_monotone_under_subset(ws_a, ws_b):
    a, b = CylinderSet(ws_a), CylinderSet(ws_b)
    if a.subset(b):
        assert a.measure() <= b.measure()
    assert a.measure() <= (a | b).measure()
    assert (a & b).measure() <= a.measure()


@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + 0 == x and x * 1 == x
    assert x + (-x) == 0
    if x != 0:
        assert x * (1 / x) == 1


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("0.75") == F(3, 4)
    assert parse_rational("2") == F(2)
    with pytest.raises(InputError):
        parse_rational("3/0")
    with pytest.raises(InputError):
        parse_rational("x")


def test_parse_rational_bounds_decimal_digits():
    # Mantissa digits plus the absolute exponent may reach 4300, the digits
    # str() renders by default, and no more.
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("1e-4299") == F(1, 10**4299)
    assert parse_rational("2.5E3") == 2500
    for text in ("1e4300", "12e4299", "1e-4300", "0." + "0" * 4300, "1e999999999"):
        with pytest.raises(InputError, match="more than 4300 digits"):
            parse_rational(text)
    with pytest.raises(InputError, match="not a rational number"):
        parse_rational("1e" + "9" * 5000)


def test_parse_rational_takes_ascii_only():
    for text, value in (("-3/4", F(-3, 4)), ("+3/4", F(3, 4)), (".5", F(1, 2)),
                        ("5.", F(5)), ("1.5e-3", F(3, 2000)), ("1E2", F(100))):
        assert parse_rational(text) == value, text
    for text in ("\u0661/\u0662", "\uff11", "1_000", " 1/2", "1/2 ", "1 / 2",
                 "1/-2", "1/+2", "1.5/2", "1e", "e3", ".", "", "1/2e3", "inf"):
        with pytest.raises(InputError, match="not a rational number"):
            parse_rational(text)


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"[0-9]{1,30}/[0-9]{1,30}", fullmatch=True))
def test_parse_rational_digits_fast_path_matches_fraction(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(InputError, match="not a rational number"):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


def test_parse_rational_digits_fast_path_keeps_the_messages():
    for text in ("3/0", "0/0", "9" * 4301 + "/1", "1/" + "9" * 4301):
        with pytest.raises(InputError) as err:
            parse_rational(text)
        assert str(err.value) == f"not a rational number: {text!r}"


def test_is_word():
    for text in ("", "0", "1", "0110"):
        assert is_word(text), text
    for text in ("2", "01a", "a01", "0 1", "e", "\u0661", "0\n1"):
        assert not is_word(text), text


def test_max_exponent_is_the_last_power_of_two_str_renders():
    # 2^MAX_EXPONENT has 4300 digits, the most str() of an int renders by
    # default; the next power of two has 4301.
    assert 10**4299 <= 1 << MAX_EXPONENT < 10**4300 < 1 << (MAX_EXPONENT + 1)
    assert len(str(1 << MAX_EXPONENT)) == 4300


def test_is_natural_takes_ascii_digits_only():
    assert is_natural("0") and is_natural("0042") and is_natural("9" * 4300)
    # int() converts at most 4300 digits; one more would raise ValueError.
    for text in ("", "-1", "+1", "1 ", "\u00b2", "\u0661", "\uff11", "1_000", "9" * 4301):
        assert not is_natural(text), text


def test_word_text_round_trip():
    assert word_to_text("") == "e"
    assert word_from_text("e") == ""
    assert word_from_text("010") == "010"
    with pytest.raises(InputError):
        word_from_text("2")
    with pytest.raises(InputError):
        word_from_text("")


def test_words_up_to_order():
    assert words_up_to(2) == ["", "0", "1", "00", "01", "10", "11"]


def test_cell_span():
    assert cell_span("", 3) == (0, 8)
    assert cell_span("1", 3) == (4, 4)
    assert cell_span("011", 3) == (3, 1)
    with pytest.raises(InputError):
        cell_span("0000", 3)


def test_cells_partition():
    s = CylinderSet({"0", "11"})
    assert s.cells(2) == frozenset({"00", "01", "11"})
    assert CylinderSet(s.cells(2)) == s


def test_from_mask_pinned_cases():
    assert CylinderSet.from_mask(0, 3) == CylinderSet.empty()
    assert CylinderSet.from_mask(0xFF, 3) == CylinderSet.full()
    assert CylinderSet.from_mask(1, 0) == CylinderSet.full()
    assert CylinderSet.from_mask(0, 0) == CylinderSet.empty()
    # Cells 000, 001 (bits 0, 1) merge into 00; cell 110 is bit 6.
    assert CylinderSet.from_mask(0b01000011, 3).words == {"00", "110"}
    for bad in (-1, 0x100):
        with pytest.raises(InputError):
            CylinderSet.from_mask(bad, 3)


@st.composite
def depth_masks(draw):
    # Random bits (words None), or a union of cylinders so that full chunks
    # are common.
    depth = draw(st.integers(0, 8))
    if draw(st.booleans()):
        return draw(st.integers(0, (1 << (1 << depth)) - 1)), depth, None
    mask = 0
    words = draw(st.lists(st.text(alphabet="01", max_size=depth), max_size=6))
    for word in words:
        base, span = cell_span(word, depth)
        mask |= ((1 << span) - 1) << base
    return mask, depth, words


@given(depth_masks())
def test_from_mask_is_the_canonical_set_of_its_cells(case):
    mask, depth, words = case
    cells = [format(i, f"0{depth}b") if depth else "" for i in range(1 << depth) if mask >> i & 1]
    made = CylinderSet.from_mask(mask, depth)
    assert made == CylinderSet(cells)
    assert CylinderSet(made.words).words == made.words
    if words is not None:
        # A union's measure is its cell count over 2^depth, overlaps counted
        # once: the generators accept open members by this popcount.
        assert CylinderSet(words).measure() == Fraction(mask.bit_count(), 1 << depth)


def test_real_interval():
    iv = RealInterval(F(1, 8), F(3, 8))
    assert iv.measure() == F(1, 4)
    assert iv.contains(F(1, 4))
    assert not iv.contains(F(1, 8))  # open at the endpoints
    assert RealInterval(F(1), F(1)).measure() == 0
    assert RealInterval(F(2), F(1)).measure() == 0
