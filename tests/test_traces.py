"""Trace grammar, stabilized-tail semantics, stage monotonicity, oracles."""

import operator
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limcov import fatou, gen, measurecover, opencover, traces
from limcov.kernel import CylinderSet, InputError, words_up_to
from limcov.measurecover import RationalGrid, run_measure_cover, run_tree_cover
from limcov.setcover import run_set_cover
from limcov.traces import (
    ParseError,
    StabilizedFamily,
    format_trace,
    liminf_open,
    liminf_sets,
    liminf_sets_witness,
    liminf_table,
    liminf_values,
    parse_trace,
)

F = Fraction
OPEN_RUNNERS = (
    opencover.run_trim_cover, opencover.run_naive_cover, opencover.run_block_cover
)


def at_stage(family, stage):
    """The family as known after its first ``stage`` enumeration events."""
    return replace(family, events=family.events[:stage])


def value_at(family, n, point):
    """Member n's value at ``point``; indices past nmax-1 read the tail."""
    table = traces.values_by_index(family)[min(n, family.nmax - 1)]
    if family.kind == "func":
        return traces.func_eval(table, point, family.depth)
    return table.get(point, F(0))


def liminf_by_definition(members):
    """The union over N of the intersections of members[N:]: the literal
    liminf of a finite sequence of sets."""
    return frozenset().union(*(reduce(operator.and_, members[n:]) for n in range(len(members))))


def test_parse_sets_example():
    fam = parse_trace("family sets nmax=2\nadd 0 a\nadd 1 a\n")
    assert fam.kind == "sets" and fam.nmax == 2 and fam.depth is None
    assert traces.sets_by_index(fam) == [frozenset({"a"}), frozenset({"a"})]
    assert traces.sets_by_index(fam)[-1] == frozenset({"a"})  # the tail, n >= 1


def test_parse_open_example():
    fam = parse_trace("family open nmax=1 depth=2\nadd 0 01\n")
    assert traces.opens_by_index(fam) == [CylinderSet({"01"})]


def test_parse_measure_example():
    fam = parse_trace("family measure nmax=1\nraise 0 x 3/4\n")
    assert value_at(fam, 0, "x") == F(3, 4)
    assert value_at(fam, 5, "x") == F(3, 4)  # tail rule
    assert value_at(fam, 0, "absent") == 0


def test_parse_accepts_bytes_and_missing_final_newline():
    fam = parse_trace(b"family sets nmax=1\nadd 0 a")
    assert traces.universe(fam) == ("a",)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("family sets nmax=0\n", 1),
        ("family sets nmax=2 depth=3\n", 1),
        ("family open nmax=2\n", 1),
        ("family wat nmax=2\n", 1),
        ("family sets nmax=2\nadd 2 a\n", 2),
        ("family sets nmax=2\nraise 0 a 1/2\n", 2),
        ("family sets nmax=2\nadd 0 a b\n", 2),
        ("family sets nmax=2\nadd 0 a\n\nadd 1 b\n", 3),
        ("family open nmax=1 depth=2\nadd 0 010\n", 2),
        ("family open nmax=1 depth=2\nadd 0 2\n", 2),
        ("family measure nmax=1\nraise 0 x 0\n", 2),
        ("family measure nmax=1\nraise 0 x -1/2\n", 2),
        ("family measure nmax=1\nraise 0 x 1/0\n", 2),
        ("family measure nmax=1\nraise 0 x% 1/2\n", 2),
        # str.isdigit() accepts these; integers are ASCII [0-9]+ only
        ("family sets nmax=\u00b2\n", 1),
        ("family open nmax=1 depth=\u0663\n", 1),
        ("family sets nmax=2\nadd \u0661 a\n", 2),
    ],
)
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_trace(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}:" in str(err.value)


def test_parse_rejects_crlf_and_bad_bytes():
    with pytest.raises(ParseError):
        parse_trace("family sets nmax=1\r\nadd 0 a\r\n")
    with pytest.raises(ParseError) as err:
        parse_trace(b"\xff\xfe")
    assert err.value.lineno == 1


def test_duplicate_add_is_idempotent_and_low_raise_is_noop():
    fam = parse_trace("family sets nmax=1\nadd 0 a\nadd 0 a\n")
    assert traces.sets_by_index(fam) == [frozenset({"a"})]
    fam = parse_trace("family measure nmax=1\nraise 0 x 3/4\nraise 0 x 1/4\n")
    assert value_at(fam, 0, "x") == F(3, 4)


def test_format_trace_round_trip():
    text = "family tree nmax=2 depth=2\nraise 0 e 1/2\nraise 1 01 1/4\n"
    fam = parse_trace(text)
    assert format_trace(fam) == text
    assert parse_trace(format_trace(fam)) == fam


def test_stage_truncation_is_monotone():
    text = "family sets nmax=3\n" + "".join(
        f"add {n} u{i}\n" for i, n in enumerate([0, 1, 2, 0, 1, 2, 1])
    )
    fam = parse_trace(text)
    previous = [frozenset()] * fam.nmax
    for t in range(len(fam.events) + 1):
        stage = at_stage(fam, t)
        assert len(stage.events) == t
        current = traces.sets_by_index(stage)
        for before, now in zip(previous, current):
            assert before <= now
        previous = current
    assert traces.sets_by_index(at_stage(fam, len(fam.events))) == traces.sets_by_index(fam)


def test_value_stage_monotone():
    rng = random.Random(5)
    lines = ["family measure nmax=3"]
    for _ in range(12):
        lines.append(f"raise {rng.randrange(3)} u{rng.randrange(3)} {rng.randint(1, 8)}/16")
    fam = parse_trace("\n".join(lines) + "\n")
    for point in traces.universe(fam):
        last = [F(0)] * fam.nmax
        for t in range(len(fam.events) + 1):
            tables = traces.values_by_index(at_stage(fam, t))
            now = [tab.get(point, F(0)) for tab in tables]
            assert all(a <= b for a, b in zip(last, now))
            last = now


@pytest.mark.parametrize(
    "text,expected",
    [
        ("family sets nmax=2\nadd 0 a\nadd 0 b\nadd 1 b\n", {"b"}),
        ("family sets nmax=2\n", set()),
        ("family sets nmax=3\nadd 0 a\nadd 1 a\nadd 1 c\nadd 2 c\n", {"c"}),
    ],
)
def test_liminf_sets_examples(text, expected):
    assert liminf_sets(parse_trace(text)) == frozenset(expected)


def test_liminf_sets_witness():
    fam = parse_trace("family sets nmax=3\nadd 0 a\nadd 1 a\nadd 1 c\nadd 2 c\n")
    limit, witness = liminf_sets_witness(fam)
    assert limit == frozenset({"c"}) and witness == 1


@pytest.mark.parametrize(
    "text,expected",
    [
        ("family open nmax=2 depth=2\nadd 0 0\nadd 1 0\n", {"0"}),
        ("family open nmax=2 depth=2\nadd 0 0\nadd 1 00\n", {"00"}),
        ("family open nmax=2 depth=2\nadd 0 0\nadd 1 1\n", {"1"}),
    ],
)
def test_liminf_open_examples(text, expected):
    assert liminf_open(parse_trace(text)) == CylinderSet(expected)


@pytest.mark.parametrize(
    "lines,expected",
    [
        (["raise 0 x 1/2", "raise 1 x 1/2", "raise 2 x 1/2"], F(1, 2)),
        (["raise 0 x 1"], F(0)),
        (["raise 1 x 1/4", "raise 2 x 1/2"], F(1, 2)),
    ],
)
def test_liminf_values_examples(lines, expected):
    fam = parse_trace("family measure nmax=3\n" + "".join(l + "\n" for l in lines))
    assert liminf_values(fam, "x") == expected


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(traces.KINDS),
    nmax=st.integers(1, 6),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_liminf_oracles_agree_with_definitions(kind, nmax, depth, seed):
    if kind == "sets":
        fam = parse_trace(gen.gen_trace(kind, nmax, seed, universe=6))
        assert liminf_sets(fam) == liminf_by_definition(traces.sets_by_index(fam))
        return
    if kind == "open":
        fam = parse_trace(gen.gen_trace(kind, nmax, seed, depth=depth, eps=F(1, 2)))
        cells = [s.cells(depth) for s in traces.opens_by_index(fam)]
        assert liminf_open(fam).cells(depth) == liminf_by_definition(cells)
        return
    if kind == "measure":
        fam = parse_trace(gen.gen_trace(kind, nmax, seed, universe=6))
        points = list(traces.universe(fam)) + ["absent"]
    else:
        fam = parse_trace(gen.gen_trace(kind, nmax, seed, depth=depth, eps=F(1, 2)))
        points = words_up_to(depth) if kind == "tree" else sorted(CylinderSet.full().cells(depth))
    table = liminf_table(fam, points)
    assert list(table) == points
    for p in points:
        assert table[p] == liminf_values(fam, p)
        # Tail identity: under the tail rule the liminf is member nmax-1's value.
        assert table[p] == value_at(fam, nmax - 1, p)


# Generated families are dyadic; these values make the oracle's common
# denominator an odd lcm (15, 21, 35).
@pytest.mark.parametrize(
    "text",
    [
        "family measure nmax=3\nraise 0 a 1/3\nraise 1 a 2/5\nraise 2 a 1/3\n"
        "raise 1 b 1/5\nraise 2 b 2/15\nraise 0 c 3/5\n",
        "family tree nmax=3 depth=2\nraise 0 e 2/3\nraise 0 0 1/3\nraise 1 e 5/7\n"
        "raise 1 0 2/7\nraise 1 01 1/7\nraise 2 e 2/3\nraise 2 0 1/3\nraise 2 01 1/7\n",
        "family func nmax=3 depth=3\nraise 0 e 1/3\nraise 0 01 4/5\nraise 1 0 2/5\n"
        "raise 1 011 6/7\nraise 2 e 1/5\nraise 2 01 5/7\nraise 2 110 1/3\n",
    ],
)
def test_liminf_table_non_dyadic_values(text):
    fam = parse_trace(text)
    if fam.kind == "measure":
        points = list(traces.universe(fam)) + ["absent"]
    elif fam.kind == "tree":
        points = words_up_to(fam.depth)
    else:
        points = sorted(CylinderSet.full().cells(fam.depth))
    table = liminf_table(fam, points)
    assert list(table) == points
    assert any(v.denominator % 2 for v in table.values() if v)
    for p in points:
        assert table[p] == liminf_values(fam, p)


def test_liminf_open_agrees_with_cell_decomposition():
    # Decompose each member into depth-level cells and take the literal liminf.
    rng = random.Random(77)
    for _ in range(50):
        nmax, depth = rng.randint(1, 5), rng.randint(1, 4)
        lines = [f"family open nmax={nmax} depth={depth}"]
        for _ in range(rng.randint(0, 10)):
            n = rng.randrange(nmax)
            length = rng.randint(1, depth)
            word = "".join(rng.choice("01") for _ in range(length))
            lines.append(f"add {n} {word}")
        fam = parse_trace("\n".join(lines) + "\n")
        cells = [s.cells(depth) for s in traces.opens_by_index(fam)]
        assert liminf_open(fam) == CylinderSet(liminf_by_definition(cells))


@st.composite
def open_member_words(draw):
    """Words of one open member with repeats, nested words, full sibling
    pairs and sometimes the empty word."""
    base = draw(st.lists(st.text(alphabet="01", max_size=5), max_size=8))
    out = list(base)
    for w in base:
        extra = draw(st.sampled_from(["", "repeat", "nested", "siblings"]))
        if extra == "repeat":
            out.append(w)
        elif extra == "nested":
            out.append(w + draw(st.text(alphabet="01", min_size=1, max_size=3)))
        elif extra == "siblings":
            out += [w + "0", w + "1"]
    return out


@settings(max_examples=200)
@given(open_member_words())
def test_open_member_bound_measures_like_the_canonical_set(member):
    # The member bound measures the listed words' cell mask without
    # canonicalizing them; it must agree with the canonical set's measure
    # on both sides.
    lines = ["family open nmax=1 depth=8"] + [f"add 0 {w or 'e'}" for w in member]
    fam = parse_trace("\n".join(lines) + "\n")
    mu = CylinderSet(member).measure()
    traces.member_rows(fam, eps=mu)
    if mu:
        eps = mu - F(1, 1 << 10)
        with pytest.raises(InputError) as err:
            traces.member_rows(fam, eps=eps)
        assert str(err.value) == f"U_0 has measure {mu}, above eps={eps}"


def test_func_eval_uses_prefix_maxima():
    fam = parse_trace("family func nmax=1 depth=2\nraise 0 0 1/4\nraise 0 00 1/2\n")
    assert value_at(fam, 0, "00") == F(1, 2)
    assert value_at(fam, 0, "01") == F(1, 4)
    assert value_at(fam, 0, "11") == F(0)
    with pytest.raises(InputError):
        liminf_values(fam, "0")  # func points are full-depth cells
    with pytest.raises(InputError, match="func points are cells of length 2, got '2a'"):
        liminf_table(fam, ["2a"])


def test_kind_accessor_mismatch():
    fam = parse_trace("family sets nmax=1\nadd 0 a\n")
    with pytest.raises(InputError):
        traces.opens_by_index(fam)
    with pytest.raises(InputError):
        traces.values_by_index(fam)
    with pytest.raises(InputError, match="expected an open family, got 'sets'"):
        liminf_open(fam)
    with pytest.raises(InputError, match="expected a valued family, got 'sets'"):
        liminf_table(fam, ["a"])
    with pytest.raises(InputError, match="expected a sets family, got 'open'"):
        liminf_sets(parse_trace("family open nmax=1 depth=1\n"))


def test_family_constructor_enforces_type_invariants():
    with pytest.raises(InputError):
        traces.StabilizedFamily("sets", 2, None, (traces.Event(2, "a"),))
    with pytest.raises(InputError):
        traces.StabilizedFamily("sets", 0, None, ())
    with pytest.raises(InputError):
        traces.StabilizedFamily("open", 1, None, ())
    with pytest.raises(InputError):
        traces.StabilizedFamily("measure", 1, 3, ())


@pytest.mark.parametrize("kind,nmax,depth,keys,levels,size", [
    # gen's caps, one.trace at grid 16 and the sets cap all run.
    ("open", gen.NMAX_CAP, gen.DEPTH_CAP, 0, 1, 532_415),
    ("tree", gen.NMAX_CAP, gen.DEPTH_CAP, 0, 1, 532_415),
    ("func", 32, 8, 0, 32, 539_616),
    ("func", 1, 2, 0, 1 << 16, 917_504),
    ("sets", gen.NMAX_CAP, None, gen.UNIVERSE_CAP, 1, 66_560),
    ("sets", 2048, None, 1, 1, 2049),
    ("measure", 3, None, 0, 1, 4),  # an empty universe still builds each row
    # Word masks of 2^16 to 2^19 bits per attempt: open 1x19 and 2x18 ran out
    # of memory, though their heap rows passed the old limit of 2^20 entries.
    *(("open", n, d, 0, 1, f"{(n + 1) * ((2 << d) - 1)} attempts of 2^{d} cells")
      for n, d in [(1, 16), (1, 17), (1, 19), (2, 18)]),
    ("tree", 1, 16, 0, 1, "262142 attempts of 2^16 cells"),
    ("func", 1, 19, 0, 1, "2097150 attempts of 2^19 cells"),
    ("tree", 2, 18, 0, 1, "1572861 attempts of 2^18 cells"),
    ("func", 1, 17, 0, 4, "2097144 attempts of 2^17 cells"),
    ("func", 300_000, 1, 0, 1 << 18, "235930386432 attempts of 2^1 cells"),
    # A member step costs about what 2^9 cells do: setcover on 4,096 one-key
    # members took about 2 s, and 16,384 took 36 s.
    ("sets", 4096, None, 1, 1, "4097 attempts of 4096 members"),
    ("sets", 10**8, None, 1, 1, "100000001 attempts of 100000000 members"),
    ("measure", 10**11, None, 0, 1, "100000000001 attempts of 100000000000 members"),
    # No 2 << depth is built past depth 64, nor a count past 2^64 written out.
    ("tree", 1, 10**9, 0, 1, "over 2^65 attempts of 2^1000000000 cells"),
    ("func", 10**9, 1, 0, 1 << 14_284, "over 2^14315 attempts of 2^1 cells"),
])
def test_run_size_admits_the_caps_and_refuses_past_its_limits(kind, nmax, depth, keys, levels, size):
    events = tuple(traces.Event(0, f"k{i}") for i in range(keys))
    family = StabilizedFamily(kind, nmax, depth, events)
    if isinstance(size, int):
        assert traces.run_size(family, levels) == size
        if kind == "tree":  # member_rows then builds every heap row
            assert [len(row) for row in traces.member_rows(family, 1)] == [8191] * nmax
        return
    most = 4294967296 if depth else 8388608
    message = (f"the run needs {size} on this {kind} family, "
               f"past the limits of 1048576 attempts and {most} scanned")
    with pytest.raises(InputError) as err:
        traces.run_size(family, levels)
    assert str(err.value) == message
    if levels == 1:  # refused before any row is built, in every run mode too
        runners = [lambda f: traces.member_rows(f)]
        if kind == "open":
            runners += [lambda f, run=run: run(f, F(1, 4), F(3, 8)) for run in OPEN_RUNNERS]
        for runner in runners:
            with pytest.raises(InputError) as err:
                runner(family)
            assert str(err.value) == message


def test_run_size_bounds_the_common_denominator():
    # One parsed denominator has at most 14,285 bits (4300 digits), and so may
    # their lcm; freq's largest admitted horizon has lcm(1..2895), 4,192 bits.
    refused = "the values' common denominator has more than 14285 bits"
    freq = measurecover.frequency_trace({i: "x" for i in range(0, 2895, 2)}, 2895)
    assert traces.run_size(freq) == 2896
    for denominators, ok in [((1 << 14284,), True), ((1 << 14284, 3), False),
                             ((10**4300 - 1,), True), ((10**999 + 1, 10**999 + 2) * 3, True),
                             (tuple(10**999 + i for i in range(5)), False)]:
        events = tuple(traces.Event(0, "k", Fraction(1, q)) for q in denominators)
        family = StabilizedFamily("measure", 1, None, events)
        if ok:
            assert traces.run_size(family) == 2
        else:
            with pytest.raises(InputError, match=refused):
                traces.run_size(family)
            with pytest.raises(InputError, match=refused):
                run_measure_cover(family, RationalGrid(1))


def test_heap_rows_keep_each_words_largest_value():
    fam = parse_trace("family func nmax=3 depth=2\nraise 0 e 1/2\nraise 1 01 1/3\nraise 2 1 1/4\n"
                      "raise 2 1 1/6\nraise 1 e 1/6\n")
    rows = traces.heap_rows(fam, 12)
    assert rows == [[6, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 4, 0, 0], [0, 0, 3, 0, 0, 0, 0]]


@pytest.mark.parametrize("kind,builder,run", [
    ("func", "heap_rows", lambda f: fatou.run_fatou(f, F(1, 4), F(3, 8), RationalGrid(3))),
    ("tree", "heap_rows", lambda f: run_tree_cover(f, RationalGrid(4))),
    ("measure", "values_by_index", lambda f: run_measure_cover(f, RationalGrid(4))),
    ("sets", "sets_by_index", lambda f: run_set_cover(f, 2)),
], ids=["fatou", "tree", "measure", "sets"])
def test_each_run_builds_its_member_rows_once(monkeypatch, kind, builder, run):
    # member_rows checks the member bounds on the rows the run then uses.
    depth = 6 if kind in ("tree", "func") else None
    fam = parse_trace(gen.gen_trace(kind, 8, 1, depth=depth, bound=4))
    calls = []
    built = getattr(traces, builder)
    monkeypatch.setattr(traces, builder, lambda *args: calls.append(args) or built(*args))
    run(fam)
    assert len(calls) == 1


@pytest.mark.parametrize("kind,run", [
    ("func", lambda f: fatou.run_fatou(f, F(1, 4), F(3, 8), RationalGrid(3))),
    ("tree", lambda f: run_tree_cover(f, RationalGrid(4))),
    ("measure", lambda f: run_measure_cover(f, RationalGrid(4))),
], ids=["fatou", "tree", "measure"])
def test_each_run_reads_the_denominators_once(monkeypatch, kind, run):
    # run_size reads every event's denominator, before the run builds its
    # common scale; member_rows takes that scale and does not size again.
    depth = 6 if kind in ("tree", "func") else None
    fam = parse_trace(gen.gen_trace(kind, 8, 1, depth=depth))
    calls = []
    sized = traces.run_size
    monkeypatch.setattr(traces, "run_size", lambda *args: calls.append(args) or sized(*args))
    run(fam)
    assert len(calls) == 1
