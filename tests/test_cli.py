"""CLI behavior: reports, exit codes, diagnostics, determinism, goldens."""

import hashlib
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from limcov import fatou, gen, opencover, traces
from limcov.cli import COMMANDS, _build_parser, main
from limcov.fatou import StepFunction
from limcov.kernel import CylinderSet, RealInterval, words_up_to
from limcov.measurecover import RationalGrid

GOLDENS = Path(__file__).parent / "goldens"

SHIFT_TRACE = "family sets nmax=2\nadd 0 a\nadd 0 b\nadd 1 b\nadd 1 c\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_setcover_report(tmp_path, capsys):
    trace = tmp_path / "f.trace"
    trace.write_text(SHIFT_TRACE)
    code, out, err = run(capsys, "setcover", "--trace", str(trace), "--k", "1")
    assert code == 0 and err == ""
    assert "COVER b c" in out
    assert "RESULT PASS" in out
    assert out.splitlines()[1].startswith("INPUT sha256:")


def test_missing_trace_is_usage_error(capsys):
    code, out, err = run(capsys, "setcover", "--trace", "missing.trace", "--k", "1")
    assert code == 2 and "missing.trace" in err


def lists(text, word):
    """Whether ``word`` appears in help text as a whole word or flag."""
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_row_help_lists_its_flags(capsys, name):
    # One parser holds every row's flags; each row's help lists its own.
    code, out, err = run(capsys, *name.split(), "--help")
    assert code == 0 and err == ""
    for flag in [*dict(COMMANDS[name].flags), "--out"]:
        assert lists(out, flag), (name, flag)


def test_top_level_and_group_help_list_every_command_word(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in COMMANDS:
        assert lists(out, name.split()[0]), name
    code, out, _ = run(capsys, "randlab", "--help")
    assert code == 0
    for name in COMMANDS:
        if name.startswith("randlab "):
            assert lists(out, name.split()[1]), name


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def reuse_invocations():
    """Usage, help and error command lines whose parse ends main's call."""
    yield ["-h"]
    yield []
    yield ["bogus"]
    yield ["randlab"]
    yield ["randlab", "-h"]
    yield ["randlab", "bogus"]
    yield ["setcover", "--trace", "missing.trace", "--k", "1", "stray"]
    for name in COMMANDS:
        for extra in (["-h"], [], ["--bogus"], ["--out"]):
            yield [*name.split(), *extra]


@pytest.mark.parametrize(
    "argv", list(reuse_invocations()), ids=lambda argv: " ".join(argv) or "no-args"
)
def test_a_reused_parser_answers_as_a_fresh_one(capsys, argv):
    _build_parser.cache_clear()
    first = run(capsys, *argv)
    assert first[0] in (0, 2) and "Traceback" not in first[2]
    assert run(capsys, *argv) == first


def test_no_flag_value_leaks_into_the_next_call(tmp_path, capsys):
    trace = tmp_path / "g.trace"
    trace.write_text("family open nmax=2 depth=2\nadd 0 00\nadd 1 11\n")
    argv = ["opencover", "--trace", str(trace), "--eps", "1/4", "--eps-prime", "1/2"]
    code, out, _ = run(capsys, *argv, "--mode", "naive")
    assert code == 0 and out.splitlines()[2].startswith("PARAM mode=naive ")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[2].startswith("PARAM mode=trim ")


def test_malformed_trace_names_file_and_line(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("family sets nmax=2\nadd 9 a\n")
    code, out, err = run(capsys, "setcover", "--trace", str(trace), "--k", "1")
    assert code == 2
    assert "bad.trace" in err and "line 2" in err


def test_unknown_flag_is_exit_two(capsys):
    assert main(["setcover", "--nope"]) == 2


def test_precondition_failure_is_exit_two(tmp_path, capsys):
    trace = tmp_path / "wide.trace"
    trace.write_text("family sets nmax=1\nadd 0 a\nadd 0 b\n")
    code, out, err = run(capsys, "setcover", "--trace", str(trace), "--k", "0")
    assert code == 2 and "U_0" in err


def test_out_flag_writes_the_report(tmp_path, capsys):
    trace = tmp_path / "f.trace"
    trace.write_text(SHIFT_TRACE)
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "setcover", "--trace", str(trace), "--k", "1", "--out", str(out_path))
    assert code == 0 and out == ""
    assert "RESULT PASS" in out_path.read_text()


def test_measurecover_and_treecover(tmp_path, capsys):
    trace = tmp_path / "m.trace"
    trace.write_text("family measure nmax=1\nraise 0 a 1/2\nraise 0 b 1/2\n")
    code, out, _ = run(capsys, "measurecover", "--trace", str(trace), "--grid", "2")
    assert code == 0 and "MPRIME a 1/2" in out and "MPRIME b 1/2" in out

    trace.write_text("family tree nmax=1 depth=1\nraise 0 e 3/4\nraise 0 0 3/4\n")
    code, out, _ = run(capsys, "treecover", "--trace", str(trace), "--grid", "2")
    assert code == 0 and "APRIME e 1" in out


def test_freq_subcommand(tmp_path, capsys):
    fn = tmp_path / "fn.txt"
    fn.write_text("0 a\n1 b\n2 a\n")
    emitted = tmp_path / "emitted.trace"
    code, out, _ = run(
        capsys, "freq", "--fn", str(fn), "--horizon", "3", "--grid", "3",
        "--emit-trace", str(emitted),
    )
    assert code == 0
    assert "FREQ a 2/3" in out and "FREQ b 1/3" in out
    assert emitted.read_text().startswith("family measure nmax=3\n")
    code2, out2, _ = run(capsys, "measurecover", "--trace", str(emitted), "--grid", "3")
    assert code2 == 0


@pytest.mark.parametrize("mode", ["trim", "naive", "blocks"])
def test_opencover_modes(tmp_path, capsys, mode):
    trace = tmp_path / "g.trace"
    trace.write_text("family open nmax=2 depth=2\nadd 0 00\nadd 1 11\n")
    code, out, _ = run(
        capsys, "opencover", "--mode", mode, "--trace", str(trace),
        "--eps", "1/4", "--eps-prime", "1/2",
    )
    assert code == 0 and "RESULT PASS" in out
    measure = next(l for l in out.splitlines() if l.startswith("MEASURE "))
    assert measure.split()[1] in {"1/4", "3/8", "1/2"}


def test_omegademo(capsys):
    code, out, _ = run(capsys, "omegademo", "--cycle", "1/4,1/2", "--eps", "3/8")
    assert code == 0
    assert "WMIN 1/4" in out and "INTERVAL 0 1/8 3/8 1/4" in out


def test_fatou_subcommand(tmp_path, capsys):
    trace = tmp_path / "h.trace"
    trace.write_text("family func nmax=1 depth=1\nraise 0 0 1/2\n")
    code, out, _ = run(
        capsys, "fatou", "--trace", str(trace), "--eps", "1/4",
        "--eps-prime", "1/2", "--grid", "2",
    )
    assert code == 0 and "PHI 0 1/2" in out


def test_randlab_subcommands(tmp_path, capsys):
    decoder = tmp_path / "d.txt"
    decoder.write_text("0 00\n")
    code, out, _ = run(capsys, "randlab", "deficiency", "--decoder", str(decoder), "--n", "2", "--c", "0")
    assert code == 0 and "DSET 00" in out and "COUNT 1" in out

    code, out, _ = run(
        capsys, "randlab", "cover", "--decoder", str(decoder), "--c", "1",
        "--nmax", "3", "--depth", "3",
    )
    assert code == 0 and "RESULT PASS" in out

    code, out, _ = run(capsys, "randlab", "bard", "--decoder", str(decoder), "--x", "0", "--length", "2")
    assert code == 0 and "BARD 1" in out and "TRUNCATION L=2" in out

    table = tmp_path / "t.txt"
    table.write_text("0 2 01\n")
    code, out, _ = run(capsys, "randlab", "stabilize", "--table", str(table), "--c", "0")
    assert code == 0 and "SN 2 01" in out and "CODE 01 00" in out


def test_randlab_exhaustive_oracle_caps(tmp_path, capsys):
    decoder = tmp_path / "d.txt"
    decoder.write_text("0 00\n")
    code, _, err = run(capsys, "randlab", "deficiency", "--decoder", str(decoder), "--n", "17", "--c", "0")
    assert code == 2 and "16" in err
    code, _, err = run(capsys, "randlab", "bard", "--decoder", str(decoder), "--x", "e", "--length", "17")
    assert code == 2


def test_gen_determinism_and_caps(tmp_path, capsys):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    argv = ["gen", "--kind", "open", "--nmax", "4", "--depth", "3", "--seed", "0", "--eps", "1/4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    code, _, err = run(capsys, "gen", "--kind", "sets", "--nmax", "65", "--seed", "0")
    assert code == 2
    code, _, err = run(capsys, "gen", "--kind", "open", "--nmax", "4", "--depth", "13", "--seed", "0")
    assert code == 2


def test_gen_single_member_family(tmp_path, capsys):
    out = tmp_path / "one.trace"
    assert main(["gen", "--kind", "sets", "--nmax", "1", "--seed", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("family sets nmax=1")


@pytest.mark.parametrize("kind", traces.KINDS)
def test_sweep_every_kind(capsys, kind):
    code, out, err = run(capsys, "sweep", "--kind", kind, "--count", "2", "--seed", "1")
    assert code == 0 and err == ""
    assert [l for l in out.splitlines() if l.startswith("SWEEP")] == [
        "SWEEP seed=1 PASS", "SWEEP seed=2 PASS"
    ]


def test_sweep(capsys):
    code, out, _ = run(
        capsys, "sweep", "--kind", "measure", "--count", "3", "--seed", "5",
        "--nmax", "4", "--grid", "3",
    )
    assert code == 0
    assert out.count("SWEEP seed=") == 3
    assert "RESULT PASS" in out


def test_report_rerun_is_byte_identical(tmp_path):
    trace = tmp_path / "f.trace"
    trace.write_text(SHIFT_TRACE)
    first = tmp_path / "r1.txt"
    second = tmp_path / "r2.txt"
    argv = ["setcover", "--trace", str(trace), "--k", "1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "report,argv",
    [
        ("shift.report.txt", ["setcover", "--trace", str(GOLDENS / "shift.trace"), "--k", "1"]),
        (
            "drift.report.txt",
            ["opencover", "--mode", "trim", "--trace", str(GOLDENS / "drift.trace"),
             "--eps", "1/4", "--eps-prime", "1/2"],
        ),
        (
            "halffn.report.txt",
            ["fatou", "--trace", str(GOLDENS / "halffn.trace"),
             "--eps", "1/4", "--eps-prime", "1/2", "--grid", "2"],
        ),
    ],
)
def test_stored_golden_reports(tmp_path, report, argv):
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / report).read_bytes()


# One "<sha256 of the --out file> <argv>" line per pinned invocation; "{name}"
# in an argv stands for the input file DIGEST_INPUTS[name].
DIGESTS = [
    line.split(" ", 1) for line in (GOLDENS / "report_digests.txt").read_text().splitlines()
]
DIGEST_INPUTS = {
    **{name: (GOLDENS / f"{name}.trace").read_text() for name in ("shift", "drift", "halffn")},
    "sets": gen.gen_trace("sets", 8, 1, bound=4),
    "measure": gen.gen_trace("measure", 8, 2),
    "tree": gen.gen_trace("tree", 6, 3, depth=4),
    "open": gen.gen_trace("open", 6, 4, depth=4, eps=Fraction(1, 4)),
    "open5": gen.gen_trace("open", 10, 5, depth=5, eps=Fraction(1, 4)),
    # Bench scale: the open-ladder's 16x8 families and its 64x12 blocks case.
    "open8": gen.gen_trace("open", 16, 11, depth=8, eps=Fraction(1, 4)),
    "open12": gen.gen_trace("open", 64, 12, depth=12, eps=Fraction(1, 4)),
    # The open-ladder's 32x8 and the tree-func workload's func 16x6 sizes.
    "open32": gen.gen_trace("open", 32, 13, depth=8, eps=Fraction(1, 4)),
    "func16": gen.gen_trace("func", 16, 14, depth=6, eps=Fraction(1, 4)),
    # The tree-func workload's func 8x6 size.
    "func8": gen.gen_trace("func", 8, 5, depth=6, eps=Fraction(1, 4)),
    "func": gen.gen_trace("func", 4, 6, depth=4, eps=Fraction(1, 4)),
    # One family per kind at nmax 1 and 2, where the tail start's member
    # floor falls on start 0 or 1.
    **{
        f"{kind}_n{n}": gen.gen_trace(kind, n, 20 + n, **extra)
        for n in (1, 2)
        for kind, extra in (
            ("sets", {"bound": 2}),
            ("measure", {}),
            ("tree", {"depth": 3}),
            ("open", {"depth": 3, "eps": Fraction(1, 4)}),
            ("func", {"depth": 3, "eps": Fraction(1, 4)}),
        )
    },
    "fn": gen.gen_function_text(7, 16),
    "decoder": gen.gen_decoder_text(8),
    "table": gen.gen_test_table_text(9, 2),
    "table1": gen.gen_test_table_text(10, 1),
}


@pytest.fixture(scope="module")
def digest_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("digest-inputs")
    for name, text in DIGEST_INPUTS.items():
        (base / name).write_text(text)
    return {name: str(base / name) for name in DIGEST_INPUTS}


@pytest.mark.parametrize("digest,argv", DIGESTS, ids=[argv for _, argv in DIGESTS])
def test_report_digests(tmp_path, digest_inputs, digest, argv):
    out = tmp_path / "report.out"
    code = main([a.format(**digest_inputs) for a in argv.split(" ")] + ["--out", str(out)])
    assert code in (0, 1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The generators' own bytes: the caps (open and tree 64x12, func 32x8), eps
# 1/3 and eps 0, and the traces CI generates, at seed 1.  Open 2x3 at eps 1,
# seed 7919, draws the core words 1, 10, 1: the core sums their cells, so it
# refuses 10 and the second 1, where a union would take both.
@pytest.mark.parametrize("kind,nmax,depth,eps,seed,digest", [
    ("open", 64, 12, "1/4", 1,
     "9a860b351b973afb7fcfabef0b2a0f6a406339263240930a661a8618ee82a05b"),
    ("open", 64, 12, "1/3", 1,
     "f7e82912b5668eac4d1a67637dfe66edd52c40c1b32921744c479ab804146545"),
    ("open", 64, 12, "0", 1,
     "2f2efe57e13a5c935ca9b54e21fb5bde214b65c64f7b1231305758830ad3db65"),
    ("open", 16, 8, "1/3", 1,
     "c95995da676e3aa21f23907bc37d12b183f380b0747af77e9ba87722afeeee41"),
    ("open", 16, 8, "0", 1,
     "ac73b6e66f4adca0fa9218a36749f73e2413fec0ed68c3eaeb04a6a06100107a"),
    ("tree", 64, 12, None, 1,
     "4ea06a8aa323d09f410311044d51ea3a6fb806e6504719a03bd179f7a8b0b78d"),
    ("tree", 32, 7, None, 1,
     "e7dcc1cb646b121b1a649d765a5177707419f332a08a521b5ceea706b042dac8"),
    ("func", 32, 8, "1/4", 1,
     "c9c73063517d6fcc0b0e0185dabf7f32f975b270d3813dafc963001cfc337b75"),
    ("func", 32, 8, "1/3", 1,
     "1d3ea01a1b17a97902b737f42258d915955c1b2dc00478a59fc482bd20ad318e"),
    ("func", 32, 8, "0", 1,
     "37f3a7dff789b436434766102b0cf0883e1533cf51c9dfd41653e88fbf13d21d"),
    ("func", 8, 6, "1/4", 1,
     "a4ba51fd543dc1e463fff7d8a99101cbddc26b8a99c347c273f6cc5afe6f1758"),
    ("func", 8, 6, "1/3", 1,
     "74ec98699c5826ef6ef7e52131f9d49bcae671b1a856c3f6b93f3d80ad8bc7fa"),
    ("open", 2, 3, "1", 7919,
     "1f22204c4f9f12e7906932e0196d368c0b75737f999f36a22eaf7f273bfd62cd"),
])
def test_generated_trace_digests(kind, nmax, depth, eps, seed, digest):
    text = gen.gen_trace(kind, nmax, seed, depth=depth, eps=None if eps is None else Fraction(eps))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_failing_verdict_exits_one(tmp_path, capsys, monkeypatch):
    # Constructions never fail verification on valid input, so force a FAIL
    # to check the verdict-to-exit-code plumbing.
    from limcov.verdict import Check, Verdict

    monkeypatch.setattr(
        "limcov.setcover.verify_set_cover",
        lambda *a, **k: Verdict((Check("forced", False, "witness-here"),)),
    )
    trace = tmp_path / "f.trace"
    trace.write_text(SHIFT_TRACE)
    code, out, _ = run(capsys, "setcover", "--trace", str(trace), "--k", "1")
    assert code == 1
    assert "VERDICT forced FAIL" in out
    assert "WITNESS forced witness-here" in out
    assert "RESULT FAIL" in out


def test_failing_sweep_seed_names_its_witness(capsys, monkeypatch):
    from limcov.verdict import Check, Verdict

    monkeypatch.setattr(
        "limcov.setcover.verify_set_cover",
        lambda *a, **k: Verdict((Check("forced", False, "witness-here"),)),
    )
    code, out, _ = run(capsys, "sweep", "--kind", "sets", "--count", "2", "--seed", "3")
    assert code == 1
    assert out.endswith(
        "SWEEP seed=3 FAIL witness=forced\nSWEEP seed=4 FAIL witness=forced\nRESULT FAIL\n"
    )


def parse_threshold(report: str) -> tuple[Fraction, int]:
    """Read back a THRESHOLD line rendered as eps'-budget*2^-T: the
    threshold and T."""
    line = next(l for l in report.splitlines() if l.startswith("THRESHOLD "))
    match = re.fullmatch(r"THRESHOLD ([0-9/]+)-([0-9/]+)\*2\^-([0-9]+)", line)
    assert match, line
    top, budget, attempts = match.groups()
    return Fraction(top) - Fraction(budget) / (1 << int(attempts)), int(attempts)


# Past about 14.3k attempts the threshold has over 4300 digits, beyond what
# str() of an int renders: these sizes crashed the report with a traceback,
# and repr() of a result that held the threshold raised.
@pytest.mark.parametrize(
    "kind,nmax,depth,extra",
    [
        ("open", 32, 8, ["--mode", "trim"]),
        ("open", 32, 8, ["--mode", "naive"]),
        ("func", 16, 6, ["--grid", "3"]),
    ],
)
def test_long_runs_render_their_threshold(tmp_path, capsys, kind, nmax, depth, extra):
    eps, eps_prime = Fraction(1, 4), Fraction(3, 8)
    text = gen.gen_trace(kind, nmax, seed=1, depth=depth, eps=eps)
    trace = tmp_path / "big.trace"
    trace.write_text(text)
    command = "opencover" if kind == "open" else "fatou"
    code, out, err = run(
        capsys, command, "--trace", str(trace), "--eps", "1/4", "--eps-prime", "3/8", *extra
    )
    assert code == 0 and err == ""
    assert "RESULT PASS" in out
    family = traces.parse_trace(text)
    if kind == "open":
        runner = {"trim": opencover.run_trim_cover, "naive": opencover.run_naive_cover}
        result = runner[extra[1]](family, eps, eps_prime)
    else:
        result = fatou.run_fatou(family, eps, eps_prime, RationalGrid(3))
    repr(result)
    theta, attempts = parse_threshold(out)
    assert attempts == result.attempts
    assert opencover.DeltaSchedule(eps, eps_prime).theta_after(attempts) == theta


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("family sets nmax=\u00b2\nadd 0 a\n", 1),
        ("family open nmax=1 depth=\u00b2\nadd 0 0\n", 1),
        ("family sets nmax=2\nadd \u0661 a\n", 2),
        ("family sets nmax=2\nadd +1 a\n", 2),
        ("family measure nmax=1\nraise 0 a \u0661/\u0662\n", 2),
    ],
)
def test_non_ascii_digits_are_input_errors(tmp_path, capsys, text, lineno):
    trace = tmp_path / "digits.trace"
    trace.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "setcover", "--trace", str(trace), "--k", "1")
    assert code == 2 and out == ""
    assert f"digits.trace: line {lineno}:" in err


@pytest.mark.parametrize("where", ["trace", "eps"])
def test_huge_decimal_exponent_is_input_error(tmp_path, capsys, where):
    huge = "1e999999999"
    trace = tmp_path / "huge.trace"
    value = huge if where == "trace" else "1/4"
    trace.write_text(f"family func nmax=1 depth=1\nraise 0 0 {value}\n")
    eps = huge if where == "eps" else "1/4"
    began = time.perf_counter()
    code, out, err = run(
        capsys, "fatou", "--trace", str(trace), "--eps", eps, "--eps-prime", "3/8"
    )
    assert time.perf_counter() - began < 1
    assert code == 2 and out == ""
    assert "Traceback" not in err and "4300 digits" in err
    if where == "trace":
        assert "huge.trace: line 2:" in err


# The flags, besides its input file, that make each file-reading command valid.
OTHER_FLAGS = {
    "setcover": ["--k", "1"],
    "measurecover": [],
    "treecover": [],
    "freq": ["--horizon", "3"],
    "opencover": ["--eps", "1/4", "--eps-prime", "1/2"],
    "fatou": ["--eps", "1/4", "--eps-prime", "1/2"],
    "randlab deficiency": ["--n", "2", "--c", "0"],
    "randlab cover": ["--c", "1", "--nmax", "3", "--depth", "3"],
    "randlab stabilize": ["--c", "0"],
    "randlab bard": ["--x", "0", "--length", "2"],
}


def exit_two_cases():
    """(argv, input bytes or None for a missing file, expected stderr part);
    "{input}" stands for the input file's path."""
    for name, command in COMMANDS.items():
        if command.source:
            argv = [*name.split(), f"--{command.source}", "{input}", *OTHER_FLAGS[name]]
            yield pytest.param(argv, None, "{input}", id=f"{name}-missing")
            yield pytest.param(
                argv, b"\xff\xfe", "{input}: line 1: not valid UTF-8", id=f"{name}-bad-utf8"
            )
    # Flags that used to crash with a traceback (or, for stabilize, blamed
    # the input file for a flag).
    sets = SHIFT_TRACE.encode()
    for case_id, argv, data, message in [
        ("gen-bound", ["gen", "--kind", "sets", "--nmax", "4", "--seed", "1", "--bound", "-1"],
         None, "bound must be non-negative"),
        ("sweep-bound", ["sweep", "--kind", "sets", "--count", "2", "--bound", "-1"], None,
         "bound must be non-negative"),
        ("gen-eps", ["gen", "--kind", "func", "--nmax", "4", "--depth", "3", "--seed", "1",
                     "--eps", "-1"], None, "eps must be non-negative"),
        # The generators build one token per universe element.
        *(
            (f"{name}-{kind}-huge-universe", [name, "--kind", kind, *flags, "--universe", "300000000"],
             None, "universe must be at most 1024")
            for name, kind, flags in [
                ("gen", "sets", ["--nmax", "2", "--seed", "1"]),
                ("gen", "measure", ["--nmax", "2", "--seed", "1"]),
                ("sweep", "sets", ["--count", "1"]),
            ]
        ),
        ("setcover-k", ["setcover", "--trace", "{input}", "--k", "20000"], sets,
         "k must be at most 14284"),
        ("setcover-huge-k", ["setcover", "--trace", "{input}", "--k", "99999999999"], sets,
         "k must be at most 14284"),
        ("setcover-negative-k", ["setcover", "--trace", "{input}", "--k", "-1"], sets,
         "limcov: k must be non-negative\n"),
        ("randlab-cover-c", ["randlab", "cover", "--decoder", "{input}", "--c", "20000",
                             "--nmax", "3", "--depth", "3"], b"0 00\n", "c must be at most 14284"),
        ("randlab-stabilize-c", ["randlab", "stabilize", "--table", "{input}", "--c", "-1"],
         b"0 2 01\n", "limcov: c must be non-negative\n"),
        # The strings under this interval would number 2^39.
        ("randlab-stabilize-scale", ["randlab", "stabilize", "--table", "{input}", "--c", "1"],
         b"0 40 0\n", "n - c beyond exhaustive-expansion scale (max 16)"),
        # Exponents past kernel.MAX_EXPONENT ran out of memory building 2^g
        # or 2^c, or (freq at grid 20000) failed to render the grid floors.
        ("randlab-stabilize-huge-c", ["randlab", "stabilize", "--table", "{input}", "--c",
                                      "99999999999"], b"0 3 0\n", "limcov: c must be at most 14284\n"),
        ("freq-grid", ["freq", "--fn", "{input}", "--horizon", "3", "--grid", "20000"],
         b"0 x\n1 y\n2 x\n", "grid resolution must be at most 14284"),
        ("sweep-huge-grid", ["sweep", "--kind", "measure", "--count", "1", "--grid", "99999999999"],
         None, "grid resolution must be at most 14284"),
        # The report names each seed; str() renders at most 4300 digits.
        ("sweep-huge-seed", ["sweep", "--kind", "sets", "--count", "2", "--nmax", "2", "--seed",
                             "9" * 4300], None, "limcov: the last seed must have at most 4300 digits\n"),
        *(
            (f"{name}-huge-grid", [name, f"--{flag}", "{input}", *OTHER_FLAGS[name], "--grid",
                                   "99999999999"], data, "grid resolution must be at most 14284")
            for name, flag, data in [
                ("measurecover", "trace", b"family measure nmax=1\nraise 0 a 1/2\n"),
                ("treecover", "trace", b"family tree nmax=1 depth=1\nraise 0 e 1/2\n"),
                ("freq", "fn", b"0 x\n1 y\n2 x\n"),
                ("fatou", "trace", b"family func nmax=1 depth=1\n"),
            ]
        ),
    ]:
        yield pytest.param(argv, data, message, id=case_id)
    # Reports whose exact rationals are past str()'s 4300 digits: the THRESHOLD
    # budget eps'-eps = 1/A-1/B and omegademo's interval ends.
    a, b = "1" + "0" * 4298 + "1", "1" + "0" * 4298 + "3"
    huge = ["--eps", f"1/{b}", "--eps-prime", f"1/{a}"]
    too_long = "limcov: value too large to render: more than 4300 digits\n"
    for case_id, argv, data in [
        *(
            (f"opencover-{mode}-render", ["opencover", "--trace", "{input}", "--mode", mode, *huge],
             b"family open nmax=1 depth=2\n")
            for mode in ("trim", "naive", "blocks")
        ),
        ("fatou-render", ["fatou", "--trace", "{input}", *huge], b"family func nmax=1 depth=1\n"),
        ("omegademo-render", ["omegademo", "--cycle", f"1/{a},1/{b}", "--eps", "1/3"], None),
    ]:
        yield pytest.param(argv, data, too_long, id=case_id)
    # The whole stderr line of each member-size precondition failure.
    eps = ["--eps", "1/4", "--eps-prime", "1/2"]
    limits = "past the limits of 1048576 attempts and 4294967296 scanned"
    for case_id, argv, data, line in [
        ("setcover-above-bound", ["setcover", "--k", "0"], b"family sets nmax=1\nadd 0 a\nadd 0 b\n",
         "U_0 has 2 elements, above the bound 1"),
        *(
            (f"opencover-{mode}-above-eps", ["opencover", "--mode", mode, *eps],
             b"family open nmax=2 depth=2\nadd 0 00\nadd 1 0\n", "U_1 has measure 1/2, above eps=1/4")
            for mode in ("trim", "naive", "blocks")
        ),
        ("fatou-above-eps", ["fatou", *eps],
         b"family func nmax=2 depth=2\nraise 0 0 1/8\nraise 1 e 3/4\nraise 1 01 2\n",
         "f_1 has integral 17/16, above eps=1/4"),
        ("measurecover-above-one", ["measurecover"],
         b"family measure nmax=2\nraise 0 a 1/2\nraise 1 a 3/4\nraise 1 b 1/2\n",
         "m_1 is not a semimeasure: values sum to 5/4"),
        ("treecover-tree-law", ["treecover"],
         b"family tree nmax=2 depth=2\nraise 0 e 1/2\nraise 1 e 1/4\nraise 1 0 1/4\nraise 1 1 1/4\n",
         "a_1 violates the tree constraint at word e: 1/4 < 1/2"),
        ("treecover-root-above-one", ["treecover"],
         b"family tree nmax=2 depth=1\nraise 0 e 1/2\nraise 1 e 4/3\nraise 1 0 1/3\n",
         "a_1 exceeds 1 at the root"),
        # Thirds and fifths below the root: the law's two sides in lowest terms.
        ("treecover-tree-law-below-root", ["treecover"],
         b"family tree nmax=2 depth=3\nraise 0 e 1\nraise 1 e 14/15\nraise 1 0 1/3\n"
         b"raise 1 1 3/5\nraise 1 10 2/5\nraise 1 11 1/5\nraise 1 110 2/15\nraise 1 111 1/10\n",
         "a_1 violates the tree constraint at word 11: 1/5 < 7/30"),
        # Runs past traces.run_size's limits are refused before any row is
        # built: heap rows, fatou levels and open cell masks alike.
        ("treecover-depth-30", ["treecover"], b"family tree nmax=2 depth=30\nraise 0 e 1/2\n",
         f"the run needs 6442450941 attempts of 2^30 cells on this tree family, {limits}"),
        ("fatou-depth-30", ["fatou", *eps], b"family func nmax=2 depth=30\nraise 0 e 1/2\n",
         f"the run needs 103079215056 attempts of 2^30 cells on this func family, {limits}"),
        *(
            (f"fatou-grid-{g}", ["fatou", *eps, "--grid", str(g)],
             b"family func nmax=1 depth=2\nraise 0 00 1/2\n",
             f"the run needs {14 << g} attempts of 2^2 cells on this func family, {limits}")
            for g in (20, 30)
        ),
        *(
            (f"opencover-{mode}-depth-40", ["opencover", "--mode", mode, *eps],
             b"family open nmax=1 depth=40\nadd 0 000000\n",
             f"the run needs 4398046511102 attempts of 2^40 cells on this open family, {limits}")
            for mode in ("trim", "naive", "blocks")
        ),
        # Ten values of 3,320-bit denominators have a common denominator past
        # the 14,285 bits of one 4300-digit denominator; 300 of them ran for
        # seconds building it.  They are refused before it is built.
        *(
            (f"{name}-common-denominator", [name, *flags],
             "".join([header, *(f"raise 0 {key} 1/{10**999 + i}\n" for i in range(10))]).encode(),
             "the values' common denominator has more than 14285 bits")
            for name, flags, header, key in [
                ("measurecover", [], "family measure nmax=1\n", "k"),
                ("treecover", [], "family tree nmax=1 depth=1\n", "e"),
                ("fatou", ["--eps", "1", "--eps-prime", "2", "--grid", "2"],
                 "family func nmax=1 depth=1\n", "0"),
            ]
        ),
        # The whole stderr line of each eps-pair precondition failure.
        ("fatou-eps-above-eps-prime", ["fatou", "--eps", "1/2", "--eps-prime", "1/4"],
         b"family func nmax=1 depth=1\n", "need 0 < eps < eps', got eps=1/2, eps'=1/4"),
        ("fatou-eps-zero", ["fatou", "--eps", "0", "--eps-prime", "1/4"],
         b"family func nmax=1 depth=1\n", "need 0 < eps < eps', got eps=0, eps'=1/4"),
        *(
            (f"opencover-{mode}-eps-prime-above-one",
             ["opencover", "--mode", mode, "--eps", "1/4", "--eps-prime", "2"],
             b"family open nmax=1 depth=2\n", "need 0 < eps < eps' <= 1, got eps=1/4, eps'=2")
            for mode in ("trim", "naive", "blocks")
        ),
    ]:
        yield pytest.param([*argv, "--trace", "{input}"], data, f"limcov: {line}\n", id=case_id)
    # A test-table interval that breaks an invariant is blamed on its own line.
    for case_id, data, line in [
        ("randlab-stabilize-before-index", b"0 1 0\n3 2 01\n1 4 0\n",
         "line 2: interval at (i=3, n=2) sits before its index"),
        ("randlab-stabilize-below-measure", b"0 1 011\n",
         "line 1: interval at (i=0, n=1) has measure below 2^-1"),
    ]:
        argv = ["randlab", "stabilize", "--table", "{input}", "--c", "1"]
        yield pytest.param(argv, data, f"limcov: {{input}}: {line}\n", id=case_id)
    # A number past the 4300 digits int() converts is refused as malformed, in
    # a header, an index or a position; it used to end in a ValueError traceback.
    long = "9" * 4301
    for name, data, line in [
        ("setcover", f"family sets nmax={long}\n", f"line 1: expected nmax=<INT>, got 'nmax={long}'"),
        ("measurecover", f"family measure nmax=2\nraise {long} a 1/2\n", f"line 2: bad index '{long}'"),
        ("treecover", f"family tree nmax=1 depth={long}\n",
         f"line 1: expected depth=<INT>, got 'depth={long}'"),
        ("opencover", f"family open nmax=2 depth=2\nadd 0 0\nadd {long} 1\n", f"line 3: bad index '{long}'"),
        ("fatou", f"family func nmax={long} depth=2\n", f"line 1: expected nmax=<INT>, got 'nmax={long}'"),
        ("freq", f"0 x\n{long} y\n", "line 2: expected '<i> <token>'"),
        ("randlab stabilize", f"0 {long} 0\n", "line 1: indices must be non-negative integers"),
    ]:
        argv = [*name.split(), f"--{COMMANDS[name].source}", "{input}", *OTHER_FLAGS[name]]
        yield pytest.param(argv, data.encode(), f"limcov: {{input}}: {line}\n", id=f"{name}-long-number")
    # A line bad in two ways reports the first fault in its format's order:
    # events check verb, index, key, value; decoders the words, then repeats;
    # tables and maps a repeated position before the word or token, and
    # tables the word before the interval's invariants.
    for case_id, name, data, line in [
        ("setcover-index-before-token", "setcover", "family sets nmax=2\nadd 5 a-b\n",
         "line 2: index 5 not below nmax=2"),
        ("treecover-word-before-value", "treecover", "family tree nmax=1 depth=2\nraise 0 000 -1\n",
         "line 2: word '000' longer than depth 2"),
        ("randlab-bard-word-before-repeat", "randlab bard", "0 00\n0 2\n", "line 2: not a binary word: '2'"),
        ("randlab-stabilize-repeat-before-word", "randlab stabilize", "0 1 0\n0 1 2\n",
         "line 2: duplicate interval at (0, 1)"),
        ("randlab-stabilize-word-before-interval", "randlab stabilize", "3 2 2\n",
         "line 1: not a binary word: '2'"),
        ("freq-repeat-before-token", "freq", "0 x\n0 y-z\n", "line 2: duplicate position 0"),
        # One fault each: the field count of every format, and the per-line texts.
        ("setcover-fields", "setcover", "family sets nmax=1\nadd 0\n", "line 2: expected 'add <n> <key>'"),
        ("measurecover-fields", "measurecover", "family measure nmax=1\nraise 0 a\n",
         "line 2: expected 'raise <n> <key> <value>'"),
        ("setcover-verb", "setcover", "family sets nmax=1\nraise 0 a\n",
         "line 2: kind 'sets' uses verb 'add', got 'raise'"),
        ("measurecover-token", "measurecover", "family measure nmax=1\nraise 0 a-b 1/2\n",
         "line 2: bad token 'a-b'"),
        ("opencover-word", "opencover", "family open nmax=1 depth=2\nadd 0 2\n",
         "line 2: not a binary word: '2'"),
        ("measurecover-non-positive", "measurecover", "family measure nmax=1\nraise 0 a 0\n",
         "line 2: non-positive rational '0'"),
        ("treecover-not-rational", "treecover", "family tree nmax=1 depth=1\nraise 0 e x\n",
         "line 2: not a rational number: 'x'"),
        ("randlab-bard-fields", "randlab bard", "0\n", "line 1: expected '<program> <output>'"),
        ("randlab-bard-repeat", "randlab bard", "0 0\n0 1\n", "line 2: duplicate program 0"),
        ("randlab-stabilize-fields", "randlab stabilize", "0 1\n", "line 1: expected '<i> <n> <word>'"),
        ("freq-token", "freq", "0 x\n1 x-y\n", "line 2: bad token 'x-y'"),
    ]:
        argv = [*name.split(), f"--{COMMANDS[name].source}", "{input}", *OTHER_FLAGS[name]]
        yield pytest.param(argv, data.encode(), f"limcov: {{input}}: {line}\n", id=case_id)


@pytest.mark.parametrize("argv,data,message", exit_two_cases())
def test_bad_inputs_and_flags_exit_two(tmp_path, capsys, argv, data, message):
    path = tmp_path / "input.txt"
    if data is not None:
        path.write_bytes(data)
    began = time.perf_counter()
    code, out, err = run(capsys, *(a.replace("{input}", str(path)) for a in argv))
    assert time.perf_counter() - began < 1
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1 and err.startswith("limcov: ")
    assert message.replace("{input}", str(path)) in err


def test_largest_exponent_still_renders(tmp_path, capsys):
    trace = tmp_path / "f.trace"
    trace.write_text(SHIFT_TRACE)
    code, out, err = run(capsys, "setcover", "--trace", str(trace), "--k", "14284")
    assert code == 0 and err == ""
    assert out.splitlines()[3] == f"BOUND {1 << 14284}"
    decoder = tmp_path / "d.txt"
    decoder.write_text("0 00\n")
    code, out, err = run(
        capsys, "randlab", "cover", "--decoder", str(decoder), "--c", "14284",
        "--nmax", "3", "--depth", "3",
    )
    assert code == 0 and err == ""
    assert f"EPS 1/{1 << 14284}" in out.splitlines()


# One corruption of a run's result per row with a verifier (sweep's verdict is
# the other rows'): the row's flags besides its input file, the input file's
# text, the corruption, and a check it must fail.
MUTATIONS = {
    "setcover": (
        ["--k", "1"], SHIFT_TRACE,
        lambda r: replace(r, cover=r.cover - {"c"}, log=tuple(e for e in r.log if e[1] != "c")),
        "coverage",
    ),
    "measurecover": (
        [], "family measure nmax=2\nraise 0 a 1/2\nraise 1 a 1/2\n",
        lambda r: replace(r, log=r.log[:-1]), "log-consistency",
    ),
    "treecover": (
        ["--grid", "2"], "family tree nmax=1 depth=1\nraise 0 e 3/4\nraise 0 0 3/4\n",
        lambda r: replace(r, table={}, log=()), "grid-floor",
    ),
    "freq": (["--horizon", "3"], "0 a\n1 b\n2 a\n", lambda r: replace(r, table={}),
             "suffix-domination"),
    "opencover": (
        ["--eps", "1/4", "--eps-prime", "1/2"], (GOLDENS / "drift.trace").read_text(),
        lambda r: replace(r, cover=CylinderSet.empty(), pieces=()), "coverage",
    ),
    "omegademo": (
        ["--cycle", "1/4,1/2", "--eps", "3/8"], None,
        lambda r: replace(r, intervals=r.intervals[:-1] + (RealInterval(Fraction(0), Fraction(1)),)),
        "tail-measure-identity",
    ),
    "fatou": (
        ["--eps", "1/4", "--eps-prime", "1/2", "--grid", "2"],
        (GOLDENS / "halffn.trace").read_text(),
        lambda r: replace(r, phi=StepFunction(r.phi.depth, (Fraction(0),) * len(r.phi.cells))),
        "cell-domination",
    ),
    "randlab deficiency": (["--n", "2", "--c", "0"], "0 00\n", lambda r: r | {"11"},
                           "oracle-agreement"),
    "randlab cover": (
        ["--c", "1", "--nmax", "3", "--depth", "3"], "0 00\n",
        lambda r: (replace(r[0], events=r[0].events + (traces.Event(2, "11"),)), r[1]),
        "deficiency-counts",
    ),
    "randlab stabilize": (
        ["--c", "1"], "0 3 0\n",
        lambda r: replace(r, codes={n: dict.fromkeys(col, "00") for n, col in r.codes.items()}),
        "code-injectivity",
    ),
    "randlab bard": (["--x", "0", "--length", "2"], "0 00\n", lambda r: r + 1,
                     "oracle-agreement"),
}


@pytest.mark.parametrize(
    "name", [name for name, row in COMMANDS.items() if row.verify and name != "sweep"]
)
def test_corrupted_result_fails_its_row_verifier(name):
    flags, text, corrupt, check = MUTATIONS[name]  # every verified row needs a case
    row = COMMANDS[name]
    source = [f"--{row.source}", "unread"] if row.source else []
    argv = [*name.split(), *source, *flags]
    args = _build_parser().parse_args(argv)
    given = row.parse(args, text.encode()) if row.source else None
    result = row.run(args, given)
    assert row.verify(args, given, result).passed
    failed = row.verify(args, given, corrupt(result)).failures()
    assert check in [c.name for c in failed]
    assert all(c.witness for c in failed)


def append_tail_copy(family):
    """The family with one more member, a copy of member nmax-1: under the
    tail rule it denotes the same sequence of objects."""
    last = family.nmax - 1
    copies = tuple(replace(e, index=family.nmax) for e in family.events if e.index == last)
    return replace(family, nmax=family.nmax + 1, events=family.events + copies)


def liminf_oracles(family):
    """Every liminf oracle's answer for the family's kind."""
    if family.kind == "sets":
        return traces.liminf_sets(family), traces.liminf_sets_witness(family)
    if family.kind == "open":
        return traces.liminf_open(family)
    if family.kind == "measure":
        points = [*traces.universe(family), "absent"]
    elif family.kind == "tree":
        points = words_up_to(family.depth)
    else:
        points = sorted(CylinderSet.full().cells(family.depth))
    return traces.liminf_table(family, points), [traces.liminf_values(family, p) for p in points]


# Each trace row's flags besides --trace, for generated families at bound 4
# and eps 1/4; opencover runs once per --mode choice.
TAIL_COPY_FLAGS = {
    "setcover": [["--k", "2"]],
    "measurecover": [["--grid", "3"]],
    "treecover": [["--grid", "3"]],
    "opencover": [
        ["--mode", mode, "--eps", "1/4", "--eps-prime", "3/8"]
        for mode in dict(COMMANDS["opencover"].flags)["--mode"]["choices"]
    ],
    "fatou": [["--eps", "1/4", "--eps-prime", "3/8", "--grid", "3"]],
}


@pytest.mark.parametrize("name", [name for name, row in COMMANDS.items() if row.source == "trace"])
def test_appending_a_copy_of_the_tail_changes_no_liminf_or_verdict(name):
    row = COMMANDS[name]
    for seed in range(8):
        text = gen.gen_trace(row.family, 5, seed, depth=4, bound=4, eps=Fraction(1, 4))
        family = traces.parse_trace(text)
        longer = append_tail_copy(family)
        assert longer.nmax == 6
        assert liminf_oracles(longer) == liminf_oracles(family)
        for flags in TAIL_COPY_FLAGS[name]:  # every trace row needs a case
            argv = [*name.split(), "--trace", "unread", *flags]
            args = _build_parser().parse_args(argv)
            for fam in (family, longer):
                assert row.verify(args, fam, row.run(args, fam)).passed, (seed, flags)


def refine_depth(family):
    """The family with its header depth raised by one and every event kept:
    the same open sets and step functions, over cells half as wide."""
    return replace(family, depth=family.depth + 1)


@pytest.mark.parametrize("name", ["opencover", "fatou"])
def test_refining_the_depth_changes_no_liminf_or_verdict(name):
    row = COMMANDS[name]
    for seed in range(8):
        text = gen.gen_trace(row.family, 5, seed, depth=4, eps=Fraction(1, 4))
        family = traces.parse_trace(text)
        finer = refine_depth(family)
        if name == "opencover":
            assert traces.liminf_open(finer) == traces.liminf_open(family)
        else:
            coarse = traces.liminf_table(family, CylinderSet.full().cells(4))
            fine = traces.liminf_table(finer, CylinderSet.full().cells(5))
            assert fine == {cell: coarse[cell[:-1]] for cell in fine}
        for flags in TAIL_COPY_FLAGS[name]:
            argv = [*name.split(), "--trace", "unread", *flags]
            args = _build_parser().parse_args(argv)
            assert row.verify(args, finer, row.run(args, finer)).passed, (seed, flags)
