"""Fuzzing every CLI row: any input ends in exit 0, 1 or 2, within 2 s,
with no traceback.

Each case starts from a small valid input and flag set of one COMMANDS row
and then mutates it: numbers in the header, events and flags are replaced
by draws up to 10^11 or by runs of 4299-4302 digits, around the 4300 that
int() converts, lines are dropped or repeated, or the input file is
replaced by random bytes.  Modes, kinds and seeds are drawn from values of
their own, seeds up to 4301 digits.  Runs past traces.run_size's limits
must be refused before they allocate, so the huge numbers end at once.
"""

import contextlib
import io
import re
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from limcov import traces
from limcov.cli import COMMANDS, main

# One valid input file (None for rows that read none) and flag list per row.
SEEDS = {
    "setcover": (b"family sets nmax=3\nadd 0 a\nadd 1 a\nadd 2 b\n", ["--k", "1"]),
    "measurecover": (b"family measure nmax=2\nraise 0 a 1/2\nraise 1 b 1/4\n", ["--grid", "2"]),
    "treecover": (
        b"family tree nmax=2 depth=2\nraise 0 e 1/2\nraise 1 0 1/4\nraise 1 01 1/8\nraise 1 e 1/4\n",
        ["--grid", "2"],
    ),
    "freq": (b"0 x\n1 y\n2 x\n", ["--horizon", "3", "--grid", "2"]),
    "opencover": (
        b"family open nmax=2 depth=3\nadd 0 000\nadd 1 01\n",
        ["--mode", "trim", "--eps", "1/4", "--eps-prime", "1/2"],
    ),
    "omegademo": (None, ["--prefix", "1/2", "--cycle", "1/3,1/4", "--eps", "1/4"]),
    "fatou": (
        b"family func nmax=2 depth=2\nraise 0 00 1/2\nraise 1 e 1/8\n",
        ["--eps", "1/4", "--eps-prime", "1/2", "--grid", "2"],
    ),
    "randlab deficiency": (b"0 00\n1 01\n", ["--n", "2", "--c", "0"]),
    "randlab cover": (b"0 00\n1 010\n", ["--c", "1", "--nmax", "3", "--depth", "3"]),
    "randlab stabilize": (b"0 2 01\n1 3 0\n", ["--c", "1"]),
    "randlab bard": (b"0 00\n1 011\n", ["--x", "0", "--length", "3"]),
    "gen": (None, ["--kind", "open", "--nmax", "4", "--depth", "3", "--seed", "1", "--eps", "1/4"]),
    "sweep": (None, ["--kind", "sets", "--count", "2", "--nmax", "4", "--seed", "0"]),
}

# Small numbers keep a run at desk scale; large ones must be refused.  The
# gap between them holds admitted runs of up to a second or so (open 1x15).
# The longest are built as strings: str() of an int past 4300 digits raises.
NUMBERS = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(10**5, 10**11).map(str),
    st.builds(str.__mul__, st.sampled_from("19"), st.integers(4299, 4302)),
)
# Flags drawn from values of their own.  A sweep report names every seed, so
# seeds run up to and past the 4300 digits str() renders.
DRAWS = {
    "--mode": st.sampled_from(["trim", "naive", "blocks"]),
    "--kind": st.sampled_from(traces.KINDS),
    "--seed": st.one_of(
        st.integers(0, 9).map(str), st.builds(str.__mul__, st.just("9"), st.integers(4299, 4301))
    ),
}


def _numbers(draw, text: str) -> str:
    """``text`` with each run of digits kept or replaced by a draw."""
    return re.sub(r"\d+", lambda m: draw(NUMBERS) if draw(st.booleans()) else m[0], text)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(SEEDS)))
    data, flags = SEEDS[name]
    flags = list(flags)
    for i, flag in enumerate(flags[:-1]):
        if flag in DRAWS:
            flags[i + 1] = draw(DRAWS[flag])
        elif draw(st.booleans()):
            flags[i + 1] = _numbers(draw, flags[i + 1])
    if data is not None:
        how = draw(st.sampled_from(["numbers", "lines", "bytes"]))
        if how == "bytes":
            data = draw(st.binary(max_size=40))
        else:
            lines = data.decode().splitlines()
            if how == "lines":
                picks = st.lists(st.integers(0, len(lines) - 1), max_size=6)
                lines = lines[:1] + [lines[i] for i in draw(picks)]
            data = ("\n".join(_numbers(draw, line) for line in lines) + "\n").encode()
    return name, data, flags


def _main(name: str, data: bytes | None, flags: list[str]) -> tuple[int, str, float]:
    """main on one case in a temporary directory: exit code, stderr and seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*name.split(), *flags, "--out", str(Path(tmp, "report.txt"))]
        if data is not None:
            Path(tmp, "input").write_bytes(data)
            argv += [f"--{COMMANDS[name].source}", str(Path(tmp, "input"))]
        if name == "freq":
            argv += ["--emit-trace", str(Path(tmp, "emitted.trace"))]
        err = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        return code, err.getvalue(), time.perf_counter() - began


@settings(max_examples=700, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_row_exits_cleanly_on_mutated_inputs(case):
    code, err, took = _main(*case)
    assert code in (0, 1, 2), case
    assert "Traceback" not in err
    assert took < 2, (case, took)


def test_the_seeds_cover_every_row_and_pass():
    assert sorted(SEEDS) == sorted(COMMANDS)
    for name, (data, flags) in SEEDS.items():
        assert _main(name, data, flags)[0] == 0, name
