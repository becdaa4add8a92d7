"""Output checks that do not use limcov's own verifiers.

Every report must end in ``RESULT PASS``.  For open covers the liminf is
re-derived here from the trace bytes with an integer cell-mask scan, and
the reported COVER must contain it with MEASURE at most eps'.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path


def _word_mask(text: str, depth: int) -> int:
    word = "" if text == "e" else text
    shift = depth - len(word)
    base = int(word, 2) << shift if word else 0
    return ((1 << (1 << shift)) - 1) << base


def open_liminf_mask(data: bytes) -> tuple[int, int]:
    """(liminf as a mask over the 2^depth cells, depth) of an open trace.

    The liminf is the union over N of the intersection of U_N, U_N+1, ...;
    under the tail rule that is one backward pass of suffix intersections.
    """
    lines = data.decode("utf-8").splitlines()
    _, _, nmax_field, depth_field = lines[0].split(" ")
    nmax = int(nmax_field.removeprefix("nmax="))
    depth = int(depth_field.removeprefix("depth="))
    masks = [0] * nmax
    for line in lines[1:]:
        _, n, word = line.split(" ")
        masks[int(n)] |= _word_mask(word, depth)
    suffix = (1 << (1 << depth)) - 1
    limit = 0
    for mask in reversed(masks):
        suffix &= mask
        limit |= suffix
    return limit, depth


def check_open_report(report: list[str], trace: bytes, eps_prime: Fraction) -> str:
    """Empty when the report's cover contains the liminf within eps'."""
    limit, depth = open_liminf_mask(trace)
    fields = {line.split(" ", 1)[0]: line for line in report}
    cover = 0
    for word in fields.get("COVER", "COVER").split(" ")[1:]:
        cover |= _word_mask(word, depth)
    measure = Fraction(fields["MEASURE"].split(" ")[1])
    if limit & ~cover:
        return "COVER misses part of the liminf"
    if measure != Fraction(cover.bit_count(), 1 << depth):
        return "MEASURE is not the measure of COVER"
    if measure > eps_prime:
        return "MEASURE above eps'"
    return ""


def check_case(case, expected: dict[str, bytes]) -> str:
    """Empty when the case's output is correct, else what is wrong."""
    path = Path(case.out)
    if not path.is_file():
        return "no report written"
    data = path.read_bytes()
    if case.kind == "gen":
        return "" if data == expected[case.id] else "gen output differs"
    report = data.decode("utf-8").splitlines()
    if not report or report[-1] != "RESULT PASS":
        return "report does not end in RESULT PASS"
    if case.kind == "sweep" and any(
        line.startswith("SWEEP") and not line.endswith(" PASS") for line in report
    ):
        return "a sweep row failed"
    if case.kind == "opencover":
        trace = Path(case.params["trace"]).read_bytes()
        argv = case.argv
        eps_prime = Fraction(argv[argv.index("--eps-prime") + 1])
        return check_open_report(report, trace, eps_prime)
    return ""
