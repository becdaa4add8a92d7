"""Command-line front end: run any construction and verify it.

Every run parses its inputs, executes the requested construction, always
runs the matching brute-force verification, and writes a line-oriented
plain-text report (stable for golden-file testing) to --out or stdout.
Reports are a pure function of the input bytes and the flags: keys are
COVER / MEASURE / BOUND / VERDICT / WITNESS-style lines with exact rationals
rendered as p/q; a THRESHOLD, whose denominator doubles with every attempt,
is rendered exactly by its closed form eps'-budget*2^-T.

Each subcommand is a row of COMMANDS whose body parses, runs and verifies;
one writer frames every report with its REPORT, INPUT, PARAM, VERDICT and
RESULT lines.

Exit codes: 0 when every verdict passes, 1 when some verdict fails, and 2
for input or usage errors (reported as one line naming file and line).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import fatou, gen, measurecover, opencover, randlab, setcover, traces
from .kernel import InputError, format_rational, parse_rational, word_from_text, word_to_text
from .measurecover import RationalGrid
from .verdict import Check, Verdict

__all__ = ["COMMANDS", "Command", "main"]

# What a report body returns: the PARAM text, the report lines between PARAM
# and the verdict, and the verdict.
Report = tuple[str, list[str], Verdict]


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = []
    for check in verdict.checks:
        lines.append(f"VERDICT {check.name} {'PASS' if check.passed else 'FAIL'}")
        if not check.passed and check.witness:
            lines.append(f"WITNESS {check.name} {check.witness}")
    return lines


def _threshold_line(eps: Fraction, eps_prime: Fraction, theta: Fraction) -> str:
    schedule = opencover.DeltaSchedule(eps_prime - eps, eps)
    return f"THRESHOLD {schedule.format_theta(theta)}"


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list(text: str) -> list[Fraction]:
    if not text:
        return []
    try:
        return [parse_rational(part) for part in text.split(",")]
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(
    name: str,
    data: bytes | None,
    report: Report,
    render: Callable[[Verdict], list[str]],
    out: str | None,
) -> int:
    """Frame a body's report and write it; INPUT digests the input file's
    bytes, or the PARAM text for commands that read no file."""
    param, lines, verdict = report
    digest = hashlib.sha256(param.encode() if data is None else data).hexdigest()
    text = "\n".join([
        f"REPORT {name}",
        f"INPUT sha256:{digest}",
        f"PARAM {param}",
        *lines,
        *render(verdict),
        f"RESULT {'PASS' if verdict.passed else 'FAIL'}",
    ])
    _write(text + "\n", out)
    return 0 if verdict.passed else 1


# Bodies call into the construction modules at call time, never through
# references taken at import, so a test may replace any of those functions.
def _setcover(args, data: bytes) -> Report:
    family = traces.parse_trace(data)
    result = setcover.run_set_cover(family, args.k)
    verdict = setcover.verify_set_cover(family, args.k, result)
    limit, witness = traces.liminf_sets_witness(family)
    return f"k={args.k}", [
        f"BOUND {result.bound}",
        " ".join(["COVER", *sorted(result.cover)]),
        " ".join(["LIMINF", *sorted(limit)]),
        f"LIMINF-WITNESS N={witness}",
        *(f"OP {n} {u}" for n, u in result.log),
    ], verdict


def _mprime_lines(result: measurecover.MeasureCoverResult) -> list[str]:
    return [f"MPRIME {u} {format_rational(v)}" for u, v in sorted(result.table.items())]


def _measurecover(args, data: bytes) -> Report:
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = measurecover.run_measure_cover(family, grid)
    verdict = measurecover.verify_measure_cover(family, grid, result)
    return f"grid={args.grid}", [
        f"SUM {format_rational(sum(result.table.values(), Fraction(0)))}",
        *_mprime_lines(result),
        *(f"OP {u} {n} {format_rational(r)}" for u, n, r in result.log),
    ], verdict


def _treecover(args, data: bytes) -> Report:
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = measurecover.run_tree_cover(family, grid)
    verdict = measurecover.verify_tree_cover(family, grid, result)
    by_word = sorted(result.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return f"grid={args.grid}", [
        *(f"APRIME {word_to_text(w)} {format_rational(v)}" for w, v in by_word),
    ], verdict


def _freq(args, data: bytes) -> Report:
    values = gen.parse_function_table(data)
    grid = RationalGrid(args.grid)
    family = measurecover.frequency_trace(values, args.horizon)
    if args.emit_trace:
        Path(args.emit_trace).write_text(traces.format_trace(family), encoding="utf-8")
    result = measurecover.run_measure_cover(family, grid)
    verdict = measurecover.verify_frequency_cover(values, args.horizon, grid, result)
    final = measurecover.frequency_semimeasures(values, args.horizon)[-1]
    return f"horizon={args.horizon} grid={args.grid}", [
        *(f"FREQ {x} {format_rational(v)}" for x, v in sorted(final.items())),
        *_mprime_lines(result),
    ], verdict


_OPEN_RUNNERS = {"trim": "run_trim_cover", "naive": "run_naive_cover", "blocks": "run_block_cover"}


def _opencover(args, data: bytes) -> Report:
    family = traces.parse_trace(data)
    runner = getattr(opencover, _OPEN_RUNNERS[args.mode])
    result = runner(family, args.eps, args.eps_prime)
    verdict = opencover.verify_open_cover(family, args.eps, args.eps_prime, result)
    cover_words = " ".join(word_to_text(w) for w in sorted(result.cover.words))
    param = (
        f"mode={args.mode} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}"
    )
    return param, [
        f"MEASURE {format_rational(result.cover.measure())}",
        _threshold_line(args.eps, args.eps_prime, result.theta),
        f"COVER {cover_words}".rstrip(),
        f"PIECES {len(result.pieces)}",
        f"TRIMS {sum(count for _, count in result.trim_events)}",
    ], verdict


def _omegademo(args, data: None) -> Report:
    key = (
        f"prefix={','.join(map(format_rational, args.prefix))};"
        f"cycle={','.join(map(format_rational, args.cycle))};"
        f"eps={format_rational(args.eps)}"
    )
    result = opencover.omega_family(args.prefix, args.cycle, args.eps)
    return key, [
        f"WMIN {format_rational(result.w_min)}",
        *(
            f"INTERVAL {i} {format_rational(iv.lo)} {format_rational(iv.hi)} "
            f"{format_rational(iv.measure())}"
            for i, iv in enumerate(result.intervals)
        ),
    ], result.verdict


def _fatou(args, data: bytes) -> Report:
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = fatou.run_fatou(family, args.eps, args.eps_prime, grid)
    verdict = fatou.verify_fatou(family, args.eps, args.eps_prime, grid, result)
    depth = result.phi.depth
    param = (
        f"eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)} grid={args.grid}"
    )
    return param, [
        f"INTEGRAL {format_rational(result.phi.integral())}",
        _threshold_line(args.eps, args.eps_prime, result.theta),
        *(
            f"PHI {format(i, f'0{depth}b')} {format_rational(v)}"
            for i, v in enumerate(result.phi.cells)
            if v > 0
        ),
    ], verdict


def _randlab_deficiency(args, data: bytes) -> Report:
    decoder = randlab.parse_decoder(data)
    dset = randlab.deficiency_sets(decoder, args.n, args.c)
    verdict = randlab.verify_deficiency_sets(decoder, args.n, args.c, dset)
    return f"n={args.n} c={args.c}", [
        " ".join(["DSET", *sorted(dset)]),
        f"COUNT {len(dset)}",
        f"BOUND {randlab.deficiency_bound(args.n, args.c)}",
    ], verdict


def _randlab_cover(args, data: bytes) -> Report:
    decoder = randlab.parse_decoder(data)
    family, result, verdict = randlab.deficiency_pipeline(
        decoder, args.c, args.nmax, args.depth
    )
    family_verdict = randlab.deficiency_family_verdict(decoder, args.c, family)
    combined = Verdict(family_verdict.checks + verdict.checks)
    cover_words = " ".join(word_to_text(w) for w in sorted(result.cover.words))
    return f"c={args.c} nmax={args.nmax} depth={args.depth}", [
        f"EPS {format_rational(Fraction(1, 1 << args.c))}",
        f"EPS-PRIME {format_rational(Fraction(1, 1 << (args.c - 1)))}",
        f"MEASURE {format_rational(result.cover.measure())}",
        f"COVER {cover_words}".rstrip(),
    ], combined


def _randlab_stabilize(args, data: bytes) -> Report:
    result = randlab.stabilize_test(randlab.parse_test_table(data, args.c))
    lines = []
    for n in sorted(result.covered):
        lines.append(" ".join([f"SN {n}", *result.covered[n]]).rstrip())
        lines.append(f"TOTAL {n} {format_rational(result.totals[n])}")
        for u in result.covered[n]:
            lines.append(f"CODE {u} {word_to_text(result.codes[n][u])}")
    lines.extend(f"DELETED {i} {n}" for i, n in result.deleted)
    return f"c={args.c}", lines, result.verdict


def _randlab_bard(args, data: bytes) -> Report:
    decoder = randlab.parse_decoder(data)
    x = word_from_text(args.x)
    value = randlab.bar_deficiency(decoder, x, args.length)
    verdict = randlab.verify_bar_deficiency(decoder, x, args.length, value)
    return f"x={word_to_text(x)} length={args.length}", [
        f"BARD {'none' if value is None else value}",
        f"TRUNCATION L={args.length}",
    ], verdict


def _gen(args, data: None) -> str:
    return gen.gen_trace(
        args.kind, args.nmax, args.seed, depth=args.depth, universe=args.universe,
        bound=args.bound, eps=args.eps,
    )


def _sweep_sets(family: traces.StabilizedFamily, args) -> Verdict:
    k = (args.bound - 1).bit_length() if args.bound > 1 else 0
    return setcover.verify_set_cover(family, k, setcover.run_set_cover(family, k))


def _sweep_measure(family: traces.StabilizedFamily, args) -> Verdict:
    grid = RationalGrid(args.grid)
    result = measurecover.run_measure_cover(family, grid)
    return measurecover.verify_measure_cover(family, grid, result)


def _sweep_tree(family: traces.StabilizedFamily, args) -> Verdict:
    grid = RationalGrid(args.grid)
    result = measurecover.run_tree_cover(family, grid)
    return measurecover.verify_tree_cover(family, grid, result)


def _sweep_open(family: traces.StabilizedFamily, args) -> Verdict:
    checks = []
    for name in _OPEN_RUNNERS.values():
        result = getattr(opencover, name)(family, args.eps, args.eps_prime)
        verdict = opencover.verify_open_cover(family, args.eps, args.eps_prime, result)
        checks.extend(verdict.checks)
    return Verdict(tuple(checks))


def _sweep_func(family: traces.StabilizedFamily, args) -> Verdict:
    grid = RationalGrid(args.grid)
    result = fatou.run_fatou(family, args.eps, args.eps_prime, grid)
    return fatou.verify_fatou(family, args.eps, args.eps_prime, grid, result)


# The run/verify step of each family kind, for sweep.
_SWEEP_STEPS = {
    "sets": _sweep_sets,
    "open": _sweep_open,
    "measure": _sweep_measure,
    "tree": _sweep_tree,
    "func": _sweep_func,
}


def _sweep(args, data: None) -> Report:
    if args.count < 1:
        raise InputError("count must be positive")
    depth = args.depth if args.kind in ("open", "tree", "func") else None
    eps = args.eps if args.kind in ("open", "func") else None
    checks = []
    for seed in range(args.seed, args.seed + args.count):
        text = gen.gen_trace(
            args.kind, args.nmax, seed, depth=depth, universe=args.universe,
            bound=args.bound, eps=eps,
        )
        verdict = _SWEEP_STEPS[args.kind](traces.parse_trace(text), args)
        witness = "" if verdict.passed else verdict.failures()[0].name
        checks.append(Check(f"seed={seed}", verdict.passed, witness))
    key = (
        f"kind={args.kind} count={args.count} seed={args.seed} nmax={args.nmax} "
        f"depth={args.depth} universe={args.universe} bound={args.bound} "
        f"grid={args.grid} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}"
    )
    return key, [], Verdict(tuple(checks))


def _sweep_lines(verdict: Verdict) -> list[str]:
    """A sweep's verdict has one check per seed, named seed=N, whose witness
    names the first check that failed."""
    return [
        f"SWEEP {c.name} PASS" if c.passed else f"SWEEP {c.name} FAIL witness={c.witness}"
        for c in verdict.checks
    ]


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, its body, the dest of its input-file flag
    and its flags in usage order (every command also takes --out).

    A body maps the parsed flags and the input file's bytes (None without
    one) to a Report, whose verdict ``render`` turns into report lines.
    With ``render`` None the command writes no report: gen's body returns
    the trace text, written as it is.
    """

    help: str
    body: Callable[..., Any]
    source: str | None
    flags: tuple[tuple[str, dict], ...]
    render: Callable[[Verdict], list[str]] | None = _verdict_lines


_INT = {"type": int, "required": True}
_RATIONAL = {"type": _rational, "required": True}
_TRACE = ("--trace", {"required": True})
_DECODER = ("--decoder", {"required": True})
_GRID = ("--grid", {"type": int, "default": 4})
_EPS = (("--eps", _RATIONAL), ("--eps-prime", _RATIONAL))

# Keyed by the words of the command line: "randlab cover" is the cover
# command of the randlab group.  The rows are in the order of the usage text.
COMMANDS: dict[str, Command] = {
    "setcover": Command(
        "cover the liminf of small finite sets", _setcover, "trace",
        (_TRACE, ("--k", {**_INT, "help": "cardinality bound exponent"})),
    ),
    "measurecover": Command(
        "dominate the liminf of semimeasures", _measurecover, "trace",
        (_TRACE, ("--grid", {"type": int, "default": 4, "help": "dyadic grid resolution g"})),
    ),
    "treecover": Command(
        "dominate the liminf of tree semimeasures", _treecover, "trace", (_TRACE, _GRID)
    ),
    "freq": Command(
        "frequency semimeasures of a partial map", _freq, "fn",
        (
            ("--fn", {"required": True, "help": "partial map file: '<i> <token>' lines"}),
            ("--horizon", _INT),
            _GRID,
            ("--emit-trace", {"help": "also write the induced measure trace here"}),
        ),
    ),
    "opencover": Command(
        "cover the liminf of open sets", _opencover, "trace",
        (_TRACE, ("--mode", {"choices": sorted(_OPEN_RUNNERS), "default": "trim"}), *_EPS),
    ),
    "omegademo": Command(
        "interval family over an eventually periodic sequence", _omegademo, None,
        (
            ("--prefix", {"type": _rational_list, "default": ()}),
            ("--cycle", {"type": _rational_list, "required": True}),
            _EPS[0],
        ),
    ),
    "fatou": Command(
        "dominate the liminf of step functions", _fatou, "trace", (_TRACE, *_EPS, _GRID)
    ),
    "randlab deficiency": Command(
        "strings of length n with deficiency above c", _randlab_deficiency, "decoder",
        (_DECODER, ("--n", _INT), ("--c", _INT)),
    ),
    "randlab cover": Command(
        "cover the liminf of the deficiency family", _randlab_cover, "decoder",
        (_DECODER, ("--c", _INT), ("--nmax", _INT), ("--depth", _INT)),
    ),
    "randlab stabilize": Command(
        "normalize and code an interval approximation table", _randlab_stabilize, "table",
        (("--table", {"required": True}), ("--c", _INT)),
    ),
    "randlab bard": Command(
        "least deficiency over described extensions", _randlab_bard, "decoder",
        (
            _DECODER,
            ("--x", {"required": True, "help": "binary word (e for the root)"}),
            ("--length", {**_INT, "help": "extension length bound"}),
        ),
    ),
    "gen": Command(
        "generate a random precondition-satisfying trace", _gen, None,
        (
            ("--kind", {"choices": traces.KINDS, "required": True}),
            ("--nmax", _INT),
            ("--depth", {"type": int}),
            ("--seed", _INT),
            ("--universe", {"type": int, "default": 16}),
            ("--bound", {"type": int}),
            ("--eps", {"type": _rational}),
        ),
        render=None,
    ),
    "sweep": Command(
        "generate, run and verify many seeded instances", _sweep, None,
        (
            ("--kind", {"choices": traces.KINDS, "required": True}),
            ("--count", _INT),
            ("--seed", {"type": int, "default": 0}),
            ("--nmax", {"type": int, "default": 8}),
            ("--depth", {"type": int, "default": 4}),
            ("--universe", {"type": int, "default": 16}),
            ("--bound", {"type": int, "default": 4}),
            _GRID,
            ("--eps", {"type": _rational, "default": Fraction(1, 4)}),
            ("--eps-prime", {"type": _rational, "default": Fraction(3, 8)}),
        ),
        render=_sweep_lines,
    ),
}

_GROUP_HELP = {"randlab": "deficiency-set constructions over decoder tables"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limcov",
        description="Run and verify liminf covering constructions on stabilized families.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=_GROUP_HELP[group]
            ).add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(leaf, help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(row=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.row]
    source = getattr(args, command.source) if command.source else None
    try:
        data = Path(source).read_bytes() if source is not None else None
        if command.render is None:
            _write(command.body(args, data), args.out)
            return 0
        name = args.row.replace(" ", "-")
        return _write_report(name, data, command.body(args, data), command.render, args.out)
    except traces.ParseError as exc:
        print(f"limcov: {source or 'input'}: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"limcov: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
