"""Command-line front end: run any construction and verify it.

Every run parses its inputs, executes the requested construction, always
runs the matching brute-force verification, and writes a line-oriented
plain-text report (stable for golden-file testing) to --out or stdout.
Reports are a pure function of the input bytes and the flags: keys are
COVER / MEASURE / BOUND / VERDICT / WITNESS-style lines with exact rationals
rendered as p/q; a THRESHOLD, whose denominator doubles with every attempt,
is rendered exactly from the run's attempt count T as eps'-budget*2^-T.

Each subcommand is a row of COMMANDS whose layers parse the input file, run
the construction, verify its result and render it; main chains them, and
one writer frames every report with its REPORT, INPUT, PARAM and RESULT
lines.  sweep runs and verifies generated families through the same rows.
The argument parser is built once per process, on first use.

Exit codes: 0 when every verdict passes, 1 when some verdict fails, and 2
for input or usage errors (reported as one line naming file and line).
"""

from __future__ import annotations

import argparse
import functools
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


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = []
    for check in verdict.checks:
        lines.append(f"VERDICT {check.name} {'PASS' if check.passed else 'FAIL'}")
        if not check.passed and check.witness:
            lines.append(f"WITNESS {check.name} {check.witness}")
    return lines


def _threshold_line(eps: Fraction, eps_prime: Fraction, attempts: int) -> str:
    return f"THRESHOLD {opencover.DeltaSchedule(eps, eps_prime).threshold_text(attempts)}"


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",")] if text else []


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(
    name: str, data: bytes | None, param: str, lines: list[str], passed: bool, out: str | None
) -> int:
    """Frame a report and write it; INPUT digests the input file's bytes, or
    the PARAM text for commands that read no file."""
    digest = hashlib.sha256(param.encode() if data is None else data).hexdigest()
    text = "\n".join([
        f"REPORT {name}",
        f"INPUT sha256:{digest}",
        f"PARAM {param}",
        *lines,
        f"RESULT {'PASS' if passed else 'FAIL'}",
    ])
    _write(text + "\n", out)
    return 0 if passed else 1


# The layers of the rows below call into the construction modules at call
# time, never through references taken at import, so a test may replace any
# of those functions.  A render returns the PARAM text and the report lines
# between PARAM and the verdict.


def _render_setcover(args, family, result: setcover.SetCoverResult):
    limit, witness = traces.liminf_sets_witness(family)
    return f"k={args.k}", [
        f"BOUND {result.bound}",
        " ".join(["COVER", *sorted(result.cover)]),
        " ".join(["LIMINF", *sorted(limit)]),
        f"LIMINF-WITNESS N={witness}",
        *(f"OP {n} {u}" for n, u in result.log),
    ]


def _mprime_lines(result: measurecover.MeasureCoverResult) -> list[str]:
    return [f"MPRIME {u} {format_rational(v)}" for u, v in sorted(result.table.items())]


def _render_measurecover(args, family, result: measurecover.MeasureCoverResult):
    return f"grid={args.grid}", [
        f"SUM {format_rational(sum(result.table.values(), Fraction(0)))}",
        *_mprime_lines(result),
        *(f"OP {u} {n} {format_rational(r)}" for u, n, r in result.log),
    ]


def _render_treecover(args, family, result: measurecover.MeasureCoverResult):
    by_word = sorted(result.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return f"grid={args.grid}", [
        *(f"APRIME {word_to_text(w)} {format_rational(v)}" for w, v in by_word),
    ]


def _run_freq(args, values: dict[int, str]) -> measurecover.MeasureCoverResult:
    grid = RationalGrid(args.grid)
    family = measurecover.frequency_trace(values, args.horizon)
    if args.emit_trace:
        Path(args.emit_trace).write_text(traces.format_trace(family), encoding="utf-8")
    return measurecover.run_measure_cover(family, grid)


def _render_freq(args, values: dict[int, str], result: measurecover.MeasureCoverResult):
    final = measurecover.frequency_semimeasures(values, args.horizon)[-1]
    return f"horizon={args.horizon} grid={args.grid}", [
        *(f"FREQ {x} {format_rational(v)}" for x, v in sorted(final.items())),
        *_mprime_lines(result),
    ]


_OPEN_RUNNERS = {"trim": "run_trim_cover", "naive": "run_naive_cover", "blocks": "run_block_cover"}


def _render_opencover(args, family, result: opencover.OpenCoverResult):
    cover_words = " ".join(word_to_text(w) for w in sorted(result.cover.words))
    param = (
        f"mode={args.mode} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}"
    )
    return param, [
        f"MEASURE {format_rational(result.cover.measure())}",
        _threshold_line(args.eps, args.eps_prime, result.attempts),
        f"COVER {cover_words}".rstrip(),
        f"PIECES {len(result.pieces)}",
        f"TRIMS {sum(result.trims)}",
    ]


def _render_omegademo(args, _, result: opencover.OmegaFamilyResult):
    key = (
        f"prefix={','.join(map(format_rational, args.prefix))};"
        f"cycle={','.join(map(format_rational, args.cycle))};"
        f"eps={format_rational(args.eps)}"
    )
    return key, [
        f"WMIN {format_rational(result.w_min)}",
        *(
            f"INTERVAL {i} {format_rational(iv.lo)} {format_rational(iv.hi)} "
            f"{format_rational(iv.measure())}"
            for i, iv in enumerate(result.intervals)
        ),
    ]


def _render_fatou(args, family, result: fatou.FatouResult):
    depth = result.phi.depth
    param = (
        f"eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)} grid={args.grid}"
    )
    return param, [
        f"INTEGRAL {format_rational(result.phi.integral())}",
        _threshold_line(args.eps, args.eps_prime, result.attempts),
        *(
            f"PHI {format(i, f'0{depth}b')} {format_rational(v)}"
            for i, v in enumerate(result.phi.cells)
            if v > 0
        ),
    ]


def _render_deficiency(args, decoder, dset: frozenset[str]):
    return f"n={args.n} c={args.c}", [
        " ".join(["DSET", *sorted(dset)]),
        f"COUNT {len(dset)}",
        f"BOUND {randlab.deficiency_bound(args.n, args.c)}",
    ]


def _run_randlab_cover(args, decoder):
    """The deficiency family and its trim cover: deficiency_pipeline without
    its verdict, which the row's verify derives."""
    eps, eps_prime = randlab.deficiency_eps(args.c)
    family = randlab.deficiency_cover_family(decoder, args.c, args.nmax, args.depth)
    return family, opencover.run_trim_cover(family, eps, eps_prime)


def _verify_randlab_cover(args, decoder, run) -> Verdict:
    family, result = run
    eps, eps_prime = randlab.deficiency_eps(args.c)
    return Verdict(
        randlab.deficiency_family_verdict(decoder, args.c, family).checks
        + opencover.verify_open_cover(family, eps, eps_prime, result).checks
    )


def _render_randlab_cover(args, decoder, run):
    eps, eps_prime = randlab.deficiency_eps(args.c)
    cover = run[1].cover
    cover_words = " ".join(word_to_text(w) for w in sorted(cover.words))
    return f"c={args.c} nmax={args.nmax} depth={args.depth}", [
        f"EPS {format_rational(eps)}",
        f"EPS-PRIME {format_rational(eps_prime)}",
        f"MEASURE {format_rational(cover.measure())}",
        f"COVER {cover_words}".rstrip(),
    ]


def _render_stabilize(args, test, result: randlab.StabilizeResult):
    lines = []
    for n in sorted(result.covered):
        lines.append(" ".join([f"SN {n}", *result.covered[n]]).rstrip())
        lines.append(f"TOTAL {n} {format_rational(result.totals[n])}")
        for u in result.covered[n]:
            lines.append(f"CODE {u} {word_to_text(result.codes[n][u])}")
    lines.extend(f"DELETED {i} {n}" for i, n in result.deleted)
    return f"c={args.c}", lines


def _render_bard(args, decoder, value: int | None):
    return f"x={args.x} length={args.length}", [
        f"BARD {'none' if value is None else value}",
        f"TRUNCATION L={args.length}",
    ]


def _run_gen(args, _) -> str:
    return gen.gen_trace(
        args.kind, args.nmax, args.seed, depth=args.depth, universe=args.universe,
        bound=args.bound, eps=args.eps,
    )


def _run_sweep(args, _) -> Verdict:
    """Each seed's family through every row that takes its kind: one run per
    --mode choice for open families, and k from --bound for sets."""
    if args.count < 1:
        raise InputError("count must be positive")
    if args.seed + args.count > 10**4300:  # each seed=N check renders its seed
        raise InputError("the last seed must have at most 4300 digits")
    depth = args.depth if args.kind in ("open", "tree", "func") else None
    eps = args.eps if args.kind in ("open", "func") else None
    k = (args.bound - 1).bit_length() if args.bound > 1 else 0
    modes = _OPEN_RUNNERS if args.kind == "open" else (None,)
    rows = [row for row in COMMANDS.values() if row.family == args.kind]
    levels = 1 << RationalGrid(args.grid).resolution if args.kind == "func" else 1
    checks = []
    for seed in range(args.seed, args.seed + args.count):
        text = gen.gen_trace(
            args.kind, args.nmax, seed, depth=depth, universe=args.universe,
            bound=args.bound, eps=eps,
        )
        family = traces.parse_trace(text)
        if seed == args.seed:  # count runs of the first family's size, before any runs
            traces.run_size(family, args.count * levels)
        found = []
        for row in rows:
            for mode in modes:
                row_args = argparse.Namespace(**vars(args), k=k, mode=mode)
                result = row.run(row_args, family)
                found.extend(row.verify(row_args, family, result).failures())
        checks.append(Check(f"seed={seed}", not found, found[0].name if found else ""))
    return Verdict(tuple(checks))


def _render_sweep(args, _, verdict: Verdict):
    key = (
        f"kind={args.kind} count={args.count} seed={args.seed} nmax={args.nmax} "
        f"depth={args.depth} universe={args.universe} bound={args.bound} "
        f"grid={args.grid} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}"
    )
    return key, []


def _sweep_lines(verdict: Verdict) -> list[str]:
    """A sweep's verdict has one check per seed, named seed=N, whose witness
    names the first check that failed."""
    return [
        f"SWEEP {c.name} PASS" if c.passed else f"SWEEP {c.name} FAIL witness={c.witness}"
        for c in verdict.checks
    ]


# The input formats, by the dest of a row's input-file flag.
_PARSERS = {
    "trace": lambda args, data: traces.parse_trace(data),
    "fn": lambda args, data: gen.parse_function_table(data),
    "decoder": lambda args, data: randlab.parse_decoder(data),
    "table": lambda args, data: randlab.parse_test_table(data, args.c),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, the dest of its input-file flag, its flags
    in usage order (every command also takes --out) and its layers.

    ``run(args, input)`` executes the construction on the parsed input file
    (None without one), ``verify(args, input, result)`` checks the result,
    and ``render(args, input, result)`` gives the PARAM text and the report
    lines before the verdict's lines.  gen has no verify: its run returns
    the trace it writes.  ``family`` is the kind of family the row's trace
    holds, by which sweep finds the row.
    """

    help: str
    source: str | None
    flags: tuple[tuple[str, dict], ...]
    run: Callable[..., Any]
    verify: Callable[..., Verdict] | None = None
    render: Callable[..., tuple[str, list[str]]] | None = None
    family: str | None = None
    verdict_lines: Callable[[Verdict], list[str]] = _verdict_lines

    def parse(self, args, data: bytes) -> Any:
        """The input file's contents, read in the format its flag names."""
        return _PARSERS[self.source](args, data)


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
        "cover the liminf of small finite sets", "trace",
        (_TRACE, ("--k", {**_INT, "help": "cardinality bound exponent"})),
        run=lambda a, f: setcover.run_set_cover(f, a.k),
        verify=lambda a, f, r: setcover.verify_set_cover(f, a.k, r),
        render=_render_setcover,
        family="sets",
    ),
    "measurecover": Command(
        "dominate the liminf of semimeasures", "trace",
        (_TRACE, ("--grid", {"type": int, "default": 4, "help": "dyadic grid resolution g"})),
        run=lambda a, f: measurecover.run_measure_cover(f, RationalGrid(a.grid)),
        verify=lambda a, f, r: measurecover.verify_measure_cover(f, RationalGrid(a.grid), r),
        render=_render_measurecover,
        family="measure",
    ),
    "treecover": Command(
        "dominate the liminf of tree semimeasures", "trace", (_TRACE, _GRID),
        run=lambda a, f: measurecover.run_tree_cover(f, RationalGrid(a.grid)),
        verify=lambda a, f, r: measurecover.verify_tree_cover(f, RationalGrid(a.grid), r),
        render=_render_treecover,
        family="tree",
    ),
    "freq": Command(
        "frequency semimeasures of a partial map", "fn",
        (
            ("--fn", {"required": True, "help": "partial map file: '<i> <token>' lines"}),
            ("--horizon", _INT),
            _GRID,
            ("--emit-trace", {"help": "also write the induced measure trace here"}),
        ),
        run=_run_freq,
        verify=lambda a, v, r: measurecover.verify_frequency_cover(
            v, a.horizon, RationalGrid(a.grid), r
        ),
        render=_render_freq,
    ),
    "opencover": Command(
        "cover the liminf of open sets", "trace",
        (_TRACE, ("--mode", {"choices": sorted(_OPEN_RUNNERS), "default": "trim"}), *_EPS),
        run=lambda a, f: getattr(opencover, _OPEN_RUNNERS[a.mode])(f, a.eps, a.eps_prime),
        verify=lambda a, f, r: opencover.verify_open_cover(f, a.eps, a.eps_prime, r),
        render=_render_opencover,
        family="open",
    ),
    "omegademo": Command(
        "interval family over an eventually periodic sequence", None,
        (
            ("--prefix", {"type": _rational_list, "default": ()}),
            ("--cycle", {"type": _rational_list, "required": True}),
            _EPS[0],
        ),
        run=lambda a, _: opencover.omega_family(a.prefix, a.cycle, a.eps),
        verify=lambda a, _, r: opencover.verify_omega_family(a.prefix, a.cycle, a.eps, r),
        render=_render_omegademo,
    ),
    "fatou": Command(
        "dominate the liminf of step functions", "trace", (_TRACE, *_EPS, _GRID),
        run=lambda a, f: fatou.run_fatou(f, a.eps, a.eps_prime, RationalGrid(a.grid)),
        verify=lambda a, f, r: fatou.verify_fatou(
            f, a.eps, a.eps_prime, RationalGrid(a.grid), r
        ),
        render=_render_fatou,
        family="func",
    ),
    "randlab deficiency": Command(
        "strings of length n with deficiency above c", "decoder",
        (_DECODER, ("--n", _INT), ("--c", _INT)),
        run=lambda a, d: randlab.deficiency_sets(d, a.n, a.c),
        verify=lambda a, d, r: randlab.verify_deficiency_sets(d, a.n, a.c, r),
        render=_render_deficiency,
    ),
    "randlab cover": Command(
        "cover the liminf of the deficiency family", "decoder",
        (_DECODER, ("--c", _INT), ("--nmax", _INT), ("--depth", _INT)),
        run=_run_randlab_cover,
        verify=_verify_randlab_cover,
        render=_render_randlab_cover,
    ),
    "randlab stabilize": Command(
        "normalize and code an interval approximation table", "table",
        (("--table", {"required": True}), ("--c", _INT)),
        run=lambda a, t: randlab.stabilize_test(t),
        verify=lambda a, t, r: randlab.verify_stabilize(t, r),
        render=_render_stabilize,
    ),
    "randlab bard": Command(
        "least deficiency over described extensions", "decoder",
        (
            _DECODER,
            ("--x", {"required": True, "help": "binary word (e for the root)"}),
            ("--length", {**_INT, "help": "extension length bound"}),
        ),
        run=lambda a, d: randlab.bar_deficiency(d, word_from_text(a.x), a.length),
        verify=lambda a, d, r: randlab.verify_bar_deficiency(
            d, word_from_text(a.x), a.length, r
        ),
        render=_render_bard,
    ),
    "gen": Command(
        "generate a random precondition-satisfying trace", None,
        (
            ("--kind", {"choices": traces.KINDS, "required": True}),
            ("--nmax", _INT),
            ("--depth", {"type": int}),
            ("--seed", _INT),
            ("--universe", {"type": int, "default": 16}),
            ("--bound", {"type": int}),
            ("--eps", {"type": _rational}),
        ),
        run=_run_gen,
    ),
    "sweep": Command(
        "generate, run and verify many seeded instances", None,
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
        run=_run_sweep,
        verify=lambda a, _, verdict: verdict,
        render=_render_sweep,
        verdict_lines=_sweep_lines,
    ),
}

_GROUP_HELP = {"randlab": "deficiency-set constructions over decoder tables"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command and its flags, built once per process on
    first use; parse_args leaves it unchanged, so every main call reuses it."""
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.row]
    source = getattr(args, command.source) if command.source else None
    try:
        data = Path(source).read_bytes() if source is not None else None
        given = command.parse(args, data) if data is not None else None
        result = command.run(args, given)
        if command.verify is None:
            _write(result, args.out)
            return 0
        verdict = command.verify(args, given, result)
        param, lines = command.render(args, given, result)
        lines += command.verdict_lines(verdict)
        name = args.row.replace(" ", "-")
        return _write_report(name, data, param, lines, verdict.passed, args.out)
    except traces.ParseError as exc:
        print(f"limcov: {source or 'input'}: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"limcov: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
