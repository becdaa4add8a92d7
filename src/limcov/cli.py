"""Command-line front end: run any construction and verify it.

Every run parses its inputs, executes the requested construction, always
runs the matching brute-force verification, and writes a line-oriented
plain-text report (stable for golden-file testing) to --out or stdout.
Reports are a pure function of the input bytes and the flags: keys are
COVER / MEASURE / BOUND / VERDICT / WITNESS-style lines with exact rationals
rendered as p/q; a THRESHOLD, whose denominator doubles with every attempt,
is rendered exactly by its closed form eps'-budget*2^-T.

Exit codes: 0 when every verdict passes, 1 when some verdict fails, and 2
for input or usage errors (reported as one line naming file and line).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import fatou, gen, measurecover, opencover, randlab, setcover, traces
from .kernel import (
    InputError,
    format_rational,
    parse_rational,
    word_from_text,
    word_to_text,
)
from .measurecover import RationalGrid
from .verdict import Check, Verdict

__all__ = ["main"]


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


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


def _finish(lines: list[str], passed: bool, out: str | None) -> int:
    lines.append(f"RESULT {'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


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


def _cmd_setcover(args) -> int:
    data = _read(args.trace)
    family = traces.parse_trace(data)
    result = setcover.run_set_cover(family, args.k)
    verdict = setcover.verify_set_cover(family, args.k, result)
    limit, witness = traces.liminf_sets_witness(family)
    lines = [
        "REPORT setcover",
        f"INPUT {_digest(data)}",
        f"PARAM k={args.k}",
        f"BOUND {result.bound}",
        " ".join(["COVER", *sorted(result.cover)]),
        " ".join(["LIMINF", *sorted(limit)]),
        f"LIMINF-WITNESS N={witness}",
        *(f"OP {n} {u}" for n, u in result.log),
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_measurecover(args) -> int:
    data = _read(args.trace)
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = measurecover.run_measure_cover(family, grid)
    verdict = measurecover.verify_measure_cover(family, grid, result)
    lines = [
        "REPORT measurecover",
        f"INPUT {_digest(data)}",
        f"PARAM grid={args.grid}",
        f"SUM {format_rational(sum(result.table.values(), Fraction(0)))}",
        *(
            f"MPRIME {u} {format_rational(v)}"
            for u, v in sorted(result.table.items())
        ),
        *(
            f"OP {u} {n} {format_rational(r)}"
            for u, n, r in result.log
        ),
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_treecover(args) -> int:
    data = _read(args.trace)
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = measurecover.run_tree_cover(family, grid)
    verdict = measurecover.verify_tree_cover(family, grid, result)
    lines = [
        "REPORT treecover",
        f"INPUT {_digest(data)}",
        f"PARAM grid={args.grid}",
        *(
            f"APRIME {word_to_text(w)} {format_rational(v)}"
            for w, v in sorted(result.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ),
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_freq(args) -> int:
    data = _read(args.fn)
    values = gen.parse_function_table(data)
    grid = RationalGrid(args.grid)
    family = measurecover.frequency_trace(values, args.horizon)
    if args.emit_trace:
        Path(args.emit_trace).write_text(traces.format_trace(family), encoding="utf-8")
    result = measurecover.run_measure_cover(family, grid)
    verdict = measurecover.verify_frequency_cover(values, args.horizon, grid, result)
    mus = measurecover.frequency_semimeasures(values, args.horizon)
    final = mus[-1]
    lines = [
        "REPORT freq",
        f"INPUT {_digest(data)}",
        f"PARAM horizon={args.horizon} grid={args.grid}",
        *(
            f"FREQ {x} {format_rational(v)}"
            for x, v in sorted(final.items())
        ),
        *(
            f"MPRIME {u} {format_rational(v)}"
            for u, v in sorted(result.table.items())
        ),
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


_OPEN_RUNNERS = {
    "trim": opencover.run_trim_cover,
    "naive": opencover.run_naive_cover,
    "blocks": opencover.run_block_cover,
}


def _cmd_opencover(args) -> int:
    data = _read(args.trace)
    family = traces.parse_trace(data)
    result = _OPEN_RUNNERS[args.mode](family, args.eps, args.eps_prime)
    verdict = opencover.verify_open_cover(family, args.eps, args.eps_prime, result)
    cover_words = " ".join(word_to_text(w) for w in sorted(result.cover.words))
    lines = [
        "REPORT opencover",
        f"INPUT {_digest(data)}",
        f"PARAM mode={args.mode} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}",
        f"MEASURE {format_rational(result.cover.measure())}",
        _threshold_line(args.eps, args.eps_prime, result.theta),
        f"COVER {cover_words}".rstrip(),
        f"PIECES {len(result.pieces)}",
        f"TRIMS {sum(count for _, count in result.trim_events)}",
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_omegademo(args) -> int:
    key = (
        f"prefix={','.join(map(format_rational, args.prefix))};"
        f"cycle={','.join(map(format_rational, args.cycle))};"
        f"eps={format_rational(args.eps)}"
    )
    result = opencover.omega_family(args.prefix, args.cycle, args.eps)
    lines = [
        "REPORT omegademo",
        f"INPUT {_digest(key.encode())}",
        f"PARAM {key}",
        f"WMIN {format_rational(result.w_min)}",
        *(
            f"INTERVAL {i} {format_rational(iv.lo)} {format_rational(iv.hi)} "
            f"{format_rational(iv.measure())}"
            for i, iv in enumerate(result.intervals)
        ),
        *_verdict_lines(result.verdict),
    ]
    return _finish(lines, result.verdict.passed, args.out)


def _cmd_fatou(args) -> int:
    data = _read(args.trace)
    family = traces.parse_trace(data)
    grid = RationalGrid(args.grid)
    result = fatou.run_fatou(family, args.eps, args.eps_prime, grid)
    verdict = fatou.verify_fatou(family, args.eps, args.eps_prime, grid, result)
    depth = result.phi.depth
    lines = [
        "REPORT fatou",
        f"INPUT {_digest(data)}",
        f"PARAM eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)} grid={args.grid}",
        f"INTEGRAL {format_rational(result.phi.integral())}",
        _threshold_line(args.eps, args.eps_prime, result.theta),
        *(
            f"PHI {format(i, f'0{depth}b')} {format_rational(v)}"
            for i, v in enumerate(result.phi.cells)
            if v > 0
        ),
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_randlab_deficiency(args) -> int:
    data = _read(args.decoder)
    decoder = randlab.parse_decoder(data)
    if args.n > 16:
        raise InputError("n beyond exhaustive-verification scale (max 16)")
    dset = randlab.deficiency_sets(decoder, args.n, args.c)
    # Independent oracle: score every string of length n by scanning all
    # programs, instead of collecting decoder outputs.
    complexity = decoder.complexity()
    expected = {
        u
        for u in (format(i, f"0{args.n}b") if args.n else "" for i in range(1 << args.n))
        if complexity.get(u, args.n + 1) < args.n - args.c
    }
    bound = max(0, (1 << max(args.n - args.c, 0)) - 1)
    agree = dset == expected
    within = len(dset) <= bound
    verdict = Verdict(
        (
            Check("oracle-agreement", agree, "" if agree else "enumeration differs"),
            Check("count-bound", within, "" if within else str(len(dset))),
        )
    )
    lines = [
        "REPORT randlab-deficiency",
        f"INPUT {_digest(data)}",
        f"PARAM n={args.n} c={args.c}",
        " ".join(["DSET", *sorted(dset)]),
        f"COUNT {len(dset)}",
        f"BOUND {bound}",
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_randlab_cover(args) -> int:
    data = _read(args.decoder)
    decoder = randlab.parse_decoder(data)
    family, result, verdict = randlab.deficiency_pipeline(
        decoder, args.c, args.nmax, args.depth
    )
    family_verdict = randlab.deficiency_family_verdict(decoder, args.c, family)
    combined = Verdict(family_verdict.checks + verdict.checks)
    cover_words = " ".join(word_to_text(w) for w in sorted(result.cover.words))
    lines = [
        "REPORT randlab-cover",
        f"INPUT {_digest(data)}",
        f"PARAM c={args.c} nmax={args.nmax} depth={args.depth}",
        f"EPS {format_rational(Fraction(1, 1 << args.c))}",
        f"EPS-PRIME {format_rational(Fraction(1, 1 << (args.c - 1)))}",
        f"MEASURE {format_rational(result.cover.measure())}",
        f"COVER {cover_words}".rstrip(),
        *_verdict_lines(combined),
    ]
    return _finish(lines, combined.passed, args.out)


def _cmd_randlab_stabilize(args) -> int:
    data = _read(args.table)
    test = randlab.parse_test_table(data, args.c)
    result = randlab.stabilize_test(test)
    lines = [
        "REPORT randlab-stabilize",
        f"INPUT {_digest(data)}",
        f"PARAM c={args.c}",
    ]
    for n in sorted(result.covered):
        lines.append(" ".join([f"SN {n}", *result.covered[n]]).rstrip())
        lines.append(f"TOTAL {n} {format_rational(result.totals[n])}")
        for u in result.covered[n]:
            lines.append(f"CODE {u} {word_to_text(result.codes[n][u])}")
    lines.extend(
        f"DELETED {i} {n}" for i, n in result.deleted
    )
    lines.extend(_verdict_lines(result.verdict))
    return _finish(lines, result.verdict.passed, args.out)


def _cmd_randlab_bard(args) -> int:
    data = _read(args.decoder)
    decoder = randlab.parse_decoder(data)
    x = word_from_text(args.x)
    if args.length - len(x) > 16:
        raise InputError("extension range beyond exhaustive-verification scale")
    value = randlab.bar_deficiency(decoder, x, args.length)
    # Independent oracle: enumerate every extension explicitly.
    complexity = decoder.complexity()
    expected = None
    for extra in range(args.length - len(x) + 1):
        for j in range(1 << extra):
            y = x + (format(j, f"0{extra}b") if extra else "")
            if y in complexity:
                d = len(y) - complexity[y]
                if expected is None or d < expected:
                    expected = d
    agree = value == expected
    verdict = Verdict(
        (Check("oracle-agreement", agree, "" if agree else f"{value} vs {expected}"),)
    )
    lines = [
        "REPORT randlab-bard",
        f"INPUT {_digest(data)}",
        f"PARAM x={word_to_text(x)} length={args.length}",
        f"BARD {'none' if value is None else value}",
        f"TRUNCATION L={args.length}",
        *_verdict_lines(verdict),
    ]
    return _finish(lines, verdict.passed, args.out)


def _cmd_gen(args) -> int:
    text = gen.gen_trace(
        args.kind,
        args.nmax,
        args.seed,
        depth=args.depth,
        universe=args.universe,
        bound=args.bound,
        eps=args.eps,
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _sweep_one(kind: str, seed: int, args) -> tuple[int, bool, str]:
    depth = args.depth if kind in ("open", "tree", "func") else None
    text = gen.gen_trace(
        kind, args.nmax, seed, depth=depth, universe=args.universe,
        bound=args.bound, eps=args.eps if kind in ("open", "func") else None,
    )
    family = traces.parse_trace(text)
    if kind == "sets":
        k = max(0, (args.bound - 1).bit_length()) if args.bound > 1 else 0
        verdict = setcover.verify_set_cover(
            family, k, setcover.run_set_cover(family, k)
        )
    elif kind == "measure":
        grid = RationalGrid(args.grid)
        verdict = measurecover.verify_measure_cover(
            family, grid, measurecover.run_measure_cover(family, grid)
        )
    elif kind == "tree":
        grid = RationalGrid(args.grid)
        verdict = measurecover.verify_tree_cover(
            family, grid, measurecover.run_tree_cover(family, grid)
        )
    elif kind == "open":
        checks = []
        for runner in _OPEN_RUNNERS.values():
            result = runner(family, args.eps, args.eps_prime)
            checks.extend(
                opencover.verify_open_cover(family, args.eps, args.eps_prime, result).checks
            )
        verdict = Verdict(tuple(checks))
    else:  # func
        grid = RationalGrid(args.grid)
        result = fatou.run_fatou(family, args.eps, args.eps_prime, grid)
        verdict = fatou.verify_fatou(family, args.eps, args.eps_prime, grid, result)
    witness = "" if verdict.passed else verdict.failures()[0].name
    return seed, verdict.passed, witness


def _cmd_sweep(args) -> int:
    if args.count < 1:
        raise InputError("count must be positive")
    seeds = range(args.seed, args.seed + args.count)
    with ThreadPoolExecutor(max_workers=min(8, args.count)) as pool:
        rows = list(pool.map(lambda s: _sweep_one(args.kind, s, args), seeds))
    rows.sort()
    key = (
        f"kind={args.kind} count={args.count} seed={args.seed} nmax={args.nmax} "
        f"depth={args.depth} universe={args.universe} bound={args.bound} "
        f"grid={args.grid} eps={format_rational(args.eps)} "
        f"eps-prime={format_rational(args.eps_prime)}"
    )
    lines = [
        "REPORT sweep",
        f"INPUT {_digest(key.encode())}",
        f"PARAM {key}",
    ]
    all_passed = True
    for seed, passed, witness in rows:
        if passed:
            lines.append(f"SWEEP seed={seed} PASS")
        else:
            all_passed = False
            lines.append(f"SWEEP seed={seed} FAIL witness={witness}")
    return _finish(lines, all_passed, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limcov",
        description="Run and verify liminf covering constructions on stabilized families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("setcover", help="cover the liminf of small finite sets")
    p.add_argument("--trace", required=True)
    p.add_argument("--k", type=int, required=True, help="cardinality bound exponent")
    common(p)
    p.set_defaults(func=_cmd_setcover)

    p = sub.add_parser("measurecover", help="dominate the liminf of semimeasures")
    p.add_argument("--trace", required=True)
    p.add_argument("--grid", type=int, default=4, help="dyadic grid resolution g")
    common(p)
    p.set_defaults(func=_cmd_measurecover)

    p = sub.add_parser("treecover", help="dominate the liminf of tree semimeasures")
    p.add_argument("--trace", required=True)
    p.add_argument("--grid", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_treecover)

    p = sub.add_parser("freq", help="frequency semimeasures of a partial map")
    p.add_argument("--fn", required=True, help="partial map file: '<i> <token>' lines")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--emit-trace", help="also write the induced measure trace here")
    common(p)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("opencover", help="cover the liminf of open sets")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=sorted(_OPEN_RUNNERS), default="trim")
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--eps-prime", type=_rational, required=True)
    common(p)
    p.set_defaults(func=_cmd_opencover)

    p = sub.add_parser("omegademo", help="interval family over an eventually periodic sequence")
    p.add_argument("--prefix", type=_rational_list, default=[])
    p.add_argument("--cycle", type=_rational_list, required=True)
    p.add_argument("--eps", type=_rational, required=True)
    common(p)
    p.set_defaults(func=_cmd_omegademo)

    p = sub.add_parser("fatou", help="dominate the liminf of step functions")
    p.add_argument("--trace", required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--eps-prime", type=_rational, required=True)
    p.add_argument("--grid", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_fatou)

    p = sub.add_parser("randlab", help="deficiency-set constructions over decoder tables")
    rsub = p.add_subparsers(dest="randlab_command", required=True)

    q = rsub.add_parser("deficiency", help="strings of length n with deficiency above c")
    q.add_argument("--decoder", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    common(q)
    q.set_defaults(func=_cmd_randlab_deficiency)

    q = rsub.add_parser("cover", help="cover the liminf of the deficiency family")
    q.add_argument("--decoder", required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--nmax", type=int, required=True)
    q.add_argument("--depth", type=int, required=True)
    common(q)
    q.set_defaults(func=_cmd_randlab_cover)

    q = rsub.add_parser("stabilize", help="normalize and code an interval approximation table")
    q.add_argument("--table", required=True)
    q.add_argument("--c", type=int, required=True)
    common(q)
    q.set_defaults(func=_cmd_randlab_stabilize)

    q = rsub.add_parser("bard", help="least deficiency over described extensions")
    q.add_argument("--decoder", required=True)
    q.add_argument("--x", required=True, help="binary word (e for the root)")
    q.add_argument("--length", type=int, required=True, help="extension length bound")
    common(q)
    q.set_defaults(func=_cmd_randlab_bard)

    p = sub.add_parser("gen", help="generate a random precondition-satisfying trace")
    p.add_argument("--kind", choices=traces.KINDS, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--universe", type=int, default=16)
    p.add_argument("--bound", type=int)
    p.add_argument("--eps", type=_rational)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="generate, run and verify many seeded instances")
    p.add_argument("--kind", choices=traces.KINDS, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--universe", type=int, default=16)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--eps", type=_rational, default=Fraction(1, 4))
    p.add_argument("--eps-prime", type=_rational, default=Fraction(3, 8))
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except traces.ParseError as exc:
        source = getattr(args, "trace", None) or getattr(args, "fn", None) or \
            getattr(args, "decoder", None) or getattr(args, "table", None) or "input"
        print(f"limcov: {source}: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"limcov: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
