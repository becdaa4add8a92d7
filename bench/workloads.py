"""The benchmark's workloads: fixed, seeded case lists and their inputs.

A case is one user invocation of the limcov command line.  Building a
workload generates every input file from the workload seed and writes it
into the current directory, so the cases refer to bare file names and the
case list digests the same on every machine.

Each case also knows how to replay itself through the public functions of
the layers the command calls (parse, run, verify, oracle), which is how the
traced run times the layers from outside the program.  The replay returns
the case's counters, taken from public result fields and closed forms.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from limcov import fatou, gen, measurecover, opencover, randlab, setcover, traces
from limcov.kernel import words_up_to
from limcov.measurecover import RationalGrid

EPS = "1/4"
EPS_PRIME = "3/8"


@dataclass(frozen=True)
class Case:
    """One invocation: ``argv`` for limcov.cli.main and what to check."""

    id: str
    kind: str
    argv: tuple[str, ...]
    out: str
    params: dict = field(default_factory=dict, compare=False)


class Workload:
    """A case list plus the expected outputs the checks compare against."""

    def __init__(self, cases: list[Case], expected: dict[str, bytes]):
        self.cases = cases
        self.expected = expected

    def digest(self) -> str:
        """sha256 over the case list and the bytes of every input file."""
        h = hashlib.sha256()
        for case in self.cases:
            h.update(json.dumps([case.id, case.argv], sort_keys=True).encode())
            for name in _input_files(case):
                h.update(name.encode() + b"\0" + Path(name).read_bytes())
        return "sha256:" + h.hexdigest()


_INPUT_FLAGS = ("--trace", "--fn", "--decoder", "--table")


def _input_files(case: Case) -> list[str]:
    return [case.argv[i + 1] for i, a in enumerate(case.argv) if a in _INPUT_FLAGS]


class _Builder:
    def __init__(self, name: str, seed: int, tracer):
        self.rng = random.Random(f"{name}:{seed}")
        self.tracer = tracer
        self.cases: list[Case] = []
        self.expected: dict[str, bytes] = {}

    def seed(self) -> int:
        return self.rng.randrange(1 << 31)

    def write(self, name: str, make) -> str:
        with self.tracer.span("gen"):
            text = make()
        Path(name).write_text(text, encoding="utf-8")
        return name

    def trace(self, kind: str, nmax: int, depth: int | None = None, **kw) -> str:
        name = f"{kind}-{nmax}x{depth or 0}-{len(self.cases)}.trace"
        seed = self.seed()
        eps = Fraction(EPS) if kind in ("open", "func") else None
        return self.write(
            name, lambda: gen.gen_trace(kind, nmax, seed, depth=depth, eps=eps, **kw)
        )

    def add(self, label: str, kind: str, argv: list[str], **params) -> None:
        cid = f"{label}#{len(self.cases)}"
        out = f"case{len(self.cases)}.out"
        self.cases.append(Case(cid, kind, (*argv, "--out", out), out, params))

    def opencover(self, trace: str, mode: str, label: str) -> None:
        self.add(
            label, "opencover",
            ["opencover", "--mode", mode, "--trace", trace, "--eps", EPS, "--eps-prime", EPS_PRIME],
            trace=trace, mode=mode,
        )

    def treecover(self, trace: str, grid: int, label: str) -> None:
        self.add(label, "treecover", ["treecover", "--trace", trace, "--grid", str(grid)],
                 trace=trace, grid=grid)

    def fatou(self, trace: str, grid: int, label: str) -> None:
        self.add(
            label, "fatou",
            ["fatou", "--trace", trace, "--eps", EPS, "--eps-prime", EPS_PRIME, "--grid", str(grid)],
            trace=trace, grid=grid,
        )


def _open_ladder(b: _Builder, tiny: bool) -> None:
    # Families at 28 members or more and depth 8 need over 14.3k attempts,
    # past which rendering THRESHOLD fails; the ladder straddles that line.
    # (nmax, depth, families, modes).  Passes stay short, so every case is
    # timed many times in a run; 64x8 runs in blocks mode only for that reason.
    # The 31 cases sort into 13 blocks cases, five 16x8 naive, five 16x8 trim
    # and eight larger ones, so the median is the middle 16x8 naive case and
    # the tail (ten cases beyond it) the middle 16x8 trim case.
    everything = ("trim", "naive", "blocks")
    plan = [(4, 4, 1, everything), (6, 4, 1, everything), (6, 5, 1, ("blocks",))] if tiny else [
        (16, 8, 5, everything),
        (24, 8, 3, everything),
        (32, 8, 1, everything),
        (64, 8, 3, ("blocks",)),
        (64, 12, 1, ("blocks",)),
    ]
    for nmax, depth, families, modes in plan:
        for _ in range(families):
            trace = b.trace("open", nmax, depth)
            for mode in modes:
                b.opencover(trace, mode, f"open-{nmax}x{depth}-{mode}")


def _tree_func(b: _Builder, tiny: bool) -> None:
    # (kind, nmax, depth, families).  Tree 32x7 is run-heavy and 8x9
    # verify-heavy; func 16x6 needs over 14.3k attempts and fails in render.
    # A tree family's cost varies up to 1.8-fold with the seed, a func
    # family's by a few percent.  The 23 cases sort into nine cheaper ones
    # (func 4x6, tree 8x7), five func 8x6 and nine dearer ones, so the
    # median and the tail (ten cases beyond it) are func 8x6 cases.
    plan = [("tree", 4, 4, 1), ("func", 4, 4, 1)] if tiny else [
        ("tree", 8, 7, 5), ("tree", 16, 7, 3), ("tree", 8, 8, 2),
        ("tree", 32, 7, 1), ("tree", 8, 9, 1),
        ("func", 4, 6, 4), ("func", 8, 6, 5), ("func", 16, 6, 2),
    ]
    for kind, nmax, depth, families in plan:
        for _ in range(families):
            if kind == "tree":
                b.treecover(b.trace("tree", nmax, depth), 4, f"tree-{nmax}x{depth}")
            else:
                b.fatou(b.trace("func", nmax, depth), 3, f"func-{nmax}x{depth}")


def _desk_mix(b: _Builder, tiny: bool) -> None:
    # Five of each: the 75 cases sort so that the tail (ten cases beyond it)
    # is the middle of the ten treecover and randlab cover cases.
    for _ in range(1 if tiny else 5):
        trace = b.trace("sets", 8, bound=4)
        b.add("setcover", "setcover", ["setcover", "--trace", trace, "--k", "2"],
              trace=trace, k=2)
        trace = b.trace("measure", 8)
        b.add("measurecover", "measurecover", ["measurecover", "--trace", trace, "--grid", "4"],
              trace=trace, grid=4)

        seed = b.seed()
        fn = b.write(f"fn-{len(b.cases)}.txt", lambda: gen.gen_function_text(seed, 16))
        emit = f"case{len(b.cases)}.mu.trace"
        b.add("freq", "freq",
              ["freq", "--fn", fn, "--horizon", "16", "--grid", "4", "--emit-trace", emit],
              fn=fn, horizon=16, grid=4)

        trace = b.trace("open", 6, 4)
        for mode in ("trim", "naive", "blocks"):
            b.opencover(trace, mode, f"opencover-{mode}")
        b.treecover(b.trace("tree", 6, 4), 4, "treecover")
        b.fatou(b.trace("func", 4, 4), 3, "fatou")

        prefix = ",".join(f"{b.rng.randint(0, 8)}/8" for _ in range(b.rng.randint(0, 3)))
        cycle = ",".join(f"{b.rng.randint(0, 8)}/8" for _ in range(b.rng.randint(1, 3)))
        b.add("omegademo", "omegademo",
              ["omegademo", "--prefix", prefix, "--cycle", cycle, "--eps", EPS],
              prefix=prefix, cycle=cycle)

        seed = b.seed()
        decoder = b.write(f"dec-{len(b.cases)}.txt", lambda: gen.gen_decoder_text(seed))
        b.add("randlab-deficiency", "randlab-deficiency",
              ["randlab", "deficiency", "--decoder", decoder, "--n", "6", "--c", "1"],
              decoder=decoder, n=6, c=1)
        b.add("randlab-cover", "randlab-cover",
              ["randlab", "cover", "--decoder", decoder, "--c", "1", "--nmax", "6", "--depth", "6"],
              decoder=decoder, c=1, nmax=6, depth=6)
        x = f"{b.rng.randrange(4):02b}"
        b.add("randlab-bard", "randlab-bard",
              ["randlab", "bard", "--decoder", decoder, "--x", x, "--length", "8"],
              decoder=decoder, x=x, length=8)
        seed = b.seed()
        table = b.write(f"tab-{len(b.cases)}.txt", lambda: gen.gen_test_table_text(seed, 2))
        b.add("randlab-stabilize", "randlab-stabilize",
              ["randlab", "stabilize", "--table", table, "--c", "2"], table=table, c=2)

        seed = b.seed()
        b.add("sweep", "sweep",
              ["sweep", "--kind", "sets", "--count", "4", "--seed", str(seed), "--nmax", "6"],
              seed=seed, count=4, nmax=6)

        seed = b.seed()
        with b.tracer.span("gen"):
            text = _gen_open_small(seed)
        b.add("gen", "gen",
              ["gen", "--kind", "open", "--nmax", "6", "--depth", "4", "--seed", str(seed),
               "--eps", EPS], seed=seed)
        b.expected[b.cases[-1].id] = text.encode()


def _gen_open_small(seed: int) -> str:
    return gen.gen_trace("open", 6, seed, depth=4, eps=Fraction(EPS))


WORKLOADS = {"open-ladder": _open_ladder, "tree-func": _tree_func, "desk-mix": _desk_mix}


def build(name: str, seed: int, tracer, tiny: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` into the current directory."""
    b = _Builder(name, seed, tracer)
    WORKLOADS[name](b, tiny)
    return Workload(b.cases, b.expected)


# Replays: the calls into each layer that the command makes, timed as spans.
# Each returns the case's counters.


def _parse(tracer, path: str) -> traces.StabilizedFamily:
    data = Path(path).read_bytes()
    with tracer.span("traces.parse", phase="parse"):
        return traces.parse_trace(data)


def _oracle(tracer, fn, *args) -> None:
    with tracer.span("traces.oracle", calls=1):
        fn(*args)


def _oracle_points(tracer, family, points) -> None:
    with tracer.span("traces.oracle", calls=len(points)):
        for point in points:
            traces.liminf_values(family, point)


def _replay_opencover(case: Case, tracer) -> dict:
    family = _parse(tracer, case.params["trace"])
    mode = case.params["mode"]
    runner = {
        "trim": opencover.run_trim_cover,
        "naive": opencover.run_naive_cover,
        "blocks": opencover.run_block_cover,
    }[mode]
    eps, eps_prime = Fraction(EPS), Fraction(EPS_PRIME)
    with tracer.span(f"opencover.{mode}.run", phase="run"):
        result = runner(family, eps, eps_prime)
    with tracer.span("opencover.verify", phase="verify"):
        opencover.verify_open_cover(family, eps, eps_prime, result)
    _oracle(tracer, traces.liminf_open, family)
    if mode == "blocks":
        return {"traces.events": len(family.events)}
    return {
        "traces.events": len(family.events),
        "opencover.attempts": (family.nmax + 1) * ((1 << (family.depth + 1)) - 1),
        "opencover.pieces": len(result.pieces),
        "opencover.trims": sum(count for _, count in result.trim_events),
    }


def _replay_treecover(case: Case, tracer) -> dict:
    family = _parse(tracer, case.params["trace"])
    grid = RationalGrid(case.params["grid"])
    with tracer.span("measurecover.tree.run", phase="run"):
        result = measurecover.run_tree_cover(family, grid)
    with tracer.span("measurecover.tree.verify", phase="verify"):
        measurecover.verify_tree_cover(family, grid, result)
    _oracle_points(tracer, family, words_up_to(family.depth))
    return {"traces.events": len(family.events), "measurecover.tree.log_ops": len(result.log)}


def _replay_fatou(case: Case, tracer) -> dict:
    family = _parse(tracer, case.params["trace"])
    grid = RationalGrid(case.params["grid"])
    eps, eps_prime = Fraction(EPS), Fraction(EPS_PRIME)
    with tracer.span("fatou.run", phase="run"):
        result = fatou.run_fatou(family, eps, eps_prime, grid)
    with tracer.span("fatou.verify", phase="verify"):
        fatou.verify_fatou(family, eps, eps_prime, grid, result)
    depth = family.depth
    _oracle_points(tracer, family, [format(i, f"0{depth}b") for i in range(1 << depth)])
    # Levels are the grid multiples up to the largest value, at least 2^g.
    g = grid.resolution
    top = max((e.value for e in family.events), default=Fraction(0))
    levels = max(1 << g, -((-top.numerator << g) // top.denominator))
    attempts = (family.nmax + 1) * ((1 << (depth + 1)) - 1) * levels
    return {
        "traces.events": len(family.events),
        "fatou.attempts": attempts,
        "fatou.log_ops": len(result.log),
    }


def _replay_setcover(case: Case, tracer) -> dict:
    family = _parse(tracer, case.params["trace"])
    k = case.params["k"]
    with tracer.span("setcover.run", phase="run"):
        result = setcover.run_set_cover(family, k)
    with tracer.span("setcover.verify", phase="verify"):
        setcover.verify_set_cover(family, k, result)
    _oracle(tracer, traces.liminf_sets, family)
    return {"traces.events": len(family.events), "setcover.log_ops": len(result.log)}


def _replay_measurecover(case: Case, tracer) -> dict:
    family = _parse(tracer, case.params["trace"])
    grid = RationalGrid(case.params["grid"])
    with tracer.span("measurecover.measure.run", phase="run"):
        result = measurecover.run_measure_cover(family, grid)
    with tracer.span("measurecover.measure.verify", phase="verify"):
        measurecover.verify_measure_cover(family, grid, result)
    _oracle_points(tracer, family, traces.universe(family))
    return {"traces.events": len(family.events), "measurecover.measure.log_ops": len(result.log)}


def _replay_freq(case: Case, tracer) -> dict:
    data = Path(case.params["fn"]).read_bytes()
    horizon = case.params["horizon"]
    grid = RationalGrid(case.params["grid"])
    with tracer.span("gen.parse", phase="parse"):
        values = gen.parse_function_table(data)
    with tracer.span("measurecover.freq.run", phase="run"):
        family = measurecover.frequency_trace(values, horizon)
        result = measurecover.run_measure_cover(family, grid)
    with tracer.span("measurecover.freq.verify", phase="verify"):
        measurecover.verify_frequency_cover(values, horizon, grid, result)
    return {"measurecover.freq.log_ops": len(result.log)}


def _replay_omegademo(case: Case, tracer) -> dict:
    prefix = [Fraction(v) for v in case.params["prefix"].split(",") if v]
    cycle = [Fraction(v) for v in case.params["cycle"].split(",")]
    with tracer.span("opencover.omega.run", phase="run"):
        opencover.omega_family(prefix, cycle, Fraction(EPS))
    return {}


def _replay_randlab(case: Case, tracer) -> dict:
    p = case.params
    with tracer.span("randlab", phase="run"):
        if case.kind == "randlab-stabilize":
            randlab.stabilize_test(randlab.parse_test_table(Path(p["table"]).read_bytes(), p["c"]))
            return {}
        decoder = randlab.parse_decoder(Path(p["decoder"]).read_bytes())
        if case.kind == "randlab-deficiency":
            randlab.deficiency_sets(decoder, p["n"], p["c"])
        elif case.kind == "randlab-cover":
            family, _, _ = randlab.deficiency_pipeline(decoder, p["c"], p["nmax"], p["depth"])
            randlab.deficiency_family_verdict(decoder, p["c"], family)
        else:
            randlab.bar_deficiency(decoder, p["x"], p["length"])
    return {}


def _replay_sweep(case: Case, tracer) -> dict:
    """The sweep's per-seed work, sequentially (the command uses a pool)."""
    p = case.params
    events = 0
    for seed in range(p["seed"], p["seed"] + p["count"]):
        with tracer.span("gen.run", phase="run"):
            text = gen.gen_trace("sets", p["nmax"], seed, universe=16, bound=4)
        family = _parse_text(tracer, text)
        with tracer.span("setcover.run", phase="run"):
            result = setcover.run_set_cover(family, 2)
        with tracer.span("setcover.verify", phase="verify"):
            setcover.verify_set_cover(family, 2, result)
        events += len(family.events)
    return {"traces.events": events}


def _parse_text(tracer, text: str) -> traces.StabilizedFamily:
    with tracer.span("traces.parse", phase="parse"):
        return traces.parse_trace(text)


def _replay_gen(case: Case, tracer) -> dict:
    with tracer.span("gen.run", phase="run"):
        _gen_open_small(case.params["seed"])
    return {}


REPLAYS = {
    "opencover": _replay_opencover,
    "treecover": _replay_treecover,
    "fatou": _replay_fatou,
    "setcover": _replay_setcover,
    "measurecover": _replay_measurecover,
    "freq": _replay_freq,
    "omegademo": _replay_omegademo,
    "randlab-deficiency": _replay_randlab,
    "randlab-cover": _replay_randlab,
    "randlab-bard": _replay_randlab,
    "randlab-stabilize": _replay_randlab,
    "sweep": _replay_sweep,
    "gen": _replay_gen,
}
