"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every bound is exact
(rational comparisons); grid-precision bounds use the grid floor, never an
approximate tolerance.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from limcov import fatou, gen, measurecover, opencover, randlab, setcover, traces
from limcov.cli import main
from limcov.kernel import CylinderSet, words_up_to
from limcov.measurecover import RationalGrid
from reference import fatou_specializes, trim_limit

F = Fraction
ZERO = F(0)


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_set_cover_suite():
    started = time.perf_counter()
    rng = random.Random(101)
    runs = 0
    for i in range(1000):
        k = rng.randint(0, 4)
        nmax = rng.randint(1, 16)
        universe = rng.randint(1, 64)
        fam = traces.parse_trace(
            gen.gen_trace("sets", nmax, seed=100_000 + i, universe=universe, bound=1 << k)
        )
        result = setcover.run_set_cover(fam, k)
        assert len(result.cover) <= 1 << k
        assert traces.liminf_sets(fam) <= result.cover
        assert setcover.verify_set_cover(fam, k, result).passed
        runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 1000
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(f"1 (set cover, {runs} families, {elapsed:.1f}s)")


def test_criterion_2_measure_cover_suite():
    rng = random.Random(102)
    runs = 0
    for i in range(500):
        fam = traces.parse_trace(
            gen.gen_trace(
                "measure", rng.randint(1, 12), seed=200_000 + i,
                universe=rng.randint(1, 32),
            )
        )
        grid = RationalGrid(rng.randint(1, 6))
        result = measurecover.run_measure_cover(fam, grid)
        total = sum(result.table.values(), ZERO)
        assert total <= 1 and all(v >= 0 for v in result.table.values())
        for u in traces.universe(fam):
            tail = traces.liminf_values(fam, u)
            assert result.table.get(u, ZERO) >= grid.floor(tail)
        assert measurecover.verify_measure_cover(fam, grid, result).passed
        runs += 1
    assert runs == 500
    _report(f"2 (semimeasure cover, {runs} families)")


def test_criterion_3_frequency_suite():
    rng = random.Random(103)
    runs = 0
    for i in range(200):
        horizon = rng.randint(1, 64)
        values = gen.parse_function_table(
            gen.gen_function_text(300_000 + i, horizon, value_range=rng.randint(1, 16))
        )
        grid = RationalGrid(rng.randint(1, 6))
        fam = measurecover.frequency_trace(values, horizon)
        result = measurecover.run_measure_cover(fam, grid)
        mus = measurecover.frequency_semimeasures(values, horizon)
        for x in set(values.values()):
            got = result.table.get(x, ZERO)
            for start in range(horizon):
                suffix_min = min(mu.get(x, ZERO) for mu in mus[start:])
                assert got >= grid.floor(suffix_min)
        assert measurecover.verify_frequency_cover(values, horizon, grid, result).passed
        runs += 1
    assert runs == 200
    _report(f"3 (limit frequencies, {runs} partial maps)")


def test_criterion_4_tree_cover_suite():
    rng = random.Random(104)
    runs = 0
    for i in range(200):
        depth = rng.randint(1, 6)
        fam = traces.parse_trace(
            gen.gen_trace("tree", rng.randint(1, 8), seed=400_000 + i, depth=depth)
        )
        grid = RationalGrid(rng.randint(1, 5))
        # the run itself asserts the tree law after every accepted increase
        result = measurecover.run_tree_cover(fam, grid)
        table = result.table
        assert table.get("", ZERO) <= 1
        for y in words_up_to(depth - 1):
            assert table.get(y, ZERO) >= table.get(y + "0", ZERO) + table.get(y + "1", ZERO)
        for w in words_up_to(depth):
            assert table.get(w, ZERO) >= grid.floor(traces.liminf_values(fam, w))
        assert measurecover.verify_tree_cover(fam, grid, result).passed
        runs += 1
    assert runs == 200
    _report(f"4 (tree semimeasure cover, {runs} families)")


def test_criterion_5_open_cover_suite():
    started = time.perf_counter()
    rng = random.Random(105)
    runs = 0
    runners = (
        opencover.run_trim_cover,
        opencover.run_naive_cover,
        opencover.run_block_cover,
    )
    for i in range(500):
        eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
        eps_prime = eps + F(1, 8)
        fam = traces.parse_trace(
            gen.gen_trace(
                "open", rng.randint(1, 12), seed=500_000 + i,
                depth=rng.randint(1, 8), eps=eps,
            )
        )
        limit = traces.liminf_open(fam)
        for runner in runners:
            result = runner(fam, eps, eps_prime)
            assert result.cover.measure() <= eps_prime
            assert limit.subset(result.cover)
            schedule = opencover.DeltaSchedule(eps, eps_prime)
            for attempt, count in result.trim_events:
                assert count < trim_limit(schedule, attempt)
            assert opencover.verify_open_cover(fam, eps, eps_prime, result).passed
        runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 500
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
    _report(f"5 (open cover, {runs} families x 3 modes, {elapsed:.1f}s)")


def test_criterion_6_interval_family_demo():
    rng = random.Random(106)
    runs = 0
    for _ in range(50):
        prefix = [
            F(rng.randint(-16, 16), rng.randint(1, 12)) for _ in range(rng.randint(0, 4))
        ]
        cycle = [
            F(rng.randint(-16, 16), rng.randint(1, 12)) for _ in range(rng.randint(1, 5))
        ]
        eps = F(rng.randint(1, 24), rng.randint(1, 12) * 3)
        result = opencover.omega_family(prefix, cycle, eps)
        assert opencover.verify_omega_family(prefix, cycle, eps, result).passed
        w_min = min(cycle)
        for pos in range(len(prefix), len(prefix) + 2 * len(cycle)):
            interval = result.intervals[pos]
            w_i = cycle[(pos - len(prefix)) % len(cycle)]
            if w_i == w_min:
                assert interval.measure() == 2 * eps / 3
            assert interval.contains(w_min)
        runs += 1
    assert runs == 50
    _report(f"6 (interval family demo, {runs} inputs)")


def test_criterion_7_fatou_suite():
    rng = random.Random(107)
    runs = 0
    for i in range(200):
        eps = rng.choice([F(1, 8), F(1, 4), F(1, 2)])
        eps_prime = eps + F(1, 8)
        fam = traces.parse_trace(
            gen.gen_trace(
                "func", rng.randint(1, 10), seed=700_000 + i,
                depth=rng.randint(1, 5), eps=eps,
            )
        )
        grid = RationalGrid(rng.randint(1, 5))
        result = fatou.run_fatou(fam, eps, eps_prime, grid)
        assert result.phi.integral() <= eps_prime
        for cell in CylinderSet.full().cells(fam.depth):
            assert result.phi.value(cell) >= grid.floor(traces.liminf_values(fam, cell))
        assert fatou.verify_fatou(fam, eps, eps_prime, grid, result).passed
        runs += 1

    embedded = 0
    for i in range(100):
        kind = "sets" if i % 2 == 0 else "measure"
        fam = traces.parse_trace(
            gen.gen_trace(
                kind, rng.randint(1, 5), seed=750_000 + i,
                universe=rng.randint(1, 12), bound=4,
            )
        )
        report = fatou_specializes(fam, RationalGrid(rng.randint(1, 3)))
        assert report.verdict.passed, report.rows
        embedded += 1
    for i in range(50):
        fam = traces.parse_trace(
            gen.gen_trace(
                "open", rng.randint(1, 8), seed=770_000 + i,
                depth=rng.randint(1, 6), eps=rng.choice([F(1, 8), F(1, 4), F(1, 2)]),
            )
        )
        report = fatou_specializes(fam, RationalGrid(rng.randint(1, 3)))
        assert report.verdict.passed, report.rows
        embedded += 1
    assert runs == 200 and embedded == 150
    _report(f"7 (step-function cover, {runs} families + {embedded} embeddings)")


def test_criterion_8_deficiency_suite():
    rng = random.Random(108)
    decoders = 0
    for i in range(200):
        decoder = randlab.parse_decoder(
            gen.gen_decoder_text(800_000 + i, entries=rng.randint(0, 16))
        )
        for n in range(0, 11):
            for c in range(0, n + 1):
                dset = randlab.deficiency_sets(decoder, n, c)
                assert len(dset) <= max(0, (1 << (n - c)) - 1)
        c = rng.randint(1, 3)
        family = randlab.deficiency_cover_family(decoder, c, 10, 10)
        for member in traces.opens_by_index(family):
            assert member.measure() <= F(1, 1 << c)

        c_pipe = rng.randint(1, 2)
        _, cover, verdict = randlab.deficiency_pipeline(decoder, c_pipe, 6, 6)
        assert cover.cover.measure() <= F(1, 1 << (c_pipe - 1))
        assert verdict.passed

        table = randlab.parse_test_table(
            gen.gen_test_table_text(880_000 + i, c, max_n=8), c
        )
        outcome = randlab.stabilize_test(table)
        assert randlab.verify_stabilize(table, outcome).passed
        for n, strings in outcome.covered.items():
            assert len(strings) <= (1 << (n - c) if n >= c else 0)
            codes = outcome.codes[n]
            assert len(set(codes.values())) == len(codes)
            assert all(len(code) == n - c for code in codes.values())
        decoders += 1
    assert decoders == 200
    _report(f"8 (deficiency lab, {decoders} decoders)")


def _golden_configs(base: Path) -> list[list[str]]:
    configs: list[list[str]] = []
    rng = random.Random(109)
    for i in range(10):
        trace = base / f"sets{i}.trace"
        trace.write_text(
            gen.gen_trace("sets", rng.randint(1, 8), seed=900_000 + i, universe=10, bound=4)
        )
        configs.append(["setcover", "--trace", str(trace), "--k", "2"])
    for i in range(8):
        trace = base / f"measure{i}.trace"
        trace.write_text(gen.gen_trace("measure", rng.randint(1, 8), seed=905_000 + i, universe=8))
        configs.append(["measurecover", "--trace", str(trace), "--grid", str(rng.randint(1, 5))])
    for i in range(6):
        trace = base / f"tree{i}.trace"
        trace.write_text(gen.gen_trace("tree", rng.randint(1, 6), seed=910_000 + i, depth=rng.randint(1, 4)))
        configs.append(["treecover", "--trace", str(trace), "--grid", str(rng.randint(1, 4))])
    for i in range(12):
        trace = base / f"open{i}.trace"
        trace.write_text(
            gen.gen_trace("open", rng.randint(1, 8), seed=915_000 + i, depth=rng.randint(1, 6), eps=F(1, 4))
        )
        mode = ("trim", "naive", "blocks")[i % 3]
        configs.append(
            ["opencover", "--mode", mode, "--trace", str(trace), "--eps", "1/4", "--eps-prime", "3/8"]
        )
    for i in range(6):
        trace = base / f"func{i}.trace"
        trace.write_text(
            gen.gen_trace("func", rng.randint(1, 6), seed=920_000 + i, depth=rng.randint(1, 4), eps=F(1, 4))
        )
        configs.append(
            ["fatou", "--trace", str(trace), "--eps", "1/4", "--eps-prime", "3/8", "--grid", str(rng.randint(1, 4))]
        )
    for i in range(4):
        fn = base / f"fn{i}.txt"
        fn.write_text(gen.gen_function_text(925_000 + i, 12, value_range=5))
        configs.append(["freq", "--fn", str(fn), "--horizon", "12", "--grid", "3"])
    configs.append(["omegademo", "--cycle", "1/4,1/2,1/3", "--eps", "1/5"])
    configs.append(["omegademo", "--prefix", "2,1", "--cycle", "1/2", "--eps", "1/7"])
    for i in range(2):
        decoder = base / f"dec{i}.txt"
        decoder.write_text(gen.gen_decoder_text(930_000 + i, entries=10))
        configs.append(["randlab", "cover", "--decoder", str(decoder), "--c", "1", "--nmax", "4", "--depth", "4"])
    return configs


def test_criterion_9_determinism(tmp_path):
    configs = _golden_configs(tmp_path)
    assert len(configs) >= 50
    for index, argv in enumerate(configs):
        first = tmp_path / f"golden{index}a.txt"
        second = tmp_path / f"golden{index}b.txt"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        assert code_a == 0 and code_b == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv
    _report(f"9 (determinism, {len(configs)} golden reruns)")


def test_criterion_10_oracle_independence():
    # The liminf oracles live upstream of every construction: the traces
    # module must not import any covering module.
    source = (Path(__file__).parent.parent / "src" / "limcov" / "traces.py").read_text()
    for name in ("setcover", "measurecover", "opencover", "fatou", "randlab"):
        assert name not in source, f"oracle module mentions {name}"

    # Mutation: corrupting one accepted operation flips each verdict to FAIL.
    fam = traces.parse_trace(
        "family sets nmax=2\nadd 0 a\nadd 0 b\nadd 1 b\nadd 1 c\n"
    )
    result = setcover.run_set_cover(fam, 1)
    limit = traces.liminf_sets(fam)
    target = next(idx for idx, (_, u) in enumerate(result.log) if u in limit)
    broken_log = list(result.log)
    broken_log[target] = (broken_log[target][0], "corrupted")
    broken = setcover.SetCoverResult(
        cover=frozenset(u for _, u in broken_log),
        log=tuple(broken_log),
        bound=result.bound,
    )
    assert not setcover.verify_set_cover(fam, 1, broken).passed

    mfam = traces.parse_trace("family measure nmax=2\nraise 0 a 1/2\nraise 1 a 1/2\n")
    grid = RationalGrid(2)
    mres = measurecover.run_measure_cover(mfam, grid)
    assert mres.log
    mbroken = measurecover.MeasureCoverResult(table=mres.table, log=mres.log[:-1])
    assert not measurecover.verify_measure_cover(mfam, grid, mbroken).passed

    ofam = traces.parse_trace("family open nmax=2 depth=2\nadd 0 00\nadd 1 11\n")
    ores = opencover.run_trim_cover(ofam, F(1, 4), F(1, 2))
    last = ores.pieces[-1]
    inflated = opencover.OpenCoverResult(
        mode=ores.mode,
        cover=ores.cover,
        pieces=ores.pieces[:-1]
        + (
            opencover.Piece(
                word=last.word,
                start=last.start,
                stop=last.stop,
                attempt=last.attempt,
                trims=last.trims,
                added=CylinderSet.full(),
            ),
        ),
        attempts=ores.attempts,
        trims=ores.trims,
    )
    assert not opencover.verify_open_cover(ofam, F(1, 4), F(1, 2), inflated).passed
    _report("10 (oracle independence + mutation tests)")
