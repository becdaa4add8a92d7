"""limcov benchmark: end-to-end and per-layer timings of user invocations.

Run from the root of a source checkout::

    python3 bench/run.py --workload open-ladder --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of cases generated from ``--seed``; a case is
one in-process call of ``limcov.cli.main`` on input files written during
set-up (parse, run, verify, render, write).  A run makes whole passes over
the case list for ``--seconds`` seconds, at least one, and starts no pass
it expects to end past that time.  On a 2-core host with CPython 3.11 a
pass takes under a second (desk-mix) to about 7 seconds (tree-func).
Every output is checked (checks.py).  An execution fails on a nonzero
exit, an exception out of ``main`` or a failed check; failures count
against attempted executions.

Times are wall times scaled to a reference machine speed.  A shared host
runs whole minutes up to 1.7 times as slow as at other times, so raw wall
times of runs a few minutes apart spread past any useful bound.  Around
every execution the driver times a fixed pure-Python probe (fractions, int
masks, dicts, independent of limcov) and scales the execution's wall time
by PROBE_REF_S / probe time, the mean of the probes just before and after
it.  The scaled time reads as seconds on a host where the probe takes
PROBE_REF_S (a 2-core host with CPython 3.11 at its fast phases), and a
slower program still reads slower.  A case's time is its fastest scaled
execution; passes are short and spread over the run.  Set-up time is
scaled the same way, per-layer times by the run's median probe; the report
line gives the unscaled figures and the probe times too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the same
passes with spans recorded around each public call (gen, cli.main, and a
replay of parse, run, verify and the oracle calls), prints the per-layer
metrics derived from the spans, among them the tracing overhead, and writes
spans and per-case counters to bench/out/.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it reports the run's environment and details.

The benchmark is stdlib-only, single-process and single-threaded; set-up
time is measured in fresh processes.  ``sweep`` runs its own pool of up to
8 threads; that belongs to the program and is recorded, not controlled.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A claim measured on one seed is confirmed on this held-out one.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
# Seconds the probe takes on the reference host; the unit of scaled times.
PROBE_REF_S = 0.00125
DEFAULT_INT_MAX_STR_DIGITS = 4300
WORKLOADS = ("open-ladder", "tree-func", "desk-mix")
TAIL_BEYOND = 10
# Counters the replays return, summed per pass into per-layer metrics.
COUNTERS = (
    "opencover.attempts",
    "opencover.trims",
    "opencover.pieces",
    "traces.events",
    "measurecover.tree.log_ops",
    "fatou.attempts",
    "fatou.log_ops",
)
# Span names whose time per pass is a per-layer metric (name + "_s").
TIMED_SPANS = (
    "opencover.trim.run",
    "opencover.naive.run",
    "opencover.blocks.run",
    "opencover.verify",
    "traces.oracle",
    "traces.parse",
    "measurecover.tree.run",
    "measurecover.tree.verify",
    "measurecover.measure.run",
    "measurecover.measure.verify",
    "measurecover.freq.run",
    "measurecover.freq.verify",
    "fatou.run",
    "fatou.verify",
    "setcover.run",
    "setcover.verify",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and case id."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    def span(self, name: str, case: str | None = None, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, case, attrs)

    @contextlib.contextmanager
    def _span(self, name, case, attrs):
        record = self._open(name, case, time.perf_counter(), attrs)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span the caller timed, as a child of the open span."""
        if self.enabled:
            self._open(name, None, start, {})["end"] = end - self._t0

    def _open(self, name, case, start, attrs) -> dict:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "case": case if case is not None or parent is None else parent["case"],
            "start": start - self._t0,
            **attrs,
        }
        self.spans.append(record)
        return record


def _probe_once() -> None:
    f, mask, counts = Fraction(0), 0, {}
    for i in range(400):
        f += Fraction(i % 7, 8 + i % 5)
        mask |= 1 << (i % 97)
        counts[i % 31] = counts.get(i % 31, 0) + (mask >> (i % 13)) % 5
        if f > 3:
            f -= 3


def _probe() -> float:
    """Seconds of the fastest of three probe calls: the machine's speed now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_once()
        times.append(time.perf_counter() - t0)
    return min(times)


def _import_limcov() -> None:
    """Import limcov from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import limcov
    import limcov.cli
    import limcov.gen  # noqa: F401

    if Path(limcov.__file__).resolve().parent != (SRC / "limcov").resolve():
        raise RuntimeError(f"limcov imported from {limcov.__file__}, not {SRC}")


def _setup(args, workdir: Path, tracer: Tracer):
    """Import limcov and the workloads, write the inputs into ``workdir``
    (which becomes the current directory); returns (workload, seconds)."""
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    t0 = time.perf_counter()
    _import_limcov()
    import workloads

    with tracer.span("setup"):
        built = workloads.build(args.workload, args.seed, tracer, args.tiny)
    return built, time.perf_counter() - t0


def _setup_times(args) -> list[dict]:
    """Set-up seconds and probe seconds of SETUP_REPEATS fresh processes."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workdir", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
        if args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def _invoke(main, argv) -> tuple[int | None, str]:
    """Call limcov.cli.main: (exit code, stderr), or (None, exception type)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(list(argv)), err.getvalue()
    except Exception as exc:  # an exception out of main is a failed case
        return None, type(exc).__name__


def _measure(built, seconds: float, tracer: Tracer) -> tuple[list[dict], float, int]:
    """Pass over the cases for ``seconds``: per-case records, the loop's wall
    time without the probes and the number of passes."""
    import checks
    import workloads
    from limcov.cli import main

    records = []
    start = time.perf_counter()
    passes = 0
    probing = 0.0
    probe_before = _probe()
    while True:
        pass_start = time.perf_counter()
        for case in built.cases:
            Path(case.out).unlink(missing_ok=True)
            gc.collect()
            record = {"case": case.id, "pass": passes, "counters": {}}
            with tracer.span("case", case=case.id):
                t0 = time.perf_counter()
                code, err = _invoke(main, case.argv)
                t1 = time.perf_counter()
                tracer.add("cli.main", t0, t1)
                probe_after = _probe()
                probing += time.perf_counter() - t1
                if tracer.enabled:
                    gc.collect()  # the replay must not pay for main's garbage
                    try:
                        record["counters"] = workloads.REPLAYS[case.kind](case, tracer)
                    except Exception as exc:  # the layer itself fails, not the render
                        record["replay_exception"] = type(exc).__name__
            record["wall_s"] = t1 - t0
            record["probe_s"] = (probe_before + probe_after) / 2
            record["scaled_s"] = record["wall_s"] * PROBE_REF_S / record["probe_s"]
            probe_before = probe_after
            record["exit"] = code
            if code is None:
                record["exception"] = err
            elif code != 0:
                record["stderr"] = err.strip()[:200]
            else:
                problem = checks.check_case(case, built.expected)
                if problem:
                    record["mismatch"] = problem
            record["ok"] = code == 0 and "mismatch" not in record
            records.append(record)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            return records, now - start - probing, passes


def _tail(walls: list[float]) -> tuple[float, float]:
    """Wall time and percentile of the highest rank with TAIL_BEYOND cases above."""
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _case_times(records, key: str) -> tuple[dict, dict, float]:
    """Throughput, median and tail of the per-case times under ``key``, each
    case's fastest time, and the tail's percentile."""
    best: dict[str, float] = {}
    case_ok: dict[str, bool] = {}
    for r in records:
        best[r["case"]] = min(r[key], best.get(r["case"], r[key]))
        case_ok[r["case"]] = case_ok.get(r["case"], True) and r["ok"]
    walls = list(best.values())
    tail, percentile = _tail(walls)
    return {
        "families_per_s": sum(case_ok.values()) / sum(walls),
        "case_s_p50": statistics.median(walls),
        "case_s_tail": tail,
    }, best, percentile


def _end_to_end(records, setup_runs) -> tuple[dict, dict]:
    scaled, best, percentile = _case_times(records, "scaled_s")
    unscaled, _, _ = _case_times(records, "wall_s")
    setup_scaled = [s["setup_s"] * PROBE_REF_S / s["probe_s"] for s in setup_runs]
    ok = sum(r["ok"] for r in records)
    metrics = {
        "families_per_s": (scaled["families_per_s"], "1/s"),
        "case_s_p50": (scaled["case_s_p50"], "s"),
        "case_s_tail": (scaled["case_s_tail"], "s"),
        "pass_ratio": (ok / len(records), "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    exceptions: dict[str, int] = defaultdict(int)
    for r in records:
        if "exception" in r:
            exceptions[r["exception"]] += 1
    detail = {
        "cases": len(records),
        "case_s_tail_percentile": percentile,
        "case_s_tail_samples": len(best),
        "fail_ratio": 1 - ok / len(records),
        "exceptions": dict(exceptions),
        "failed_cases": sorted({r["case"] for r in records if not r["ok"]}),
        "setup_s_samples": setup_scaled,
        "unscaled": {**unscaled, "setup_s": statistics.median(s["setup_s"] for s in setup_runs)},
        "probe_s_median": statistics.median(r["probe_s"] for r in records),
        "probe_ref_s": PROBE_REF_S,
    }
    return metrics, detail


def _per_layer(spans, records, passes: int, traced_wall: float) -> dict:
    seconds: dict[str, float] = defaultdict(float)
    oracle_calls = 0
    phases: dict[int, float] = defaultdict(float)  # replayed parse/run/verify per case span
    setup_ids = {s["id"] for s in spans if s["name"] == "setup"}
    gen_s = 0.0
    for s in spans:
        dt = s["end"] - s["start"]
        seconds[s["name"]] += dt
        oracle_calls += s.get("calls", 0)
        if "phase" in s:
            phases[s["parent"]] += dt
        if s["name"] == "gen" and s["parent"] in setup_ids:
            gen_s += dt
    # A difference of two timed executions: where the command adds little to
    # parse, run and verify, run-to-run noise can make it slightly negative.
    overhead = sum(s["end"] - s["start"] - phases[s["parent"]]
                   for s in spans if s["name"] == "cli.main")
    counts = {name: sum(r["counters"].get(name, 0) for r in records) / passes
              for name in COUNTERS}
    # Times scaled to the reference speed by the run's median probe, per pass.
    speed = PROBE_REF_S / statistics.median(r["probe_s"] for r in records)
    scale = speed / passes

    metrics = {f"{name}_s": (seconds[name] * scale, "s") for name in TIMED_SPANS}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["traces.oracle_calls"] = (oracle_calls / passes, "count")
    metrics["opencover.useful_ratio"] = (
        counts["opencover.pieces"] / counts["opencover.attempts"]
        if counts["opencover.attempts"] else 0.0, "ratio")
    metrics["fatou.useful_ratio"] = (
        counts["fatou.log_ops"] / counts["fatou.attempts"] if counts["fatou.attempts"] else 0.0,
        "ratio")
    metrics["randlab.s"] = (seconds["randlab"] * scale, "s")
    metrics["cli.overhead_s"] = (overhead * scale, "s")
    # main raised although parse, run and verify did not: render or write failed.
    metrics["cli.render_failures"] = (
        sum("exception" in r and "replay_exception" not in r for r in records) / passes, "count")
    metrics["gen.s"] = (gen_s * speed, "s")
    # Traced wall time against the untraced part of it, the calls of main.
    metrics["trace.overhead_ratio"] = (traced_wall / seconds["cli.main"], "ratio")
    return metrics


def _git_sha() -> str:
    """The checkout's commit, read from .git/ without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, built, loadavg) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "case_list_digest": built.digest(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "bench_threads": 1,
        "sweep_pool_threads": sorted({min(8, c.params["count"])
                                      for c in built.cases if c.kind == "sweep"}),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description="limcov benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny case sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if sys.get_int_max_str_digits() != DEFAULT_INT_MAX_STR_DIGITS:
        # The digit limit decides which families crash in render, so fail_ratio.
        return _fail(f"int max str digits is {sys.get_int_max_str_digits()}, "
                     f"not the default {DEFAULT_INT_MAX_STR_DIGITS}; unset PYTHONINTMAXSTRDIGITS")
    if not (SRC / "limcov" / "__init__.py").is_file():
        return _fail(f"no limcov sources under {SRC}")

    if args.setup_only:
        probe_before = _probe()
        _, seconds = _setup(args, args.workdir, Tracer(False))
        print(json.dumps({"setup_s": seconds, "probe_s": (probe_before + _probe()) / 2}))
        return 0

    loadavg = os.getloadavg()
    try:
        setup_runs = _setup_times(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    tracer = Tracer(bool(args.trace))
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    cwd = Path.cwd()
    try:
        built, _ = _setup(args, workdir, tracer)
        env = _environment(args, built, loadavg)
        records, wall, passes = _measure(built, args.seconds, tracer)
        metrics, detail = _end_to_end(records, setup_runs)
        detail["measured_s"] = wall
        mismatches = {r["case"]: r["mismatch"] for r in records if "mismatch" in r}
        if args.trace:
            metrics = _per_layer(tracer.spans, records, passes, wall)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"environment": env, "spans": tracer.spans, "cases": records}))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"report": {**env, "passes": passes, **detail, "mismatches": mismatches}}))
    print(json.dumps({
        # correct: no report claimed PASS while the independent checks disagree.
        "correct": not mismatches,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
