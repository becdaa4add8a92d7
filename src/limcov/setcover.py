"""Covering the liminf of small finite sets by a set of the same size bound.

Given a stabilized family of sets U_n that each hold at most 2^k elements,
a single deterministic pass over pairs (N, u) tries, for each pair, to add u
to every U_n with n >= N.  The addition is *acceptable* when all U_n stay
within the 2^k bound; under full knowledge of the trace this is decidable by
scanning n in [N, nmax-1], where the tail start N = nmax reads member
nmax-1.  The elements of accepted additions form the cover V: it never
exceeds 2^k elements (every accepted element ends up in member nmax-1,
which respects the bound), and it contains the liminf, because adding an
element already present everywhere changes nothing and is therefore always
acceptable.

The pass works on a private mutable copy of the family; additions performed
for earlier pairs stay in force and count against later acceptability checks.
Runs are single-threaded and deterministic: identical traces give identical
logs and covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import traces
from .kernel import InputError, check_exponent
from .verdict import Check, Verdict

__all__ = ["SetCoverResult", "run_set_cover", "verify_set_cover"]


@dataclass(frozen=True)
class SetCoverResult:
    """Cover, acceptance log (one entry per covered element), and the bound."""

    cover: frozenset[str]
    log: tuple[tuple[int, str], ...]
    bound: int


def run_set_cover(family: traces.StabilizedFamily, k: int) -> SetCoverResult:
    """Run the covering pass at cardinality bound 2^k.

    Pairs (N, u) are visited with N ascending over [0, nmax-1] and u in
    first-appearance order over the trace universe.  The tail start N = nmax
    reads member nmax-1, and every u rejected at N = nmax-1 would meet that
    same full set, so it adds nothing and is left out.  Elements never
    enumerated cannot belong to the liminf nor block an addition, so the
    universe suffices.
    """
    check_exponent("k", k)
    if family.kind != "sets":
        raise InputError(f"expected a sets family, got {family.kind!r}")
    bound = 1 << k
    working = [set(s) for s in traces.member_rows(family, bound=bound)]

    univ = traces.universe(family)
    covered: set[str] = set()
    log: list[tuple[int, str]] = []
    for start in range(family.nmax):
        suffix = working[start:]
        for u in univ:
            # Not acceptable iff some U_n, n >= start, holds 2^k elements
            # besides u; with |U_n| <= bound maintained, that is exactly:
            if not all(u in s or len(s) < bound for s in suffix):
                continue
            for s in suffix:
                s.add(u)
            if u not in covered:
                covered.add(u)
                log.append((start, u))
            assert all(len(s) <= bound for s in working)
    return SetCoverResult(frozenset(covered), tuple(log), bound)


def verify_set_cover(
    family: traces.StabilizedFamily,
    k: int,
    result: SetCoverResult,
) -> Verdict:
    """Check a cover against the liminf oracle, trusting only the log.

    The cover is re-derived from the log, its cardinality is checked against
    2^k, and coverage is checked against traces.liminf_sets, which reads
    the liminf off member nmax-1 by the tail rule and shares no logic with
    run_set_cover.
    """
    bound = 1 << k
    from_log = [u for _, u in result.log]
    consistent = frozenset(from_log) == result.cover and len(from_log) == len(set(from_log))
    checks = [
        Check(
            "log-consistency",
            consistent,
            "" if consistent else "cover disagrees with the acceptance log",
        )
    ]
    cover = frozenset(from_log)
    checks.append(
        Check(
            "cardinality",
            len(cover) <= bound,
            "" if len(cover) <= bound else f"{len(cover)} elements exceed {bound}",
        )
    )
    missing = sorted(traces.liminf_sets(family) - cover)
    checks.append(Check("coverage", not missing, missing[0] if missing else ""))
    return Verdict(tuple(checks))
