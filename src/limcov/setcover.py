"""Covering the liminf of small finite sets by a set of the same size bound.

Given a stabilized family of sets U_n that each hold at most 2^k elements,
a single deterministic pass over pairs (N, u) tries, for each pair, to add u
to every U_n with n >= N.  The addition is *acceptable* when all U_n stay
within the 2^k bound, which the full trace decides over n in [N, nmax-1].
The elements of accepted additions form the cover V: it never exceeds 2^k
elements (every accepted element ends up in member nmax-1, which respects
the bound), and it contains the liminf, because adding an element already
present everywhere changes nothing and is therefore always acceptable.

Starts ascend, so the accepted elements, a mask A, lie in every member from
the start on, member n being U_n | A.  A full member (2^k elements) takes
only its own elements, so u outside A is acceptable exactly when it is in G,
the intersection of the full members from there on.  G shrinks as A grows:
the elements of G outside A are accepted in order up to one that would push
a member past 2^k, and G is rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

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
    rows = traces.member_rows(family, bound=bound)  # bit i: element univ[i]
    univ, accepted, log = traces.universe(family), 0, []
    def gates(start: int) -> list[int]:  # G at each start from ``start`` on
        members = [row | accepted for row in rows[start:]]
        assert max(map(int.bit_count, members)) <= bound
        full = [m if m.bit_count() == bound else (1 << len(univ)) - 1 for m in members]
        return [*accumulate(full[::-1], int.__and__)][::-1]
    gate = gates(0)
    for start in range(family.nmax):
        while fresh := gate[start] & ~accepted:  # bit order: first appearance
            # The fresh elements below bit ``end`` fit every member; the one at it does not.
            end = bisect_left(range(fresh.bit_length()), True, key=lambda i: any(
                (row | accepted | fresh & (2 << i) - 1).bit_count() > bound for row in rows[start:]))
            accepted |= (taken := fresh & (1 << end) - 1)
            log += [(start, univ[i]) for i, bit in enumerate(f"{taken:b}"[::-1]) if bit == "1"]
            gate[start:] = gates(start)
    return SetCoverResult(frozenset(u for _, u in log), tuple(log), bound)


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
