"""PASS/FAIL verdicts with named checks and witnesses.

Every construction ships with a verifier that re-derives the guaranteed
bounds from the original input via the liminf oracles and reports one
check per bound.  A FAIL carries a witness (an element, a word, or an exact
quantity) naming what broke.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Check", "Verdict"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class Verdict:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)
