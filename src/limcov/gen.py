"""Seed-deterministic generators for traces, decoders and partial maps.

Every generator is a pure function of its parameters: the same seed yields
byte-identical output.  Generated inputs always satisfy the preconditions of
the construction they feed (cardinality bounds, per-member measures,
semimeasure sums, tree laws, integral caps), which the generators verify
before returning.  Families get a bias towards a common stabilized core so
liminfs are frequently nonempty and coverage checks have teeth.

Candidates are accepted in integers.  An open member grows as a mask of
depth-level cells, and a drawn word joins it when the grown mask has at
most floor(eps * 2^depth) cells: a union's measure is its cell count over
2^depth.  The open core instead sums its words' cells without uniting them,
so overlapping core words count twice, and keeps that sum within half of
eps.  Tree masses are ints over 2^(3 + 6 * depth), split by eighths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import traces
from .kernel import (
    InputError,
    ZERO,
    cell_mask,
    format_rational,
    is_natural,
    is_token,
    word_to_text,
)

__all__ = [
    "NMAX_CAP",
    "DEPTH_CAP",
    "UNIVERSE_CAP",
    "gen_decoder_text",
    "gen_function_text",
    "gen_test_table_text",
    "gen_trace",
    "parse_function_table",
]

NMAX_CAP = 64
DEPTH_CAP = 12
UNIVERSE_CAP = 1024  # sweep --kind sets --nmax 64 --bound 1024 at the cap: 1.8 s (2-core host)


def _check_caps(nmax: int, depth: int | None, universe: int) -> None:
    if not 1 <= nmax <= NMAX_CAP:
        raise InputError(f"nmax must lie in [1, {NMAX_CAP}]")
    if depth is not None and not 1 <= depth <= DEPTH_CAP:
        raise InputError(f"depth must lie in [1, {DEPTH_CAP}]")
    if universe > UNIVERSE_CAP:
        raise InputError(f"universe must be at most {UNIVERSE_CAP}")


def _dyadic(rng: random.Random, precision: int) -> Fraction:
    """A random positive dyadic in (0, 1] with denominator 2^precision."""
    return Fraction(rng.randint(1, 1 << precision), 1 << precision)


def _random_word(rng: random.Random, max_len: int, min_len: int = 1) -> str:
    length = rng.randint(min_len, max_len)
    return "".join(rng.choice("01") for _ in range(length)) if length else ""


def gen_trace(
    kind: str,
    nmax: int,
    seed: int,
    depth: int | None = None,
    universe: int = 16,
    bound: int | None = None,
    eps: Fraction | None = None,
) -> str:
    """Generate a syntactically valid, precondition-satisfying trace.

    ``bound`` caps every member's cardinality (sets kind), ``eps`` caps every
    member's measure (open kind) or integral (func kind).
    """
    if kind not in traces.KINDS:
        raise InputError(f"unknown family kind {kind!r}")
    if kind in ("open", "tree", "func"):
        if depth is None:
            raise InputError(f"kind {kind!r} needs a depth")
    else:
        depth = None
    _check_caps(nmax, depth, universe)
    if bound is not None and bound < 0:
        raise InputError("bound must be non-negative")
    if eps is not None and eps < 0:
        raise InputError("eps must be non-negative")
    rng = random.Random(seed)
    builder = {
        "sets": _gen_sets,
        "open": _gen_open,
        "measure": _gen_measure,
        "tree": _gen_tree,
        "func": _gen_func,
    }[kind]
    text = builder(rng, nmax, depth, universe, bound, eps)
    # Generated traces must parse and meet their construction's hypothesis.
    traces.member_rows(traces.parse_trace(text), bound=bound, eps=eps)
    return text


def _emit(header: str, lines: list[str], rng: random.Random) -> str:
    rng.shuffle(lines)
    return "\n".join([header, *lines]) + "\n" if lines else header + "\n"


def _gen_sets(rng, nmax, depth, universe, bound, eps) -> str:
    del depth, eps
    bound = bound if bound is not None else 4
    tokens = [f"u{i}" for i in range(max(1, universe))]
    core = rng.sample(tokens, k=min(len(tokens), rng.randint(0, bound)))
    lines = []
    for n in range(nmax):
        members = set(core[: rng.randint(0, len(core))] if n < nmax - 1 else core)
        target = rng.randint(len(members), min(bound, len(tokens)))
        while len(members) < target:
            members.add(rng.choice(tokens))
        for u in sorted(members):
            lines.append(f"add {n} {u}")
            if rng.random() < 0.1:  # duplicates are idempotent
                lines.append(f"add {n} {u}")
    return _emit(f"family sets nmax={nmax}", lines, rng)


def _gen_open(rng, nmax, depth, universe, bound, eps) -> str:
    del universe, bound
    eps = eps if eps is not None else Fraction(1, 4)
    # Measures in depth-level cells: a measure of at most eps is at most
    # floor(eps * 2^depth) cells, and one of at most eps / 2 at most
    # floor(eps * 2^(depth-1)).
    cap = (eps.numerator << depth) // eps.denominator
    core_cap = (eps.numerator << depth) // (2 * eps.denominator)
    # A common core kept inside every member makes the liminf nonempty.  Its
    # words' cells are summed, not united, so an overlap counts twice.
    core: list[str] = []
    core_cells = core_mask = 0
    for _ in range(rng.randint(0, 3)):
        w = _random_word(rng, depth)
        cells = 1 << (depth - len(w))
        if core_cells + cells <= core_cap:
            core.append(w)
            core_cells += cells
            core_mask |= cell_mask(w, depth)
    lines = []
    for n in range(nmax):
        words = list(core)
        mask = core_mask
        for _ in range(rng.randint(0, 2 * depth)):
            w = _random_word(rng, depth)
            grown = mask | cell_mask(w, depth)
            if grown.bit_count() <= cap:
                words.append(w)
                mask = grown
        for w in sorted(set(words)):
            lines.append(f"add {n} {word_to_text(w)}")
    return _emit(f"family open nmax={nmax} depth={depth}", lines, rng)


def _gen_measure(rng, nmax, depth, universe, bound, eps) -> str:
    del depth, bound, eps
    tokens = [f"u{i}" for i in range(max(1, universe))]
    core: dict[str, Fraction] = {}
    remaining = Fraction(1)
    for u in rng.sample(tokens, k=min(len(tokens), rng.randint(0, 4))):
        v = remaining * _dyadic(rng, 4)
        if v > 0:
            core[u] = v
            remaining -= v
    lines = []
    for n in range(nmax):
        table = dict(core) if rng.random() < 0.8 or n == nmax - 1 else {}
        left = Fraction(1) - sum(table.values(), ZERO)
        for u in rng.sample(tokens, k=min(len(tokens), rng.randint(0, 4))):
            if u in table:
                continue
            v = left * _dyadic(rng, 4)
            if v > 0:
                table[u] = v
                left -= v
        for u in sorted(table):
            v = table[u]
            if rng.random() < 0.2:  # staged raise below the final value
                lines.append(f"raise {n} {u} {format_rational(v / 2)}")
            lines.append(f"raise {n} {u} {format_rational(v)}")
    return _emit(f"family measure nmax={nmax}", lines, rng)


def _split_tree(rng, word: str, mass: int, depth: int, out: dict[str, int]):
    if mass <= 0:
        return
    out[word] = mass
    if len(word) >= depth or rng.random() < 0.3:
        return
    share = mass * rng.randint(1, 8) >> 3
    left = share * rng.randint(1, 8) >> 3
    _split_tree(rng, word + "0", left, depth, out)
    _split_tree(rng, word + "1", share - left, depth, out)


def _gen_tree(rng, nmax, depth, universe, bound, eps) -> str:
    del universe, bound, eps
    # Masses are ints over 2^(3 + 6 * depth): the root draws eighths and each
    # split two more, and only words shorter than depth split, so
    # _split_tree's shifts are exact.
    unit = 1 << (3 + 6 * depth)
    lines = []
    for n in range(nmax):
        table: dict[str, int] = {}
        _split_tree(rng, "", rng.randint(1, 8) << 6 * depth, depth, table)
        for w in sorted(table, key=lambda w: (len(w), w)):
            lines.append(f"raise {n} {word_to_text(w)} {format_rational(Fraction(table[w], unit))}")
    return _emit(f"family tree nmax={nmax} depth={depth}", lines, rng)


def _gen_func(rng, nmax, depth, universe, bound, eps) -> str:
    del universe, bound
    eps = eps if eps is not None else Fraction(1, 4)
    core: dict[str, Fraction] = {}
    budget = eps / 2
    for _ in range(rng.randint(0, 2)):
        w = _random_word(rng, depth)
        v = _dyadic(rng, 3)
        if v * Fraction(1, 1 << len(w)) <= budget:
            core[w] = max(core.get(w, ZERO), v)
            budget -= v * Fraction(1, 1 << len(w))
    lines = []
    for n in range(nmax):
        table = dict(core)
        spent = sum(v * Fraction(1, 1 << len(w)) for w, v in table.items())
        for _ in range(rng.randint(0, depth + 2)):
            w = _random_word(rng, depth)
            v = _dyadic(rng, 3)
            cost = v * Fraction(1, 1 << len(w))
            if spent + cost <= eps:
                table[w] = max(table.get(w, ZERO), v)
                spent += cost
        for w in sorted(table, key=lambda w: (len(w), w)):
            lines.append(f"raise {n} {word_to_text(w)} {format_rational(table[w])}")
    return _emit(f"family func nmax={nmax} depth={depth}", lines, rng)


def gen_decoder_text(seed: int, entries: int = 12) -> str:
    """Random decoder table; programs unique, of at most 8 bits, and
    outputs of at most 10."""
    rng = random.Random(seed)
    programs: set[str] = set()
    lines = []
    for _ in range(entries):
        program = _random_word(rng, 8, min_len=0)
        if program in programs:
            continue
        programs.add(program)
        output = _random_word(rng, 10, min_len=0)
        lines.append(f"{word_to_text(program)} {word_to_text(output)}")
    return "\n".join(lines) + "\n" if lines else ""


def gen_function_text(seed: int, horizon: int, value_range: int = 8) -> str:
    """Random partial map {0..horizon-1} -> tokens as ``<i> <token>`` lines,
    each position defined with probability 2/3."""
    if horizon < 1:
        raise InputError("horizon must be positive")
    rng = random.Random(seed)
    lines = []
    for i in range(horizon):
        if rng.randint(0, 2) != 0:
            lines.append(f"{i} x{rng.randrange(max(1, value_range))}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_function_table(text: str | bytes) -> dict[int, str]:
    """Parse ``<i> <token>`` lines into a partial map (missing i = undefined)."""
    usage = "'<i> <token>'"
    out: dict[int, str] = {}

    def position(i_text: str, token: str) -> None:
        if not is_natural(i_text):
            raise InputError(f"expected {usage}")
        i = int(i_text)
        if i in out:
            raise InputError(f"duplicate position {i}")
        if not is_token(token):
            raise InputError(f"bad token {token!r}")
        out[i] = token

    traces.read_lines(traces.split_lines(text), 2, usage, position)
    return out


def gen_test_table_text(seed: int, c: int, max_n: int = 8) -> str:
    """Random interval-approximation table lines ``<i> <n> <word>``
    satisfying the structural invariants (word length <= n, nothing at n<i)."""
    rng = random.Random(seed)
    lines = []
    seen = set()
    for _ in range(rng.randint(0, 3 * max_n)):
        n = rng.randint(0, max_n)
        i = rng.randint(0, n)
        if (i, n) in seen:
            continue
        seen.add((i, n))
        word = _random_word(rng, n, min_len=max(0, min(n, c - 1)))
        lines.append(f"{i} {n} {word_to_text(word)}")
    lines.sort(key=lambda line: (int(line.split()[1]), int(line.split()[0])))
    return "\n".join(lines) + "\n" if lines else ""
