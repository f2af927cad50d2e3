"""Reference algorithms the tests check cutcount against; cutcount never
calls them. It eliminates over integers, backs Fourier-Motzkin out over
one integer denominator instead of in Fractions, reads crossed wires off
the permutation instead of keeping a set of crossed pairs, updates its
wiring draw's candidates locally instead of rescanning, and sums the
Möbius polynomial by the dual recursion instead of walking intervals."""

import random
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from cutcount.faces import DEFAULT_CAP, _walk_faces
from cutcount.poset import BiPolynomial, f_vector_from_semilattice


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], int]:
    """Reduced row echelon form with leading ones; returns (rows, rank).

    The input is not modified. The output keeps the original row count,
    with zero rows collected at the bottom; the first `rank` rows are the
    canonical representative of the row space.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rows, rank


def _settle(rows):
    # duplicates removed, the largest r kept per c; None when some 0 > r fails
    tightest = {}
    for row in rows:
        c = row[:-1]
        if any(c):
            kept = tightest.get(c)
            if kept is None or row[-1] > kept[-1]:
                tightest[c] = row
        elif row[-1] >= 0:
            return None
    return list(tightest.values())


def between(lo, hi):
    """The small rational strictly inside (lo, hi) that cutcount picks, as a
    Fraction or int; None is an open end: 0, then floor(lo) + 1 or
    ceil(hi) - 1, else the midpoint."""
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return 0
    if hi is None:
        return floor(lo) + 1
    if lo is None:
        return ceil(hi) - 1
    step = floor(lo) + 1
    return step if step < hi else (lo + hi) / 2


def fm_point(rows, nvars: int):
    """A point t with c . t > r for every integer row (c..., r), or None:
    the same Fourier-Motzkin elimination as cutcount's, with the point
    filled in from the last stage back in Fractions."""
    stages = []
    live = _settle(rows)
    for v in range(nvars):
        if not live:
            break
        pos = [r for r in live if r[v] > 0]
        neg = [r for r in live if r[v] < 0]
        stages.append((v, pos, neg))
        if v + 1 == nvars:
            break
        rest = [r for r in live if r[v] == 0]
        for p in pos:
            for q in neg:
                a, b = -q[v], p[v]
                g = gcd(a, b)
                row = tuple((a // g) * x + (b // g) * y for x, y in zip(p, q))
                g = gcd(*row)
                rest.append(tuple(x // g for x in row) if g > 1 else row)
        live = _settle(rest)
    if live is None:
        return None
    t = [0] * nvars
    for v, pos, neg in reversed(stages):
        def bound(r):
            return Fraction(r[-1] - sum(r[k] * t[k] for k in range(v + 1, nvars)), r[v])

        lo = max(map(bound, pos), default=None)
        hi = min(map(bound, neg), default=None)
        if lo is not None and hi is not None and lo >= hi:
            return None
        t[v] = between(lo, hi)
    return t


def wiring_sweep(wires: int, events: list[tuple[int, int]]):
    """(final permutation, groups) of a diagram whose (top, size) events fit
    its wires, keeping the set of pairs that have crossed. Raises ValueError
    with cutcount's RepeatedCrossing message at the first pair crossing twice."""
    perm = list(range(wires))
    crossed = set()
    groups = []
    for i, (top, size) in enumerate(events):
        group = perm[top: top + size]
        for a, b in combinations(group, 2):
            pair = (min(a, b), max(a, b))
            if pair in crossed:
                raise ValueError(f"wires {pair[0]} and {pair[1]} cross twice (event {i})")
            crossed.add(pair)
        perm[top: top + size] = reversed(group)
        groups.append(tuple(group))
    return tuple(perm), tuple(groups)


def draw_wiring(wires: int, crossings: int, seed: int) -> list[tuple[int, int]]:
    """The (top, size) events of cutcount's seeded wiring draw, by the rule
    that keeps the set of crossed pairs and rescans every position per draw:
    an event is drawn from the pairs, or with probability 0.15 the triples,
    of adjacent wires no two of which have crossed. There is no flat budget."""
    rng = random.Random(seed)
    perm = list(range(wires))
    crossed = set()
    events = []

    def fresh(*group):
        return all((min(a, b), max(a, b)) not in crossed for a, b in combinations(group, 2))

    while len(events) < crossings:
        simple = [t for t in range(wires - 1) if fresh(*perm[t: t + 2])]
        triple = [t for t in range(wires - 2) if fresh(*perm[t: t + 3])]
        if not simple and not triple:
            break
        if triple and (not simple or rng.random() < 0.15):
            top, size = rng.choice(triple), 3
        else:
            top, size = rng.choice(simple), 2
        group = perm[top: top + size]
        crossed.update((min(a, b), max(a, b)) for a, b in combinations(group, 2))
        perm[top: top + size] = reversed(group)
        events.append((top, size))
    return events


def interval(L, x: int, y: int) -> list[int]:
    """Ids z with x <= z <= y, ordered by (rank, id); empty if x !<= y."""
    return [z for z in L.above(x) if L.leq(z, y)]


def mobius_row(L, x: int) -> dict[int, int]:
    """mu(x, z) for every z >= x, by the interval recursion
    mu(x, z) = -sum of mu(x, w) over x <= w < z; L.above lists each w < z
    before z."""
    row: dict[int, int] = {}
    for z in L.above(x):
        row[z] = 1 if z == x else -sum(v for w, v in row.items() if L.leq(w, z))
    return row


def mobius(L, x: int, y: int) -> int:
    """Möbius value mu(x, y); zero when x is not below y."""
    return mobius_row(L, x)[y] if L.leq(x, y) else 0


def mobius_sum(mu: dict[tuple[int, int], int], rank: dict[int, int]) -> BiPolynomial:
    """Sum of mu[x, y] x^rank[x] y^(r - rank[y]) over the pairs of `mu`,
    with r the largest rank."""
    top = max(rank.values())
    terms: dict[tuple[int, int], int] = {}
    for (x, y), v in mu.items():
        key = (rank[x], top - rank[y])
        terms[key] = terms.get(key, 0) + v
    return BiPolynomial(terms)


def chambers(A, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Sign vectors of the full-dimensional faces (no zero entries)."""
    return [signs for signs, _, _ in _walk_faces(A, cap) if all(signs)]


def chamber_count(L) -> int:
    """Number of full-dimensional cells: the last entry of the f-vector."""
    return f_vector_from_semilattice(L)[-1]
