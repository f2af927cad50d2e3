"""Reference algorithms the tests check cutcount against; cutcount never
calls them. It eliminates over integers, and reads crossed wires off the
permutation instead of keeping a set of crossed pairs."""

from fractions import Fraction
from itertools import combinations


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
