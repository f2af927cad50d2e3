"""Reference linear algebra the tests check cutcount against; cutcount
itself eliminates over integers and never calls it."""

from fractions import Fraction


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

