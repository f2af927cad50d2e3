"""Exact rational hyperplane arrangements: flats, intersection semilattices,
and restrictions, all over fractions.Fraction so every comparison is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import DuplicateHyperplane, FlatNotInLattice, ParseError, json_field
from .poset import Flat, Semilattice, validate_semilattice

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0; anything else is a ParseError."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ParseError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, "p/q" otherwise."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal . x = offset}, stored in canonical form.

    The first nonzero normal entry is scaled to 1, which also fixes the
    labeling of the two open sides: positive means normal . x > offset.
    """

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        lead = next((v for v in self.normal if v), None)
        if lead is None:
            raise ValueError("hyperplane normal must be nonzero")
        if lead != 1:
            object.__setattr__(self, "normal", tuple(v / lead for v in self.normal))
            object.__setattr__(self, "offset", self.offset / lead)

    def row(self) -> list[Fraction]:
        """Equation as an augmented row: normal entries then offset."""
        return [*self.normal, self.offset]


class Arrangement:
    """An ordered, duplicate-free list of hyperplanes in R^n."""

    def __init__(self, ambient_dim: int, hyperplanes: list[Hyperplane]) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        self.ambient_dim = ambient_dim
        seen = set()
        for i, h in enumerate(hyperplanes):
            if len(h.normal) != ambient_dim:
                raise ValueError(f"hyperplane {i} has {len(h.normal)} coordinates, expected {ambient_dim}")
            if h in seen:
                raise DuplicateHyperplane(f"hyperplane {i} repeats an earlier one: {h.normal} . x = {h.offset}")
            seen.add(h)
        self.hyperplanes = tuple(hyperplanes)

    def __len__(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class AffineFlat:
    """A nonempty intersection of hyperplanes, identified by its equations.

    `equations` is the canonical reduced echelon form of the augmented
    system (each row: normal entries then right-hand side), so two flats
    are equal exactly when their equation tuples are. `support` lists every
    hyperplane of the owning arrangement that contains the flat.
    """

    equations: tuple[tuple[Fraction, ...], ...]
    dim: int
    support: frozenset[int] = field(default_factory=frozenset)


def _contains(equations: tuple[tuple[Fraction, ...], ...], row: list[Fraction]) -> bool:
    # row is in the span of the canonical system iff it reduces to zero
    work = list(row)
    for eq in equations:
        pivot = next(c for c, v in enumerate(eq) if v)
        if work[pivot]:
            factor = work[pivot]
            work = [a - factor * b for a, b in zip(work, eq)]
    return not any(work)


def intersect(A: Arrangement, support) -> AffineFlat | None:
    """Common solution flat of the chosen hyperplanes, or None if empty.

    The result's support is maximal: every hyperplane of A containing the
    solution set is included, not just the indices asked for.
    """
    n = A.ambient_dim
    chosen = sorted(set(support))
    rows, rank = rref([A.hyperplanes[j].row() for j in chosen])
    system = tuple(tuple(r) for r in rows[:rank])
    for eq in system:
        if not any(eq[:n]):
            return None
    full = frozenset(
        j for j, h in enumerate(A.hyperplanes) if _contains(system, h.row())
    )
    return AffineFlat(system, n - rank, full)


def build_lattice(A: Arrangement) -> Semilattice:
    """Intersection semilattice of A, ordered by reverse inclusion.

    Flats are found by saturation: starting from the whole space, each
    known flat is cut with each hyperplane outside its support until
    nothing new appears. The order comes from support containment and is
    cross-checked against containment of equation row spaces.
    """
    n = A.ambient_dim
    top = intersect(A, frozenset())
    assert top is not None
    flats_by_eq = {top.equations: top}
    frontier = [top]
    while frontier:
        fresh = []
        for f in frontier:
            for j in range(len(A.hyperplanes)):
                if j in f.support:
                    continue
                g = intersect(A, f.support | {j})
                if g is not None and g.equations not in flats_by_eq:
                    flats_by_eq[g.equations] = g
                    fresh.append(g)
        frontier = fresh

    ordered = sorted(
        flats_by_eq.values(),
        key=lambda f: (n - f.dim, tuple(sorted(f.support)), f.equations),
    )
    flats = [Flat(i, f.dim, f.support, f) for i, f in enumerate(ordered)]
    pairs = []
    for a, b in combinations(range(len(ordered)), 2):
        x, y = ordered[a], ordered[b]
        if x.support < y.support:
            lo, hi, li, hj = x, y, a, b
        elif y.support < x.support:
            lo, hi, li, hj = y, x, b, a
        else:
            continue
        if not all(_contains(hi.equations, list(eq)) for eq in lo.equations):
            raise RuntimeError("support order disagrees with equation spans")
        pairs.append((li, hj))
    return validate_semilattice(n, flats, pairs)


def flat_parametrization(
    equations: tuple[tuple[Fraction, ...], ...], ambient_dim: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Point x0 and basis B with the flat equal to {x0 + B t}.

    Reads pivots off the canonical echelon system; the basis has one
    vector per free coordinate, so its length is the flat's dimension.
    """
    n = ambient_dim
    pivots = [next(c for c, v in enumerate(eq) if v) for eq in equations]
    free = [c for c in range(n) if c not in pivots]
    x0 = [Fraction(0)] * n
    for eq, p in zip(equations, pivots):
        x0[p] = eq[n]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for eq, p in zip(equations, pivots):
            v[p] = -eq[f]
        basis.append(v)
    return x0, basis


def _dot(u, v):
    # exact for int and Fraction entries alike
    return sum(map(mul, u, v))


def restrict(A: Arrangement, X: AffineFlat) -> Semilattice:
    """Semilattice of the arrangement induced on the flat X.

    Hyperplanes containing X are dropped, the rest are rewritten in
    coordinates on X (hyperplanes meeting X in the same set collapse to
    one), and the lattice is built inside X from scratch. Matches
    upper_set of the full lattice up to relabeling of supports.
    """
    L = build_lattice(A)
    if not any(
        fl.payload.equations == X.equations for fl in L.flats.values()
    ):
        raise FlatNotInLattice(f"no flat of the arrangement has equations {X.equations}")
    if X.dim == 0:
        only = Flat(0, 0, frozenset(), X)
        return validate_semilattice(0, [only], [])
    x0, basis = flat_parametrization(X.equations, A.ambient_dim)
    projected: list[Hyperplane] = []
    seen = set()
    for j, h in enumerate(A.hyperplanes):
        if j in X.support:
            continue
        normal = tuple(_dot(h.normal, b) for b in basis)
        if not any(normal):
            # parallel to X: empty trace, not part of the induced arrangement
            continue
        trace = Hyperplane(normal, h.offset - _dot(h.normal, x0))
        if trace not in seen:
            seen.add(trace)
            projected.append(trace)
    return build_lattice(Arrangement(X.dim, projected))


def arrangement_from_json(doc: dict) -> Arrangement:
    """Build an Arrangement from its JSON document form."""
    try:
        n = json_field(doc["ambient_dim"], int, "ambient_dim")
        raw = json_field(doc["hyperplanes"], list, "hyperplanes")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed arrangement document: {exc}") from exc
    planes = []
    for item in raw:
        try:
            normal = tuple(parse_rational(v) for v in json_field(item["normal"], list, "normal"))
            offset = parse_rational(item["offset"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed hyperplane entry: {item!r}") from exc
        try:
            planes.append(Hyperplane(normal, offset))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return Arrangement(n, planes)


def arrangement_to_json(A: Arrangement) -> dict:
    """JSON document form with canonical rational strings."""
    return {
        "kind": "hyperplanes",
        "ambient_dim": A.ambient_dim,
        "hyperplanes": [
            {
                "normal": [format_rational(v) for v in h.normal],
                "offset": format_rational(h.offset),
            }
            for h in A.hyperplanes
        ],
    }
