"""Exact rational hyperplane arrangements: flats, intersection semilattices,
and restrictions. Each hyperplane is one primitive integer row, eliminated
without fractions; a flat's canonical equations are fractions.Fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DuplicateHyperplane, FlatNotInLattice, ParseError, json_field
from .poset import Flat, Semilattice, _bits, validate_semilattice

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0; anything else is a ParseError."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ParseError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, "p/q" otherwise."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _primitive(values) -> tuple[int, ...]:
    # the positive multiple of a rational vector with coprime integer entries
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


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

    Entries are int or Fraction (float and bool raise ValueError) and are
    kept as Fractions. The first nonzero normal entry is scaled to 1, which
    also fixes the labeling of the two open sides: positive means
    normal . x > offset.
    """

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        entries = [Fraction(v) if type(v) is int else v for v in (*self.normal, self.offset)]
        if not all(isinstance(v, Fraction) for v in entries):
            raise ValueError(f"hyperplane entries must be int or Fraction: {entries}")
        lead = next((v for v in entries[:-1] if v), None)
        if lead is None:
            raise ValueError("hyperplane normal must be nonzero")
        if lead != 1:
            entries = [v / lead for v in entries]
        object.__setattr__(self, "normal", tuple(entries[:-1]))
        object.__setattr__(self, "offset", entries[-1])

    def row(self) -> list[Fraction]:
        """Equation as an augmented row: normal entries then offset."""
        return [*self.normal, self.offset]


class Arrangement:
    """An ordered, duplicate-free list of hyperplanes in R^n. `rows` holds
    each hyperplane's equation as a primitive integer row (normal entries
    then offset), a positive multiple of `Hyperplane.row()`."""

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
        self.rows = tuple(_primitive(h.row()) for h in self.hyperplanes)

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


def _lead(row) -> int | None:
    return next((c for c, v in enumerate(row) if v), None)


def _reduce(system, row) -> tuple[int, ...]:
    """The integer `row` with the system's pivot columns eliminated, made
    primitive with a positive leading entry: zero exactly when the system
    implies the row's equation, led by the offset when it contradicts it."""
    for p, e in system:
        c = row[p]
        if c:
            g = gcd(e[p], c)
            a, b = e[p] // g, c // g
            row = [a * x - b * y for x, y in zip(row, e)]
    lead = _lead(row)
    if lead is None:
        return tuple(row)
    g = gcd(*row) if row[lead] > 0 else -gcd(*row)
    return tuple(x // g for x in row)


def _extend(system, row):
    """The system with a reduced, nonzero `row` added: its leading column
    is cleared from the other rows, so the system stays fraction-free
    reduced echelon form, rows sorted by pivot."""
    q = _lead(row)
    out = [(q, row)]
    for p, e in system:
        c = e[q]
        if c:
            g = gcd(row[q], c)
            a, b = row[q] // g, c // g
            e = [a * x - b * y for x, y in zip(e, row)]
            g = gcd(*e)
            e = tuple(x // g for x in e)
        out.append((p, e))
    out.sort()  # pivots are distinct, so only they are compared
    return out


def _system(n: int, rows):
    """Integer echelon system of the given rows in R^n, or None when they
    have no common solution: a list of (pivot column, integer row) pairs,
    each pivot entry positive and every other row zero in its column."""
    system: list = []
    for row in rows:
        row = _reduce(system, row)
        lead = _lead(row)
        if lead == n:
            return None
        if lead is not None:
            system = _extend(system, row)
    return system


def _flat(system, n: int, support: frozenset[int]) -> AffineFlat:
    # the canonical equations: each integer row over its pivot entry
    equations = tuple(tuple(Fraction(v, e[p]) for v in e) for p, e in system)
    return AffineFlat(equations, n - len(system), support)


def intersect(A: Arrangement, support) -> AffineFlat | None:
    """Common solution flat of the chosen hyperplanes, or None if empty.

    The result's support is maximal: every hyperplane of A containing the
    solution set is included, not just the indices asked for.
    """
    system = _system(A.ambient_dim, [A.rows[j] for j in sorted(set(support))])
    if system is None:
        return None
    full = frozenset(j for j, row in enumerate(A.rows) if not any(_reduce(system, row)))
    return _flat(system, A.ambient_dim, full)


def build_lattice(A: Arrangement) -> Semilattice:
    """Intersection semilattice of A, ordered by reverse inclusion.

    Flats are found by saturation over integers: each flat keeps its
    integer echelon system, and each hyperplane outside its support is
    reduced against it once. Hyperplanes with equal reduced rows meet the
    flat in the same flat, which gives each meet its maximal support. A
    nonempty flat is the intersection of its maximal support, so flats are
    keyed by support bitmask; canonical equations are made for new ones.
    Every meet (f, f meet H), new or known, is an order pair; these cover
    pairs close to support containment. Each is cross-checked once: every
    equation of f reduces to zero against the smaller flat's system.
    """
    n = A.ambient_dim
    top = intersect(A, frozenset())
    assert top is not None
    known = {0: (top, [])}
    pairs = []
    frontier = [0]
    while frontier:
        fresh = []
        for mask in frontier:
            system = known[mask][1]
            meets: dict[tuple[int, ...], int] = {}
            for j, row in enumerate(A.rows):
                if not mask >> j & 1:
                    row = _reduce(system, row)
                    meets[row] = meets.get(row, 0) | 1 << j
            for row, group in meets.items():
                if _lead(row) == n:
                    continue  # parallel to the flat: the meet is empty
                cut = mask | group
                if cut not in known:
                    sub = _extend(system, row)
                    known[cut] = (_flat(sub, n, frozenset(_bits(cut))), sub)
                    fresh.append(cut)
                sub = known[cut][1]
                if any(any(_reduce(sub, e)) for _, e in system):
                    raise RuntimeError("support order disagrees with equation spans")
                pairs.append((mask, cut))
        frontier = fresh

    ordered = sorted(known, key=lambda mask: (len(known[mask][1]), tuple(_bits(mask))))
    ids = {mask: i for i, mask in enumerate(ordered)}
    flats = [Flat(ids[mask], f.dim, f.support, f) for mask, (f, _) in known.items()]
    return validate_semilattice(n, flats, [(ids[a], ids[b]) for a, b in pairs])


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

    X is a flat of A exactly when the hyperplanes containing it, found by
    integer span tests, intersect in X's equations; otherwise this raises
    FlatNotInLattice. Those hyperplanes are dropped, the rest rewritten in
    coordinates on X (hyperplanes meeting X in the same set collapse to
    one), and the lattice is built inside X from scratch. Matches upper_set
    of the full lattice up to relabeling of supports.
    """
    n = A.ambient_dim
    shaped = all(len(eq) == n + 1 and all(isinstance(v, Fraction) for v in eq) for eq in X.equations)
    system = _system(n, [_primitive(eq) for eq in X.equations]) if shaped else None
    flat = None if system is None else intersect(
        A, (j for j, row in enumerate(A.rows) if not any(_reduce(system, row))))
    if flat is None or flat.equations != X.equations:
        raise FlatNotInLattice(f"no flat of the arrangement has equations {X.equations}")
    if flat.dim == 0:
        only = Flat(0, 0, frozenset(), X)
        return validate_semilattice(0, [only], [])
    x0, basis = flat_parametrization(X.equations, n)
    projected: list[Hyperplane] = []
    seen = set()
    for j, h in enumerate(A.hyperplanes):
        if j in flat.support:
            continue
        normal = tuple(_dot(h.normal, b) for b in basis)
        if not any(normal):
            # parallel to X: empty trace, not part of the induced arrangement
            continue
        trace = Hyperplane(normal, h.offset - _dot(h.normal, x0))
        if trace not in seen:
            seen.add(trace)
            projected.append(trace)
    return build_lattice(Arrangement(flat.dim, projected))


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
