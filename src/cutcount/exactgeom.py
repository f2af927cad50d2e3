"""Exact rational hyperplane arrangements: flats and intersection
semilattices. A hyperplane is one primitive integer row and a flat is
its integer echelon system, both eliminated without fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceeded, DuplicateHyperplane, ParseError, json_field, malformed
from .poset import MAX_FLATS, Semilattice, _bits, validate_semilattice

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# digits of p and q together in one literal: an entry over its row's lead then
# has at most twice as many, within the interpreter's default limit of 4300
# digits for converting between int and str, so every such quotient prints
MAX_RATIONAL_DIGITS = 2150


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0; anything else, or a literal of
    more than MAX_RATIONAL_DIGITS digits, is a ParseError."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"not a rational literal: {text!r}")
    digits = len(text) - text.startswith("-") - ("/" in text)
    if digits > MAX_RATIONAL_DIGITS:
        raise ParseError(f"rational literal of {digits} digits exceeds the budget of {MAX_RATIONAL_DIGITS}")
    return Fraction(text)


def _primitive(values) -> tuple[int, ...]:
    # the positive multiple of a rational vector with coprime integer entries
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _canonical(row) -> tuple[int, ...]:
    """The primitive integer multiple of a hyperplane's row (normal entries,
    then offset) whose first nonzero normal entry is positive; the positive
    side is then normal . x > offset."""
    row = _primitive(row)
    lead = next((v for v in row[:-1] if v), 0)
    if not lead:
        raise ValueError("hyperplane normal must be nonzero")
    return row if lead > 0 else tuple(-v for v in row)


def _scaled(row) -> list[str]:
    # the row's entries over its first nonzero one, as "p/q" strings
    lead = next(v for v in row if v)
    return [str(Fraction(v, lead)) for v in row]


class Arrangement:
    """An ordered, duplicate-free list of hyperplanes in R^n, each given as a
    row of int or Fraction entries, normal entries then offset (float and bool
    raise ValueError), and kept in `rows` as its `_canonical` integer row.
    The rows, and each row, must be a list or tuple, else ValueError."""

    def __init__(self, ambient_dim: int, rows) -> None:
        if type(ambient_dim) is not int:
            raise ValueError(f"ambient dimension must be an int: {ambient_dim!r}")
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if type(rows) not in (list, tuple):
            raise ValueError(f"rows must be a list or tuple: {rows!r}")
        self.ambient_dim = ambient_dim
        seen: dict[tuple[int, ...], int] = {}
        for i, row in enumerate(rows):
            if type(row) not in (list, tuple):
                raise ValueError(f"hyperplane {i} must be a list or tuple: {row!r}")
            if not all(type(v) is int or isinstance(v, Fraction) for v in row):
                raise ValueError(f"hyperplane entries must be int or Fraction: {list(row)}")
            row = _canonical(row)
            if len(row) != ambient_dim + 1:
                raise ValueError(f"hyperplane {i} has {len(row) - 1} coordinates, expected {ambient_dim}")
            if row in seen:
                *normal, offset = _scaled(row)
                raise DuplicateHyperplane(
                    f"hyperplane {i} repeats hyperplane {seen[row]}: ({', '.join(normal)}) . x = {offset}")
            seen[row] = i
        self.rows = tuple(seen)

    def __len__(self) -> int:
        return len(self.rows)


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
    return tuple(out)


def intersect(A: Arrangement, support) -> tuple | None:
    """The integer echelon system of the chosen hyperplanes' common flat,
    or None if the meet is empty; the whole space is (). The system is
    (pivot column, primitive integer row) pairs in pivot order, each row
    positive in its pivot column and zero in the others, so flats are equal
    exactly when their systems are. Each index must be an int in
    range(len(A)); anything else raises ValueError.
    """
    chosen = set(support)
    for j in chosen:
        if type(j) is not int or not 0 <= j < len(A.rows):
            raise ValueError(f"no hyperplane has index {j!r}; the arrangement has {len(A.rows)}")
    system: tuple = ()
    for j in sorted(chosen):
        row = _reduce(system, A.rows[j])
        lead = _lead(row)
        if lead == A.ambient_dim:
            return None  # the row contradicts the system: no common solution
        if lead is not None:
            system = _extend(system, row)
    return system


def build_lattice(A: Arrangement) -> Semilattice:
    """Intersection semilattice of A, ordered by reverse inclusion.

    Flats are found by saturation over integers: each flat is kept as its
    integer echelon system, and each hyperplane outside its support is
    reduced against it once. Hyperplanes with equal reduced rows meet the
    flat in the same flat, which gives each meet its maximal support. A
    nonempty flat is the intersection of its maximal support, so flats are
    keyed by support bitmask.
    Every meet (f, f meet H), new or known, is an order pair; these cover
    pairs close to support containment. Each is cross-checked once: every
    equation of f reduces to zero against the smaller flat's system.
    Raises CapExceeded as soon as saturation finds more than MAX_FLATS flats.
    """
    n = A.ambient_dim
    known = {0: intersect(A, frozenset())}
    pairs = []
    frontier = [0]
    while frontier:
        fresh = []
        for mask in frontier:
            system = known[mask]
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
                    if len(known) == MAX_FLATS:
                        raise CapExceeded(f"saturation passed the budget of {MAX_FLATS} flats")
                    known[cut] = _extend(system, row)
                    fresh.append(cut)
                if any(any(_reduce(known[cut], e)) for _, e in system):
                    raise RuntimeError("support order disagrees with equation spans")
                pairs.append((mask, cut))
        frontier = fresh

    ordered = sorted(known, key=lambda mask: (len(known[mask]), tuple(_bits(mask))))
    ids = {mask: i for i, mask in enumerate(ordered)}
    succ = [[] for _ in ordered]
    for a, b in pairs:
        succ[ids[a]].append(ids[b])
    return validate_semilattice(n, [len(known[m]) for m in ordered], succ, range(len(ordered)), tuple(ordered))


def arrangement_from_json(doc: dict) -> Arrangement:
    """Build an Arrangement from its JSON document form; a shape fault is a ParseError."""
    with malformed("hyperplanes"):
        n = json_field(doc["ambient_dim"], int, "ambient_dim")
        rows = []
        for item in json_field(doc["hyperplanes"], list, "hyperplanes"):
            item = json_field(item, dict, "hyperplane")
            normal = [parse_rational(v) for v in json_field(item["normal"], list, "normal")]
            rows.append((*normal, parse_rational(item["offset"])))
        return Arrangement(n, rows)


def arrangement_to_json(A: Arrangement) -> dict:
    """JSON document form with canonical rational strings."""
    return {
        "kind": "hyperplanes",
        "ambient_dim": A.ambient_dim,
        "hyperplanes": [{"normal": normal, "offset": offset} for *normal, offset in map(_scaled, A.rows)],
    }
