"""Meet-semilattices of flats, their Möbius functions, and the polynomial
invariants derived from them.

Flats are ordered by reverse inclusion, so the whole space is the unique
minimum and points sit at the top. Everything downstream (Möbius polynomial,
face polynomial, chamber count) is computed from this order alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .errors import (
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    RankViolation,
    UnknownFlat,
)


@dataclass(frozen=True)
class Flat:
    """One element of an intersection semilattice.

    `support` lists the indices of the arrangement elements containing the
    flat (None for abstract posets with no geometry attached); `payload`
    carries an optional geometric description owned by the producing module.
    """

    id: int
    dim: int
    support: frozenset[int] | None = None
    payload: Any = None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Semilattice:
    """Finite meet-semilattice of flats over an ambient dimension.

    Instances start raw: `leq_pairs` is the relation as given, with no
    closure applied. :func:`validate_semilattice` returns a closed, checked
    copy; operations refuse raw input. Validated instances are immutable
    apart from an internal Möbius memo and safe to share between workers.

    The order is stored as bitmask rows: bit i of a row stands for the i-th
    flat in (rank, id) order, so walking a row's bits visits its flats in
    that order.
    """

    def __init__(self, ambient_dim: int, flats: Iterable[Flat], leq_pairs) -> None:
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.ambient_dim = ambient_dim
        self.flats: dict[int, Flat] = {}
        for f in flats:
            if f.id in self.flats:
                raise ValueError(f"duplicate flat id {f.id}")
            self.flats[f.id] = f
        self._ids = tuple(sorted(self.flats))
        self._rank_order = tuple(sorted(self._ids, key=lambda fid: (-self.flats[fid].dim, fid)))
        self._pos = {fid: i for i, fid in enumerate(self._rank_order)}
        self.leq_pairs = tuple((a, b) for a, b in leq_pairs)
        self.validated = False
        self._below: dict[int, int] = {}
        self._above: dict[int, int] = {}
        self._minimum: int | None = None
        self._mu_rows: dict[int, dict[int, int]] = {}

    def ids(self) -> tuple[int, ...]:
        """Flat ids in ascending order."""
        return self._ids

    def _require_validated(self) -> None:
        if not self.validated:
            raise ValueError("semilattice has not been validated")

    def _require_known(self, x: int) -> None:
        if x not in self.flats:
            raise UnknownFlat(f"no flat with id {x}")

    def leq(self, x: int, y: int) -> bool:
        """True when x <= y, i.e. flat y is contained in flat x."""
        self._require_validated()
        self._require_known(x)
        self._require_known(y)
        return bool(self._below[y] >> self._pos[x] & 1)

    def rank_of(self, x: int) -> int:
        self._require_known(x)
        return self.ambient_dim - self.flats[x].dim

    @property
    def rank(self) -> int:
        """Largest rank present (may be smaller than the ambient dimension)."""
        return max(self.ambient_dim - f.dim for f in self.flats.values())

    @property
    def minimum(self) -> int:
        self._require_validated()
        assert self._minimum is not None
        return self._minimum

    def above(self, x: int) -> list[int]:
        """Ids of flats y >= x, ordered by (rank, id)."""
        self._require_validated()
        self._require_known(x)
        return [self._rank_order[i] for i in _bits(self._above[x])]

    def interval(self, x: int, y: int) -> list[int]:
        """Ids z with x <= z <= y, ordered by (rank, id); empty if x !<= y."""
        self._require_validated()
        self._require_known(x)
        self._require_known(y)
        return [self._rank_order[i] for i in _bits(self._above[x] & self._below[y])]


def validate_semilattice(candidate: Semilattice) -> Semilattice:
    """Check the order axioms and return a closed, rank-checked copy.

    Applies the reflexive-transitive closure of the given pairs, then
    confirms antisymmetry, a unique minimum of full dimension, strictly
    decreasing dimensions along the order, and a greatest lower bound for
    every pair of flats. Raises NoMinimum, NotAPartialOrder, MissingMeet,
    RankViolation, or UnknownFlat accordingly.

    The common lower bounds of a and b form the row below[a] & below[b]. A
    greatest one exists exactly when that row is itself the principal down-set
    below[c] of some flat c (which then lies in it), so each pair costs one
    set lookup among the principal down-sets.
    """
    L = candidate
    if not L.flats:
        raise NoMinimum("a semilattice needs at least one flat")
    n = L.ambient_dim
    for f in L.flats.values():
        if not 0 <= f.dim <= n:
            raise RankViolation(f"flat {f.id} has dimension {f.dim} outside 0..{n}")

    ids = L._ids
    order = L._rank_order
    pos = L._pos
    below = {fid: 1 << pos[fid] for fid in ids}
    for a, b in L.leq_pairs:
        if a not in L.flats:
            raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {a}")
        if b not in L.flats:
            raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {b}")
        below[b] |= 1 << pos[a]

    # reflexive-transitive closure over the bitmask rows
    changed = True
    while changed:
        changed = False
        for y in ids:
            acc = below[y]
            for i in _bits(acc):
                acc |= below[order[i]]
            if acc != below[y]:
                below[y] = acc
                changed = True

    for y in ids:
        for i in _bits(below[y]):
            x = order[i]
            if x != y and below[x] >> pos[y] & 1:
                raise NotAPartialOrder(f"flats {x} and {y} are mutually comparable")

    above = {fid: 0 for fid in ids}
    for y in ids:
        ybit = 1 << pos[y]
        for i in _bits(below[y]):
            above[order[i]] |= ybit

    full = (1 << len(ids)) - 1
    minima = [x for x in ids if above[x] == full]
    if not minima:
        raise NoMinimum("no flat lies below every other flat")
    t = minima[0]
    if L.flats[t].dim != n:
        raise RankViolation(
            f"minimum flat {t} has dimension {L.flats[t].dim}, expected the ambient {n}"
        )

    for y in ids:
        dim_y = L.flats[y].dim
        for i in _bits(below[y]):
            x = order[i]
            if x != y and L.flats[x].dim <= dim_y:
                raise RankViolation(
                    f"flat {x} < flat {y} but dimensions are {L.flats[x].dim} <= {dim_y}"
                )

    principal = set(below.values())
    for idx, a in enumerate(ids):
        below_a = below[a]
        for b in ids[idx + 1:]:
            if below_a & below[b] not in principal:
                raise MissingMeet(f"flats {a} and {b} have no greatest lower bound")

    closed_pairs = sorted(
        (order[i], y) for y in ids for i in _bits(below[y]) if order[i] != y
    )
    out = Semilattice(n, [L.flats[fid] for fid in ids], closed_pairs)
    out._below = below
    out._above = above
    out._minimum = t
    out.validated = True
    return out


def _mu_row(L: Semilattice, x: int) -> dict[int, int]:
    # all mu(x, z) for z >= x, by the interval recursion; memoized on L
    row = L._mu_rows.get(x)
    if row is not None:
        return row
    row = {}
    order = L._rank_order
    up = L._above[x]
    for zpos in _bits(up):
        z = order[zpos]
        if z == x:
            row[z] = 1
            continue
        total = 0
        inner = (up & L._below[z]) & ~(1 << zpos)
        for i in _bits(inner):
            total += row[order[i]]
        row[z] = -total
    L._mu_rows[x] = row
    return row


def mobius(L: Semilattice, x: int, y: int) -> int:
    """Möbius value mu(x, y); zero when x is not below y."""
    L._require_validated()
    L._require_known(x)
    L._require_known(y)
    if not (L._below[y] >> L._pos[x] & 1):
        return 0
    return _mu_row(L, x)[y]


class MobiusTable:
    """Möbius values for every comparable pair; incomparable pairs read 0."""

    def __init__(self, entries: dict[tuple[int, int], int]) -> None:
        self.entries = dict(entries)

    def value(self, x: int, y: int) -> int:
        return self.entries.get((x, y), 0)


def mobius_table(L: Semilattice) -> MobiusTable:
    """The full memo table, computed for all comparable pairs."""
    L._require_validated()
    entries = {}
    for x in L.ids():
        for z, v in _mu_row(L, x).items():
            entries[(x, z)] = v
    return MobiusTable(entries)


class BiPolynomial:
    """Integer-coefficient polynomial in x and y, stored as a sparse term map.

    Zero coefficients are never stored; a univariate polynomial is simply
    one whose y-exponents are all zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (a, b), c in (terms or {}).items():
            if c:
                clean[(int(a), int(b))] = int(c)
        self.terms = clean

    @classmethod
    def constant(cls, c: int) -> "BiPolynomial":
        return cls({(0, 0): c})

    def coefficient(self, x_exp: int, y_exp: int = 0) -> int:
        return self.terms.get((x_exp, y_exp), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in display order: total degree descending, then x-degree."""
        return sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"BiPolynomial({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (a, b), c in self.sorted_terms():
            mono = ""
            if a == 1:
                mono += "x"
            elif a > 1:
                mono += f"x^{a}"
            if b == 1:
                mono += "y"
            elif b > 1:
                mono += f"y^{b}"
            body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def to_json(self) -> dict:
        terms = [
            {"x": a, "y": b, "coeff": str(c)} for (a, b), c in self.sorted_terms()
        ]
        return {"terms": terms, "pretty": str(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "BiPolynomial":
        terms: dict[tuple[int, int], int] = {}
        for item in doc["terms"]:
            key = (int(item["x"]), int(item["y"]))
            terms[key] = terms.get(key, 0) + int(item["coeff"])
        return cls(terms)


def mobius_polynomial(L: Semilattice) -> BiPolynomial:
    """Sum of mu(X, Y) x^rk(X) y^(rk(L) - rk(Y)) over comparable pairs.

    Incomparable pairs contribute zero; the y-exponent is normalized by the
    largest rank actually present, not the ambient dimension.
    """
    L._require_validated()
    rk_arr = L.rank
    terms: dict[tuple[int, int], int] = {}
    for x in L.ids():
        rx = L.rank_of(x)
        for z, v in _mu_row(L, x).items():
            key = (rx, rk_arr - L.rank_of(z))
            terms[key] = terms.get(key, 0) + v
    return BiPolynomial(terms)


def f_from_mobius(M: BiPolynomial, rk_arrangement: int) -> BiPolynomial:
    """Face polynomial from a Möbius polynomial: (-1)^rk * M(-x, -1).

    The result must have nonnegative coefficients; a negative one proves the
    input was not the Möbius polynomial of an arrangement lattice and raises
    NegativeCoefficient instead of returning silently.
    """
    terms: dict[tuple[int, int], int] = {}
    for (a, b), c in M.terms.items():
        sign = -1 if (a + b + rk_arrangement) % 2 else 1
        key = (a, 0)
        terms[key] = terms.get(key, 0) + sign * c
    poly = BiPolynomial(terms)
    for (a, _), c in poly.sorted_terms():
        if c < 0:
            raise NegativeCoefficient(
                f"coefficient {c} of x^{a}: input is not an arrangement Möbius polynomial"
            )
    return poly


def f_vector_from_semilattice(L: Semilattice) -> list[int]:
    """Face counts (f_0, ..., f_n) read off the semilattice alone.

    f_i sums, over flats X of dimension i, the signed Möbius values
    (-1)^(rk X - rk Y) mu(X, Y) for Y above X, which is the chamber count
    of the restriction to X.
    """
    L._require_validated()
    f = [0] * (L.ambient_dim + 1)
    for x in L.ids():
        rx = L.rank_of(x)
        total = 0
        for z, v in _mu_row(L, x).items():
            total += v if (L.rank_of(z) - rx) % 2 == 0 else -v
        f[L.flats[x].dim] += total
    return f


def chamber_count(L: Semilattice) -> int:
    """Number of full-dimensional cells: sum of (-1)^rk(X) mu(min, X)."""
    L._require_validated()
    row = _mu_row(L, L.minimum)
    total = 0
    for z, v in row.items():
        total += v if L.rank_of(z) % 2 == 0 else -v
    return total


def upper_set(L: Semilattice, x: int) -> Semilattice:
    """The sub-semilattice of flats above x, re-rooted at x.

    The ambient dimension becomes dim(x), so ranks inside the result are
    dim(x) - dim(y). Supports are remapped relative to the new root
    (elements containing x are dropped); upper_set(L, minimum) is L itself.
    """
    L._require_validated()
    L._require_known(x)
    if x == L.minimum:
        return L
    root = L.flats[x]
    keep = L.above(x)
    new_flats = []
    for y in keep:
        fy = L.flats[y]
        support = fy.support
        if support is not None and root.support is not None:
            support = frozenset(support - root.support)
        new_flats.append(Flat(fy.id, fy.dim, support, fy.payload))
    kept = set(keep)
    pairs = [(a, b) for a, b in L.leq_pairs if a in kept and b in kept]
    return validate_semilattice(Semilattice(root.dim, new_flats, pairs))


def semilattice_from_json(doc: dict) -> Semilattice:
    """Build and validate a semilattice from its JSON document form."""
    flats = [Flat(int(item["id"]), int(item["dim"])) for item in doc["flats"]]
    pairs = [(int(a), int(b)) for a, b in doc["leq"]]
    return validate_semilattice(Semilattice(int(doc["ambient_dim"]), flats, pairs))


def semilattice_to_json(L: Semilattice) -> dict:
    """JSON document form; `leq` lists the full strict order, sorted."""
    flats = [{"id": fid, "dim": L.flats[fid].dim} for fid in L.ids()]
    leq = sorted([a, b] for a, b in set(L.leq_pairs) if a != b)
    return {"kind": "semilattice", "ambient_dim": L.ambient_dim, "flats": flats, "leq": leq}
