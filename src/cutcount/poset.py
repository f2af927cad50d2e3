"""Meet-semilattices of flats, their Möbius functions, and the polynomial
invariants derived from them.

Flats are ordered by reverse inclusion, so the whole space is the unique
minimum and points sit at the top. Every semilattice is built, closed and
checked by :func:`validate_semilattice`. Everything downstream is computed
from this order alone; every face count is read off the Möbius polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .errors import (
    CapExceeded,
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    ParseError,
    RankViolation,
    UnknownFlat,
    json_field,
)

# the order rows take 2 F^2 bits: `verify` peaks near 180 MB at this many flats
MAX_FLATS = 32_768


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

    Only :func:`validate_semilattice` calls this constructor, with the
    closed and checked order. Instances are immutable and safe to share
    between workers.

    The order is stored as bitmask rows indexed by position in `order`,
    which lists the flat ids in (rank, id) order: bit i stands for the flat
    at position i, so walking a row's bits visits flats in that order.
    `below[i]` and `above[i]` are the principal down- and up-sets of the
    flat at position i. Ids become positions only at the public methods.
    """

    def __init__(
        self, ambient_dim: int, flats: dict, order: tuple, pos: dict, below: list, above: list
    ) -> None:
        self.ambient_dim = ambient_dim
        self.flats: dict[int, Flat] = flats
        # only the minimum has the ambient dimension, so it comes first
        self.minimum = order[0]
        self._ids = tuple(sorted(flats))
        self._order = order
        self._pos = pos
        self._ranks = tuple(ambient_dim - flats[fid].dim for fid in order)
        # largest rank present (may be smaller than the ambient dimension)
        self.rank = self._ranks[-1]
        self._below = below
        self._above = above

    def ids(self) -> tuple[int, ...]:
        """Flat ids in ascending order."""
        return self._ids

    def _position(self, x: int) -> int:
        if x not in self._pos:
            raise UnknownFlat(f"no flat with id {x}")
        return self._pos[x]

    def leq(self, x: int, y: int) -> bool:
        """True when x <= y, i.e. flat y is contained in flat x."""
        i, j = self._position(x), self._position(y)
        return bool(self._above[i] >> j & 1)

    def rank_of(self, x: int) -> int:
        return self._ranks[self._position(x)]

    def above(self, x: int) -> list[int]:
        """Ids of flats y >= x, ordered by (rank, id)."""
        return [self._order[i] for i in _bits(self._above[self._position(x)])]

    def interval(self, x: int, y: int) -> list[int]:
        """Ids z with x <= z <= y, ordered by (rank, id); empty if x !<= y."""
        i, j = self._position(x), self._position(y)
        return [self._order[k] for k in _bits(self._above[i] & self._below[j])]


def validate_semilattice(
    ambient_dim: int, flats: Iterable[Flat], pairs: Iterable[tuple[int, int]]
) -> Semilattice:
    """The semilattice of `flats` ordered by `pairs` (a, b), each a <= b.

    Raises ValueError on a negative ambient dimension or a repeated flat id,
    and CapExceeded on more than MAX_FLATS flats.
    Applies the reflexive-transitive closure of the given pairs, then
    confirms antisymmetry, a unique minimum of full dimension, strictly
    decreasing dimensions along the order, and a greatest lower bound for
    every pair of flats. Raises NoMinimum, NotAPartialOrder, MissingMeet,
    RankViolation, or UnknownFlat accordingly.

    Meets rest on a lemma: a finite poset with a minimum is a meet-semilattice
    exactly when any two elements with a common upper bound have a least
    one. If meets exist, minimal upper bounds u1, u2 of c and d have u1 ^ u2
    above c and d, so u1 = u2. Conversely the common lower bounds of a and b
    hold the minimum and lie under a, so their join exists and is a ^ b.
    So each incomparable pair sharing an upper bound is tested, by whether
    above[c] & above[d] is a principal up-set; comparable pairs always pass.
    The flat T with the largest down-set (the cone point of a central
    arrangement, which lies above every flat) counts for no pair: a pair
    without a join has two distinct minimal common upper bounds, so at least
    one of them is not T, and a pair whose only common upper bound is T
    passes.
    """
    n = ambient_dim
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    by_id: dict[int, Flat] = {}
    for f in flats:
        if f.id in by_id:
            raise ValueError(f"duplicate flat id {f.id}")
        if not 0 <= f.dim <= n:
            raise RankViolation(f"flat {f.id} has dimension {f.dim} outside 0..{n}")
        by_id[f.id] = f
    if not by_id:
        raise NoMinimum("a semilattice needs at least one flat")
    if len(by_id) > MAX_FLATS:
        raise CapExceeded(f"{len(by_id)} flats exceed the budget of {MAX_FLATS}")

    # rows are indexed by position in (rank, id) order; the checks that name
    # flats walk ids in id order, which fixes the flats each error names
    ids = tuple(sorted(by_id))
    order = tuple(sorted(ids, key=lambda fid: (-by_id[fid].dim, fid)))
    pos = {fid: i for i, fid in enumerate(order)}
    below = [1 << i for i in range(len(order))]
    for a, b in pairs:
        for c in (a, b):
            if c not in by_id:
                raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {c}")
        below[pos[b]] |= 1 << pos[a]

    # reflexive-transitive closure over the bitmask rows
    changed = True
    while changed:
        changed = False
        for y, row in enumerate(below):
            acc = row
            for i in _bits(row):
                acc |= below[i]
            if acc != row:
                below[y] = acc
                changed = True

    for y in ids:
        py = pos[y]
        for i in _bits(below[py]):
            if i != py and below[i] >> py & 1:
                raise NotAPartialOrder(f"flats {order[i]} and {y} are mutually comparable")

    above = [0] * len(order)
    for y, row in enumerate(below):
        for i in _bits(row):
            above[i] |= 1 << y

    full = (1 << len(order)) - 1
    if full not in above:
        raise NoMinimum("no flat lies below every other flat")
    t = order[above.index(full)]
    if by_id[t].dim != n:
        raise RankViolation(
            f"minimum flat {t} has dimension {by_id[t].dim}, expected the ambient {n}"
        )

    for y in ids:
        py = pos[y]
        dim_y = by_id[y].dim
        for i in _bits(below[py]):
            x = order[i]
            if i != py and by_id[x].dim <= dim_y:
                raise RankViolation(
                    f"flat {x} < flat {y} but dimensions are {by_id[x].dim} <= {dim_y}"
                )

    # a failing pair has two minimal common upper bounds, so leaving the flat
    # with the largest down-set out of every reach hides none of them
    top = max(range(len(order)), key=lambda u: below[u].bit_count())
    principal_up = set(above)
    for i, row in enumerate(above):
        reach = 0
        for u in _bits(row & ~(1 << top)):
            reach |= below[u]
        # comparable pairs pass; each incomparable one is seen once, as j > i
        for j in _bits((reach & ~row) >> i << i):
            common = row & above[j]
            if common not in principal_up:
                u1, u2 = [order[u] for u in _bits(common) if below[u] & common == 1 << u][:2]
                raise MissingMeet(f"flats {u1} and {u2} have no greatest lower bound:"
                                  f" both are minimal above {order[i]} and {order[j]}")

    return Semilattice(n, by_id, order, pos, below, above)


def _strict_pairs(L: Semilattice) -> list[tuple[int, int]]:
    # every (a, b) with a < b, read off the principal down-set rows
    order = L._order
    return [(order[i], order[y]) for y, row in enumerate(L._below) for i in _bits(row) if i != y]


def _mu_row(L: Semilattice, x: int) -> dict[int, int]:
    # all mu(x, z) for z >= x, by the interval recursion; keyed by position
    row = {}
    up = L._above[x]
    for z in _bits(up):
        if z == x:
            row[z] = 1
            continue
        total = 0
        for i in _bits(up & L._below[z] & ~(1 << z)):
            total += row[i]
        row[z] = -total
    return row


def mobius(L: Semilattice, x: int, y: int) -> int:
    """Möbius value mu(x, y); zero when x is not below y."""
    # the row is keyed by the positions of the flats above x
    return _mu_row(L, L._position(x)).get(L._position(y), 0)


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
    rk_arr = L.rank
    ranks = L._ranks
    terms: dict[tuple[int, int], int] = {}
    for x in L.ids():
        i = L._pos[x]
        for z, v in _mu_row(L, i).items():
            key = (ranks[i], rk_arr - ranks[z])
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

    f_i is the coefficient of x^(n - i) in f_from_mobius(mobius_polynomial(L),
    L.rank), so a negative count raises NegativeCoefficient here too.
    """
    f = f_from_mobius(mobius_polynomial(L), L.rank)
    n = L.ambient_dim
    return [f.coefficient(n - i) for i in range(n + 1)]


def chamber_count(L: Semilattice) -> int:
    """Number of full-dimensional cells: the last entry of the f-vector."""
    return f_vector_from_semilattice(L)[-1]


def upper_set(L: Semilattice, x: int) -> Semilattice:
    """The sub-semilattice of flats above x, re-rooted at x.

    The ambient dimension becomes dim(x), so ranks inside the result are
    dim(x) - dim(y). Supports are remapped relative to the new root
    (elements containing x are dropped); upper_set(L, minimum) is L itself.
    """
    L._position(x)
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
    # the flats above x form an up-set, so a >= x puts every b >= a in it too
    pairs = [(a, b) for a, b in _strict_pairs(L) if L.leq(x, a)]
    return validate_semilattice(root.dim, new_flats, pairs)


def semilattice_from_json(doc: dict) -> Semilattice:
    """Build and validate a semilattice from its JSON document form."""
    try:
        flats = [
            Flat(json_field(item["id"], int, "flat id"), json_field(item["dim"], int, "flat dim"))
            for item in json_field(doc["flats"], list, "flats")
        ]
        pairs = [
            tuple(json_field(v, int, "leq entry") for v in json_field(pair, list, "leq pair"))
            for pair in json_field(doc["leq"], list, "leq")
        ]
        ambient_dim = json_field(doc["ambient_dim"], int, "ambient_dim")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed semilattice document: {exc}") from exc
    return validate_semilattice(ambient_dim, flats, pairs)


def semilattice_to_json(L: Semilattice) -> dict:
    """JSON document form; `leq` lists the full strict order, sorted."""
    flats = [{"id": fid, "dim": L.flats[fid].dim} for fid in L.ids()]
    leq = sorted([a, b] for a, b in _strict_pairs(L))
    return {"kind": "semilattice", "ambient_dim": L.ambient_dim, "flats": flats, "leq": leq}
