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
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    ParseError,
    RankViolation,
    UnknownFlat,
    json_field,
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

    Only :func:`validate_semilattice` calls this constructor, with the
    closed and checked order. Instances are immutable apart from an
    internal Möbius memo and safe to share between workers.

    The order is stored as bitmask rows: bit i of a row stands for the i-th
    id of `order`, which lists the flats in (rank, id) order, so walking a
    row's bits visits its flats in that order. `below[y]` is the principal
    down-set of y and `above[x]` the principal up-set of x.
    """

    def __init__(
        self, ambient_dim: int, flats: dict, order: tuple, below: dict, above: dict
    ) -> None:
        self.ambient_dim = ambient_dim
        self.flats: dict[int, Flat] = flats
        # only the minimum has the ambient dimension, so it comes first
        self.minimum = order[0]
        # largest rank present (may be smaller than the ambient dimension)
        self.rank = max(ambient_dim - f.dim for f in flats.values())
        self._ids = tuple(sorted(flats))
        self._rank_order = order
        self._below = below
        self._above = above
        self._mu_rows: dict[int, dict[int, int]] = {}

    def ids(self) -> tuple[int, ...]:
        """Flat ids in ascending order."""
        return self._ids

    def _require_known(self, x: int) -> None:
        if x not in self.flats:
            raise UnknownFlat(f"no flat with id {x}")

    def leq(self, x: int, y: int) -> bool:
        """True when x <= y, i.e. flat y is contained in flat x."""
        self._require_known(x)
        self._require_known(y)
        # x itself lies in the interval [x, y] exactly when x <= y
        return bool(self._above[x] & self._below[y])

    def rank_of(self, x: int) -> int:
        self._require_known(x)
        return self.ambient_dim - self.flats[x].dim

    def above(self, x: int) -> list[int]:
        """Ids of flats y >= x, ordered by (rank, id)."""
        self._require_known(x)
        return [self._rank_order[i] for i in _bits(self._above[x])]

    def interval(self, x: int, y: int) -> list[int]:
        """Ids z with x <= z <= y, ordered by (rank, id); empty if x !<= y."""
        self._require_known(x)
        self._require_known(y)
        return [self._rank_order[i] for i in _bits(self._above[x] & self._below[y])]


def _reaches(up: list[int], down: list[int]) -> list[int] | None:
    # bit j of row i: the flats at positions i and i + 1 + j share an upper
    # bound; None once those pairs reach a third of all pairs
    limit = len(up) * (len(up) - 1) // 2
    reach = []
    pairs = 0
    for i, row in enumerate(up):
        acc = 0
        for u in _bits(row):
            acc |= down[u]
        reach.append(acc >> i + 1)
        pairs += reach[-1].bit_count()
        if 3 * pairs >= limit:
            return None
    return reach


def validate_semilattice(
    ambient_dim: int, flats: Iterable[Flat], pairs: Iterable[tuple[int, int]]
) -> Semilattice:
    """The semilattice of `flats` ordered by `pairs` (a, b), each a <= b.

    Raises ValueError on a negative ambient dimension or a repeated flat id.
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
    So each pair sharing an upper bound is tested, by whether
    above[c] & above[d] is a principal up-set. When such pairs make a third
    of all pairs (a central arrangement puts every flat under the cone
    point), every pair is tested instead, more cheaply, by whether
    below[a] & below[b] is a principal down-set.
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

    ids = tuple(sorted(by_id))
    order = tuple(sorted(ids, key=lambda fid: (-by_id[fid].dim, fid)))
    pos = {fid: i for i, fid in enumerate(order)}
    below = {fid: 1 << pos[fid] for fid in ids}
    for a, b in pairs:
        for c in (a, b):
            if c not in by_id:
                raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {c}")
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
    if by_id[t].dim != n:
        raise RankViolation(
            f"minimum flat {t} has dimension {by_id[t].dim}, expected the ambient {n}"
        )

    for y in ids:
        dim_y = by_id[y].dim
        for i in _bits(below[y]):
            x = order[i]
            if x != y and by_id[x].dim <= dim_y:
                raise RankViolation(
                    f"flat {x} < flat {y} but dimensions are {by_id[x].dim} <= {dim_y}"
                )

    up = [above[x] for x in order]
    down = [below[x] for x in order]
    reach = _reaches(up, down)
    if reach is None:
        principal = set(below.values())
        for idx, a in enumerate(ids):
            below_a = below[a]
            for b in ids[idx + 1:]:
                if below_a & below[b] not in principal:
                    raise MissingMeet(f"flats {a} and {b} have no greatest lower bound")
    else:
        principal_up = set(up)
        for i, row in enumerate(reach):
            for j in _bits(row):
                common = up[i] & up[i + 1 + j]
                if common not in principal_up:
                    u1, u2 = [order[u] for u in _bits(common) if down[u] & common == 1 << u][:2]
                    raise MissingMeet(f"flats {u1} and {u2} have no greatest lower bound:"
                                      f" both are minimal above {order[i]} and {order[i + 1 + j]}")

    return Semilattice(n, by_id, order, below, above)


def _strict_pairs(L: Semilattice) -> list[tuple[int, int]]:
    # every (a, b) with a < b, read off the principal down-set rows
    order = L._rank_order
    return [(order[i], y) for y in L._ids for i in _bits(L._below[y]) if order[i] != y]


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
    if not L.leq(x, y):
        return 0
    return _mu_row(L, x)[y]


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
