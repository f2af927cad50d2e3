"""Meet-semilattices of flats, their Möbius functions, and the polynomial
invariants derived from them.

Flats are ordered by reverse inclusion, so the whole space is the unique
minimum and points sit at the top. Every semilattice is built, closed and
checked by :func:`validate_semilattice`. Everything downstream is computed
from this order alone; every face count is read off the Möbius polynomial.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

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
# (ranks present) x (strict order pairs), an upper bound on the Möbius pass's column
# additions: 10^8 take about 1.7 s, 400 times the count of `gen --wires 250`
MAX_MOBIUS_ADDITIONS = 10**8


class Flat(NamedTuple):
    """One element of an intersection semilattice: its id and dimension and,
    on lattices built from hyperplanes, its `support`, the indices of the
    hyperplanes containing it, by which the face oracle names faces. The
    support is None on abstract posets and wiring lattices."""

    id: int
    dim: int
    support: frozenset[int] | None = None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _reach(edges: list[list[int]], steps: range) -> list[int]:
    """Row y holds y and every row reachable from it along `edges`.

    One pass visits rows in `steps` order and builds each row from the rows
    its edges lead to, one union per edge. It closes every row when every
    edge leads to a row visited earlier, as on an order whose given pairs
    all rise in rank.
    """
    rows = [0] * len(edges)
    for y in steps:
        row = 1 << y
        for a in edges[y]:
            row |= rows[a]
        rows[y] = row
    return rows


class Semilattice:
    """Finite meet-semilattice of flats over an ambient dimension.

    Only :func:`validate_semilattice` calls this constructor, with the
    closed and checked order. Instances are immutable and safe to share
    between workers.

    The order is stored as bitmask rows indexed by position in `order`,
    which lists the flat ids in (rank, id) order: bit i stands for the flat
    at position i, so walking a row's bits visits flats in that order.
    `above[i]` is the principal up-set of the flat at position i, and bit i
    of `maximal` is set when that up-set is the flat alone. Ids become
    positions only at the public methods.
    """

    def __init__(self, ambient_dim: int, flats: dict, ids: tuple, order: tuple, pos: dict,
                 ranks: tuple, above: list, maximal: int) -> None:
        self.ambient_dim = ambient_dim
        self.flats: dict[int, Flat] = flats
        # only the minimum has the ambient dimension, so it comes first
        self.minimum = order[0]
        self._ids = ids
        self._order = order
        self._pos = pos
        self._ranks = ranks
        # largest rank present (may be smaller than the ambient dimension)
        self.rank = ranks[-1]
        self._above = above
        self._maximal = maximal

    def ids(self) -> tuple[int, ...]:
        """Flat ids in ascending order."""
        return self._ids

    def above(self, x: int) -> list[int]:
        """Ids of flats y >= x, ordered by (rank, id)."""
        if x not in self._pos:
            raise UnknownFlat(f"no flat with id {x}")
        return [self._order[i] for i in _bits(self._above[self._pos[x]])]


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

    A given pair (a, b) of distinct flats rises when the rank strictly
    increases from a to b, and falls otherwise. A falling pair is always a
    fault, as a <= b with dim a <= dim b cannot hold in a valid order. The
    first falling pair in input order names the error: when a walk along
    the given pairs from b reaches a, the flats are mutually comparable
    (NotAPartialOrder), and otherwise a < b breaks strict dimension
    (RankViolation). When every pair rises, so does every chain: the order
    has no cycle and dimensions strictly decrease along it, and (rank, id)
    order is topological. Then one forward pass builds each down-set from
    the down-sets of the flat's given predecessors, and one backward pass
    builds each up-set from the up-sets of its given successors, one union
    per pair. The minimum checks follow. The flats whose up-set is the flat
    alone are marked maximal, once, for the meet check and the Möbius pass.

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

    # rows are indexed by position in (rank, id) order
    ids = tuple(sorted(by_id))
    order = tuple(sorted(ids, key=lambda fid: (-by_id[fid].dim, fid)))
    pos = {fid: i for i, fid in enumerate(order)}
    ranks = tuple(n - by_id[fid].dim for fid in order)
    size = len(order)
    # each given pair is one edge between positions, kept at both ends
    into: list[list[int]] = [[] for _ in range(size)]
    out: list[list[int]] = [[] for _ in range(size)]
    fall = None
    for a, b in pairs:
        pa, pb = pos.get(a), pos.get(b)
        if pa is None or pb is None:
            raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {a if pa is None else b}")
        into[pb].append(pa)
        out[pa].append(pb)
        if ranks[pa] >= ranks[pb] and pa != pb and fall is None:
            fall = a, b

    if fall is not None:
        # a <= b with dim a <= dim b: one walk from b tells a cycle from a rank fault
        a, b = fall
        seen, stack = {pos[b]}, [pos[b]]
        while stack:
            for c in out[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        if pos[a] in seen:
            raise NotAPartialOrder(f"flats {a} and {b} are mutually comparable")
        raise RankViolation(f"flat {a} < flat {b} but dimensions are {by_id[a].dim} <= {by_id[b].dim}")

    # every pair rises, so (rank, id) order is topological, and one pass
    # each way closes the rows with one union per edge
    below = _reach(into, range(size))
    above = _reach(out, range(size - 1, -1, -1))

    full = (1 << len(order)) - 1
    if full not in above:
        raise NoMinimum("no flat lies below every other flat")
    t = order[above.index(full)]
    if by_id[t].dim != n:
        raise RankViolation(
            f"minimum flat {t} has dimension {by_id[t].dim}, expected the ambient {n}"
        )

    # bit i is set when the flat at position i is maximal: its up-set is itself
    maximal = int("".join("1" if row.bit_count() == 1 else "0" for row in reversed(above)), 2)
    # a failing pair has two minimal common upper bounds, so leaving the flat
    # with the largest down-set out of every reach hides none of them
    top = below.index(max(below, key=int.bit_count))
    # dimensions strictly decrease, so the minimum is alone at position 0, below
    # all, and a maximal flat reaches only its down-set, which comes before it in
    # (rank, id) order: neither has a partner j > i
    for i in _bits((full ^ maximal) & ~1):
        row = above[i]
        reach = 0
        for u in _bits(row & ~(1 << top)):
            reach |= below[u]
        # comparable pairs pass; each incomparable one is seen once, as j > i
        for j in _bits((reach & ~row) >> i << i):
            common = row & above[j]
            # a principal up-set starts at its own flat, its lowest bit
            if above[(common & -common).bit_length() - 1] != common:
                u1, u2 = [order[u] for u in _bits(common) if below[u] & common == 1 << u][:2]
                raise MissingMeet(f"flats {u1} and {u2} have no greatest lower bound:"
                                  f" both are minimal above {order[i]} and {order[j]}")

    return Semilattice(n, by_id, ids, order, pos, ranks, above, maximal)


class BiPolynomial:
    """Integer-coefficient polynomial in x and y, stored as a sparse term map.

    Zero coefficients are never stored; a univariate polynomial is simply
    one whose y-exponents are all zero. Exponents and coefficients must be
    ints (not bools); anything else raises ValueError, as nothing is coerced.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (a, b), c in (terms or {}).items():
            if type(a) is not int or type(b) is not int or type(c) is not int:
                raise ValueError(f"exponents and coefficients must be ints: {(a, b)!r}: {c!r}")
            if c:
                clean[(a, b)] = c
        self.terms = clean

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


def mobius_polynomial(L: Semilattice) -> BiPolynomial:
    """Sum of mu(X, Y) x^rk(X) y^(rk(L) - rk(Y)) over comparable pairs.

    Incomparable pairs contribute zero; the y-exponent is normalized by the
    largest rank actually present, not the ambient dimension. CapExceeded is
    raised first if (ranks present) x (strict pairs) > MAX_MOBIUS_ADDITIONS.
    Maximal flats, which validation marked, are only counted, never visited.
    """
    # S(X) = sum of mu(X, Y) y^(rk - rk Y) over Y >= X, as y-coefficients, by the
    # dual recursion S(X) = y^(rk - rk X) - sum of S(Z) over Z > X (Rota 1964);
    # every Z > X comes later in (rank, id) order, so positions run last to first
    rk = L.rank
    ranks = L._ranks
    # one column per rank present, not per rank up to rk: two flats of dims 10^6
    # and 0 make two columns; column c holds the coefficient of y^(rk - levels[c])
    levels = list(dict.fromkeys(ranks))
    strict = sum(map(int.bit_count, L._above)) - len(ranks)
    if len(levels) * strict > MAX_MOBIUS_ADDITIONS:
        raise CapExceeded(f"{len(levels)} ranks times {strict} strict order pairs exceed the Möbius"
                          f" budget of {MAX_MOBIUS_ADDITIONS} column additions")
    # each rank present is one run of positions, ending before ends[c]; lone[c]
    # masks the maximal flats of column c, each of whose S is the unit column c
    ends = [bisect_right(ranks, r) for r in levels]
    lone = [L._maximal & (1 << end) - (1 << start) for start, end in zip([0, *ends], ends)]
    inner = (1 << len(ranks)) - 1 ^ L._maximal
    S: dict[int, list] = {}
    for i in reversed([*_bits(inner)]):
        up = L._above[i] ^ 1 << i
        # column c of the sum of S(Z) over Z > X: the maximal Z in column c,
        # counted, plus the S(Z) of every other Z. One step per column that
        # holds a maximal Z > X, so many ranks cost nothing where none do
        counts = [0] * len(levels)
        hit = up & L._maximal
        while hit:
            c = bisect_right(ends, (hit & -hit).bit_length() - 1)
            mine = hit & lone[c]
            counts[c] = mine.bit_count()
            hit ^= mine
        s = [-sum(col) for col in zip(counts, *[S[z] for z in _bits(up & inner)])]
        s[bisect_right(ends, i)] += 1
        S[i] = s
    # M(x, y) is the sum of x^rk(X) S(X): one column sum per rank over the flats
    # in S, and the maximal flats of rank r add their count at (r, rk - r)
    by_rank: dict[int, list] = {r: [] for r in levels}
    for i, s in S.items():
        by_rank[ranks[i]].append(s)
    terms = {(r, rk - levels[c]): sum(col) for r, rows in by_rank.items()
             for c, col in enumerate(zip(*rows))}
    for r, m in zip(levels, lone):
        terms[r, rk - r] = terms.get((r, rk - r), 0) + m.bit_count()
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
