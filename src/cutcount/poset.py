"""Meet-semilattices of flats, their Möbius functions, and the polynomial
invariants derived from them.

Flats are ordered by reverse inclusion, so the whole space is the unique
minimum and points sit at the top. Every semilattice is built, closed and
checked by :func:`validate_semilattice`, from flats by position in (rank, id)
order: a flat is its position, and only `_validate_ids` reads flats by id.
Everything downstream is computed from this order alone; every face count is
read off the Möbius polynomial.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import compress
from typing import Iterable

from .errors import (
    CapExceeded,
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    RankViolation,
    UnknownFlat,
    json_field,
    malformed,
)

# the up-set rows take up to F^2 bits, and the down-set rows, which only some orders
# need, up to as many: near this many flats `verify` peaks at about 100 MB on a
# wiring diagram (32,765 flats), and `mobius` at about 190 MB on a chain
MAX_FLATS = 32_768
# (ranks present) x (strict order pairs), an upper bound on the Möbius pass's column
# additions: 10^8 take about 1.7 s, 400 times the count of `gen --wires 250`
MAX_MOBIUS_ADDITIONS = 10**8


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _minimal(mask: int, above: list[int]) -> int:
    """The members of `mask` above no other member: one union per member."""
    higher = 0
    for a in _bits(mask):
        higher |= above[a] ^ 1 << a
    return mask & ~higher


class Semilattice:
    """Finite meet-semilattice of flats over an ambient dimension.

    Only :func:`validate_semilattice` calls this constructor, with the
    closed and checked order. Instances are immutable and safe to share
    between workers.

    The order is stored as bitmask rows indexed by position in `_order`,
    which lists the flat ids in (rank, id) order: bit i stands for the flat
    at position i, so walking a row's bits visits flats in that order. That
    order is topological, so the minimum is the flat at position 0.
    `above[i]` is the principal up-set of the flat at position i, bit i of
    `maximal` is set when that up-set is the flat alone, and `strict` counts
    the strict order pairs, for the Möbius budget. `_supports[i]` is the
    bitmask of the hyperplanes containing the flat at position i, or None.
    `_pos` (each id's position) is built on first read, for the public methods,
    and raises ValueError on an id that is not an int or is repeated.
    """

    def __init__(self, ambient_dim: int, order: tuple, supports, ranks: tuple,
                 above: list, maximal: int, strict: int) -> None:
        self.ambient_dim = ambient_dim
        self._order = order
        self._supports = supports
        self._ranks = ranks
        # largest rank present (may be smaller than the ambient dimension)
        self.rank = ranks[-1]
        self._above = above
        self._maximal = maximal
        self._strict = strict

    @cached_property
    def _pos(self) -> dict[int, int]:
        pos = {}
        for i, fid in enumerate(self._order):
            if type(fid) is not int:
                raise ValueError(f"flat id must be an int: {fid!r}")
            if fid in pos:
                raise ValueError(f"duplicate flat id {fid}")
            pos[fid] = i
        return pos

    def ids(self) -> tuple[int, ...]:
        """Flat ids in ascending order."""
        return tuple(sorted(self._pos))

    def above(self, x: int) -> list[int]:
        """Ids of flats y >= x, ordered by (rank, id)."""
        if type(x) is not int or x not in self._pos:
            raise UnknownFlat(f"no flat with id {x!r}")
        return [self._order[i] for i in _bits(self._above[self._pos[x]])]


def validate_semilattice(ambient_dim: int, ranks, succ, ids, supports=None) -> Semilattice:
    """The semilattice of flats given by position in (rank, id) order: the
    flat at position i has id `ids[i]`, rank `ranks[i]`, support
    `supports[i]` (the bitmask of the hyperplanes containing it, or None
    when `supports` is), and lies below its given successors, the flats at
    the positions in `succ[i]`. Ranks are ints, successors int positions,
    and a falsy `succ[i]` is read as no successor: these are not checked.

    Raises ValueError on an ambient_dim that is not an int, or a truthy
    `succ[i]` that is not a list, tuple or range, NoMinimum on no flat,
    CapExceeded on more than MAX_FLATS, RankViolation when ranks fall
    along the positions or pass ambient_dim or a successor's does not rise,
    and UnknownFlat on a successor outside 0..F-1. As every successor rises,
    so does every chain: the order has no cycle, dimensions strictly
    decrease along it, and (rank, id) order is topological. A flat with no
    given successor is maximal, its up-set itself, so one backward pass over
    the other flats builds each up-set from those of the flat's successors,
    checking each one's rise on the way. Then the order has a minimum
    exactly when the first up-set holds every flat, and it must have the
    ambient dimension. The maximal flats are marked, and the strict order
    pairs counted over the other flats' up-sets, once.

    Meets rest on two lemmas. First, a finite poset with a minimum is a
    meet-semilattice exactly when any two elements with a common upper bound
    have a least one. If meets exist, minimal upper bounds u1, u2 of c and d
    have u1 ^ u2 above c and d, so u1 = u2. Conversely the common lower
    bounds of a and b hold the minimum and lie under a, so their join exists
    and is a ^ b. Second, it is enough to ask this of the covers of each
    flat c, which are its minimal given successors, as the given pairs
    generate the order. The induction is Newman's (1942), on the size of c's
    up-set: for a and b above c with a common upper bound, take covers
    a1 <= a and b1 <= b of c. If a1 = b1, the induction at a1 joins a and b.
    Otherwise the test gives the join d of a1 and b1, the induction at a1
    the join e of a and d, and the induction at b1 the join g of e and b.
    Every common upper bound of a and b lies above d, so above e and g: g is
    the join of a and b. A maximal cover pairs with nothing, as a pair of
    covers holding one shares no upper bound.

    So each non-maximal flat c, the minimum included, tests the pairs of its
    minimal non-maximal given successors: the given successors, less the
    maximal flats and every strict up-set of one of them. Without that last
    step, input that gives every order pair would pair each flat's whole
    up-set, a cube of work. A pair (a, b) passes when above[a] & above[b] is
    0 or a principal up-set. One flat u is principal with no lookup, as
    above[u] lies inside it, and a failing pair has two minimal common upper
    bounds, so none passes this way. When the pairs outnumber the flats
    above their members, as on a pencil's plane, each member a is paired
    only with the members reached from a's up-set, down the given pairs,
    with the flat T of largest down-set left out (the cone point of a
    central arrangement, which lies above every flat). A failing pair has
    two distinct minimal common upper bounds, so at least one of them is not
    T, and a pair whose only common upper bound is T passes. Only this route
    needs the down-sets, so they and T are built only when it is first
    taken. MissingMeet names the first flat in (rank, id) order with a
    failing pair, its first failing pair, and two minimal common upper
    bounds of it.
    """
    n = ambient_dim
    if type(n) is not int:
        raise ValueError(f"ambient dimension must be an int: {n!r}")
    size = len(ranks)
    if not size:
        raise NoMinimum("a semilattice needs at least one flat")
    if size > MAX_FLATS:
        raise CapExceeded(f"{size} flats exceed the budget of {MAX_FLATS}")
    if {len(succ), len(ids), len(supports or ranks)} != {size}:
        raise ValueError("ranks, successors, ids and supports need one entry per position")
    if [*ranks] != sorted(ranks) or ranks[-1] > n:
        raise RankViolation(f"ranks must not fall along the positions nor pass the ambient dimension {n}")

    # bit i is set when the flat at position i is maximal, its up-set itself:
    # as every given successor must rise, that is when it has none
    maximal = int("".join(["0" if s else "1" for s in reversed(succ)]), 2)
    above = [1 << y for y in range(size)]
    # each rank present is one run of positions; a successor of a flat in the
    # run ending before ends[r] rises when it lies at or past ends[r]
    ends = {r: bisect_right(ranks, r) for r in dict.fromkeys(ranks)}
    non_maximal = [*compress(range(size), succ)]
    for y in reversed(non_maximal):
        entry = succ[y]
        # the meet check walks the entry again, so a one-shot iterator would pass it unseen
        if type(entry) not in (list, tuple, range):
            raise ValueError(f"successors of position {y} must be a list, tuple or range: {type(entry).__name__}")
        end = ends[ranks[y]]
        row = above[y]
        for b in entry:
            if not end <= b < size:
                fault = RankViolation if 0 <= b < size else UnknownFlat
                raise fault(f"successor {b} of position {y} is not a position of larger rank")
            row |= above[b]
        above[y] = row

    full = (1 << size) - 1
    if above[0] != full:
        raise NoMinimum("no flat lies below every other flat")
    if ranks[0]:
        raise RankViolation(
            f"minimum flat {ids[0]} has dimension {n - ranks[0]}, expected the ambient {n}"
        )

    counts = {c: above[c].bit_count() for c in non_maximal}
    inner = full ^ maximal
    below = but_t = None
    for c in non_maximal:
        # the non-maximal flats above c but c: with none, c has no pair to test
        rest = above[c] & inner ^ 1 << c
        if not rest:
            continue
        given = 0
        for b in succ[c]:
            given |= 1 << b
        # the minimal ones among c's given successors in `rest`
        succ_c = _minimal(given & rest, above)
        members = [*_bits(succ_c)]
        k = len(members)
        # every pair, unless the pairs outnumber the unions of the reach route
        direct = k * (k - 1) // 2 <= sum([counts[a] for a in members])
        if not direct and below is None:
            # one push along each given successor closes the down-sets, in (rank, id) order
            below = [1 << y for y in range(size)]
            for y in range(size):
                for b in succ[y]:
                    below[b] |= below[y]
            but_t = ~(1 << below.index(max(below, key=int.bit_count)))
        for x, a in enumerate(members):
            row = above[a]
            if direct:
                partners = members[x + 1:]
            else:
                # the later members under a common upper bound of a's other than T
                reach = 0
                for u in _bits(row & but_t):
                    reach |= below[u]
                partners = _bits(reach & succ_c >> a + 1 << a + 1)
            for b in partners:
                common = row & above[b]
                # one flat u is principal, as above[u] lies inside it; more flats
                # are principal when they are the up-set of their lowest bit
                if common & common - 1 and above[(common & -common).bit_length() - 1] != common:
                    u1, u2 = [ids[u] for u in _bits(_minimal(common, above))][:2]
                    raise MissingMeet(f"flats {u1} and {u2} have no greatest lower bound:"
                                      f" both are minimal above {ids[a]} and {ids[b]}")

    return Semilattice(n, tuple(ids), supports or (None,) * size, tuple(ranks), above, maximal,
                       sum(counts.values()) - len(counts))


def _validate_ids(ambient_dim: int, flats: Iterable[tuple[int, int]], pairs: Iterable[tuple[int, int]]) -> Semilattice:
    """validate_semilattice on `flats`, (id, dim) pairs, and `pairs` (a, b), a <= b, by id.
    Raises ValueError on a negative ambient_dim or a repeated id, then
    RankViolation on a dimension outside 0..ambient_dim and UnknownFlat on
    a pair naming no flat. The first pair of distinct flats whose rank does
    not rise names the fault: NotAPartialOrder when a walk along the pairs
    from b reaches a, and RankViolation otherwise."""
    n = ambient_dim
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    dims: dict[int, int] = {}
    for fid, dim in flats:
        if fid in dims:
            raise ValueError(f"duplicate flat id {fid}")
        if not 0 <= dim <= n:
            raise RankViolation(f"flat {fid} has dimension {dim} outside 0..{n}")
        dims[fid] = dim
    order = sorted(dims, key=lambda fid: (-dims[fid], fid))
    pos = {fid: i for i, fid in enumerate(order)}
    ranks = [n - dims[fid] for fid in order]
    # each given pair is one successor between positions, kept at its lower end
    succ: list[list[int]] = [[] for _ in order]
    fall = None
    for a, b in pairs:
        pa, pb = pos.get(a), pos.get(b)
        if pa is None or pb is None:
            raise UnknownFlat(f"leq pair ({a}, {b}) references unknown flat {a if pa is None else b}")
        if pa != pb:
            succ[pa].append(pb)
            if ranks[pa] >= ranks[pb] and fall is None:
                fall = a, b

    if fall is not None:
        # a <= b with dim a <= dim b: one walk from b tells a cycle from a rank fault
        a, b = fall
        seen, stack = {pos[b]}, [pos[b]]
        while stack:
            for c in succ[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        if pos[a] in seen:
            raise NotAPartialOrder(f"flats {a} and {b} are mutually comparable")
        raise RankViolation(f"flat {a} < flat {b} but dimensions are {dims[a]} <= {dims[b]}")
    return validate_semilattice(n, ranks, succ, order)


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
    strict = L._strict
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


def f_from_mobius(M: BiPolynomial) -> BiPolynomial:
    """Face polynomial from a Möbius polynomial: (-1)^rk * M(-x, -1), where rk,
    the lattice rank, is M's largest x-degree (mu(X, X) = 1 on each top flat).

    The result must have nonnegative coefficients; a negative one proves the
    input was not the Möbius polynomial of an arrangement lattice and raises
    NegativeCoefficient instead of returning silently.
    """
    rk = max(M.terms, default=(0, 0))[0]
    terms: dict[tuple[int, int], int] = {}
    for (a, b), c in M.terms.items():
        sign = -1 if (a + b + rk) % 2 else 1
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
    """Build and validate a semilattice from its JSON form; a shape fault is a ParseError."""
    with malformed("semilattice"):
        flats = []
        for item in json_field(doc["flats"], list, "flats"):
            item = json_field(item, dict, "flat")
            flats.append((json_field(item["id"], int, "flat id"), json_field(item["dim"], int, "flat dim")))
        pairs = []
        for pair in json_field(doc["leq"], list, "leq"):
            if len(json_field(pair, list, "leq pair")) != 2:
                raise ValueError(f"leq pair must have 2 entries, got {pair!r}")
            pairs.append(tuple(json_field(v, int, "leq entry") for v in pair))
        return _validate_ids(json_field(doc["ambient_dim"], int, "ambient_dim"), flats, pairs)
