"""Reference algorithms the tests check cutcount against, and the library
helpers only the tests use; cutcount never calls them.

The algorithms take a second route to what cutcount computes. It
eliminates over integers, backs Fourier-Motzkin out over one integer
denominator instead of in Fractions, reads crossed wires off the
permutation instead of keeping a set of crossed pairs, updates its wiring
draw's candidates locally instead of rescanning, keys its hyperplane draw
by primitive integer rows instead of rows scaled to a lead of 1, and sums
the Möbius polynomial by the dual recursion instead of walking intervals. The
exhaustive face search decides each sign vector here by `fm_point`, and a
flat's restriction is built from scratch here (`restrict`) and read off
the order here (`upper_set`), so the tests can compare the two.

The helpers read a semilattice's order, rank, maximal flats and
equations, read its flats by id (`Flat`, listed by `flats_by_id`) and give an
order supports (`with_supports`), give a flat its dimension and maximal
support (`AffineFlat`, built by `flat`), write a semilattice document,
read a polynomial document and sign strings, key a hyperplane by its row,
and read the f-vector off the Möbius side alone.
"""

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd
from typing import NamedTuple

from cutcount.errors import CutcountError, FlatNotInLattice, ParseError, UnknownFlat, json_field
from cutcount.exactgeom import Arrangement, _reduce, build_lattice, intersect
from cutcount.faces import DEFAULT_CAP, _Chart, _walk_faces
from cutcount.poset import BiPolynomial, _bits, _validate_ids, f_from_mobius, mobius_polynomial, validate_semilattice


class DimensionMismatch(CutcountError):
    """A sign vector has the wrong length for the arrangement."""


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


def _settle(rows):
    # duplicates removed, the largest r kept per c; None when some 0 > r fails
    tightest = {}
    for row in rows:
        c = row[:-1]
        if any(c):
            kept = tightest.get(c)
            if kept is None or row[-1] > kept[-1]:
                tightest[c] = row
        elif row[-1] >= 0:
            return None
    return list(tightest.values())


def between(lo, hi):
    """The small rational strictly inside (lo, hi) that cutcount picks, as a
    Fraction or int; None is an open end: 0, then floor(lo) + 1 or
    ceil(hi) - 1, else the midpoint."""
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return 0
    if hi is None:
        return floor(lo) + 1
    if lo is None:
        return ceil(hi) - 1
    step = floor(lo) + 1
    return step if step < hi else (lo + hi) / 2


def fm_point(rows, nvars: int):
    """A point t with c . t > r for every integer row (c..., r), or None:
    the same Fourier-Motzkin elimination as cutcount's, with the point
    filled in from the last stage back in Fractions."""
    stages = []
    live = _settle(rows)
    for v in range(nvars):
        if not live:
            break
        pos = [r for r in live if r[v] > 0]
        neg = [r for r in live if r[v] < 0]
        stages.append((v, pos, neg))
        if v + 1 == nvars:
            break
        rest = [r for r in live if r[v] == 0]
        for p in pos:
            for q in neg:
                a, b = -q[v], p[v]
                g = gcd(a, b)
                row = tuple((a // g) * x + (b // g) * y for x, y in zip(p, q))
                g = gcd(*row)
                rest.append(tuple(x // g for x in row) if g > 1 else row)
        live = _settle(rest)
    if live is None:
        return None
    t = [0] * nvars
    for v, pos, neg in reversed(stages):
        def bound(r):
            return Fraction(r[-1] - sum(r[k] * t[k] for k in range(v + 1, nvars)), r[v])

        lo = max(map(bound, pos), default=None)
        hi = min(map(bound, neg), default=None)
        if lo is not None and hi is not None and lo >= hi:
            return None
        t[v] = between(lo, hi)
    return t


def wiring_sweep(wires: int, events: list[tuple[int, int]]):
    """The groups, the wires meeting at each event from top to bottom, of a
    diagram whose (top, size) events fit its wires, keeping the set of pairs
    that have crossed. Raises ValueError with cutcount's RepeatedCrossing
    message at the first pair crossing twice."""
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
    return tuple(groups)


def draw_wiring(wires: int, crossings: int, seed: int) -> list[tuple[int, int]]:
    """The (top, size) events of cutcount's seeded wiring draw, by the rule
    that keeps the set of crossed pairs and rescans every position per draw:
    an event is drawn from the pairs, or with probability 0.15 the triples,
    of adjacent wires no two of which have crossed. There is no flat budget."""
    rng = random.Random(seed)
    perm = list(range(wires))
    crossed = set()
    events = []

    def fresh(*group):
        return all((min(a, b), max(a, b)) not in crossed for a, b in combinations(group, 2))

    while len(events) < crossings:
        simple = [t for t in range(wires - 1) if fresh(*perm[t: t + 2])]
        triple = [t for t in range(wires - 2) if fresh(*perm[t: t + 3])]
        if not simple and not triple:
            break
        if triple and (not simple or rng.random() < 0.15):
            top, size = rng.choice(triple), 3
        else:
            top, size = rng.choice(simple), 2
        group = perm[top: top + size]
        crossed.update((min(a, b), max(a, b)) for a, b in combinations(group, 2))
        perm[top: top + size] = reversed(group)
        events.append((top, size))
    return events


def draw_arrangement(dim: int, count: int, bound: int, seed: int) -> list[dict]:
    """The hyperplanes of cutcount's seeded draw as its document writes them,
    by the rule that scales each drawn vector (normal entries p / q, then the
    offset) so its first nonzero normal entry is 1, redrawing a zero normal
    or a plane already drawn. There is no flat budget and no refusal."""
    rng = random.Random(seed)
    planes = {}
    while len(planes) < count:
        normal = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
        if any(normal):
            lead = next(v for v in normal if v)
            offset = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            planes[tuple(v / lead for v in (*normal, offset))] = None
    return [{"normal": [str(v) for v in plane[:-1]], "offset": str(plane[-1])} for plane in planes]


def interval(L, x: int, y: int) -> list[int]:
    """Ids z with x <= z <= y, ordered by (rank, id); empty if x !<= y."""
    return [z for z in L.above(x) if leq(L, z, y)]


def mobius_row(L, x: int) -> dict[int, int]:
    """mu(x, z) for every z >= x, by the interval recursion
    mu(x, z) = -sum of mu(x, w) over x <= w < z; L.above lists each w < z
    before z."""
    row: dict[int, int] = {}
    for z in L.above(x):
        row[z] = 1 if z == x else -sum(v for w, v in row.items() if leq(L, w, z))
    return row


def mobius(L, x: int, y: int) -> int:
    """Möbius value mu(x, y); zero when x is not below y."""
    return mobius_row(L, x)[y] if leq(L, x, y) else 0


def mobius_sum(mu: dict[tuple[int, int], int], rank: dict[int, int]) -> BiPolynomial:
    """Sum of mu[x, y] x^rank[x] y^(r - rank[y]) over the pairs of `mu`,
    with r the largest rank."""
    top = max(rank.values())
    terms: dict[tuple[int, int], int] = {}
    for (x, y), v in mu.items():
        key = (rank[x], top - rank[y])
        terms[key] = terms.get(key, 0) + v
    return BiPolynomial(terms)


def chambers(A, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Sign vectors of the full-dimensional faces (no zero entries)."""
    return [signs for signs, _, _ in _walk_faces(A, cap) if all(signs)]


def chamber_count(L) -> int:
    """Number of full-dimensional cells: the last entry of the f-vector."""
    return f_vector_from_semilattice(L)[-1]


def _position(L, x: int) -> int:
    if x not in L._pos:
        raise UnknownFlat(f"no flat with id {x}")
    return L._pos[x]


def leq(L, x: int, y: int) -> bool:
    """True when x <= y, i.e. flat y is contained in flat x."""
    return bool(L._above[_position(L, x)] >> _position(L, y) & 1)


def rank_of(L, x: int) -> int:
    return L._ranks[_position(L, x)]


def minimum(L) -> int:
    """The flat below every flat: the one whose `above` holds every id."""
    ids = L.ids()
    return next(x for x in ids if len(L.above(x)) == len(ids))


def maximal_flats(L) -> set[int]:
    """Ids of the flats that validation marked maximal."""
    return {L._order[i] for i in _bits(L._maximal)}


def f_vector_from_semilattice(L) -> list[int]:
    """Face counts (f_0, ..., f_n) read off the semilattice alone.

    f_i is the coefficient of x^(n - i) in f_from_mobius(mobius_polynomial(L)),
    so a negative count raises NegativeCoefficient here too.
    """
    f = f_from_mobius(mobius_polynomial(L))
    n = L.ambient_dim
    return [f.coefficient(n - i) for i in range(n + 1)]


class Flat(NamedTuple):
    """One flat of a semilattice read by id: its id, its dimension and, on
    lattices built from hyperplanes, its support, the set of indices of the
    hyperplanes containing it (None on other orders)."""

    id: int
    dim: int
    support: frozenset[int] | None = None


def flats_by_id(L) -> dict[int, Flat]:
    """Each flat of L by id, in (rank, id) order."""
    return {x: Flat(x, L.ambient_dim - r, None if s is None else frozenset(_bits(s)))
            for x, r, s in zip(L._order, L._ranks, L._supports)}


def with_supports(L, supports: dict[int, int]):
    """L built again by position, flat x with the support bitmask
    `supports[x]`: the id route gives a semilattice no supports."""
    succ = [[j for j in _bits(row) if j != i] for i, row in enumerate(L._above)]
    return validate_semilattice(L.ambient_dim, L._ranks, succ, L._order, tuple(supports[x] for x in L._order))


def upper_set(L, x: int):
    """The sub-semilattice of flats above x, re-rooted at x.

    The ambient dimension becomes dim(x), so ranks inside the result are
    dim(x) - dim(y). Supports are remapped relative to the new root
    (elements containing x are dropped); upper_set(L, minimum) is L itself.
    """
    keep = L.above(x)
    if x == minimum(L):
        return L
    n, root = L.ambient_dim, L._supports[_position(L, x)]
    # the flats above x form an up-set, so a >= x puts every b >= a in it too
    pairs = [(a, b) for a in keep for b in L.above(a)]
    U = _validate_ids(n - rank_of(L, x), [(y, n - rank_of(L, y)) for y in keep], pairs)
    if root is None:
        return U
    return with_supports(U, {y: L._supports[_position(L, y)] & ~root for y in keep})


def semilattice_to_json(L) -> dict:
    """JSON document form; `leq` lists the full strict order, sorted."""
    flats = [{"id": fid, "dim": L.ambient_dim - rank_of(L, fid)} for fid in L.ids()]
    # every strict pair (a, b), read off the principal up-set rows
    order = L._order
    pairs = sorted([order[x], order[j]] for x, row in enumerate(L._above) for j in _bits(row) if j != x)
    return {"kind": "semilattice", "ambient_dim": L.ambient_dim, "flats": flats, "leq": pairs}


def constant(c: int) -> BiPolynomial:
    return BiPolynomial({(0, 0): c})


def polynomial_from_json(doc: dict) -> BiPolynomial:
    """Inverse of BiPolynomial.to_json: exponents are JSON integers and each
    coeff a string of decimal digits with an optional '-'; else ParseError."""
    terms: dict[tuple[int, int], int] = {}
    try:
        for item in doc["terms"]:
            key = (json_field(item["x"], int, "term x"), json_field(item["y"], int, "term y"))
            coeff = item["coeff"]
            if type(coeff) is not str or not re.fullmatch("-?[0-9]+", coeff):
                raise ParseError(f"term coeff must be a string of decimal digits, got {coeff!r}")
            terms[key] = terms.get(key, 0) + int(coeff)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial document: {exc}") from exc
    return BiPolynomial(terms)


def signs_from_string(text: str) -> tuple[int, ...]:
    """Inverse of signs_to_string; raises on characters outside +0-."""
    table = {"+": 1, "0": 0, "-": -1}
    try:
        return tuple(table[c] for c in text)
    except KeyError:
        raise ValueError(f"sign string may only contain + 0 -: {text!r}") from None


def equations(system) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical reduced echelon form of an integer echelon system, as
    `intersect` returns it: each row over its pivot entry."""
    return tuple(tuple(Fraction(v, e[p]) for v in e) for p, e in system)


@dataclass(frozen=True)
class AffineFlat:
    """A nonempty intersection of hyperplanes, identified by its integer
    echelon system: (pivot column, primitive integer row) pairs in pivot
    order, each row (normal entries then right-hand side) positive in its
    pivot column and zero in the others. That is the primitive multiple of
    the unique reduced echelon form, so flats are equal exactly when their
    systems are. `support` holds every hyperplane of the arrangement that
    contains the flat."""

    system: tuple[tuple[int, tuple[int, ...]], ...]
    dim: int
    support: frozenset[int] = frozenset()


def flat(A, support) -> AffineFlat | None:
    """The flat where the chosen hyperplanes of A meet, with its dimension
    and maximal support (every hyperplane of A containing it), or None if
    they do not meet."""
    system = intersect(A, support)
    if system is None:
        return None
    full = frozenset(j for j, row in enumerate(A.rows) if not any(_reduce(system, row)))
    return AffineFlat(system, A.ambient_dim - len(system), full)


def feasible(A, signs: tuple[int, ...]) -> bool:
    """Exact emptiness test for one total sign assignment of ints in
    {-1, 0, 1}: the flat of the zero entries by `intersect`, and the strict
    sides in its chart decided by `fm_point`."""
    if len(signs) != len(A.rows):
        raise DimensionMismatch(f"sign vector has {len(signs)} entries for {len(A.rows)} hyperplanes")
    if not all(type(s) is int and -1 <= s <= 1 for s in signs):
        raise ValueError(f"sign vector entries must be -1, 0 or 1: {tuple(signs)!r}")
    system = intersect(A, [j for j, s in enumerate(signs) if s == 0])
    if system is None:
        return False
    chart = _Chart(system, A.ambient_dim)
    rows = [tuple(s * v for v in chart.row(j, A.rows[j])) for j, s in enumerate(signs) if s]
    return fm_point(rows, len(chart.basis)) is not None


def restrict(A, X):
    """Semilattice of the arrangement induced on the flat X.

    X must equal, system, dimension and support alike, the flat of A where
    the hyperplanes whose rows reduce to zero against X's system meet; if
    not, or if the system is not (int pivot, n + 1 ints) pairs, this raises
    FlatNotInLattice. Unless X is a point, the lattice is built from
    scratch on `traces(A, X)`. Matches upper_set of the full lattice up to
    relabeling of supports.
    """
    n = A.ambient_dim
    shaped = type(X.system) is tuple and all(
        type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int and 0 <= pair[0] <= n
        and type(pair[1]) is tuple and len(pair[1]) == n + 1 and all(type(v) is int for v in pair[1])
        for pair in X.system)
    if not shaped or flat(A, (j for j, row in enumerate(A.rows) if not any(_reduce(X.system, row)))) != X:
        raise FlatNotInLattice(f"not a flat of the arrangement: {X}")
    if X.dim == 0:
        return validate_semilattice(0, [0], [[]], [0], [0])
    return build_lattice(traces(A, X))


def traces(A, X):
    """The arrangement A induces on its flat X of positive dimension: the
    hyperplanes containing X are dropped, the rest rewritten in X's integer
    chart coordinates, and hyperplanes meeting X in the same set collapse
    to one."""
    chart = _Chart(X.system, A.ambient_dim)
    rows = (chart.row(j, row) for j, row in enumerate(A.rows) if j not in X.support)
    # a row without coefficients is parallel to X: its trace is empty
    planes = dict.fromkeys(canonical_row(row) for row in rows if any(row[:-1]))
    return Arrangement(X.dim, list(planes))


def canonical_row(row) -> tuple[int, ...]:
    """An integer row (normal entries, then offset) with a nonzero normal,
    divided by the gcd of its entries, signed as its first nonzero entry:
    two rows give one result exactly when they are one hyperplane."""
    g = gcd(*row) if next(v for v in row if v) > 0 else -gcd(*row)
    return tuple(v // g for v in row)
