"""Face enumeration for rational hyperplane arrangements via sign vectors.

Every face is the solution set of one sign assignment: equalities on the
zero entries, strict inequalities elsewhere. Feasibility is decided
exactly, by Fourier-Motzkin elimination over int with an integer
back-substitution over one common denominator, so the resulting f-vector
is ground truth the Möbius side of the package can be checked against.

The walk assigns signs one hyperplane at a time and carries an exact point
in the relative interior of each partial face, its witness. A hyperplane
that cuts the face splits it by one rule, from a point of the face on the
hyperplane (the witness, or one elimination's point) and a direction
across it, so a node costs at most one feasibility call. Each face lives
in the chart of its flat, where the hyperplanes of its zero entries meet;
a hyperplane contains the flat exactly when its chart row is zero. Only the
root chart, the whole space's, is read off an echelon system; each cut chart
is one elimination in its parent's coordinates, and the parent keeps it, so
the walk shares no elimination with the lattice.
An elimination stage over MAX_FM_ROWS rows raises CapExceeded.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .errors import CapExceeded, FlatNotInLattice
from .exactgeom import Arrangement, build_lattice, intersect

DEFAULT_CAP = 12
# the oracle's reports hold a count per dimension; larger spaces are refused
MAX_AMBIENT_DIM = 64
# rows one Fourier-Motzkin stage may hold; past it the pairs grow as a square per stage
MAX_FM_ROWS = 1_000_000

_CHAR = {1: "+", 0: "0", -1: "-"}


def signs_to_string(signs: tuple[int, ...]) -> str:
    """Render (+1, 0, -1) entries as the string "+0-"."""
    return "".join(_CHAR[s] for s in signs)


def _dot(u, v):
    # exact for int and Fraction entries alike; stops at the shorter vector, so a
    # row (normal..., offset) dotted with a point or direction reads only its normal
    return sum(map(mul, u, v))


def _coprime(v) -> tuple[int, ...]:
    # an integer vector over the gcd of its entries; the zero vector stays itself
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _reduced(X, D: int) -> tuple[tuple[int, ...], int]:
    # homogeneous point X / D with D > 0, common factors removed
    g = gcd(*X, D)
    return tuple(x // g for x in X), D // g


class _Chart:
    """Integer coordinates on one flat: x = origin / scale + sum_k t_k basis_k,
    with scale > 0, origin and scale coprime, and each basis vector primitive.

    The root chart is read off the flat's echelon system (`read`); every
    other chart is cut from its parent by one elimination (`cut`). A
    hyperplane's row in these coordinates, and the chart where the
    hyperplane cuts the flat, are computed the first time they are asked
    for, and kept.
    """

    __slots__ = ("origin", "scale", "basis", "rows", "cuts")

    def __init__(self, origin: tuple[int, ...], scale: int, basis: list[tuple[int, ...]]) -> None:
        self.origin, self.scale, self.basis = origin, scale, basis
        self.rows: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.cuts: dict[int, _Chart | None] = {}

    @classmethod
    def read(cls, system, n: int) -> _Chart:
        """The chart of the flat with echelon system `system` in R^n: scale is
        the lcm of the pivot entries, one direction per free column."""
        scale = lcm(*(e[p] for p, e in system))
        # row r of `scaled` has pivot entry `scale`: x[p] = (r[n] - sum_c r[c] x[c]) / scale
        scaled = {p: [v * (scale // e[p]) for v in e] for p, e in system}
        origin = tuple(scaled[c][n] if c in scaled else 0 for c in range(n))
        basis = []
        for c in range(n):
            if c not in scaled:
                v = [-scaled[p][c] if p in scaled else 0 for p in range(n)]
                v[c] = scale
                basis.append(_coprime(v))
        return cls(origin, scale, basis)

    def row(self, j: int, plane: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Hyperplane j's row (c..., r), with integer row `plane`, signed by
        side: [s] for s = 1 (also [0]) is the row with normal . x > offset
        exactly when c . t > r, and [-1] is its negation, for normal . x < offset."""
        signed = self.rows.get(j)
        if signed is None:
            row = _coprime((
                *(self.scale * _dot(plane, b) for b in self.basis),
                plane[-1] * self.scale - _dot(plane, self.origin),
            ))
            signed = self.rows[j] = (row, row, tuple(-v for v in row))
        return signed

    def cut(self, i: int, plane: tuple[int, ...]) -> _Chart | None:
        """Chart where hyperplane i, with integer row `plane` and not
        containing the flat, cuts it; None when the plane is parallel to it.
        Its row c . t = r, signed so that its first nonzero c_q is positive,
        is solved for t_q: the origin moves by (r / c_q) basis_q, and basis_k
        becomes c_q basis_k - c_k basis_q for k != q. So a cut of a chart
        `read` gives has the origin point and basis `read` gives its flat."""
        if i not in self.cuts:
            cut = None
            signed = self.row(i, plane)
            q = next((k for k, ck in enumerate(signed[0][:-1]) if ck), None)
            if q is not None:
                *c, r = signed[0] if signed[0][q] > 0 else signed[-1]
                bq, sr = self.basis[q], self.scale * r
                cut = _Chart(*_reduced([c[q] * o + sr * b for o, b in zip(self.origin, bq)], c[q] * self.scale),
                             [_coprime([c[q] * x - ck * y for x, y in zip(b, bq)])
                              for k, (ck, b) in enumerate(zip(c, self.basis)) if k != q])
            self.cuts[i] = cut
        return self.cuts[i]

    def point(self, T, den: int) -> tuple[tuple[int, ...], int]:
        """Homogeneous integer coordinates of the point with coordinates
        T / den: T integer, den > 0."""
        X = [den * o for o in self.origin]
        for tk, b in zip(T, self.basis):
            if tk:
                X = [x + self.scale * tk * c for x, c in zip(X, b)]
        return _reduced(X, den * self.scale)


def _settle(rows):
    """Rows of `c . t > r`, stored as (c..., r), with duplicates removed:
    of the rows sharing c only the largest r is kept, as it implies the
    others. None when a row without coefficients (0 > r) fails."""
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


def _between(lo, hi):
    """A small rational strictly inside (lo, hi), as (num, den) with den > 0;
    an end is (num, d) with d > 0, or None when open. 0 if it fits, else
    ceil(hi) - 1 if lo is open, floor(lo) + 1 if below hi, else the midpoint."""
    if (lo is None or lo[0] < 0) and (hi is None or hi[0] > 0):
        return 0, 1
    if lo is None:
        return -(-hi[0] // hi[1]) - 1, 1
    step = lo[0] // lo[1] + 1
    if hi is None or step * hi[1] < hi[0]:
        return step, 1
    num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    g = gcd(num, den)
    return num // g, den // g


def _fm_point(rows, nvars: int):
    """(T, den) with c . T > r den for every integer row (c..., r), or None.

    Fourier-Motzkin over int: variables go in index order, each pair of a
    row bounding the variable from below and one bounding it from above
    is combined with positive integer weights, and every new row is
    divided by the gcd of its entries. The bounding rows of each stage are
    kept; the last variable is never combined, its interval is read off
    directly, and the point is then filled in from the last stage back over
    one common denominator den > 0, bounds being (num, d > 0) pairs of ints.
    Before a stage combines its pairs, CapExceeded is raised if the rows it
    would hold, those free of the variable plus one per pair, pass
    MAX_FM_ROWS; the count grows about as a square per stage.
    """
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
        held = len(rest) + len(pos) * len(neg)
        if held > MAX_FM_ROWS:
            raise CapExceeded(f"a Fourier-Motzkin stage would hold {held} rows, over the face oracle's"
                              f" budget of {MAX_FM_ROWS}")
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
    T, den = [0] * nvars, 1
    for v, pos, neg in reversed(stages):
        # row r bounds t_v by (r[-1] den - sum of r[k] T[k] over k > v) / (r[v] den)
        lo = hi = None
        for r in pos:
            b = (r[-1] * den - _dot(r[v + 1:-1], T[v + 1:]), r[v] * den)
            lo = b if lo is None or b[0] * lo[1] > lo[0] * b[1] else lo
        for r in neg:
            b = (_dot(r[v + 1:-1], T[v + 1:]) - r[-1] * den, -r[v] * den)
            hi = b if hi is None or b[0] * hi[1] < hi[0] * b[1] else hi
        if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
            return None  # only the last stage can be empty
        num, q = _between(lo, hi)
        if q > 1:  # a midpoint: T and it over one common denominator
            g = q // gcd(den, q)
            T, den = [x * g for x in T], den * g
        T[v] = num * (den // q)
    return T, den


def _step(planes, start, direction, signs) -> tuple[tuple[int, ...], int]:
    """start + direction / (k D) for the least k >= 1 keeping every nonzero sign
    on the rows `planes`: the exact ratio test along the segment (a zero has slope 0)."""
    X, D = start
    k = 1
    for j, s in enumerate(signs):
        plane = planes[j]
        slope = s * _dot(plane, direction)
        if slope < 0:
            k = max(k, -slope // (s * (_dot(plane, X) - plane[-1] * D)) + 1)
    return _reduced([k * x + d for x, d in zip(X, direction)], k * D)


def _walk_faces(A: Arrangement, cap: int):
    """Iterator of (signs, dim, witness) for every face, in 0 < + < - branch
    order; both budgets, the plane cap (an int, else ValueError) and then
    MAX_AMBIENT_DIM, are checked before anything is allocated. A face is
    relatively open in its flat, so that flat is where the hyperplanes of
    its zero entries meet, and has dimension dim. The witness (X, D) is the
    point X / D of the face, X integer and D > 0.

    Depth first over hyperplanes in input order. Each stacked partial face
    F, relatively open in its flat, carries a witness w: an exact point of F.
    At hyperplane H:
    - H contains F's flat (its chart row is zero): only 0, witness w.
    - F misses H (H is parallel to the flat, or w is off H and Fourier-Motzkin
      finds no point of F on H): only w's side, witness w.
    - Otherwise p is a point of F on H (w, or else Fourier-Motzkin's) and d
      crosses H towards + (a chart basis vector when p is w, else p - w):
      0 gets p; each side gets w if w is on it, else a point past p along +-d.
    Witnesses are integer vectors over a common denominator, and every
    step is sized by an exact ratio test, so no comparison is inexact.
    """
    if type(cap) is not int:
        raise ValueError(f"cap must be an int: {cap!r}")
    m = len(A.rows)
    if m > cap:
        raise CapExceeded(f"{m} hyperplanes exceeds the cap of {cap}; raise the cap to proceed")
    if A.ambient_dim > MAX_AMBIENT_DIM:
        raise CapExceeded(f"ambient dimension {A.ambient_dim} exceeds the face oracle's limit"
                          f" of {MAX_AMBIENT_DIM}")
    return _faces(A)


def _faces(A: Arrangement):
    """The walk of _walk_faces over a stack of partial faces (signs, chart,
    witness). Children are pushed in reverse, so they come off in 0, +, -
    order; at most two siblings wait per level, so faces stream. The root
    is the whole space, which every arrangement has; each chart keeps the
    charts its hyperplanes cut, so a cut is built once per parent."""
    n, planes = A.ambient_dim, A.rows
    stack = [((), _Chart.read(intersect(A, ()), n), ((0,) * n, 1))]
    while stack:
        signs, chart, w = stack.pop()
        i = len(signs)
        if i == len(planes):
            yield signs, len(chart.basis), w
            continue
        plane = planes[i]
        X, D = w
        if not any(chart.row(i, plane)[0]):
            cut, children = chart, ((0, w),)
        else:
            cut = chart.cut(i, plane)
            value = _dot(plane, X) - plane[-1] * D
            p = w if value == 0 else None
            if p is None and cut is not None:
                # a point of the cut strictly on side signs[j] of every hyperplane j with a nonzero sign
                rows = [cut.row(j, planes[j])[s] for j, s in enumerate(signs) if s]
                t = _fm_point(rows, len(cut.basis))
                p = cut.point(*t) if t else None
            if p is None:
                children = ((1 if value > 0 else -1, w),)
            else:
                # p is a point of the face on the plane; d crosses the plane, made to point to its + side
                P, Dp = p
                d = (next(b for b in chart.basis if _dot(plane, b)) if value == 0
                     else [a * D - b * Dp for a, b in zip(P, X)])
                if _dot(plane, d) < 0:
                    d = [-c for c in d]
                children = ((0, p), (1, w if value > 0 else _step(planes, p, d, signs)),
                            (-1, w if value < 0 else _step(planes, p, [-c for c in d], signs)))
        for s, point in reversed(children):
            stack.append(((*signs, s), cut if s == 0 else chart, point))


def enumerate_faces(A: Arrangement, cap: int = DEFAULT_CAP) -> list[tuple[tuple[int, ...], int, int]]:
    """Every face of A as a (signs, dim, flat id) triple, in deterministic
    order: a face's flat is the flat of A whose support is the face's zero set."""
    walk = _walk_faces(A, cap)
    L = build_lattice(A)
    by_support = dict(zip(L._supports, L._order))
    records = []
    for signs, dim, _ in walk:
        zero = [j for j, s in enumerate(signs) if s == 0]
        fid = by_support.get(sum(1 << j for j in zero))
        if fid is None:
            raise FlatNotInLattice(f"the lattice has no flat with support {zero}")
        records.append((signs, dim, fid))
    return records


def f_vector_oracle(A: Arrangement, cap: int = DEFAULT_CAP) -> list[int]:
    """Face counts (f_0, ..., f_n) by direct enumeration, no Möbius involved."""
    walk = _walk_faces(A, cap)
    f = [0] * (A.ambient_dim + 1)
    for _, dim, _ in walk:
        f[dim] += 1
    return f


def faces_to_json(records: list[tuple[tuple[int, ...], int, int]]) -> dict:
    """Report document: f-vector, up to the largest face dim, plus each (signs, dim, flat id) face."""
    f = [0] * (1 + max((dim for _, dim, _ in records), default=-1))
    for _, dim, _ in records:
        f[dim] += 1
    return {
        "f_vector": f,
        "faces": [
            {"signs": signs_to_string(signs), "dim": dim, "flat": fid}
            for signs, dim, fid in records
        ],
    }
