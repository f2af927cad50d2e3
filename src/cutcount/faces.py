"""Face enumeration for rational hyperplane arrangements via sign vectors.

Every face is the solution set of one sign assignment: equalities on the
zero entries, strict inequalities elsewhere. Feasibility is decided
exactly, so the resulting f-vector is ground truth the Möbius side of the
package can be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, DimensionMismatch
from .exactgeom import Arrangement, _dot, build_lattice, flat_parametrization, intersect
from .poset import Semilattice

DEFAULT_CAP = 12

_CHAR = {1: "+", 0: "0", -1: "-"}


def signs_to_string(signs: tuple[int, ...]) -> str:
    """Render (+1, 0, -1) entries as the string "+0-"."""
    return "".join(_CHAR[s] for s in signs)


def signs_from_string(text: str) -> tuple[int, ...]:
    """Inverse of signs_to_string; raises on characters outside +0-."""
    table = {"+": 1, "0": 0, "-": -1}
    try:
        return tuple(table[c] for c in text)
    except KeyError:
        raise ValueError(f"sign string may only contain + 0 -: {text!r}") from None


@dataclass(frozen=True)
class FaceRecord:
    """One face: its sign vector, dimension, and zero-set flat id."""

    signs: tuple[int, ...]
    dim: int
    flat_id: int


def _strict_feasible(rows: list[tuple[tuple[Fraction, ...], Fraction]], nvars: int) -> bool:
    # decide {coeffs . t > rhs for each row} by Fourier-Motzkin elimination;
    # every row is strict, so a constant row 0 > rhs fails iff rhs >= 0
    def settle(rs):
        keep = []
        for coeffs, rhs in rs:
            if any(coeffs):
                keep.append((coeffs, rhs))
            elif rhs >= 0:
                return None
        return keep

    live = settle(rows)
    if live is None:
        return False
    for v in range(nvars):
        if not live:
            return True
        pos = [r for r in live if r[0][v] > 0]
        neg = [r for r in live if r[0][v] < 0]
        combined = [r for r in live if r[0][v] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                a, b = -cn[v], cp[v]
                combined.append(
                    (tuple(a * x + b * y for x, y in zip(cp, cn)), a * bp + b * bn)
                )
        live = settle(combined)
        if live is None:
            return False
    return not live


class _Feasibility:
    """Sign-system feasibility against one arrangement, with flat caching."""

    def __init__(self, A: Arrangement) -> None:
        self.A = A
        self._flats: dict[frozenset[int], object] = {}
        self._params: dict = {}

    def flat_of(self, zero: frozenset[int]):
        if zero not in self._flats:
            self._flats[zero] = intersect(self.A, zero)
        return self._flats[zero]

    def holds(self, assigned: dict[int, int], zero: frozenset[int]) -> bool:
        flat = self.flat_of(zero)
        if flat is None:
            return False
        if flat.equations not in self._params:
            self._params[flat.equations] = flat_parametrization(
                flat.equations, self.A.ambient_dim
            )
        x0, basis = self._params[flat.equations]
        rows = []
        for j, s in assigned.items():
            if s == 0:
                continue
            h = self.A.hyperplanes[j]
            coeffs = tuple(_dot(h.normal, vec) for vec in basis)
            rhs = h.offset - _dot(h.normal, x0)
            if s < 0:
                coeffs = tuple(-c for c in coeffs)
                rhs = -rhs
            rows.append((coeffs, rhs))
        return _strict_feasible(rows, flat.dim)


def feasible(A: Arrangement, signs: tuple[int, ...]) -> bool:
    """Exact emptiness test for one total sign assignment."""
    if len(signs) != len(A.hyperplanes):
        raise DimensionMismatch(
            f"sign vector has {len(signs)} entries for {len(A.hyperplanes)} hyperplanes"
        )
    zero = frozenset(j for j, s in enumerate(signs) if s == 0)
    return _Feasibility(A).holds(dict(enumerate(signs)), zero)


def _walk_faces(A: Arrangement, cap: int):
    """Yield (signs, zero_flat) for every face, in 0 < + < - branch order.

    Depth-first over hyperplanes in input order; a partial assignment is
    abandoned as soon as its system is infeasible, which keeps the walk
    near-linear in the number of actual faces.
    """
    m = len(A.hyperplanes)
    if m > cap:
        raise CapExceeded(f"{m} hyperplanes exceeds the cap of {cap}; raise the cap to proceed")
    fz = _Feasibility(A)
    assigned: dict[int, int] = {}

    def rec(i: int, zero: frozenset[int]):
        if i == m:
            yield tuple(assigned[j] for j in range(m)), fz.flat_of(zero)
            return
        for s in (0, 1, -1):
            assigned[i] = s
            nzero = zero | {i} if s == 0 else zero
            if fz.holds(assigned, nzero):
                yield from rec(i + 1, nzero)
            del assigned[i]

    yield from rec(0, frozenset())


def enumerate_faces(
    A: Arrangement, lattice: Semilattice | None = None, cap: int = DEFAULT_CAP
) -> list[FaceRecord]:
    """All faces of A with dimensions and flat ids, in deterministic order."""
    L = lattice if lattice is not None else build_lattice(A)
    by_equations = {L.flats[fid].payload.equations: fid for fid in L.ids()}
    records = []
    for signs, flat in _walk_faces(A, cap):
        records.append(FaceRecord(signs, flat.dim, by_equations[flat.equations]))
    return records


def f_vector_oracle(A: Arrangement, cap: int = DEFAULT_CAP) -> list[int]:
    """Face counts (f_0, ..., f_n) by direct enumeration, no Möbius involved."""
    f = [0] * (A.ambient_dim + 1)
    for _, flat in _walk_faces(A, cap):
        f[flat.dim] += 1
    return f


def chambers(A: Arrangement, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Sign vectors of the full-dimensional faces (no zero entries)."""
    return [signs for signs, _ in _walk_faces(A, cap) if all(signs)]


def faces_to_json(A: Arrangement, records: list[FaceRecord]) -> dict:
    """Report document: f-vector plus one entry per face."""
    f = [0] * (A.ambient_dim + 1)
    for r in records:
        f[r.dim] += 1
    return {
        "f_vector": f,
        "faces": [
            {"signs": signs_to_string(r.signs), "dim": r.dim, "flat": r.flat_id}
            for r in records
        ],
    }
