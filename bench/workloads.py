"""Seeded input documents for the benchmark and an output reference that
does not use cutcount.

The generators repeat the draws of `cutcount.cli.generate_arrangement` and
`generate_wiring` in the benchmark's own code, so that a change to the
program cannot change the benchmark's inputs. Documents are written in the
canonical form `arrangement_to_json` and `wiring_to_json` produce.

The reference gives the f-vector of a document without cutcount:

* a wiring diagram has f0 = #events, f1 = n + sum(size) and
  f2 = 1 + n + sum(size - 1);
* a hyperplane arrangement in general position, decided by exact
  determinants, has Buck's f_k = C(m, d-k) * sum_{i<=k} C(m-d+k, i).

Arrangements not in general position have no closed form here; for them the
benchmark relies on `verify`'s own cross-check (`match` and `euler_check`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class Doc:
    """One input document: its `verify` argument file body and its expected
    f-vector, or None when only `verify`'s cross-check can judge it."""

    name: str
    body: dict
    expected: tuple[int, ...] | None


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def draw_arrangement(dim: int, count: int, bound: int, seed: int) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The planes `generate_arrangement(dim, count, bound, seed)` draws, each
    scaled so its first nonzero normal entry is 1."""
    rng = random.Random(seed)
    planes: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()
    while len(planes) < count:
        normal = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(dim)
        )
        if not any(normal):
            continue
        offset = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        lead = next(v for v in normal if v)
        plane = (tuple(v / lead for v in normal), offset / lead)
        if plane in seen:
            continue
        seen.add(plane)
        planes.append(plane)
    return planes


def draw_wiring(wires: int, crossings: int, seed: int) -> list[tuple[int, int]]:
    """The (top, size) events `generate_wiring(wires, crossings, seed)` draws."""
    rng = random.Random(seed)
    perm = list(range(wires))
    crossed: set[tuple[int, int]] = set()
    events: list[tuple[int, int]] = []

    def fresh(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in crossed

    while len(events) < crossings:
        simple = [t for t in range(wires - 1) if fresh(perm[t], perm[t + 1])]
        triple = [
            t
            for t in range(wires - 2)
            if fresh(perm[t], perm[t + 1])
            and fresh(perm[t], perm[t + 2])
            and fresh(perm[t + 1], perm[t + 2])
        ]
        if not simple and not triple:
            break
        if triple and (not simple or rng.random() < 0.15):
            top, size = rng.choice(triple), 3
        else:
            top, size = rng.choice(simple), 2
        group = perm[top: top + size]
        for a, b in combinations(group, 2):
            crossed.add((min(a, b), max(a, b)))
        perm[top: top + size] = reversed(group)
        events.append((top, size))
    return events


def _det(matrix: list[list[Fraction]]) -> Fraction:
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def in_general_position(dim: int, planes) -> bool:
    """Every k <= dim normals are independent and no dim + 1 planes share a
    point, decided by exact determinants."""
    m = len(planes)
    k = min(m, dim)
    for subset in combinations(planes, k):
        normals = [list(p[0]) for p in subset]
        gram = [[sum(a * b for a, b in zip(u, v)) for v in normals] for u in normals]
        if not _det(gram):
            return False
    for subset in combinations(planes, dim + 1):
        if not _det([[*p[0], p[1]] for p in subset]):
            return False
    return True


def _c(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def buck_f_vector(dim: int, m: int) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_dim) of m planes in general position in R^dim."""
    return tuple(
        _c(m, dim - k) * sum(_c(m - dim + k, i) for i in range(k + 1))
        for k in range(dim + 1)
    )


def wiring_f_vector(wires: int, events: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Vertices, edges and regions of a wiring diagram, from its events."""
    return (
        len(events),
        wires + sum(size for _, size in events),
        1 + wires + sum(size - 1 for _, size in events),
    )


def arrangement_doc(dim: int, count: int, bound: int, seed: int) -> Doc:
    planes = draw_arrangement(dim, count, bound, seed)
    body = {
        "kind": "hyperplanes",
        "ambient_dim": dim,
        "hyperplanes": [
            {"normal": [_fmt(v) for v in normal], "offset": _fmt(offset)}
            for normal, offset in planes
        ],
    }
    expected = buck_f_vector(dim, count) if in_general_position(dim, planes) else None
    return Doc(f"hyperplanes d={dim} m={count} seed={seed}", body, expected)


def wiring_doc(wires: int, seed: int) -> Doc:
    events = draw_wiring(wires, wires * (wires - 1) // 2, seed)
    body = {
        "kind": "wiring",
        "wires": wires,
        "events": [{"top": top, "size": size} for top, size in events],
    }
    return Doc(f"wiring n={wires} seed={seed}", body, wiring_f_vector(wires, events))


@dataclass(frozen=True)
class Workload:
    """A seeded document pool plus what the trace must show on it.

    The timed loop cycles through `pool`; the traced run takes each
    document once, so its counts do not depend on timing.
    `tail_percentile` is the highest percentile with at least ten timed
    documents beyond it in a run of the length BENCHMARK.json sets.
    `bypassed` lists wrapped functions the workload must never call; every
    other wrapped function must be called at least once.
    """

    pool: list[Doc]
    tail_percentile: int
    bypassed: frozenset[str]


def realizable_batch(seed: int) -> Workload:
    """The acceptance corpus shifted by the seed: 200 arrangements
    generate_arrangement(2 + s % 2, 2 + s % 5, 5, s) and 100 full wiring
    diagrams of 2 + s % 6 wires. Seed 0 is the acceptance corpus itself."""
    docs = [arrangement_doc(2 + s % 2, 2 + s % 5, 5, s) for s in range(200 * seed, 200 * seed + 200)]
    docs += [wiring_doc(2 + s % 6, s) for s in range(100 * seed, 100 * seed + 100)]
    # a time-bounded run ends part way through a pass; shuffling keeps that
    # last partial pass a fair sample of both document kinds
    random.Random(seed).shuffle(docs)
    return Workload(docs, 98, frozenset())


def wiring_full(seed: int) -> Workload:
    """Full wiring diagrams of 50..60 wires, one of each size. The timed
    loop cycles through them; sizes pair up around 55 so that the partial
    cycle a time-bounded run ends on has the same mean size as a whole one."""
    sizes = (55, 50, 60, 51, 59, 52, 58, 53, 57, 54, 56)
    docs = [wiring_doc(n, 1000 * seed + i) for i, n in enumerate(sizes)]
    bypassed = frozenset({
        "cli.build_lattice", "cli.f_vector_oracle",
        "exactgeom.intersect", "exactgeom.validate_semilattice", "faces.intersect",
    })
    return Workload(docs, 60, bypassed)


WORKLOADS = {"realizable-batch": realizable_batch, "wiring-full": wiring_full}


def check_verify(doc: Doc, exit_code: int, output: str) -> str | None:
    """Why a `verify --json` result is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(output)
        terms = report["f_poly_theorem"]["terms"]
        direct = tuple(report["f_vector_direct"])
        match, euler = report["match"], report["euler_check"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    n = len(direct) - 1
    theorem = [0] * (n + 1)
    for t in terms:
        if t["y"] != 0 or not 0 <= t["x"] <= n:
            return f"face polynomial has a term x^{t['x']} y^{t['y']}"
        theorem[n - t["x"]] = int(t["coeff"])
    if match is not True or euler is not True:
        return f"match={match} euler_check={euler}"
    if tuple(theorem) != direct:
        return f"theorem {theorem} != direct {list(direct)} despite match"
    if doc.expected is not None and direct != doc.expected:
        return f"f-vector {list(direct)} != reference {list(doc.expected)}"
    return None
