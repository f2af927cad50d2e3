"""Acceptance suite: eight checks, each reporting one pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time

import pytest

from cutcount.cli import generate_arrangement, generate_wiring
from cutcount.exactgeom import Arrangement, build_lattice
from cutcount.faces import f_vector_oracle
from cutcount.poset import (
    BiPolynomial,
    f_from_mobius,
    mobius_polynomial,
)
from cutcount.wiring import (
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    validate_wiring,
)
from reference import chamber_count, chambers, f_vector_from_semilattice, interval, leq, mobius_row, mobius_sum, rank_of


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def realizable_batch():
    """200 seeded arrangements with both face-count pipelines, timed."""
    instances = []
    start = time.perf_counter()
    for seed in range(200):
        dim = 2 + seed % 2
        count = 2 + seed % 5
        A = generate_arrangement(dim, count, 5, seed)
        L = build_lattice(A)
        f = f_from_mobius(mobius_polynomial(L))
        theorem = [f.coefficient(dim - i) for i in range(dim + 1)]
        direct = f_vector_oracle(A)
        instances.append((A, L, direct, theorem))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def wiring_batch():
    """100 seeded wiring diagrams with both pipelines, timed."""
    instances = []
    start = time.perf_counter()
    for seed in range(100):
        wires = 2 + seed % 6
        w = generate_wiring(wires, wires * (wires - 1) // 2, seed)
        L = lattice_from_wiring(w)
        instances.append((w, L, list(sweep_f_vector(w)), f_vector_from_semilattice(L)))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def generic_family():
    """Generic lines y = 2ix - i^2 (tangents to a parabola): no two are
    parallel and no three meet, for any number of lines."""
    family = []
    for m in range(1, 7):
        planes = [(2 * i, -1, i * i) for i in range(1, m + 1)]
        A = Arrangement(2, planes)
        family.append((m, A, build_lattice(A)))
    return family


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_1_printed_example_transform():
    M = BiPolynomial({(2, 0): 5, (0, 2): 1, (1, 1): 9, (1, 0): -11, (0, 1): -9, (0, 0): 6})
    best = min(
        _timed(lambda: f_from_mobius(M))[1] for _ in range(200)
    )
    f = f_from_mobius(M)
    exact = f.terms == {(2, 0): 5, (1, 0): 20, (0, 0): 16}
    report(1, exact and best < 0.001,
           f"transform gives {f} in {best * 1e6:.0f}us (need 5x^2 + 20x + 16, < 1ms)")


def test_criterion_2_realizable_equivalence(realizable_batch):
    instances, elapsed = realizable_batch
    bad = [i for i, (_, _, direct, theorem) in enumerate(instances) if direct != theorem]
    report(2, not bad and elapsed < 60,
           f"200 arrangements, {len(bad)} mismatches, {elapsed:.1f}s (need 0, < 60s)")


def test_criterion_3_pseudoline_equivalence(wiring_batch):
    instances, elapsed = wiring_batch
    bad = [i for i, (_, _, sweep, lattice) in enumerate(instances) if sweep != lattice]
    report(3, not bad and elapsed < 10,
           f"100 wiring diagrams, {len(bad)} mismatches, {elapsed:.1f}s (need 0, < 10s)")


def test_criterion_4_generic_closed_form(generic_family):
    ok = True
    for m, A, L in generic_family:
        expected = [m * (m - 1) // 2, m * m, 1 + m + m * (m - 1) // 2]
        if f_vector_oracle(A) != expected or f_vector_from_semilattice(L) != expected:
            ok = False
    report(4, ok, "m = 1..6 generic lines hit (C(m,2), m^2, 1 + m + C(m,2)) on both sides")


def test_criterion_5_euler_relation(realizable_batch, wiring_batch, generic_family):
    vectors = [(A.ambient_dim, direct) for A, _, direct, _ in realizable_batch[0]]
    vectors += [(2, sweep) for _, _, sweep, _ in wiring_batch[0]]
    vectors += [(2, f_vector_from_semilattice(L)) for _, _, L in generic_family]
    bad = [
        (n, f) for n, f in vectors
        if sum((-1) ** i * c for i, c in enumerate(f)) != (-1) ** n
    ]
    report(5, not bad, f"Euler relation on {len(vectors)} instances, {len(bad)} violations")


def test_criterion_6_chamber_corollary(realizable_batch):
    bad = 0
    for A, L, _, _ in realizable_batch[0]:
        if len(chambers(A)) != chamber_count(L):
            bad += 1
    report(6, bad == 0, f"chamber count vs nonzero sign vectors on 200 instances, {bad} mismatches")


def test_criterion_7_mobius_recursion(realizable_batch, wiring_batch):
    lattices = [L for _, L, _, _ in realizable_batch[0]]
    lattices += [L for _, L, _, _ in wiring_batch[0]]
    checked = bad = unequal = 0
    for L in lattices:
        # one reference row per flat, and the library's polynomial against their sum
        mu = {x: mobius_row(L, x) for x in L.ids()}
        for x in L.ids():
            for y in L.ids():
                if x != y and leq(L, x, y):
                    checked += 1
                    if sum(mu[x][z] for z in interval(L, x, y)) != 0:
                        bad += 1
        pairs = {(x, y): v for x, row in mu.items() for y, v in row.items()}
        if mobius_polynomial(L) != mobius_sum(pairs, {z: rank_of(L, z) for z in L.ids()}):
            unequal += 1
    report(7, bad == 0 and unequal == 0,
           f"interval sums on {len(lattices)} lattices ({checked} pairs), {bad} nonzero;"
           f" {unequal} Möbius polynomials unequal to the reference sum")


def test_criterion_8_cross_family_consistency():
    rational = Arrangement(2, [
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 1),
    ])
    wired = validate_wiring(WiringDiagram(3, ((0, 2), (1, 2), (0, 2))))
    L_rat = build_lattice(rational)
    L_wire = lattice_from_wiring(wired)
    same_terms = mobius_polynomial(L_rat).terms == mobius_polynomial(L_wire).terms
    f_rat = f_vector_from_semilattice(L_rat)
    f_wire = f_vector_from_semilattice(L_wire)
    report(8, same_terms and f_rat == f_wire == [3, 9, 7],
           f"3 generic lines vs 3-wire diagram: terms equal = {same_terms}, f = {f_rat} / {f_wire}")
