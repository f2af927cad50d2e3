"""Randomized invariants tying the Möbius side to the enumeration side."""

import re
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cutcount.cli import generate_arrangement, generate_wiring
from cutcount.errors import MissingMeet, NoMinimum, NotAPartialOrder, RankViolation, RepeatedCrossing
from cutcount.exactgeom import Arrangement, build_lattice, intersect
from cutcount.faces import (
    DEFAULT_CAP,
    _Chart,
    _fm_point,
    _walk_faces,
    enumerate_faces,
    f_vector_oracle,
    faces_to_json,
)
from cutcount.poset import (
    BiPolynomial,
    _validate_ids,
    f_from_mobius,
    mobius_polynomial,
    semilattice_from_json,
)
from cutcount.wiring import (
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    validate_wiring,
    wiring_from_json,
    wiring_to_json,
)
from reference import (
    canonical_row,
    chamber_count,
    chambers,
    equations,
    f_vector_from_semilattice,
    feasible,
    flat,
    flats_by_id,
    fm_point,
    interval,
    leq,
    maximal_flats,
    mobius,
    mobius_sum,
    polynomial_from_json,
    restrict,
    rref,
    semilattice_to_json,
    traces,
    upper_set,
    wiring_sweep,
)

coefficients = st.integers(-3, 3)


@st.composite
def plane_arrangements(draw, max_planes=4):
    """Small arrangements of rational lines, duplicates removed."""
    triples = draw(
        st.lists(
            st.tuples(coefficients, coefficients, coefficients).filter(
                lambda t: t[0] != 0 or t[1] != 0
            ),
            max_size=max_planes,
        )
    )
    return Arrangement(2, list(dict.fromkeys(map(canonical_row, triples))))


@st.composite
def space_arrangements(draw, max_planes=5):
    """Planes in R^3 with coefficients in -2..2: parallel classes, several
    planes through one point or line, central arrangements."""
    small = st.integers(-2, 2)
    rows = draw(
        st.lists(
            st.tuples(small, small, small, small).filter(lambda t: any(t[:3])),
            max_size=max_planes,
        )
    )
    return Arrangement(3, list(dict.fromkeys(map(canonical_row, rows))))


@st.composite
def affine_arrangements(draw, max_planes=5, dims=(2, 4)):
    """Hyperplanes in R^lo..R^hi, (lo, hi) = dims, with entries in -2..2.
    Normals come from a small drawn pool, so parallel classes are common, and
    some planes pass through one drawn centre, so several often meet in one
    point or line."""
    n = draw(st.integers(*dims))
    small = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[small] * n).filter(any), min_size=2, max_size=max_planes, unique=True))
    centre = draw(st.tuples(*[small] * n))
    through = draw(st.lists(st.sampled_from(pool), min_size=2, unique=True))
    rows = [(*a, sum(x * c for x, c in zip(a, centre))) for a in through]
    rows += [(*a, c) for a, c in draw(st.lists(st.tuples(st.sampled_from(pool), small), max_size=max_planes))]
    return Arrangement(n, list(dict.fromkeys(map(canonical_row, rows[:max_planes]))))


@st.composite
def wiring_diagrams(draw, max_wires=6, max_events=8):
    """Valid diagrams built by drawing applicable events until told to stop."""
    wires = draw(st.integers(1, max_wires))
    wanted = draw(st.integers(0, max_events))
    perm = list(range(wires))
    crossed = set()
    events = []

    def fresh(a, b):
        return (min(a, b), max(a, b)) not in crossed

    while len(events) < wanted:
        sizes = [(t, 2) for t in range(wires - 1) if fresh(perm[t], perm[t + 1])]
        sizes += [
            (t, 3)
            for t in range(wires - 2)
            if fresh(perm[t], perm[t + 1]) and fresh(perm[t], perm[t + 2])
            and fresh(perm[t + 1], perm[t + 2])
        ]
        if not sizes:
            break
        top, size = draw(st.sampled_from(sizes))
        group = perm[top: top + size]
        for i in range(size):
            for j in range(i + 1, size):
                crossed.add((min(group[i], group[j]), max(group[i], group[j])))
        perm[top: top + size] = reversed(group)
        events.append((top, size))
    return validate_wiring(WiringDiagram(wires, tuple(events)))


@given(plane_arrangements())
@settings(max_examples=60, deadline=None)
def test_oracle_agrees_with_transform(A):
    L = build_lattice(A)
    f = f_from_mobius(mobius_polynomial(L))
    direct = f_vector_oracle(A)
    assert [f.coefficient(2 - i) for i in range(3)] == direct
    assert f_vector_from_semilattice(L) == direct


@given(plane_arrangements())
@settings(max_examples=60, deadline=None)
def test_euler_relation(A):
    f = f_vector_oracle(A)
    assert f[0] - f[1] + f[2] == 1


@given(plane_arrangements())
@settings(max_examples=40, deadline=None)
def test_chambers_match_mobius_count(A):
    assert len(chambers(A)) == chamber_count(build_lattice(A))


@given(plane_arrangements(max_planes=5))
@settings(max_examples=30, deadline=None)
def test_pruned_walk_equals_exhaustive_search(A):
    walked = {signs for signs, _, _ in enumerate_faces(A)}
    brute = {
        s for s in product((1, 0, -1), repeat=len(A.rows)) if feasible(A, s)
    }
    assert walked == brute


@given(space_arrangements())
@settings(max_examples=60, deadline=None)
def test_space_walk_equals_exhaustive_search_and_mobius(A):
    walked = [signs for signs, _, _ in enumerate_faces(A)]
    # product over (0, 1, -1) runs in the walk's 0 < + < - order
    brute = [s for s in product((0, 1, -1), repeat=len(A.rows)) if feasible(A, s)]
    assert walked == brute
    L = build_lattice(A)
    f = f_from_mobius(mobius_polynomial(L))
    direct = f_vector_oracle(A)
    assert [f.coefficient(3 - i) for i in range(4)] == direct
    assert f_vector_from_semilattice(L) == direct


def assert_witnesses_certify(A):
    """Each face's witness is an exact point of that face: on every
    hyperplane it has the face's sign, and it solves the face's flat, the
    flat of its zero set, whose dimension is the face's and whose support
    is that zero set."""
    n = A.ambient_dim
    for signs, dim, (X, D) in _walk_faces(A, DEFAULT_CAP):
        zero = frozenset(j for j, s in enumerate(signs) if s == 0)
        face_flat = flat(A, zero)
        assert face_flat.dim == dim and face_flat.support == zero, signs
        assert D > 0
        w = [F(x, D) for x in X]
        for row, s in zip(A.rows, signs):
            value = sum(a * x for a, x in zip(row, w)) - row[-1]
            assert (value > 0) - (value < 0) == s, (signs, w)
        for eq in equations(face_flat.system):
            assert sum(a * x for a, x in zip(eq[:n], w)) == eq[n], (signs, w)


@given(plane_arrangements(max_planes=5) | space_arrangements())
@settings(max_examples=80, deadline=None)
def test_witnesses_certify_every_face(A):
    assert_witnesses_certify(A)


@given(affine_arrangements(dims=(5, 6)))
@settings(max_examples=60, deadline=None)
def test_witnesses_certify_every_face_in_higher_dimensions(A):
    # most of these draws put some witness on a plane that cuts its face's flat
    assert_witnesses_certify(A)


def test_witnesses_certify_every_face_of_the_acceptance_batch():
    for seed in range(200):
        assert_witnesses_certify(generate_arrangement(2 + seed % 2, 2 + seed % 5, 5, seed))


@given(plane_arrangements(max_planes=5) | space_arrangements() | affine_arrangements())
@settings(max_examples=100, deadline=None)
def test_face_flat_is_its_zero_set(A):
    # a face is relatively open in its flat, so the flat's support is the face's zero set
    by_id = flats_by_id(build_lattice(A))
    for signs, dim, fid in enumerate_faces(A):
        X = by_id[fid]
        assert X.support == frozenset(j for j, s in enumerate(signs) if s == 0), signs
        assert X.dim == dim, signs


@given(plane_arrangements(max_planes=5) | space_arrangements() | affine_arrangements())
@settings(max_examples=60, deadline=None)
def test_faces_document_names_one_flat_per_zero_set(A):
    # the `faces` document gives faces with one zero set one flat, and distinct
    # zero sets distinct flats; each flat of the lattice is named, with its dimension
    L = build_lattice(A)
    by_id = flats_by_id(L)
    doc = faces_to_json(enumerate_faces(A))
    flat_of = {}
    for face in doc["faces"]:
        zero = frozenset(j for j, c in enumerate(face["signs"]) if c == "0")
        assert flat_of.setdefault(zero, face["flat"]) == face["flat"], face
        assert by_id[face["flat"]].dim == face["dim"], face
    assert sorted(flat_of.values()) == sorted(set(flat_of.values())) == list(L.ids())
    assert doc["f_vector"] == f_vector_oracle(A)


@given(plane_arrangements(max_planes=5) | space_arrangements() | affine_arrangements())
# cuts that add two planes at once: within x = 0, y = 0 has chart row r, x = y has -r, x + y = 0 has r
@example(Arrangement(2, [(1, 0, 0), (0, 1, 0), (1, -1, 0)]))
@example(Arrangement(3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]))
@settings(max_examples=150, deadline=None)
def test_cut_charts_equal_intersect(A):
    # the walk cuts each chart from its parent by one elimination; intersect builds
    # the flat's echelon system from scratch. Depth first from the root chart, over
    # every plane whose chart row is nonzero, the cut must be a chart of that flat:
    # every equation holds at origin / scale and vanishes on each basis vector, and
    # the basis has full rank n - len(system). It must be kept coprime (scale > 0,
    # gcd(origin, scale) = 1, primitive basis vectors), and it is the chart read off
    # the system: the same point and the same basis. Each row is kept with its negation
    n, planes = A.ambient_dim, A.rows
    stack = [(frozenset(), _Chart.read(intersect(A, ()), n))]
    while stack:
        cuts, chart = stack.pop()
        for i, plane in enumerate(planes):
            signed = chart.row(i, plane)
            assert signed[0] == signed[1] and signed[-1] == tuple(-v for v in signed[1]), signed
            if not any(signed[0]):
                continue
            cut, system = chart.cut(i, plane), intersect(A, cuts | {i})
            assert (cut is None) == (system is None), sorted(cuts | {i})
            if cut is not None:
                where = sorted(cuts | {i})
                for _, (*a, b) in system:
                    assert sum(x * y for x, y in zip(a, cut.origin)) == b * cut.scale, where
                    assert not any(sum(x * y for x, y in zip(a, v)) for v in cut.basis), where
                assert len(cut.basis) == n - len(system), where
                assert rref([[F(x) for x in v] for v in cut.basis])[1] == len(cut.basis), where
                assert cut.scale > 0 and gcd(*cut.origin, cut.scale) == 1, where
                assert all(gcd(*v) == 1 for v in cut.basis), where
                read = _Chart.read(system, n)
                assert [F(x, cut.scale) for x in cut.origin] == [F(x, read.scale) for x in read.origin], where
                assert cut.basis == read.basis, where
                stack.append((cuts | {i}, cut))


@st.composite
def strict_systems(draw):
    """Rows (c..., r) of c . t > r: 0-3 variables, up to 6 rows, entries -4..4."""
    nvars = draw(st.integers(0, 3))
    entry = st.integers(-4, 4)
    return draw(st.lists(st.tuples(*[entry] * (nvars + 1)), max_size=6)), nvars


@given(strict_systems())
# midpoints: t = 1/2 in (1/3, 2/3); then 1/2 < s < 5/6 gives s = 2/3 over den 6
@example(([(3, 1), (-3, -2)], 1))
@example(([(0, 3, 1), (0, -3, -2), (1, -1, 0), (-3, 3, -1)], 2))
@settings(max_examples=400, deadline=None)
def test_integer_back_substitution_equals_fraction_reference(system):
    rows, nvars = system
    got, want = _fm_point(rows, nvars), fm_point(rows, nvars)
    assert (got is None) == (want is None)
    if got is not None:
        T, den = got
        assert den > 0 and all(type(x) is int for x in T)
        assert [F(x, den) for x in T] == want
        for *c, r in rows:
            assert sum(a * x for a, x in zip(c, T)) > r * den


def brute_force_lattice(A):
    """(equations, dim, support) per flat in id order, and the semilattice
    document: every subset of hyperplanes intersected through rref, flats
    deduplicated by equations, the order read off support containment."""
    n, m = A.ambient_dim, len(A.rows)
    rows = [[F(v) for v in row] for row in A.rows]
    supports = {}
    for k in range(m + 1):
        for subset in combinations(range(m), k):
            echelon, rank = rref([rows[j] for j in subset])
            equations = tuple(tuple(r) for r in echelon[:rank])
            if all(any(eq[:n]) for eq in equations):
                supports.setdefault(equations, set()).update(subset)
    flats = sorted(
        ((eqs, n - len(eqs), frozenset(support)) for eqs, support in supports.items()),
        key=lambda f: (n - f[1], sorted(f[2])),
    )
    doc = {
        "kind": "semilattice",
        "ambient_dim": n,
        "flats": [{"id": i, "dim": dim} for i, (_, dim, _) in enumerate(flats)],
        "leq": sorted(
            [a, b] for a, x in enumerate(flats) for b, y in enumerate(flats) if x[2] < y[2]
        ),
    }
    return flats, doc


@given(affine_arrangements())
# two parallel classes and three lines through the origin in R^2
@example(Arrangement(2, [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 2), (1, 1, 0)]))
@settings(max_examples=150, deadline=None)
def test_lattice_equals_brute_force(A):
    L = build_lattice(A)
    flats, doc = brute_force_lattice(A)
    assert [(equations(intersect(A, f.support)), f.dim, f.support) for f in map(flats_by_id(L).get, L.ids())] == flats
    assert semilattice_to_json(L) == doc


@given(affine_arrangements())
@settings(max_examples=100, deadline=None)
def test_flat_identity_is_its_system(A):
    """`flat` gives a lattice flat back its support and dimension, and an
    equal flat, with an equal hash, from the support in another order;
    distinct lattice flats give unequal flats."""
    L = build_lattice(A)
    flats = []
    for f in map(flats_by_id(L).get, L.ids()):
        X = flat(A, f.support)
        assert (X.support, X.dim) == (f.support, f.dim)
        again = flat(A, sorted(f.support, reverse=True))
        assert again == X and hash(again) == hash(X)
        flats.append(X)
    assert all(a != b for a, b in combinations(flats, 2))


@given(plane_arrangements(max_planes=5) | space_arrangements() | affine_arrangements(), st.data())
@settings(max_examples=100, deadline=None)
def test_intersect_is_the_flats_system(A, data):
    """intersect returns the system of the flat the tests build, None when the
    meet is empty, and () for the whole space: a falsy system, not None."""
    assert intersect(A, ()) == ()
    support = data.draw(st.sets(st.sampled_from(range(len(A.rows)))) if A.rows else st.just(set()))
    system, X = intersect(A, support), flat(A, support)
    assert (system is None) == (X is None)
    if X is not None:
        assert system == X.system and X.support >= support
        assert intersect(A, X.support) == system and X.dim == A.ambient_dim - len(system)


def pull_back(chart, equations):
    """A point and a basis of directions in R^n of the flat with these
    canonical equations in the chart's coordinates t, where
    x = origin / scale + sum_k t_k basis_k."""
    d = len(chart.basis)
    pivots = [next(c for c, v in enumerate(eq) if v) for eq in equations]
    t = [F(0)] * d
    for eq, p in zip(equations, pivots):
        t[p] = eq[d]
    moves = []
    for c in range(d):
        if c not in pivots:
            v = [F(0)] * d
            v[c] = F(1)
            for eq, p in zip(equations, pivots):
                v[p] = -eq[c]
            moves.append(v)

    def image(coords, origin):
        return [origin[i] + sum(tk * b[i] for tk, b in zip(coords, chart.basis)) for i in range(len(origin))]

    zero = [F(0)] * len(chart.origin)
    return image(t, [F(o, chart.scale) for o in chart.origin]), [image(v, zero) for v in moves]


@given(affine_arrangements())
@settings(max_examples=100, deadline=None)
def test_restrict_matches_upper_set_and_pulls_back(A):
    """At every flat X, restrict(A, X) and upper_set agree as ranked posets,
    and each flat of the restriction, carried back to R^n through X's
    chart, is a flat of A inside X: the flat of A with the support of its
    image and its dimension. Every flat inside X is hit once."""
    L = build_lattice(A)
    by_id = flats_by_id(L)
    for x in L.ids():
        X = flat(A, by_id[x].support)
        R, U = restrict(A, X), upper_set(L, x)
        assert sorted(f.dim for f in flats_by_id(R).values()) == sorted(f.dim for f in flats_by_id(U).values())
        assert mobius_polynomial(R) == mobius_polynomial(U)
        assert f_vector_from_semilattice(R) == f_vector_from_semilattice(U)
        if X.dim == 0:
            continue  # the restriction to a point is that point, in no chart
        chart, B = _Chart.read(X.system, A.ambient_dim), traces(A, X)
        by_support = {by_id[y].support: by_id[y] for y in L.above(x)}
        restricted = flats_by_id(R)
        images = []
        for r in R.ids():
            point, moves = pull_back(chart, equations(intersect(B, restricted[r].support)))
            support = frozenset(
                j for j, row in enumerate(A.rows)
                if sum(a * v for a, v in zip(row, point)) == row[-1]
                and not any(sum(a * v for a, v in zip(row, m)) for m in moves)
            )
            # the image lies in the flat of its support; equal dimension makes them one
            assert support in by_support and by_support[support].dim == restricted[r].dim
            images.append(support)
        assert sorted(images, key=sorted) == sorted(by_support, key=sorted)


@given(plane_arrangements(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_feasibility_invariant_under_reordering(A, rng):
    m = len(A.rows)
    order = list(range(m))
    rng.shuffle(order)
    shuffled = Arrangement(2, [A.rows[i] for i in order])
    for signs in product((1, 0, -1), repeat=min(m, 3)):
        padded = signs + (1,) * (m - len(signs))
        assert feasible(A, padded) == feasible(shuffled, tuple(padded[i] for i in order))


@given(plane_arrangements(max_planes=3), st.integers(1, 5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_scaling_a_hyperplane_changes_nothing(A, num, negate):
    if not A.rows:
        return
    scale = F(-num if negate else num)
    scaled = Arrangement(2, [
        tuple(scale * v for v in row) if i == 0 else row
        for i, row in enumerate(A.rows)
    ])
    assert scaled.rows == A.rows
    assert f_vector_oracle(scaled) == f_vector_oracle(A)


@given(wiring_diagrams())
@settings(max_examples=80, deadline=None)
def test_sweep_agrees_with_lattice(w):
    L = lattice_from_wiring(w)
    assert_maximal_rule(L)
    assert_rank_is_top_degree(L)
    assert list(sweep_f_vector(w)) == f_vector_from_semilattice(L)


@given(wiring_diagrams())
@settings(max_examples=60, deadline=None)
def test_sweep_euler(w):
    f0, f1, f2 = sweep_f_vector(w)
    assert f0 - f1 + f2 == 1


@given(wiring_diagrams())
@settings(max_examples=40, deadline=None)
def test_mirror_invariance(w):
    mirrored = validate_wiring(
        WiringDiagram(w.wires, tuple(reversed(w.events)))
    )
    assert sweep_f_vector(mirrored) == sweep_f_vector(w)


@given(st.integers(1, 10), st.integers(0, 45), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_wiring_order_is_the_closure_of_plane_wire_point(wires, crossings, seed):
    w = generate_wiring(wires, crossings, seed)
    points = range(1 + wires, 1 + wires + len(w.groups))
    covers = {(0, 1 + i) for i in range(wires)}
    covers |= {(1 + wire, p) for p, g in zip(points, w.groups) for wire in g}
    leq = set(covers)
    while True:
        longer = {(a, c) for a, b in leq for b2, c in covers if b == b2} - leq
        if not longer:
            break
        leq |= longer
    assert {(0, p) for p in points} <= leq
    assert semilattice_to_json(lattice_from_wiring(w))["leq"] == sorted(map(list, leq))


# None draws a full diagram, every pair of wires crossed
@given(st.integers(1, 30), st.none() | st.integers(0, 435), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_wiring_events_are_int_pairs_through_json(wires, crossings, seed):
    full = wires * (wires - 1) // 2
    w = generate_wiring(wires, full if crossings is None else min(crossings, full), seed)
    back = wiring_from_json(wiring_to_json(w))
    assert back.events == w.events
    for e in w.events + back.events:
        assert type(e) is tuple and len(e) == 2 and all(type(v) is int for v in e), e


def assert_maximal_rule(L):
    """Validation marks as maximal the flats with no given successor and
    counts the strict pairs over the other flats' rows: both must read the
    same off the whole order."""
    ids = L.ids()
    assert maximal_flats(L) == {x for x in ids if L.above(x) == [x]}
    assert L._strict == sum(len(L.above(x)) for x in ids) - len(ids)


def assert_rank_is_top_degree(L):
    """f_from_mobius reads the rank off M alone: M's largest x-degree is
    L.rank, and its x^rk y^0 coefficient, a sum of mu(X, X) = 1, counts the
    flats of rank rk."""
    M = mobius_polynomial(L)
    assert max(a for a, _ in M.terms) == L.rank
    assert M.coefficient(L.rank, 0) == L._ranks.count(L.rank) > 0


def assert_same_order_by_id(L):
    """L, built by position, equals its document read back through the id
    route; documents carry no supports, so the flats are compared without."""
    R = semilattice_from_json(semilattice_to_json(L))
    assert_maximal_rule(L)
    assert_rank_is_top_degree(L)
    assert_maximal_rule(R)
    assert (R._order, R._above, R._maximal, R._strict, R._ranks) == (
        L._order, L._above, L._maximal, L._strict, L._ranks)
    assert flats_by_id(R) == {x: f._replace(support=None) for x, f in flats_by_id(L).items()}
    assert mobius_polynomial(R) == mobius_polynomial(L)


# None draws a full diagram, every pair of wires crossed
@given(st.integers(1, 30), st.none() | st.integers(0, 435), st.integers(0, 10**6))
@example(30, None, 1)
@settings(max_examples=60, deadline=None)
def test_wiring_lattice_equals_its_document_by_id(wires, crossings, seed):
    full = wires * (wires - 1) // 2
    w = generate_wiring(wires, full if crossings is None else min(crossings, full), seed)
    assert_same_order_by_id(lattice_from_wiring(w))


@given(plane_arrangements(max_planes=5) | space_arrangements() | affine_arrangements())
@settings(max_examples=100, deadline=None)
def test_hyperplane_lattice_equals_its_document_by_id(A):
    assert_same_order_by_id(build_lattice(A))


@given(wiring_diagrams())
@settings(max_examples=40, deadline=None)
def test_mobius_recursion_on_wiring_lattices(w):
    L = lattice_from_wiring(w)
    for x in L.ids():
        for y in L.ids():
            if x != y and leq(L, x, y):
                assert sum(mobius(L, x, z) for z in interval(L, x, y)) == 0


@st.composite
def event_lists(draw):
    """(wires, events) with events of size 2-5 that fit the wires, valid or not."""
    wires = draw(st.integers(2, 8))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        size = draw(st.integers(2, min(5, wires)))
        events.append((draw(st.integers(0, wires - size)), size))
    return wires, events


@given(event_lists())
# wires 1 and 0 meet again at positions 0 and 2 of the last event
@example((3, [(0, 2), (1, 2), (0, 3)]))
# wires 0 and 1 meet again: two wires after two, three after two, two after three
@example((2, [(0, 2), (0, 2)]))
@example((3, [(0, 2), (0, 3)]))
@example((3, [(0, 3), (1, 2)]))
@settings(max_examples=400, deadline=None)
def test_validate_wiring_matches_crossed_pair_reference(case):
    wires, events = case
    try:
        expected = wiring_sweep(wires, events)
    except ValueError as exc:
        try:
            WiringDiagram(wires, events)
        except RepeatedCrossing as got:
            assert str(got) == str(exc)
            event("RepeatedCrossing")
            return
        raise AssertionError(f"no RepeatedCrossing: {exc}")
    assert WiringDiagram(wires, events).groups == expected


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-50, 50),
        max_size=8,
    )
)
def test_bipolynomial_json_round_trip(terms):
    p = BiPolynomial(terms)
    assert polynomial_from_json(p.to_json()) == p


@st.composite
def relations(draw):
    """(ambient, dims, pairs) on 1-7 flats: mostly ranked orders with flat 0
    at the bottom, mixed with cycles, rank clashes, extra minima and pairs
    of flats without a meet."""
    size = draw(st.integers(1, 7))
    ambient = draw(st.integers(0, 3))
    dims = [ambient] + [draw(st.integers(0, max(ambient - 1, 0))) for _ in range(size - 1)]
    pairs = []
    for b in range(1, size):
        pairs += [(a, b) for a in range(size) if dims[a] > dims[b] and draw(st.booleans())]
    if draw(st.integers(0, 3)) == 0:
        flat = st.integers(0, size - 1)
        pairs += draw(st.lists(st.tuples(flat, flat), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) > 0:
        pairs += [(0, b) for b in range(1, size)]
    return ambient, dims, pairs


def brute_order(size, pairs):
    """Reflexive-transitive closure as a set of (lower, upper) pairs."""
    leq = {(a, a) for a in range(size)} | set(pairs)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if (i, k) in leq and (k, j) in leq:
                    leq.add((i, j))
    return leq


@st.composite
def sparse_relations(draw):
    """(3, dims, pairs) on 8-16 flats: flat 0 at the bottom, the rest in small
    disjoint clusters, so that pairs sharing an upper bound stay under a
    third of all pairs. Often two tops over the same two middles have no
    meet; when those tops are lines, an unrelated point sits above them in
    rank. Ids are shuffled at the end."""
    size = draw(st.integers(8, 16))
    # pairs sharing an upper bound, the minimum's aside, that keep it sparse
    budget = -(-size * (size - 1) // 6) - size
    dims = [3]
    pairs = []

    def add(dim):
        dims.append(dim)
        pairs.append((0, len(dims) - 1))
        return len(dims) - 1

    if size >= 11 and draw(st.booleans()):
        top = draw(st.integers(0, 1))
        m1, m2, t1, t2 = add(top + 1), add(top + 1), add(top), add(top)
        pairs += [(m, t) for m in (m1, m2) for t in (t1, t2)]
        budget -= 5
        if top:
            pairs.append((add(draw(st.integers(1, 2))), add(0)))
            budget -= 1
    while len(dims) < size:
        room = size - len(dims)
        kind = draw(st.sampled_from(["single", "chain", "vee"]))
        if kind == "vee" and room >= 3 and budget >= 3:
            dim = draw(st.integers(1, 2))
            a1, a2, t = add(dim), add(dim), add(draw(st.integers(0, dim - 1)))
            pairs += [(a1, t), (a2, t)]
            budget -= 3
        elif kind == "chain" and room >= 2 and budget >= 1:
            dim = draw(st.integers(1, 2))
            pairs.append((add(dim), add(draw(st.integers(0, dim - 1)))))
            budget -= 1
        else:
            add(draw(st.integers(0, 2)))
    label = draw(st.permutations(range(size)))
    return 3, [dims[label.index(i)] for i in range(size)], [(label[a], label[b]) for a, b in pairs]


@st.composite
def pencil_relations(draw):
    """(2, dims, pairs): the plane, 8-10 lines and 1-4 points, each line on
    one or two of the points, and sometimes every line on the last point as
    well. Each line's up-set holds at most 3 flats, so the C(k, 2) pairs of
    the plane's k lines outnumber the flats above them, and the meet check
    reaches each line's partners through down-sets. Two lines on the same
    two points have no meet. Ids are shuffled at the end."""
    k = draw(st.integers(8, 10))
    points = range(k + 1, k + 1 + draw(st.integers(1, 4)))
    cone = draw(st.booleans())
    pairs = [(0, b) for b in [*range(1, k + 1), *points]]
    for line in range(1, k + 1):
        on = draw(st.sets(st.sampled_from(points), min_size=1, max_size=2 - cone))
        if cone:
            on.add(points[-1])
        pairs += [(line, p) for p in on]
    dims = [2] + [1] * k + [0] * len(points)
    label = draw(st.permutations(range(len(dims))))
    return 2, [dims[label.index(i)] for i in range(len(dims))], [(label[a], label[b]) for a, b in pairs]


def brute_failure(ambient, dims, pairs, leq):
    """The (class, message) of the first order check an input fails, or None:
    the first given pair of distinct flats whose dimension does not fall,
    then the minimum checks."""
    for a, b in pairs:
        if a != b and dims[a] <= dims[b]:
            if (b, a) in leq:
                return NotAPartialOrder, f"flats {a} and {b} are mutually comparable"
            return RankViolation, f"flat {a} < flat {b} but dimensions are {dims[a]} <= {dims[b]}"
    # every given pair drops in dimension, so every pair of the closure does:
    # the order is antisymmetric and strictly graded
    assert all(x == y or dims[x] > dims[y] for x, y in leq)
    flats = range(len(dims))
    bottoms = [m for m in flats if all((m, z) in leq for z in flats)]
    if not bottoms:
        return NoMinimum, "no flat lies below every other flat"
    if dims[bottoms[0]] != ambient:
        return RankViolation, (f"minimum flat {bottoms[0]} has dimension {dims[bottoms[0]]},"
                               f" expected the ambient {ambient}")
    return None


def check_against_brute_force(relation):
    """Validation, every error message and Möbius values against a
    brute-force order; returns whether the order passes every check but
    the meet check."""
    ambient, dims, pairs = relation
    size = len(dims)
    flats = range(size)
    leq = brute_order(size, pairs)
    failure = brute_failure(ambient, dims, pairs, leq)

    def has_meet(a, b):
        lower = [c for c in flats if (c, a) in leq and (c, b) in leq]
        return any(all((c, g) in leq for c in lower) for g in lower)

    def minimal_upper_bounds(c, d):
        upper = [z for z in flats if (c, z) in leq and (d, z) in leq]
        return {z for z in upper if not any(w != z and (w, z) in leq for w in upper)}

    meets = all(has_meet(a, b) for a in flats for b in flats)
    try:
        L = _validate_ids(ambient, [*enumerate(dims)], pairs)
    except MissingMeet as exc:
        assert failure is None and not meets
        found = re.fullmatch(
            r"flats (\d+) and (\d+) have no greatest lower bound:"
            r" both are minimal above (\d+) and (\d+)", str(exc))
        assert found, str(exc)
        u1, u2, c, d = map(int, found.groups())
        assert u1 != u2 and {u1, u2} <= minimal_upper_bounds(c, d)
        assert not has_meet(u1, u2)
        event("MissingMeet")
        return True
    except (NoMinimum, NotAPartialOrder, RankViolation) as exc:
        assert (type(exc), str(exc)) == failure
        return False
    assert failure is None and meets
    event("meet-semilattice")
    assert_maximal_rule(L)
    assert_rank_is_top_degree(L)

    def by_rank(zs):
        return sorted(zs, key=lambda z: (ambient - dims[z], z))

    mu = {}
    for x in flats:
        assert L.above(x) == by_rank(z for z in flats if (x, z) in leq)
        for y in by_rank(flats):
            between = by_rank(z for z in flats if (x, z) in leq and (z, y) in leq)
            assert interval(L, x, y) == between
            if x == y:
                mu[x, y] = 1
            elif (x, y) in leq:
                mu[x, y] = -sum(mu[x, z] for z in between if z != y)
            else:
                mu[x, y] = 0
            assert mobius(L, x, y) == mu[x, y]
    # the library's one Möbius route, against the brute-force values
    assert mobius_polynomial(L) == mobius_sum(mu, {z: ambient - dims[z] for z in flats})
    return True


@given(relations())
# two points on the same two lines: the points have no meet
@example((2, [2, 1, 1, 0, 0], [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
# flat 1 is mutually comparable with 2 and with 3; 2 comes first
@example((2, [2, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)]))
# point 2 and line 3 lie below line 1; 3 comes first, by rank
@example((2, [2, 1, 0, 1], [(0, 1), (0, 2), (0, 3), (2, 1), (3, 1)]))
# a valid order given by its cover pairs alone, listed from the top down:
# line 3 lies on planes 2 and 1, and point 4 on line 3
@example((3, [3, 2, 2, 1, 0], [(3, 4), (2, 3), (1, 3), (0, 2), (0, 1)]))
# the one backward pair (2, 0) closes a cycle through ranks 0, 1 and 2:
# "flats 1 and 0 are mutually comparable"
@example((2, [2, 1, 0], [(0, 1), (1, 2), (2, 0)]))
# a forward pair between two lines and no cycle: it does not rise in rank,
# so the strict-dimension scan runs and names line 1 below line 2
@example((2, [2, 1, 1], [(0, 1), (0, 2), (1, 2)]))
# a reflexive pair does not count as a failure to rise: the order is valid
@example((2, [2, 1, 0], [(0, 1), (1, 1), (1, 2)]))
# lines 1 and 2 of the same dimension form a cycle: antisymmetry fails
# before the strict-dimension scan
@example((2, [2, 1, 1, 0], [(0, 1), (1, 2), (2, 1), (2, 3)]))
# lines 1 and 5 share points 2 and 3, and the plane is given as its own
# successor: the meet check must not count it among its successors
@example((2, [2, 1, 0, 0, 0, 1], [(0, 1), (1, 2), (5, 2), (1, 3), (5, 3), (5, 4), (0, 5), (0, 0)]))
# lines 2 and 3 on plane 1 meet in points 4 and 5: the one failing pair of
# covers lies above plane 1, not above the minimum
@example((3, [3, 2, 1, 1, 0, 0], [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]))
# every order pair given, (1, 3) twice, and reflexive pairs on the plane and
# on both maximal flats: point 3 and line 4 have no successor all the same
@example((2, [2, 1, 1, 0, 1], [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (1, 3), (0, 0), (3, 3), (4, 4)]))
@settings(max_examples=600, deadline=None)
def test_validation_and_mobius_match_brute_force(relation):
    check_against_brute_force(relation)


# sparse orders mostly take the direct pair test, as most of their clusters'
# atoms are maximal; test_pencil_orders_take_the_reach_route covers the reach route
@given(sparse_relations())
# two lines over the same two planes, and a point above an unrelated plane
@example((3, [3, 2, 2, 1, 1, 2, 0, 2, 2, 2, 2],
          [(0, b) for b in range(1, 11)] + [(1, 3), (1, 4), (2, 3), (2, 4), (5, 6)]))
@settings(max_examples=300, deadline=None)
def test_sparse_orders_match_brute_force(relation):
    assert check_against_brute_force(relation)


@given(pencil_relations())
@settings(max_examples=300, deadline=None)
def test_pencil_orders_take_the_reach_route(relation):
    assert check_against_brute_force(relation)
