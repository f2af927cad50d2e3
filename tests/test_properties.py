"""Randomized invariants tying the Möbius side to the enumeration side."""

import re
from fractions import Fraction as F
from itertools import combinations, product

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cutcount.cli import generate_arrangement
from cutcount.errors import MissingMeet, NoMinimum, NotAPartialOrder, RankViolation
from cutcount.exactgeom import Arrangement, Hyperplane, _Chart, build_lattice, restrict
from cutcount.faces import DEFAULT_CAP, _walk_faces, chambers, enumerate_faces, f_vector_oracle, feasible
from cutcount.poset import (
    BiPolynomial,
    Flat,
    chamber_count,
    f_from_mobius,
    f_vector_from_semilattice,
    mobius,
    mobius_polynomial,
    semilattice_to_json,
    upper_set,
    validate_semilattice,
)
from cutcount.wiring import (
    CrossingEvent,
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    validate_wiring,
)
from reference import rref

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
    planes, seen = [], set()
    for a, b, c in triples:
        h = Hyperplane((F(a), F(b)), F(c))
        if h not in seen:
            seen.add(h)
            planes.append(h)
    return Arrangement(2, planes)


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
    planes, seen = [], set()
    for *normal, offset in rows:
        h = Hyperplane(tuple(F(v) for v in normal), F(offset))
        if h not in seen:
            seen.add(h)
            planes.append(h)
    return Arrangement(3, planes)


@st.composite
def affine_arrangements(draw, max_planes=5):
    """Hyperplanes in R^2..R^4 with entries in -2..2. Normals come from a
    small drawn pool, so parallel classes are common, and some planes pass
    through one drawn centre, so several often meet in one point or line."""
    n = draw(st.integers(2, 4))
    small = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[small] * n).filter(any), min_size=2, max_size=max_planes, unique=True))
    centre = draw(st.tuples(*[small] * n))
    through = draw(st.lists(st.sampled_from(pool), min_size=2, unique=True))
    rows = [(a, sum(x * c for x, c in zip(a, centre))) for a in through]
    rows += draw(st.lists(st.tuples(st.sampled_from(pool), small), max_size=max_planes))
    planes, seen = [], set()
    for normal, offset in rows[:max_planes]:
        h = Hyperplane(tuple(F(v) for v in normal), F(offset))
        if h not in seen:
            seen.add(h)
            planes.append(h)
    return Arrangement(n, planes)


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
        events.append(CrossingEvent(top, size))
    return validate_wiring(WiringDiagram(wires, tuple(events)))


@given(plane_arrangements())
@settings(max_examples=60, deadline=None)
def test_oracle_agrees_with_transform(A):
    L = build_lattice(A)
    f = f_from_mobius(mobius_polynomial(L), L.rank)
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
    walked = {r.signs for r in enumerate_faces(A)}
    brute = {
        s for s in product((1, 0, -1), repeat=len(A.hyperplanes)) if feasible(A, s)
    }
    assert walked == brute


@given(space_arrangements())
@settings(max_examples=60, deadline=None)
def test_space_walk_equals_exhaustive_search_and_mobius(A):
    walked = [r.signs for r in enumerate_faces(A)]
    # product over (0, 1, -1) runs in the walk's 0 < + < - order
    brute = [s for s in product((0, 1, -1), repeat=len(A.hyperplanes)) if feasible(A, s)]
    assert walked == brute
    L = build_lattice(A)
    f = f_from_mobius(mobius_polynomial(L), L.rank)
    direct = f_vector_oracle(A)
    assert [f.coefficient(3 - i) for i in range(4)] == direct
    assert f_vector_from_semilattice(L) == direct


def assert_witnesses_certify(A):
    """Each face's witness is an exact point of that face: on every
    hyperplane it has the face's sign, and it solves the face's flat."""
    n = A.ambient_dim
    for signs, flat, (X, D) in _walk_faces(A, DEFAULT_CAP):
        assert D > 0
        w = [F(x, D) for x in X]
        for h, s in zip(A.hyperplanes, signs):
            value = sum(a * x for a, x in zip(h.normal, w)) - h.offset
            assert (value > 0) - (value < 0) == s, (signs, w)
        for eq in flat.equations:
            assert sum(a * x for a, x in zip(eq[:n], w)) == eq[n], (signs, w)


@given(plane_arrangements(max_planes=5) | space_arrangements())
@settings(max_examples=80, deadline=None)
def test_witnesses_certify_every_face(A):
    assert_witnesses_certify(A)


def test_witnesses_certify_every_face_of_the_acceptance_batch():
    for seed in range(200):
        assert_witnesses_certify(generate_arrangement(2 + seed % 2, 2 + seed % 5, 5, seed))


def brute_force_lattice(A):
    """(equations, dim, support) per flat in id order, and the semilattice
    document: every subset of hyperplanes intersected through rref, flats
    deduplicated by equations, the order read off support containment."""
    n, m = A.ambient_dim, len(A.hyperplanes)
    rows = [h.row() for h in A.hyperplanes]
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
@example(Arrangement(2, [Hyperplane((F(1), F(0)), F(v)) for v in (0, 1)]
                     + [Hyperplane((F(0), F(1)), F(v)) for v in (0, 2)]
                     + [Hyperplane((F(1), F(1)), F(0))]))
@settings(max_examples=150, deadline=None)
def test_lattice_equals_brute_force(A):
    L = build_lattice(A)
    flats, doc = brute_force_lattice(A)
    assert [(L.flats[i].payload.equations, L.flats[i].dim, L.flats[i].support) for i in L.ids()] == flats
    assert semilattice_to_json(L) == doc


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
    for x in L.ids():
        X = L.flats[x].payload
        R, U = restrict(A, X), upper_set(L, x)
        assert sorted(f.dim for f in R.flats.values()) == sorted(f.dim for f in U.flats.values())
        assert mobius_polynomial(R) == mobius_polynomial(U)
        assert f_vector_from_semilattice(R) == f_vector_from_semilattice(U)
        if X.dim == 0:
            continue  # the restriction to a point is that point, in no chart
        chart = _Chart(X, A.ambient_dim)
        by_support = {L.flats[y].support: L.flats[y] for y in L.above(x)}
        images = []
        for r in R.ids():
            point, moves = pull_back(chart, R.flats[r].payload.equations)
            support = frozenset(
                j for j, h in enumerate(A.hyperplanes)
                if sum(a * v for a, v in zip(h.normal, point)) == h.offset
                and not any(sum(a * v for a, v in zip(h.normal, m)) for m in moves)
            )
            # the image lies in the flat of its support; equal dimension makes them one
            assert support in by_support and by_support[support].dim == R.flats[r].dim
            images.append(support)
        assert sorted(images, key=sorted) == sorted(by_support, key=sorted)


@given(plane_arrangements(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_feasibility_invariant_under_reordering(A, rng):
    m = len(A.hyperplanes)
    order = list(range(m))
    rng.shuffle(order)
    shuffled = Arrangement(2, [A.hyperplanes[i] for i in order])
    for signs in product((1, 0, -1), repeat=min(m, 3)):
        padded = signs + (1,) * (m - len(signs))
        assert feasible(A, padded) == feasible(shuffled, tuple(padded[i] for i in order))


@given(plane_arrangements(max_planes=3), st.integers(1, 5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_scaling_a_hyperplane_changes_nothing(A, num, negate):
    if not A.hyperplanes:
        return
    scale = F(-num if negate else num)
    scaled = Arrangement(2, [
        Hyperplane(tuple(scale * v for v in h.normal), scale * h.offset)
        if i == 0 else h
        for i, h in enumerate(A.hyperplanes)
    ])
    assert scaled.hyperplanes == A.hyperplanes
    assert f_vector_oracle(scaled) == f_vector_oracle(A)


@given(wiring_diagrams())
@settings(max_examples=80, deadline=None)
def test_sweep_agrees_with_lattice(w):
    assert list(sweep_f_vector(w)) == f_vector_from_semilattice(lattice_from_wiring(w))


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


@given(wiring_diagrams())
@settings(max_examples=40, deadline=None)
def test_mobius_recursion_on_wiring_lattices(w):
    L = lattice_from_wiring(w)
    for x in L.ids():
        for y in L.ids():
            if x != y and L.leq(x, y):
                assert sum(mobius(L, x, z) for z in L.interval(x, y)) == 0


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-50, 50),
        max_size=8,
    )
)
def test_bipolynomial_json_round_trip(terms):
    p = BiPolynomial(terms)
    assert BiPolynomial.from_json(p.to_json()) == p


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


def check_against_brute_force(relation):
    """Validation, the MissingMeet message and Möbius values against a
    brute-force order; returns whether the order passes every check but
    the meet check."""
    ambient, dims, pairs = relation
    size = len(dims)
    flats = range(size)
    leq = brute_order(size, pairs)
    ordered = all(
        a == b or ((b, a) not in leq and dims[a] > dims[b]) for a, b in leq
    )
    bottoms = [m for m in flats if all((m, z) in leq for z in flats)]
    other_checks_pass = ordered and len(bottoms) == 1 and dims[bottoms[0]] == ambient

    def has_meet(a, b):
        lower = [c for c in flats if (c, a) in leq and (c, b) in leq]
        return any(all((c, g) in leq for c in lower) for g in lower)

    def minimal_upper_bounds(c, d):
        upper = [z for z in flats if (c, z) in leq and (d, z) in leq]
        return {z for z in upper if not any(w != z and (w, z) in leq for w in upper)}

    meets = all(has_meet(a, b) for a in flats for b in flats)
    try:
        L = validate_semilattice(ambient, [Flat(i, d) for i, d in enumerate(dims)], pairs)
    except MissingMeet as exc:
        assert other_checks_pass and not meets
        found = re.fullmatch(
            r"flats (\d+) and (\d+) have no greatest lower bound:"
            r" both are minimal above (\d+) and (\d+)", str(exc))
        assert found, str(exc)
        u1, u2, c, d = map(int, found.groups())
        assert u1 != u2 and {u1, u2} <= minimal_upper_bounds(c, d)
        assert not has_meet(u1, u2)
        event("MissingMeet")
        return True
    except (NoMinimum, NotAPartialOrder, RankViolation):
        assert not other_checks_pass
        return False
    assert other_checks_pass and meets
    event("meet-semilattice")

    def by_rank(zs):
        return sorted(zs, key=lambda z: (ambient - dims[z], z))

    mu = {}
    for x in flats:
        assert L.above(x) == by_rank(z for z in flats if (x, z) in leq)
        for y in by_rank(flats):
            interval = by_rank(z for z in flats if (x, z) in leq and (z, y) in leq)
            assert L.interval(x, y) == interval
            if x == y:
                mu[x, y] = 1
            elif (x, y) in leq:
                mu[x, y] = -sum(mu[x, z] for z in interval if z != y)
            else:
                mu[x, y] = 0
            assert mobius(L, x, y) == mu[x, y]
    return True


@given(relations())
# two points on the same two lines: the points have no meet
@example((2, [2, 1, 1, 0, 0], [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
@settings(max_examples=600, deadline=None)
def test_validation_and_mobius_match_brute_force(relation):
    check_against_brute_force(relation)


@given(sparse_relations())
# two lines over the same two planes, and a point above an unrelated plane
@example((3, [3, 2, 2, 1, 1, 2, 0, 2, 2, 2, 2],
          [(0, b) for b in range(1, 11)] + [(1, 3), (1, 4), (2, 3), (2, 4), (5, 6)]))
@settings(max_examples=300, deadline=None)
def test_sparse_orders_take_the_dual_meet_check(relation):
    assert check_against_brute_force(relation)
