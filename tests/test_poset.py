"""Semilattice validation, Möbius values, and the polynomial transforms."""

import pytest

from cutcount.errors import (
    CapExceeded,
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    RankViolation,
    UnknownFlat,
)
from cutcount.poset import (
    MAX_FLATS,
    BiPolynomial,
    Flat,
    chamber_count,
    f_from_mobius,
    f_vector_from_semilattice,
    mobius,
    mobius_polynomial,
    semilattice_from_json,
    semilattice_to_json,
    upper_set,
    validate_semilattice,
)


def make(ambient, dims, pairs, supports=None):
    flats = [
        Flat(i, d, None if supports is None else frozenset(supports[i]))
        for i, d in enumerate(dims)
    ]
    return validate_semilattice(ambient, flats, pairs)


@pytest.fixture
def axes():
    # whole plane, two lines, their crossing point
    return make(2, [2, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                supports=[(), (0,), (1,), (0, 1)])


@pytest.fixture
def concurrent():
    # three lines through one point
    return make(2, [2, 1, 1, 1, 0], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@pytest.fixture
def singleton():
    return make(2, [2], [])


class TestValidate:
    def test_singleton_is_valid_with_rank_zero(self, singleton):
        assert singleton.rank == 0
        assert singleton.minimum == 0

    def test_ranks_of_axes(self, axes):
        assert [axes.rank_of(i) for i in axes.ids()] == [0, 1, 1, 2]
        assert axes.rank == 2

    def test_transitive_closure_is_applied(self, axes):
        # only cover pairs were given; T <= point must still hold
        assert axes.leq(0, 3)

    def test_two_minima(self):
        with pytest.raises(NoMinimum):
            make(2, [2, 2], [])

    def test_empty(self):
        with pytest.raises(NoMinimum):
            make(2, [], [])

    def test_missing_meet(self):
        # two points above both lines: their common lower bounds
        # {T, H1, H2} have no greatest element
        with pytest.raises(MissingMeet):
            make(2, [2, 1, 1, 0, 0], [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

    def test_antisymmetry_violation(self):
        with pytest.raises(NotAPartialOrder):
            make(2, [2, 1], [(0, 1), (1, 0)])

    def test_rank_violation_on_equal_dims(self):
        with pytest.raises(RankViolation):
            make(2, [2, 2], [(0, 1)])

    def test_minimum_must_have_ambient_dimension(self):
        with pytest.raises(RankViolation):
            make(2, [1], [])

    def test_dim_out_of_range(self):
        with pytest.raises(RankViolation):
            make(2, [2, 3], [(0, 1)])

    def test_unknown_flat_in_leq(self):
        with pytest.raises(UnknownFlat):
            make(2, [2], [(0, 7)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            validate_semilattice(2, [Flat(0, 2), Flat(0, 1)], [])

    def test_flat_budget(self):
        # refused from the flat count alone, before any order row exists
        size = MAX_FLATS + 1
        with pytest.raises(CapExceeded) as info:
            make(1, [1] + [0] * (size - 1), [(0, b) for b in range(1, size)])
        assert str(info.value) == f"{size} flats exceed the budget of {MAX_FLATS}"

    def test_minimum_with_the_largest_id(self):
        # a point, two lines and the plane, numbered from the top down
        L = make(2, [0, 1, 1, 2], [(3, 1), (3, 2), (1, 0), (2, 0)])
        assert L.minimum == 3
        assert [L.rank_of(i) for i in L.ids()] == [2, 1, 1, 0]
        assert L.above(3) == [3, 1, 2, 0] and L.interval(1, 0) == [1, 0]
        assert L.leq(3, 0) and not L.leq(1, 2)
        assert [mobius(L, 3, y) for y in L.ids()] == [1, -1, -1, 1]

    # In each case the flat ids run against (rank, id) order: a check that
    # walked rank positions instead of ids would name other flats.
    @pytest.mark.parametrize("ambient, dims, pairs, error, message", [
        # the minimum has the largest id and sits below a flat of larger dimension
        (2, [2, 1], [(1, 0)], RankViolation,
         "minimum flat 1 has dimension 1, expected the ambient 2"),
        # point 1 and line 12 above each other, lines 2..11 in between by position
        (2, [2, 0] + [1] * 11, [(0, b) for b in range(1, 13)] + [(12, 1), (1, 12)],
         NotAPartialOrder, "flats 12 and 1 are mutually comparable"),
        # a point under a point and a line under a line
        (2, [2, 0, 0, 1, 1], [(0, b) for b in range(1, 5)] + [(2, 1), (4, 3)],
         RankViolation, "flat 2 < flat 1 but dimensions are 0 <= 0"),
        (2, [1, 2, 2], [(1, 0)], NoMinimum, "no flat lies below every other flat"),
        (2, [], [], NoMinimum, "a semilattice needs at least one flat"),
        (2, [0, 2], [(1, 0), (1, 7), (9, 0)], UnknownFlat,
         "leq pair (1, 7) references unknown flat 7"),
        # points 0, 1 over lines 5, 6 and lines 2, 3 over planes 7, 8, with the
        # space last; the lines come first by position
        (3, [0, 0, 1, 1, 2, 1, 1, 2, 2, 3],
         [(9, b) for b in range(9)] + [(7, 2), (7, 3), (8, 2), (8, 3), (5, 0), (5, 1), (6, 0), (6, 1)],
         MissingMeet, "flats 2 and 3 have no greatest lower bound: both are minimal above 7 and 8"),
        # lines 6, 7 over planes 8, 9, point 4 over plane 5, space 10
        (3, [2, 2, 2, 2, 0, 2, 1, 1, 2, 2, 3],
         [(10, b) for b in range(10)] + [(9, 7), (9, 6), (8, 7), (8, 6), (5, 4)],
         MissingMeet, "flats 6 and 7 have no greatest lower bound: both are minimal above 8 and 9"),
        # point 0 over planes 2..6 has the largest down-set, and line 1 over
        # planes 2, 3 the next largest; planes 2, 3 are the only pair without
        # a meet, and both of its minimal upper bounds are maximal flats
        (3, [0, 1, 2, 2, 2, 2, 2, 3],
         [(7, b) for b in range(7)] + [(p, 0) for p in range(2, 7)] + [(2, 1), (3, 1)],
         MissingMeet, "flats 1 and 0 have no greatest lower bound: both are minimal above 2 and 3"),
    ])
    def test_messages_name_flats_in_id_order(self, ambient, dims, pairs, error, message):
        with pytest.raises(error) as info:
            make(ambient, dims, pairs)
        assert str(info.value) == message

    def test_unknown_flat_at_every_method(self, axes):
        for call in (lambda: axes.leq(0, 7), lambda: axes.rank_of(7), lambda: axes.above(7),
                     lambda: axes.interval(7, 0), lambda: mobius(axes, 7, 0),
                     lambda: mobius(axes, 0, 7), lambda: upper_set(axes, 7)):
            with pytest.raises(UnknownFlat) as info:
                call()
            assert str(info.value) == "no flat with id 7"


class TestMobius:
    def test_reflexive_is_one(self, axes):
        assert all(mobius(axes, i, i) == 1 for i in axes.ids())

    def test_atom_is_minus_one(self, axes):
        assert mobius(axes, 0, 1) == -1
        assert mobius(axes, 0, 2) == -1

    def test_concurrent_point_is_two(self, concurrent):
        assert mobius(concurrent, 0, 4) == 2

    def test_incomparable_is_zero(self, axes):
        assert mobius(axes, 1, 2) == 0
        assert mobius(axes, 3, 0) == 0

    def test_unknown_flat(self, axes):
        with pytest.raises(UnknownFlat):
            mobius(axes, 0, 99)

    def test_interval_sums_vanish(self, axes, concurrent):
        for L in (axes, concurrent):
            for x in L.ids():
                for y in L.ids():
                    if x != y and L.leq(x, y):
                        assert sum(mobius(L, x, z) for z in L.interval(x, y)) == 0


class TestMobiusPolynomial:
    def test_singleton(self, singleton):
        assert str(mobius_polynomial(singleton)) == "1"

    def test_axes(self, axes):
        assert str(mobius_polynomial(axes)) == "x^2 + 2xy + y^2 - 2x - 2y + 1"

    def test_concurrent(self, concurrent):
        assert str(mobius_polynomial(concurrent)) == "x^2 + 3xy + y^2 - 3x - 3y + 2"

    def test_parallel_pair_uses_actual_rank(self):
        # two lines that never meet: largest rank present is 1, not 2
        L = make(2, [2, 1, 1], [(0, 1), (0, 2)])
        assert L.rank == 1
        assert str(mobius_polynomial(L)) == "2x + y - 2"

    def test_atom_count_coefficient(self, concurrent):
        # coefficient of x^0 y^(rk-1) counts atoms negatively
        M = mobius_polynomial(concurrent)
        assert M.coefficient(0, concurrent.rank - 1) == -3


class TestFFromMobius:
    def test_printed_example(self):
        M = BiPolynomial({(2, 0): 5, (0, 2): 1, (1, 1): 9, (1, 0): -11, (0, 1): -9, (0, 0): 6})
        f = f_from_mobius(M, 2)
        assert str(f) == "5x^2 + 20x + 16"
        assert f.terms == {(2, 0): 5, (1, 0): 20, (0, 0): 16}

    def test_constant_one(self):
        assert f_from_mobius(BiPolynomial.constant(1), 0).terms == {(0, 0): 1}

    def test_axes(self, axes):
        f = f_from_mobius(mobius_polynomial(axes), axes.rank)
        assert str(f) == "x^2 + 4x + 4"

    def test_negative_coefficient_rejected(self):
        # two points over the plane with no line between: a valid poset
        # but not the lattice of any arrangement
        L = make(2, [2, 0, 0], [(0, 1), (0, 2)])
        with pytest.raises(NegativeCoefficient):
            f_from_mobius(mobius_polynomial(L), L.rank)
        with pytest.raises(NegativeCoefficient):
            f_vector_from_semilattice(L)
        with pytest.raises(NegativeCoefficient):
            chamber_count(L)


class TestFVector:
    def test_singleton(self, singleton):
        assert f_vector_from_semilattice(singleton) == [0, 0, 1]

    def test_axes(self, axes):
        assert f_vector_from_semilattice(axes) == [1, 4, 4]

    def test_concurrent(self, concurrent):
        assert f_vector_from_semilattice(concurrent) == [1, 6, 6]

    def test_agrees_with_transform(self, axes, concurrent):
        for L in (axes, concurrent):
            f = f_from_mobius(mobius_polynomial(L), L.rank)
            vec = f_vector_from_semilattice(L)
            assert all(f.coefficient(L.ambient_dim - i) == vec[i] for i in range(len(vec)))


class TestChamberCount:
    def test_singleton(self, singleton):
        assert chamber_count(singleton) == 1

    def test_concurrent(self, concurrent):
        assert chamber_count(concurrent) == 6

    def test_equals_top_face_count(self, axes, concurrent):
        for L in (axes, concurrent):
            assert chamber_count(L) == f_vector_from_semilattice(L)[-1]


class TestUpperSet:
    def test_at_minimum_returns_same_object(self, axes):
        assert upper_set(axes, axes.minimum) is axes

    def test_axis_gives_chain(self, axes):
        U = upper_set(axes, 1)
        assert sorted(f.dim for f in U.flats.values()) == [0, 1]
        assert U.ambient_dim == 1
        assert str(mobius_polynomial(U)) == "x + y - 1"

    def test_at_maximal_flat_is_singleton(self, axes):
        U = upper_set(axes, 3)
        assert len(U.flats) == 1
        assert str(mobius_polynomial(U)) == "1"

    def test_supports_are_remapped(self, axes):
        # re-rooting at the line with support {0} drops 0 everywhere
        U = upper_set(axes, 1)
        assert U.flats[1].support == frozenset()
        assert U.flats[3].support == frozenset([1])

    def test_matches_mobius_subsums(self, concurrent):
        for x in concurrent.ids():
            U = upper_set(concurrent, x)
            for y in U.ids():
                assert mobius(U, x, y) == mobius(concurrent, x, y)

    def test_unknown_flat(self, axes):
        with pytest.raises(UnknownFlat):
            upper_set(axes, 42)


class TestBiPolynomial:
    def test_zero_prints_as_zero(self):
        assert str(BiPolynomial()) == "0"
        assert str(BiPolynomial({(1, 0): 0})) == "0"

    def test_unit_coefficients_drop_the_one(self):
        assert str(BiPolynomial({(1, 0): -1, (0, 1): 1})) == "-x + y"

    def test_display_order(self):
        p = BiPolynomial({(0, 0): 1, (2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): -2, (0, 1): -2})
        assert str(p) == "x^2 + 2xy + y^2 - 2x - 2y + 1"

    def test_leading_negative(self):
        assert str(BiPolynomial({(1, 0): -3, (0, 0): 2})) == "-3x + 2"

    def test_high_powers(self):
        assert str(BiPolynomial({(3, 2): 1})) == "x^3y^2"

    def test_constant_term_alone(self):
        assert str(BiPolynomial.constant(-7)) == "-7"

    def test_json_round_trip(self):
        p = BiPolynomial({(2, 0): 5, (1, 1): 9, (0, 0): -6})
        assert BiPolynomial.from_json(p.to_json()) == p

    def test_json_merges_repeated_terms(self):
        doc = {"terms": [{"x": 1, "y": 0, "coeff": "2"}, {"x": 1, "y": 0, "coeff": "-2"}]}
        assert BiPolynomial.from_json(doc) == BiPolynomial()

    def test_coefficient_lookup(self):
        p = BiPolynomial({(2, 1): 4})
        assert p.coefficient(2, 1) == 4
        assert p.coefficient(0) == 0


class TestSemilatticeJson:
    def test_round_trip_preserves_structure(self, concurrent):
        doc = semilattice_to_json(concurrent)
        back = semilattice_from_json(doc)
        assert semilattice_to_json(back) == doc
        assert mobius_polynomial(back) == mobius_polynomial(concurrent)

    def test_kind_field(self, axes):
        assert semilattice_to_json(axes)["kind"] == "semilattice"

    def test_closure_applied_on_load(self):
        doc = {
            "kind": "semilattice",
            "ambient_dim": 2,
            "flats": [{"id": 0, "dim": 2}, {"id": 1, "dim": 1}, {"id": 2, "dim": 0}],
            "leq": [[0, 1], [1, 2]],
        }
        L = semilattice_from_json(doc)
        assert L.leq(0, 2)
