"""Semilattice validation, Möbius values, and the polynomial transforms."""

from math import comb

import pytest

from cutcount.errors import (
    CapExceeded,
    CutcountError,
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    ParseError,
    RankViolation,
    UnknownFlat,
)
from cutcount.poset import (
    MAX_FLATS,
    BiPolynomial,
    f_from_mobius,
    mobius_polynomial,
    _validate_ids,
    semilattice_from_json,
    validate_semilattice,
)
from cutcount.wiring import WiringDiagram, lattice_from_wiring, validate_wiring
from reference import (
    chamber_count,
    constant,
    f_vector_from_semilattice,
    flats_by_id,
    interval,
    leq,
    maximal_flats,
    minimum,
    mobius,
    mobius_sum,
    polynomial_from_json,
    rank_of,
    semilattice_to_json,
    upper_set,
    with_supports,
)


def make(ambient, dims, pairs):
    return _validate_ids(ambient, [*enumerate(dims)], pairs)


def boolean_without_top(r):
    # the subsets of r elements but the whole set, each a flat of dimension
    # r - |S| with id the bitmask of S, ordered by one element added at a time
    masks = range(2 ** r - 1)
    pairs = [(m, m | 1 << e) for m in masks for e in range(r) if m | 1 << e not in (m, 2 ** r - 1)]
    return make(r, [r - m.bit_count() for m in masks], pairs)


@pytest.fixture
def axes():
    # whole plane, two lines, their crossing point; supports {}, {0}, {1}, {0, 1}
    return with_supports(make(2, [2, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)]),
                         {0: 0b00, 1: 0b01, 2: 0b10, 3: 0b11})


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
        assert minimum(singleton) == 0

    def test_ranks_of_axes(self, axes):
        assert [rank_of(axes, i) for i in axes.ids()] == [0, 1, 1, 2]
        assert axes.rank == 2

    def test_transitive_closure_is_applied(self, axes):
        # only cover pairs were given; T <= point must still hold
        assert leq(axes, 0, 3)

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

    def test_negative_ambient_dimension(self):
        with pytest.raises(ValueError, match="^ambient dimension must be nonnegative$"):
            _validate_ids(-1, [(0, -1)], [])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            _validate_ids(2, [(0, 2), (0, 1)], [])

    def test_flat_budget(self):
        # refused from the flat count alone, before any order row exists
        size = MAX_FLATS + 1
        with pytest.raises(CapExceeded) as info:
            make(1, [1] + [0] * (size - 1), [(0, b) for b in range(1, size)])
        assert str(info.value) == f"{size} flats exceed the budget of {MAX_FLATS}"

    def test_falling_chain_at_the_flat_budget(self):
        # flat i has dimension i and each pair (i, i + 1) falls; the first one
        # names the fault, and one walk from flat 1 tells a cycle from a rank
        # fault without closing the order
        pairs = [(i, i + 1) for i in range(MAX_FLATS - 1)]
        dims = list(range(MAX_FLATS))
        with pytest.raises(RankViolation) as info:
            make(MAX_FLATS - 1, dims, pairs)
        assert str(info.value) == "flat 0 < flat 1 but dimensions are 0 <= 1"
        with pytest.raises(NotAPartialOrder) as info:
            make(MAX_FLATS - 1, dims, pairs + [(MAX_FLATS - 1, 0)])
        assert str(info.value) == "flats 0 and 1 are mutually comparable"

    def test_minimum_with_the_largest_id(self):
        # a point, two lines and the plane, numbered from the top down
        L = make(2, [0, 1, 1, 2], [(3, 1), (3, 2), (1, 0), (2, 0)])
        assert minimum(L) == 3
        assert [rank_of(L, i) for i in L.ids()] == [2, 1, 1, 0]
        assert L.above(3) == [3, 1, 2, 0] and interval(L, 1, 0) == [1, 0]
        assert leq(L, 3, 0) and not leq(L, 1, 2)
        assert [mobius(L, 3, y) for y in L.ids()] == [1, -1, -1, 1]

    # In each case the flat ids run against (rank, id) order: a check that
    # walked rank positions instead of ids would name other flats. A falling
    # pair, one whose rank does not rise, is named as it was given.
    @pytest.mark.parametrize("ambient, dims, pairs, error, message", [
        # the minimum has the largest id and sits below a flat of smaller dimension
        (2, [0, 1], [(1, 0)], RankViolation,
         "minimum flat 1 has dimension 1, expected the ambient 2"),
        # point 1 and line 12 above each other, lines 2..11 in between by
        # position; (1, 12) is the one falling pair
        (2, [2, 0] + [1] * 11, [(0, b) for b in range(1, 13)] + [(12, 1), (1, 12)],
         NotAPartialOrder, "flats 1 and 12 are mutually comparable"),
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
        # the one falling pair (2, 0) closes a cycle through ranks 0, 1 and
        # 2: the walk from 0 reaches 2 in two steps
        (2, [2, 1, 0], [(0, 1), (1, 2), (2, 0)], NotAPartialOrder,
         "flats 2 and 0 are mutually comparable"),
        # the minimum has the largest id, but the pair puts a line below the plane
        (2, [2, 1], [(1, 0)], RankViolation, "flat 1 < flat 0 but dimensions are 1 <= 2"),
        # lines 1 and 5 share points 2 and 3, and the plane is also given as its
        # own successor: a check that kept it among its successors would find
        # the lines above it and test no pair
        (2, [2, 1, 0, 0, 0, 1], [(0, 1), (1, 2), (5, 2), (1, 3), (5, 3), (5, 4), (0, 5), (0, 0)],
         MissingMeet, "flats 2 and 3 have no greatest lower bound: both are minimal above 1 and 5"),
    ])
    def test_messages_name_flats_in_id_order(self, ambient, dims, pairs, error, message):
        with pytest.raises(error) as info:
            make(ambient, dims, pairs)
        assert str(info.value) == message

    def test_unknown_flat_at_every_method(self, axes):
        for call in (lambda: leq(axes, 0, 7), lambda: rank_of(axes, 7), lambda: axes.above(7),
                     lambda: interval(axes, 7, 0), lambda: mobius(axes, 7, 0),
                     lambda: mobius(axes, 0, 7), lambda: upper_set(axes, 7)):
            with pytest.raises(UnknownFlat) as info:
                call()
            assert str(info.value) == "no flat with id 7"

    # no coercion: True and 1.0 equal id 1 and hash alike, but are no ids
    @pytest.mark.parametrize("x", [True, 1.0, "1"])
    def test_above_takes_int_ids_only(self, axes, x):
        with pytest.raises(UnknownFlat) as info:
            axes.above(x)
        assert str(info.value) == f"no flat with id {x!r}"


class TestPositionForm:
    """validate_semilattice takes the flats by position in (rank, id) order;
    a malformed position form is refused in one line, never indexed past."""

    def test_axes_by_position_equal_axes_by_id(self, axes):
        L = validate_semilattice(2, [0, 1, 1, 2], [[1, 2], [3], [3], []], range(4), [0b00, 0b01, 0b10, 0b11])
        by_id = make(2, [2, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)])
        for M in (axes, by_id):
            assert (L._above, L._maximal, L._strict, L._ranks) == (M._above, M._maximal, M._strict, M._ranks)
        assert flats_by_id(L) == flats_by_id(axes) and mobius_polynomial(L) == mobius_polynomial(axes)
        assert flats_by_id(L)[3] == (3, 0, frozenset({0, 1}))

    # the plane, two lines and their point, with one position form fault each
    @pytest.mark.parametrize("ranks, succ, error, message", [
        ([0, 1, 2, 1], [[1, 3], [2], [], [2]], RankViolation,
         "ranks must not fall along the positions nor pass the ambient dimension 2"),
        ([0, 1, 1, 3], [[1, 2], [3], [3], []], RankViolation,
         "ranks must not fall along the positions nor pass the ambient dimension 2"),
        # a line under a line, the point under the plane (a closure that read
        # above[0] before it was built would pass it quietly), the point under itself
        ([0, 1, 1, 2], [[1, 2], [2, 3], [3], []], RankViolation,
         "successor 2 of position 1 is not a position of larger rank"),
        ([0, 1, 1, 2], [[1, 2], [3], [3], [0]], RankViolation,
         "successor 0 of position 3 is not a position of larger rank"),
        ([0, 1, 1, 2], [[1, 2], [3], [3], [3]], RankViolation,
         "successor 3 of position 3 is not a position of larger rank"),
        # position -1 is the point, whose rank rises above a line's
        ([0, 1, 1, 2], [[1, 2], [3], [-1], []], UnknownFlat,
         "successor -1 of position 2 is not a position of larger rank"),
        ([0, 1, 1, 2], [[1, 2], [3], [4], []], UnknownFlat,
         "successor 4 of position 2 is not a position of larger rank"),
    ])
    def test_refusals(self, ranks, succ, error, message):
        with pytest.raises(CutcountError) as info:
            validate_semilattice(2, ranks, succ, range(4))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("succ, ids, supports", [
        ([[1, 2], [3], [3]], range(4), None),
        ([[1, 2], [3], [3], []], range(3), None),
        ([[1, 2], [3], [3], []], range(4), [0] * 5),
    ])
    def test_one_entry_per_position(self, succ, ids, supports):
        with pytest.raises(ValueError, match="^ranks, successors, ids and supports need one entry per position$"):
            validate_semilattice(2, [0, 1, 1, 2], succ, ids, supports)

    # no coercion: True and 2.0 are refused as "2" is, in one line
    @pytest.mark.parametrize("dim", [True, 2.0, "2"])
    def test_ambient_dimension_must_be_an_int(self, dim):
        with pytest.raises(ValueError) as info:
            validate_semilattice(dim, [0, 1], [[1], []], range(2))
        assert str(info.value) == f"ambient dimension must be an int: {dim!r}"

    # the meet check walks each successor entry a second time, so an entry
    # that can be read only once is refused; the message names its type, as
    # an iterator's repr holds an address
    @pytest.mark.parametrize("succ, message", [
        # two points on two lines, which as lists raise MissingMeet (an
        # @example of test_validation_and_mobius_match_brute_force)
        ([iter(s) for s in [[1, 2], [3, 4], [3, 4], [], []]],
         "successors of position 4 must be a list, tuple or range: list_iterator"),
        # an empty iterator is truthy, so it is checked as well
        ([[1, 2], [3, 4], [3, 4], iter([]), []],
         "successors of position 3 must be a list, tuple or range: list_iterator"),
        ([[1, 2], {3: 0, 4: 0}, [3, 4], [], []],
         "successors of position 1 must be a list, tuple or range: dict"),
        ([[1, 2], [3, 4], {3, 4}, [], []],
         "successors of position 2 must be a list, tuple or range: set"),
    ], ids=["iterators", "empty-iterator", "dict", "set"])
    def test_successors_must_be_sequences(self, succ, message):
        with pytest.raises(ValueError) as info:
            validate_semilattice(2, [0, 1, 1, 2, 2], succ, range(5))
        assert str(info.value) == message

    # ids are checked once, when the id map is first built
    @pytest.mark.parametrize("ids, message", [
        ([0, True], "flat id must be an int: True"),
        ([0.0, 1.5], "flat id must be an int: 0.0"),
        (["a", "b"], "flat id must be an int: 'a'"),
        ([0, 0], "duplicate flat id 0"),
    ])
    def test_ids_must_be_distinct_ints(self, ids, message):
        L = validate_semilattice(1, [0, 1], [[1], []], ids)
        for read in (L.ids, lambda: L.above(0)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == message


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
                    if x != y and leq(L, x, y):
                        assert sum(mobius(L, x, z) for z in interval(L, x, y)) == 0


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

    def test_sparse_ranks_match_the_reference_sum(self):
        # ranks 0, 5 and 9 only: the y-exponents skip the ranks no flat has
        dims = [9, 4, 4, 0]
        L = make(9, dims, [(0, 1), (0, 2), (1, 3), (2, 3)])
        mu = {(x, y): mobius(L, x, y) for x in L.ids() for y in L.ids() if leq(L, x, y)}
        expected = mobius_sum(mu, {z: 9 - d for z, d in enumerate(dims)})
        assert mobius_polynomial(L) == expected
        assert str(expected) == "x^9 + 2x^5y^4 + y^9 - 2x^5 - 2y^4 + 1"

    def test_every_order_pair_given(self):
        # B_5 given all 3^5 order pairs, each flat's pair with itself among
        # them: a flat's given successors are its whole up-set, and only its
        # covers may pair up in the meet check, or closed input costs a cube
        masks = range(32)
        dims = [5 - m.bit_count() for m in masks]
        covers = make(5, dims, [(m, m | 1 << e) for m in masks for e in range(5) if not m >> e & 1])
        closed = make(5, dims, [(m, s) for m in masks for s in masks if m & s == m])
        assert [closed.above(m) for m in masks] == [covers.above(m) for m in masks]
        # M = (x + y - 1)^5, as TestKnownAnswerOrders derives it
        M = BiPolynomial({(a, b): comb(5, a) * comb(5 - a, b) * (-1) ** (5 - a - b)
                          for a in range(6) for b in range(6 - a)})
        assert mobius_polynomial(closed) == mobius_polynomial(covers) == M

    # n = 4000 lines through one point: M = x^2 + n xy + y^2 - n x - n y + n - 1
    # and f = x^2 + 2n x + 2n. A private point on each line as well makes
    # M = (n + 1) x^2 + n xy + y^2 - 2n x - n y + n - 1 and
    # f = (n + 1) x^2 + 3n x + 2n. The plane's C(n, 2) pairs of lines outnumber
    # the 2n or 3n flats above them, so the meet check reaches each line's
    # partners through the down-sets above it, leaving out the common point,
    # which lies above every line: testing every pair would take seconds here.
    @pytest.mark.parametrize("private, mobius_text, f_text", [
        (False, "x^2 + 4000xy + y^2 - 4000x - 4000y + 3999", "x^2 + 8000x + 8000"),
        (True, "4001x^2 + 4000xy + y^2 - 8000x - 4000y + 3999", "4001x^2 + 12000x + 8000"),
    ], ids=["pencil", "near-pencil"])
    def test_pencils_of_many_lines(self, private, mobius_text, f_text):
        n = 4000
        lines = range(1, n + 1)
        dims = [2] + [1] * n + [0] * (1 + n * private)
        pairs = [(0, i) for i in lines] + [(i, n + 1) for i in lines]
        if private:
            pairs += [(i, n + 1 + i) for i in lines]
        M = mobius_polynomial(make(2, dims, pairs))
        assert str(M) == mobius_text
        assert str(f_from_mobius(M)) == f_text

    # maximal flats away from the top rank, or at the minimum itself: the pass
    # counts them per rank and gives none of them a unit column of its own
    @pytest.mark.parametrize("build, maximal", [
        # B_4 without its top: the four coatoms
        (lambda: boolean_without_top(4), {7, 11, 13, 14}),
        # wires 0 and 1 cross, then wires 0 and 2: the line of wire 3 is maximal
        # at rank 1, beside the two points at rank 2
        (lambda: lattice_from_wiring(validate_wiring(
            WiringDiagram(4, ((0, 2), (1, 2))))), {4, 5, 6}),
        # one flat: the minimum is maximal
        (lambda: make(2, [2], []), {0}),
    ], ids=["boolean-without-top", "uncrossed-wire", "one-flat"])
    def test_maximal_flats_match_the_reference_sum(self, build, maximal):
        L = build()
        assert maximal_flats(L) == maximal
        mu = {(x, y): mobius(L, x, y) for x in L.ids() for y in L.above(x)}
        assert mobius_polynomial(L) == mobius_sum(mu, {z: rank_of(L, z) for z in L.ids()})

    def test_atom_count_coefficient(self, concurrent):
        # coefficient of x^0 y^(rk-1) counts atoms negatively
        M = mobius_polynomial(concurrent)
        assert M.coefficient(0, concurrent.rank - 1) == -3


class TestFFromMobius:
    def test_printed_example(self):
        M = BiPolynomial({(2, 0): 5, (0, 2): 1, (1, 1): 9, (1, 0): -11, (0, 1): -9, (0, 0): 6})
        f = f_from_mobius(M)
        assert str(f) == "5x^2 + 20x + 16"
        assert f.terms == {(2, 0): 5, (1, 0): 20, (0, 0): 16}

    def test_constant_one(self):
        assert f_from_mobius(constant(1)).terms == {(0, 0): 1}

    def test_zero_polynomial(self):
        # rk is read off M's largest x-degree; with no term there is nothing to sign
        assert str(f_from_mobius(BiPolynomial())) == "0"

    def test_axes(self, axes):
        f = f_from_mobius(mobius_polynomial(axes))
        assert str(f) == "x^2 + 4x + 4"

    def test_negative_coefficient_rejected(self):
        # two points over the plane with no line between: a valid poset
        # but not the lattice of any arrangement
        L = make(2, [2, 0, 0], [(0, 1), (0, 2)])
        with pytest.raises(NegativeCoefficient):
            f_from_mobius(mobius_polynomial(L))
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
            f = f_from_mobius(mobius_polynomial(L))
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
        assert upper_set(axes, minimum(axes)) is axes

    def test_axis_gives_chain(self, axes):
        U = upper_set(axes, 1)
        assert sorted(f.dim for f in flats_by_id(U).values()) == [0, 1]
        assert U.ambient_dim == 1
        assert str(mobius_polynomial(U)) == "x + y - 1"

    def test_at_maximal_flat_is_singleton(self, axes):
        U = upper_set(axes, 3)
        assert len(flats_by_id(U)) == 1
        assert str(mobius_polynomial(U)) == "1"

    def test_supports_are_remapped(self, axes):
        # re-rooting at the line with support {0} drops 0 everywhere
        U = upper_set(axes, 1)
        assert flats_by_id(U)[1].support == frozenset()
        assert flats_by_id(U)[3].support == frozenset([1])

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
        assert str(constant(-7)) == "-7"

    def test_json_round_trip(self):
        p = BiPolynomial({(2, 0): 5, (1, 1): 9, (0, 0): -6})
        assert polynomial_from_json(p.to_json()) == p

    def test_json_merges_repeated_terms(self):
        doc = {"terms": [{"x": 1, "y": 0, "coeff": "2"}, {"x": 1, "y": 0, "coeff": "-2"}]}
        assert polynomial_from_json(doc) == BiPolynomial()

    @pytest.mark.parametrize("terms", [
        {(1.5, 0): 2}, {(1, 0): 2.7}, {(True, 0): 1}, {(0, 1): False}, {(0, "1"): 1},
    ])
    def test_non_int_terms_rejected(self, terms):
        # nothing is coerced: 1.5 is not truncated to 1, nor True read as 1
        with pytest.raises(ValueError, match="must be ints"):
            BiPolynomial(terms)

    @pytest.mark.parametrize("term", [
        {"x": 1.5, "y": 0, "coeff": "1"},
        {"x": 1, "y": True, "coeff": "1"},
        {"x": 1, "y": 0, "coeff": "3_000"},
        {"x": 1, "y": 0, "coeff": 2.9},
        {"x": 1, "y": 0, "coeff": 3},
        {"x": 1, "y": 0, "coeff": " 3"},
        {"x": 1, "y": 0, "coeff": "+3"},
        {"x": 1, "y": 0, "coeff": "３"},
    ])
    def test_json_strict_types(self, term):
        with pytest.raises(ParseError):
            polynomial_from_json({"terms": [term]})

    @pytest.mark.parametrize("doc", [
        {},
        {"terms": [1]},
        {"terms": [{"x": 1, "y": 0}]},
        {"terms": None},
        [{"x": 1, "y": 0, "coeff": "1"}],
    ])
    def test_json_malformed_document(self, doc):
        with pytest.raises(ParseError, match="^malformed polynomial document: "):
            polynomial_from_json(doc)

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
        assert leq(L, 0, 2)
