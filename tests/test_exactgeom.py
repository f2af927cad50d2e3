"""Rational linear algebra, arrangement lattices, and restriction."""

from fractions import Fraction as F

import pytest

from cutcount.errors import DuplicateHyperplane, FlatNotInLattice, ParseError
from cutcount.exactgeom import (
    AffineFlat,
    Arrangement,
    Hyperplane,
    arrangement_from_json,
    arrangement_to_json,
    build_lattice,
    format_rational,
    intersect,
    parse_rational,
    restrict,
    rref,
)
from cutcount.poset import (
    f_vector_from_semilattice,
    mobius_polynomial,
    semilattice_to_json,
    upper_set,
)


def lines(*rows):
    planes = [Hyperplane(tuple(F(v) for v in normal), F(off)) for *normal, off in rows]
    return Arrangement(len(rows[0]) - 1, planes)


@pytest.fixture
def axes():
    return lines((1, 0, 0), (0, 1, 0))


@pytest.fixture
def generic3():
    return lines((1, 0, 0), (0, 1, 0), (1, 1, 1))


@pytest.fixture
def concurrent3():
    return lines((1, 0, 0), (0, 1, 0), (1, -1, 0))


class TestRationals:
    def test_parse_integers_and_fractions(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-3/2") == F(-3, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "+3", "", "a", " 1", "1/2/3"])
    def test_rejects_anything_else(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_format_round_trip(self):
        for q in (F(0), F(5), F(-5), F(3, 2), F(-7, 4)):
            assert parse_rational(format_rational(q)) == q


class TestRref:
    def test_identity_is_fixed(self):
        M = [[F(1), F(0)], [F(0), F(1)]]
        rows, rank = rref(M)
        assert rows == M and rank == 2

    def test_dependent_rows(self):
        rows, rank = rref([[F(1), F(1)], [F(2), F(2)]])
        assert rows == [[F(1), F(1)], [F(0), F(0)]] and rank == 1

    def test_augmented_scaling(self):
        rows, rank = rref([[F(2), F(0), F(1)], [F(0), F(3), F(1)]])
        assert rows == [[F(1), F(0), F(1, 2)], [F(0), F(1), F(1, 3)]] and rank == 2

    def test_input_not_modified(self):
        M = [[F(2), F(4)]]
        rref(M)
        assert M == [[F(2), F(4)]]


class TestHyperplane:
    def test_canonical_leading_one(self):
        h = Hyperplane((F(2), F(4)), F(6))
        assert h.normal == (F(1), F(2)) and h.offset == F(3)

    def test_negative_scaling_same_canonical_form(self):
        assert Hyperplane((F(-2), F(-4)), F(-6)) == Hyperplane((F(1), F(2)), F(3))

    def test_leading_zero_entries_kept(self):
        h = Hyperplane((F(0), F(-3)), F(9))
        assert h.normal == (F(0), F(1)) and h.offset == F(-3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane((F(0), F(0)), F(1))

    def test_entries_kept_exact(self):
        h = Hyperplane((2, 4), 6)
        assert h == Hyperplane((F(1), F(2)), F(3))
        assert all(type(v) is F for v in (*h.normal, h.offset))
        for normal, offset in (((0.5, 1), 1), ((True, 4), 6), ((1, 2), 1.0)):
            with pytest.raises(ValueError):
                Hyperplane(normal, offset)


class TestArrangement:
    def test_scaled_duplicate_rejected(self):
        with pytest.raises(DuplicateHyperplane):
            lines((1, 0, 0), (3, 0, 0))

    def test_wrong_normal_length(self):
        with pytest.raises(ValueError):
            Arrangement(2, [Hyperplane((F(1),), F(0))])

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            Arrangement(0, [])


class TestIntersect:
    def test_empty_support_gives_whole_space(self, axes):
        top = intersect(axes, frozenset())
        assert top.dim == 2 and top.support == frozenset() and top.equations == ()

    def test_axes_meet_at_origin(self, axes):
        origin = intersect(axes, {0, 1})
        assert origin.dim == 0
        assert origin.equations == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))

    def test_parallel_lines_give_none(self):
        par = lines((1, 0, 0), (1, 0, 1))
        assert intersect(par, {0, 1}) is None

    def test_support_is_maximal(self, concurrent3):
        # asking for two of the three concurrent lines finds the third
        flat = intersect(concurrent3, {0, 1})
        assert flat.support == frozenset([0, 1, 2])


class TestBuildLattice:
    def test_generic_three_lines(self, generic3):
        L = build_lattice(generic3)
        dims = sorted(f.dim for f in L.flats.values())
        assert dims == [0, 0, 0, 1, 1, 1, 2]

    def test_concurrent_three_lines(self, concurrent3):
        L = build_lattice(concurrent3)
        assert sorted(f.dim for f in L.flats.values()) == [0, 1, 1, 1, 2]

    def test_parallel_pair_has_rank_one(self):
        L = build_lattice(lines((1, 0, 0), (1, 0, 1)))
        assert sorted(f.dim for f in L.flats.values()) == [1, 1, 2]
        assert L.rank == 1

    def test_no_duplicate_equation_systems(self, generic3):
        L = build_lattice(generic3)
        systems = [f.payload.equations for f in L.flats.values()]
        assert len(systems) == len(set(systems))

    def test_order_respects_dimension(self, generic3):
        L = build_lattice(generic3)
        for x in L.ids():
            for y in L.ids():
                if x != y and L.leq(x, y):
                    assert L.flats[x].dim > L.flats[y].dim

    def test_three_planes_in_r3(self):
        A = lines((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        L = build_lattice(A)
        assert sorted(f.dim for f in L.flats.values()) == [0, 1, 1, 1, 2, 2, 2, 3]
        assert f_vector_from_semilattice(L) == [1, 6, 12, 8]

    def test_scaling_leaves_lattice_unchanged(self, generic3):
        scaled = lines((2, 0, 0), (0, -5, 0), (F(1, 3), F(1, 3), F(1, 3)))
        assert semilattice_to_json(build_lattice(scaled)) == semilattice_to_json(build_lattice(generic3))

    def test_support_biconditional(self, generic3, concurrent3):
        # j is in a flat's support exactly when cutting with j changes nothing
        for A in (generic3, concurrent3):
            L = build_lattice(A)
            for fl in L.flats.values():
                for j in range(len(A.hyperplanes)):
                    cut = intersect(A, fl.support | {j})
                    unchanged = cut is not None and cut.equations == fl.payload.equations
                    assert unchanged == (j in fl.support)


class TestRestrict:
    def test_axes_on_one_line_gives_chain(self, axes):
        L = build_lattice(axes)
        line = next(f for f in L.flats.values() if f.dim == 1)
        R = restrict(axes, line.payload)
        assert sorted(f.dim for f in R.flats.values()) == [0, 1]
        assert R.ambient_dim == 1

    def test_at_whole_space_equals_build(self, generic3):
        L = build_lattice(generic3)
        top = L.flats[L.minimum].payload
        assert semilattice_to_json(restrict(generic3, top)) == semilattice_to_json(L)

    def test_generic_line_carries_two_points(self, generic3):
        L = build_lattice(generic3)
        line = next(f for f in L.flats.values() if f.dim == 1)
        R = restrict(generic3, line.payload)
        assert sorted(f.dim for f in R.flats.values()) == [0, 0, 1]

    def test_at_point_is_singleton(self, axes):
        L = build_lattice(axes)
        point = next(f for f in L.flats.values() if f.dim == 0)
        R = restrict(axes, point.payload)
        assert len(R.flats) == 1 and R.ambient_dim == 0

    def test_matches_upper_set_as_ranked_poset(self, generic3, concurrent3):
        for A in (generic3, concurrent3):
            L = build_lattice(A)
            for fid in L.ids():
                R = restrict(A, L.flats[fid].payload)
                U = upper_set(L, fid)
                assert sorted(f.dim for f in R.flats.values()) == sorted(
                    f.dim for f in U.flats.values()
                )
                assert mobius_polynomial(R) == mobius_polynomial(U)

    def test_unknown_flat_rejected(self, axes):
        strangers = [
            ((F(1), F(1), F(5)),),
            # the line x = 0, with too few and too many columns
            ((F(1), F(0)),),
            ((F(1), F(0), F(0), F(0)),),
            # the line x = 0 again, but not in canonical form
            ((F(2), F(0), F(0)),),
            # no solution at all
            ((F(0), F(0), F(1)),),
            # not an exact rational
            ((F(1), F(0), 0.0),),
        ]
        for equations in strangers:
            with pytest.raises(FlatNotInLattice):
                restrict(axes, AffineFlat(equations, 1, frozenset()))


class TestJson:
    def test_round_trip(self, generic3):
        doc = arrangement_to_json(generic3)
        back = arrangement_from_json(doc)
        assert arrangement_to_json(back) == doc

    def test_fixture_parses(self, fixture_doc):
        A = arrangement_from_json(fixture_doc("generic3.json"))
        assert A.ambient_dim == 2 and len(A) == 3

    def test_rational_strings(self):
        A = lines((F(3, 2), 0, F(-1, 2)),)
        doc = arrangement_to_json(A)
        assert doc["hyperplanes"][0] == {"normal": ["1", "0"], "offset": "-1/3"}

    def test_bad_rational_rejected(self):
        doc = {"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1.5"], "offset": "0"}]}
        with pytest.raises(ParseError):
            arrangement_from_json(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            arrangement_from_json({"kind": "hyperplanes"})

    def test_zero_normal_rejected(self):
        doc = {"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [{"normal": ["0", "0"], "offset": "1"}]}
        with pytest.raises(ParseError):
            arrangement_from_json(doc)
