"""Rational linear algebra, arrangement lattices, and restriction."""

from fractions import Fraction as F

import pytest

from cutcount import exactgeom
from cutcount.errors import CapExceeded, DuplicateHyperplane, FlatNotInLattice, ParseError
from cutcount.exactgeom import (
    MAX_RATIONAL_DIGITS,
    Arrangement,
    arrangement_from_json,
    arrangement_to_json,
    build_lattice,
    intersect,
    parse_rational,
)
from cutcount.poset import mobius_polynomial
from reference import (
    AffineFlat,
    equations,
    f_vector_from_semilattice,
    flat,
    flats_by_id,
    leq,
    minimum,
    restrict,
    rref,
    semilattice_to_json,
    upper_set,
)


def lines(*rows):
    return Arrangement(len(rows[0]) - 1, rows)


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

    # Fraction would read the last five: "1\n" as 1 and the Arabic-Indic three as 3
    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "+3", "", "a", " 1", "1/2/3",
                                     "1\n", "-1\n", "1/2\n", "\u0663", "1/\u0663"])
    def test_rejects_anything_else(self, bad):
        with pytest.raises(ParseError) as info:
            parse_rational(bad)
        assert str(info.value) == f"not a rational literal: {bad!r}"

    def test_digit_budget(self):
        # p and q together; the budget holds before Fraction reads the literal
        p, q = "7" * 1000, "3" * (MAX_RATIONAL_DIGITS - 1000)
        assert parse_rational(f"-{p}/{q}") == F(-int(p), int(q))
        for over in (p + "/" + q + "3", "1" * (MAX_RATIONAL_DIGITS + 1)):
            with pytest.raises(ParseError) as info:
                parse_rational(over)
            assert str(info.value) == (f"rational literal of {MAX_RATIONAL_DIGITS + 1} digits"
                                       f" exceeds the budget of {MAX_RATIONAL_DIGITS}")

    def test_entries_within_the_budget_print_over_their_lead(self):
        # the widest quotient, a p over a lead 1/q, has 2 MAX_RATIONAL_DIGITS - 1 digits
        big, lead = "9" * MAX_RATIONAL_DIGITS, "1/" + "9" * (MAX_RATIONAL_DIGITS - 1)
        plane = {"normal": [lead, big], "offset": big}
        doc = {"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [plane]}
        written = arrangement_to_json(arrangement_from_json(doc))["hyperplanes"][0]
        assert written["normal"][0] == "1" and len(written["offset"]) == 2 * MAX_RATIONAL_DIGITS - 1
        with pytest.raises(DuplicateHyperplane) as info:
            arrangement_from_json({**doc, "hyperplanes": [plane, plane]})
        assert str(info.value).startswith("hyperplane 1 repeats hyperplane 0: (1, 99")

    def test_format_round_trip(self):
        for q in (F(0), F(5), F(-5), F(3, 2), F(-7, 4)):
            assert parse_rational(str(q)) == q


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
    # each hyperplane is kept as one row: normal entries then offset, integer
    # and coprime, with its first nonzero normal entry positive; documents
    # write it with that entry scaled to 1
    def test_canonical_leading_one(self):
        assert lines((2, 4, 6)).rows == ((1, 2, 3),)
        A = lines((F(1, 2), F(-1, 3), F(5, 6)))
        assert A.rows == ((3, -2, 5),)
        assert arrangement_to_json(A)["hyperplanes"] == [{"normal": ["1", "-2/3"], "offset": "5/3"}]

    def test_negative_scaling_same_canonical_form(self):
        assert lines((-2, -4, -6)).rows == lines((1, 2, 3)).rows
        assert lines((F(-1, 2), 0, F(3, 4))).rows == lines((2, 0, -3)).rows == ((2, 0, -3),)

    def test_leading_zero_entries_kept(self):
        assert lines((0, -3, 9)).rows == ((0, 1, -3),)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
            lines((0, 0, 1))

    def test_entries_kept_exact(self):
        assert all(type(v) is int for v in lines((F(2), F(4, 3), 6)).rows[0])
        for row in ((0.5, 1, 1), (True, 4, 6), (1, 2, 1.0)):
            with pytest.raises(ValueError, match="^hyperplane entries must be int or Fraction: "):
                lines(row)


class TestArrangement:
    def test_scaled_duplicate_rejected(self):
        with pytest.raises(DuplicateHyperplane) as info:
            lines((1, 0, 0), (3, 0, 0))
        assert str(info.value) == "hyperplane 1 repeats hyperplane 0: (1, 0) . x = 0"
        # the plane is written with its first nonzero normal entry scaled to 1
        with pytest.raises(DuplicateHyperplane) as info:
            lines((0, 1, 0), (2, 4, 3), (0, 2, 1), (-4, -8, -6))
        assert str(info.value) == "hyperplane 3 repeats hyperplane 1: (1, 2) . x = 3/2"

    def test_wrong_normal_length(self):
        with pytest.raises(ValueError, match="^hyperplane 0 has 1 coordinates, expected 2$"):
            Arrangement(2, [(F(1), F(0))])

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            Arrangement(0, [])

    # no coercion: True is no dimension 1, nor 2.0 or "2" a dimension 2
    @pytest.mark.parametrize("dim, rows", [(True, [(1, 0)]), (2.0, [(1, 0, 0)]), ("2", [(1, 0, 0)])])
    def test_dim_must_be_an_int(self, dim, rows):
        with pytest.raises(ValueError) as info:
            Arrangement(dim, rows)
        assert str(info.value) == f"ambient dimension must be an int: {dim!r}"

    # no coercion: a mapping is no list of its keys, nor a set a row in the order it iterates
    @pytest.mark.parametrize("rows, message", [
        (None, "rows must be a list or tuple: None"),
        ({(1, 2): 0}, "rows must be a list or tuple: {(1, 2): 0}"),
        ([{1: "a", 2: "b"}], "hyperplane 0 must be a list or tuple: {1: 'a', 2: 'b'}"),
        ([{2, 1}], "hyperplane 0 must be a list or tuple: {1, 2}"),
    ])
    def test_rows_must_be_lists_or_tuples(self, rows, message):
        with pytest.raises(ValueError) as info:
            Arrangement(1, rows)
        assert str(info.value) == message


class TestIntersect:
    def test_empty_support_gives_whole_space(self, axes):
        assert intersect(axes, frozenset()) == ()
        top = flat(axes, frozenset())
        assert top.dim == 2 and top.support == frozenset() and equations(top.system) == ()

    def test_axes_meet_at_origin(self, axes):
        origin = flat(axes, {0, 1})
        assert origin.dim == 0
        assert equations(origin.system) == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))

    def test_parallel_lines_give_none(self):
        par = lines((1, 0, 0), (1, 0, 1))
        assert intersect(par, {0, 1}) is None and flat(par, {0, 1}) is None

    def test_support_is_maximal(self, concurrent3):
        # asking for two of the three concurrent lines finds the third
        assert flat(concurrent3, {0, 1}).support == frozenset([0, 1, 2])

    def test_flat_is_its_integer_system(self, axes):
        assert intersect(axes, {0}) == ((0, (1, 0, 0)),)
        assert flat(axes, {0}) == AffineFlat(((0, (1, 0, 0)),), 1, frozenset({0}))
        assert equations(intersect(axes, {0})) == ((F(1), F(0), F(0)),)
        assert intersect(lines((2, 0, 3), (0, 1, 0)), {0}) == ((0, (2, 0, 3)),)

    @pytest.mark.parametrize("index", [-1, True, 3, 1.0, "0", None])
    def test_index_outside_the_arrangement_rejected(self, generic3, index):
        # Python's indexing would read -1 as plane 2 and True as plane 1
        with pytest.raises(ValueError) as info:
            intersect(generic3, {0, index})
        assert str(info.value) == f"no hyperplane has index {index!r}; the arrangement has 3"


class TestBuildLattice:
    def test_generic_three_lines(self, generic3):
        L = build_lattice(generic3)
        dims = sorted(f.dim for f in flats_by_id(L).values())
        assert dims == [0, 0, 0, 1, 1, 1, 2]

    def test_concurrent_three_lines(self, concurrent3):
        L = build_lattice(concurrent3)
        assert sorted(f.dim for f in flats_by_id(L).values()) == [0, 1, 1, 1, 2]

    def test_parallel_pair_has_rank_one(self):
        L = build_lattice(lines((1, 0, 0), (1, 0, 1)))
        assert sorted(f.dim for f in flats_by_id(L).values()) == [1, 1, 2]
        assert L.rank == 1

    def test_no_duplicate_equation_systems(self, generic3):
        L = build_lattice(generic3)
        systems = [equations(intersect(generic3, f.support)) for f in flats_by_id(L).values()]
        assert len(systems) == len(set(systems))

    def test_order_respects_dimension(self, generic3):
        L = build_lattice(generic3)
        by_id = flats_by_id(L)
        for x in L.ids():
            for y in L.ids():
                if x != y and leq(L, x, y):
                    assert by_id[x].dim > by_id[y].dim

    def test_three_planes_in_r3(self):
        A = lines((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        L = build_lattice(A)
        assert sorted(f.dim for f in flats_by_id(L).values()) == [0, 1, 1, 1, 2, 2, 2, 3]
        assert f_vector_from_semilattice(L) == [1, 6, 12, 8]

    def test_flat_budget(self, monkeypatch):
        # three coordinate planes in R^3 have 8 flats
        A = lines((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        monkeypatch.setattr(exactgeom, "MAX_FLATS", 8)
        assert len(flats_by_id(build_lattice(A))) == 8

        def no_validation(*args):
            raise AssertionError("saturation ran past the budget")

        monkeypatch.setattr(exactgeom, "MAX_FLATS", 7)
        monkeypatch.setattr(exactgeom, "validate_semilattice", no_validation)
        with pytest.raises(CapExceeded) as info:
            build_lattice(A)
        assert str(info.value) == "saturation passed the budget of 7 flats"

    def test_scaling_leaves_lattice_unchanged(self, generic3):
        scaled = lines((2, 0, 0), (0, -5, 0), (F(1, 3), F(1, 3), F(1, 3)))
        assert semilattice_to_json(build_lattice(scaled)) == semilattice_to_json(build_lattice(generic3))

    def test_support_biconditional(self, generic3, concurrent3):
        # j is in a flat's support exactly when cutting with j changes nothing
        for A in (generic3, concurrent3):
            L = build_lattice(A)
            for fl in flats_by_id(L).values():
                for j in range(len(A.rows)):
                    cut = intersect(A, fl.support | {j})
                    unchanged = cut is not None and equations(cut) == equations(intersect(A, fl.support))
                    assert unchanged == (j in fl.support)


class TestRestrict:
    def test_axes_on_one_line_gives_chain(self, axes):
        L = build_lattice(axes)
        line = next(f for f in flats_by_id(L).values() if f.dim == 1)
        R = restrict(axes, flat(axes, line.support))
        assert sorted(f.dim for f in flats_by_id(R).values()) == [0, 1]
        assert R.ambient_dim == 1

    def test_at_whole_space_equals_build(self, generic3):
        L = build_lattice(generic3)
        top = flat(generic3, flats_by_id(L)[minimum(L)].support)
        assert semilattice_to_json(restrict(generic3, top)) == semilattice_to_json(L)

    def test_generic_line_carries_two_points(self, generic3):
        L = build_lattice(generic3)
        line = next(f for f in flats_by_id(L).values() if f.dim == 1)
        R = restrict(generic3, flat(generic3, line.support))
        assert sorted(f.dim for f in flats_by_id(R).values()) == [0, 0, 1]

    def test_at_point_is_singleton(self, axes):
        L = build_lattice(axes)
        point = next(f for f in flats_by_id(L).values() if f.dim == 0)
        R = restrict(axes, flat(axes, point.support))
        assert len(flats_by_id(R)) == 1 and R.ambient_dim == 0

    def test_matches_upper_set_as_ranked_poset(self, generic3, concurrent3):
        for A in (generic3, concurrent3):
            L = build_lattice(A)
            for fid in L.ids():
                R = restrict(A, flat(A, flats_by_id(L)[fid].support))
                U = upper_set(L, fid)
                assert sorted(f.dim for f in flats_by_id(R).values()) == sorted(
                    f.dim for f in flats_by_id(U).values()
                )
                assert mobius_polynomial(R) == mobius_polynomial(U)

    def test_unknown_flat_rejected(self, axes):
        x0 = frozenset({0})
        # the line x = 0 itself is accepted
        assert restrict(axes, AffineFlat(((0, (1, 0, 0)),), 1, x0)).ambient_dim == 1
        strangers = [
            AffineFlat(((0, (1, 1, 5)),), 1, frozenset()),
            # the line x = 0, with too few and too many columns
            AffineFlat(((0, (1, 0)),), 1, x0),
            AffineFlat(((0, (1, 0, 0, 0)),), 1, x0),
            # the line x = 0 again, but not in canonical form
            AffineFlat(((0, (2, 0, 0)),), 1, x0),
            # no solution at all
            AffineFlat(((2, (0, 0, 1)),), 1, frozenset()),
            # not an integer, though equal to one
            AffineFlat(((0, (1, 0, 0.0)),), 1, x0),
            AffineFlat(((0, (1, 0, F(0))),), 1, x0),
            # a bare row, and a pivot outside the columns
            AffineFlat(((1, 0, 0),), 1, x0),
            AffineFlat(((3, (1, 0, 0)),), 1, x0),
            # the whole plane's system with the wrong dimension and support
            AffineFlat((), 0, frozenset({0, 1})),
            # the line x = 0 with the wrong dimension and a support that does not exist
            AffineFlat(((0, (1, 0, 0)),), 0, frozenset({7})),
        ]
        for stranger in strangers:
            with pytest.raises(FlatNotInLattice) as info:
                restrict(axes, stranger)
            assert str(info.value) == f"not a flat of the arrangement: {stranger}"


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
