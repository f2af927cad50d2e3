"""Sign-vector face enumeration against hand counts and the lattice side."""

import json
from fractions import Fraction as F
from itertools import product

import pytest

from cutcount import cli, faces
from cutcount.cli import generate_arrangement
from cutcount.errors import CapExceeded, FlatNotInLattice
from cutcount.exactgeom import Arrangement, arrangement_to_json, build_lattice
from cutcount.faces import (
    DEFAULT_CAP,
    MAX_AMBIENT_DIM,
    _between,
    enumerate_faces,
    f_vector_oracle,
    faces_to_json,
    signs_to_string,
)
from cutcount.wiring import WiringDiagram, lattice_from_wiring, validate_wiring
from reference import (DimensionMismatch, chamber_count, chambers, feasible, flats_by_id, signs_from_string,
                       upper_set)


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


class TestSignStrings:
    def test_round_trip(self):
        assert signs_to_string((1, 0, -1)) == "+0-"
        assert signs_from_string("+0-") == (1, 0, -1)

    def test_bad_character(self):
        with pytest.raises(ValueError):
            signs_from_string("+x")


class TestFeasible:
    def test_open_quadrant(self, axes):
        assert feasible(axes, (1, 1))

    def test_origin(self, axes):
        assert feasible(axes, (0, 0))

    def test_contradictory_strip(self):
        # x < 0 together with x > 1
        par = lines((1, 0, 0), (1, 0, 1))
        assert not feasible(par, (-1, 1))
        assert feasible(par, (1, -1))

    def test_point_demanding_strict_side_of_incident_line(self, concurrent3):
        # the triple point lies on line 2, so 0 0 + is empty
        assert not feasible(concurrent3, (0, 0, 1))

    def test_wrong_length(self, axes):
        with pytest.raises(DimensionMismatch):
            feasible(axes, (1,))

    @pytest.mark.parametrize("signs", [(2, -7, 5), (0.5, 0, 1), (1, 0, 1.0), (True, 0, -1), (1, "+", -1)])
    def test_sign_outside_plus_zero_minus_rejected(self, generic3, signs):
        # the walk reads any nonzero entry as a side: 2 and 0.5 as +, -7 as -
        with pytest.raises(ValueError) as info:
            feasible(generic3, signs)
        assert str(info.value) == f"sign vector entries must be -1, 0 or 1: {signs!r}"

    def test_invariant_under_hyperplane_reordering(self, generic3):
        order = (2, 0, 1)
        swapped = Arrangement(2, [generic3.rows[i] for i in order])
        for signs in product((1, 0, -1), repeat=3):
            assert feasible(generic3, signs) == feasible(swapped, tuple(signs[i] for i in order))


class TestBetween:
    # ends are (num, d) pairs with d > 0, or None when open; the result is (num, den)
    @pytest.mark.parametrize("lo, hi, point", [
        (None, None, (0, 1)),
        ((-1, 2), (1, 3), (0, 1)),
        ((-7, 2), None, (0, 1)),
        (None, (5, 2), (0, 1)),
        ((0, 1), None, (1, 1)),
        ((5, 2), None, (3, 1)),
        (None, (0, 1), (-1, 1)),
        # floor and ceil of negative non-integers round away from zero
        (None, (-5, 2), (-3, 1)),
        ((-7, 2), (-1, 3), (-3, 1)),
        ((-7, 2), (-3, 1), (-13, 4)),
        ((1, 3), (2, 3), (1, 2)),
        ((2, 6), (10, 12), (7, 12)),
        ((-2, 3), (-1, 3), (-1, 2)),
    ])
    def test_rule(self, lo, hi, point):
        assert _between(lo, hi) == point
        num, den = point
        assert lo is None or lo[0] * den < num * lo[1]
        assert hi is None or num * hi[1] < hi[0] * den


class TestEnumerate:
    def test_empty_arrangement_has_one_face(self):
        A = Arrangement(2, [])
        assert enumerate_faces(A) == [((), 2, 0)]

    def test_axes_has_nine_faces(self, axes):
        records = enumerate_faces(axes)
        assert [signs_to_string(signs) for signs, _, _ in records] == [
            "00", "0+", "0-", "+0", "++", "+-", "-0", "-+", "--",
        ]
        assert [dim for _, dim, _ in records] == [0, 1, 1, 1, 2, 2, 1, 2, 2]

    def test_concurrent_has_thirteen(self, concurrent3):
        assert len(enumerate_faces(concurrent3)) == 13

    def test_matches_exhaustive_search(self, generic3, concurrent3):
        # a five-line mix of generic, concurrent, and parallel behavior
        mixed = lines((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 1), (1, -1, 0))
        for A in (generic3, concurrent3, mixed):
            m = len(A.rows)
            walked = {signs for signs, _, _ in enumerate_faces(A)}
            brute = {s for s in product((1, 0, -1), repeat=m) if feasible(A, s)}
            assert walked == brute

    def test_same_zero_set_same_flat(self, concurrent3):
        by_id = flats_by_id(build_lattice(concurrent3))
        by_zero = {}
        for signs, _, fid in enumerate_faces(concurrent3):
            zero = tuple(i for i, s in enumerate(signs) if s == 0)
            by_zero.setdefault(zero, set()).add(fid)
            assert by_id[fid].support == frozenset(zero), signs
        assert all(len(ids) == 1 for ids in by_zero.values())

    def test_face_dim_equals_flat_dim(self, generic3):
        by_id = flats_by_id(build_lattice(generic3))
        for _, dim, fid in enumerate_faces(generic3):
            assert dim == by_id[fid].dim

    def test_faces_per_flat_count_chambers_of_upper_set(self, generic3, concurrent3):
        for A in (generic3, concurrent3):
            L = build_lattice(A)
            tally = {fid: 0 for fid in L.ids()}
            for _, _, fid in enumerate_faces(A):
                tally[fid] += 1
            for fid in L.ids():
                assert tally[fid] == chamber_count(upper_set(L, fid))

    def test_lattice_of_another_arrangement(self, monkeypatch, axes):
        # two parallel lines never meet, so the axes' origin has no flat there;
        # two crossing wires have the axes' order, but their flats carry no supports
        parallel = build_lattice(lines((1, 0, 0), (1, 0, 1)))
        crossing = lattice_from_wiring(validate_wiring(WiringDiagram(2, ((0, 2),))))
        for foreign in (parallel, crossing):
            monkeypatch.setattr(faces, "build_lattice", lambda A: foreign)
            with pytest.raises(FlatNotInLattice) as info:
                enumerate_faces(axes)
            assert str(info.value) == "the lattice has no flat with support [0, 1]"

    def test_cap(self, axes):
        with pytest.raises(CapExceeded):
            enumerate_faces(axes, cap=1)
        assert len(enumerate_faces(axes, cap=2)) == 9

    # no coercion: the cap is an int, checked before the planes are counted
    @pytest.mark.parametrize("cap", [2.5, True, None, "3"], ids=["float", "bool", "None", "str"])
    def test_cap_must_be_an_int(self, axes, cap):
        for oracle in (enumerate_faces, f_vector_oracle):
            with pytest.raises(ValueError) as info:
                oracle(axes, cap=cap)
            assert str(info.value) == f"cap must be an int: {cap!r}"

    @pytest.mark.parametrize("A, message", [
        (lines(*[(1, 0, k) for k in range(DEFAULT_CAP + 1)]), "^13 hyperplanes exceeds the cap of 12;"),
        (Arrangement(MAX_AMBIENT_DIM + 1, []), "^ambient dimension 65 exceeds the face oracle's limit"),
        # over both budgets, the plane cap is checked first
        (Arrangement(MAX_AMBIENT_DIM + 1, [(1,) + (0,) * MAX_AMBIENT_DIM + (k,) for k in range(DEFAULT_CAP + 1)]),
         "^13 hyperplanes exceeds the cap of 12;"),
    ])
    def test_budgets_trip_before_the_lattice_is_built(self, monkeypatch, A, message):
        def no_lattice(A):
            raise AssertionError("the lattice was built before the budgets were checked")

        monkeypatch.setattr("cutcount.faces.build_lattice", no_lattice)
        for oracle in (enumerate_faces, f_vector_oracle):
            with pytest.raises(CapExceeded, match=message):
                oracle(A)


class TestFVectorOracle:
    def test_axes(self, axes):
        assert f_vector_oracle(axes) == [1, 4, 4]

    def test_generic3(self, generic3):
        assert f_vector_oracle(generic3) == [3, 9, 7]

    def test_point_on_a_line(self):
        A = Arrangement(1, [(1, F(1, 2))])
        assert f_vector_oracle(A) == [1, 2]

    def test_euler_relation(self, axes, generic3, concurrent3):
        for A in (axes, generic3, concurrent3):
            f = f_vector_oracle(A)
            assert sum((-1) ** i * c for i, c in enumerate(f)) == (-1) ** A.ambient_dim


class TestFourierMotzkinBudget:
    # 7 generic planes in R^5; the largest Fourier-Motzkin stage of the walk holds 96 rows
    ARGS = (5, 7, 5, 1)
    MESSAGE = "a Fourier-Motzkin stage would hold 96 rows, over the face oracle's budget of 95"

    def test_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(faces, "MAX_FM_ROWS", 96)
        assert f_vector_oracle(generate_arrangement(*self.ARGS)) == [21, 140, 385, 546, 399, 120]

    def test_one_row_over(self, monkeypatch):
        monkeypatch.setattr(faces, "MAX_FM_ROWS", 95)
        with pytest.raises(CapExceeded) as info:
            f_vector_oracle(generate_arrangement(*self.ARGS))
        assert str(info.value) == self.MESSAGE

    def test_verify_refuses_with_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(faces, "MAX_FM_ROWS", 95)
        path = tmp_path / "r5.json"
        path.write_text(json.dumps(arrangement_to_json(generate_arrangement(*self.ARGS))))
        code = cli.main(["verify", str(path)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {self.MESSAGE}\n")


class TestChambers:
    def test_empty_arrangement(self):
        assert chambers(Arrangement(2, [])) == [()]

    def test_concurrent(self, concurrent3):
        assert len(chambers(concurrent3)) == 6

    def test_generic(self, generic3):
        assert len(chambers(generic3)) == 7

    def test_matches_lattice_count(self, generic3, concurrent3):
        for A in (generic3, concurrent3):
            assert len(chambers(A)) == chamber_count(build_lattice(A))


class TestJson:
    def test_axes_report(self, axes):
        doc = faces_to_json(enumerate_faces(axes))
        assert doc["f_vector"] == [1, 4, 4]
        assert doc["faces"][0] == {"signs": "00", "dim": 0, "flat": 3}
        assert len(doc["faces"]) == 9

    def test_no_faces(self):
        # the f-vector runs to the largest face dimension, so no face gives none
        assert faces_to_json([]) == {"f_vector": [], "faces": []}
