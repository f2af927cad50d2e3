"""Wiring diagram validation, lattices, and the sweep face count."""

import pytest

from cutcount.errors import CapExceeded, OutOfRange, RepeatedCrossing
from cutcount.poset import (
    MAX_FLATS,
    f_from_mobius,
    f_vector_from_semilattice,
    mobius_polynomial,
)
from cutcount.wiring import (
    CrossingEvent,
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    validate_wiring,
    wiring_from_json,
    wiring_to_json,
)


def diagram(wires, *events):
    return validate_wiring(
        WiringDiagram(wires, tuple(CrossingEvent(t, s) for t, s in events))
    )


def generic_diagram(wires):
    # adjacent transpositions sorting the full reversal: every pair once
    tops = [t for k in range(1, wires) for t in range(k - 1, -1, -1)]
    return diagram(wires, *((t, 2) for t in tops))


@pytest.fixture
def triple():
    return diagram(3, (0, 3))


@pytest.fixture
def generic3():
    return diagram(3, (0, 2), (1, 2), (0, 2))


class TestValidate:
    def test_single_crossing_reverses(self):
        w = diagram(2, (0, 2))
        assert w.final_permutation == (1, 0)
        assert w.validated

    def test_generic_three_wires(self, generic3):
        assert generic3.final_permutation == (2, 1, 0)

    def test_no_events_keeps_order(self):
        assert diagram(2).final_permutation == (0, 1)

    def test_event_past_the_edge(self):
        with pytest.raises(OutOfRange):
            diagram(2, (1, 2))

    def test_event_too_small(self):
        with pytest.raises(OutOfRange):
            diagram(3, (0, 1))

    def test_pair_crossing_twice(self):
        with pytest.raises(RepeatedCrossing):
            diagram(2, (0, 2), (0, 2))

    def test_pair_crossing_twice_through_triple(self):
        # wires 0 and 1 cross in the triple event and again later
        with pytest.raises(RepeatedCrossing):
            diagram(3, (0, 3), (1, 2))

    def test_needs_a_wire(self):
        with pytest.raises(ValueError):
            WiringDiagram(0, ())

    def test_flat_budget(self):
        # the plane, one line per wire and one point per event
        assert diagram(MAX_FLATS - 1).validated
        assert diagram(MAX_FLATS - 2, (0, 2)).validated
        for wires, events in [(MAX_FLATS, ()), (MAX_FLATS - 1, ((0, 2),))]:
            with pytest.raises(CapExceeded):
                diagram(wires, *events)


class TestLattice:
    def test_triple_point(self, triple):
        L = lattice_from_wiring(triple)
        assert sorted(f.dim for f in L.flats.values()) == [0, 1, 1, 1, 2]
        point = next(f for f in L.flats.values() if f.dim == 0)
        assert point.support == frozenset([0, 1, 2])

    def test_generic_three(self, generic3):
        L = lattice_from_wiring(generic3)
        assert sorted(f.dim for f in L.flats.values()) == [0, 0, 0, 1, 1, 1, 2]

    def test_parallel_pair(self):
        L = lattice_from_wiring(diagram(2))
        assert len(L.flats) == 3 and L.rank == 1

    def test_requires_validation(self):
        events = (CrossingEvent(0, 2),)
        for w in (WiringDiagram(2, events), WiringDiagram(2, events, (1, 0))):
            with pytest.raises(ValueError):
                lattice_from_wiring(w)


class TestSweep:
    def test_one_crossing(self):
        assert sweep_f_vector(diagram(2, (0, 2))) == (1, 4, 4)

    def test_triple_point(self, triple):
        assert sweep_f_vector(triple) == (1, 6, 6)

    def test_generic_three(self, generic3):
        assert sweep_f_vector(generic3) == (3, 9, 7)

    def test_parallel_pair(self):
        assert sweep_f_vector(diagram(2)) == (0, 2, 3)

    def test_requires_validation(self):
        events = (CrossingEvent(0, 2),)
        for w in (WiringDiagram(2, events), WiringDiagram(2, events, (1, 0))):
            with pytest.raises(ValueError):
                sweep_f_vector(w)

    def test_agrees_with_lattice(self, triple, generic3):
        for w in (triple, generic3, diagram(2), generic_diagram(5)):
            assert list(sweep_f_vector(w)) == f_vector_from_semilattice(lattice_from_wiring(w))

    def test_generic_closed_form(self):
        for n in range(2, 7):
            pairs = n * (n - 1) // 2
            assert sweep_f_vector(generic_diagram(n)) == (pairs, n * n, 1 + n + pairs)

    def test_mirror_image_has_same_f_vector(self, generic3):
        nine = diagram(9, (0, 3), (3, 2), (5, 2), (7, 2), (2, 2))
        for w in (generic3, nine, generic_diagram(4)):
            mirrored = diagram(w.wires, *((e.top, e.size) for e in reversed(w.events)))
            assert sweep_f_vector(mirrored) == sweep_f_vector(w)


class TestNineWire:
    """A 9-wire diagram with one triple point and four simple crossings."""

    @pytest.fixture
    def nine(self):
        return diagram(9, (0, 3), (3, 2), (5, 2), (7, 2), (2, 2))

    def test_mobius_polynomial(self, nine):
        M = mobius_polynomial(lattice_from_wiring(nine))
        assert str(M) == "5x^2 + 9xy + y^2 - 11x - 9y + 6"

    def test_f_polynomial(self, nine):
        L = lattice_from_wiring(nine)
        assert str(f_from_mobius(mobius_polynomial(L), L.rank)) == "5x^2 + 20x + 16"

    def test_sweep(self, nine):
        assert sweep_f_vector(nine) == (5, 20, 16)


class TestJson:
    def test_round_trip(self, generic3):
        doc = wiring_to_json(generic3)
        back = wiring_from_json(doc)
        assert back.final_permutation == generic3.final_permutation
        assert wiring_to_json(back) == doc

    def test_fixture_parses(self, fixture_doc):
        w = wiring_from_json(fixture_doc("wiring_triple.json"))
        assert w.wires == 3 and sweep_f_vector(w) == (1, 6, 6)

    def test_invalid_fixture_raises(self):
        with pytest.raises(RepeatedCrossing):
            wiring_from_json({"kind": "wiring", "wires": 2,
                              "events": [{"top": 0, "size": 2}, {"top": 0, "size": 2}]})
