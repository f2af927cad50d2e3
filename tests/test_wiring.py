"""Wiring diagram validation, lattices, and the sweep face count."""

import pytest

from cutcount.errors import CapExceeded, OutOfRange, RepeatedCrossing
from cutcount.poset import (
    MAX_FLATS,
    f_from_mobius,
    mobius_polynomial,
)
from cutcount.wiring import (
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    validate_wiring,
    wiring_from_json,
    wiring_to_json,
)
from reference import f_vector_from_semilattice, flats_by_id


def diagram(wires, *events):
    return validate_wiring(WiringDiagram(wires, events))


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
        # after wires 0 and 1 cross, position 1 holds wire 0
        w = diagram(3, (0, 2), (1, 2))
        assert w.groups == ((0, 1), (0, 2))

    def test_generic_three_wires(self, generic3):
        assert generic3.groups == ((0, 1), (0, 2), (1, 2))

    def test_no_events_keeps_order(self):
        assert diagram(2).groups == ()
        assert diagram(3, (1, 2)).groups == ((1, 2),)

    def test_event_past_the_edge(self):
        with pytest.raises(OutOfRange):
            diagram(2, (1, 2))

    def test_event_too_small(self):
        with pytest.raises(OutOfRange):
            diagram(3, (0, 1))

    @pytest.mark.parametrize("event", [
        (0.5, 2), ("0", 2), (0, 2.0), (0, 2, 9), (0,), (True, 2), (0, False), [0, 2], 2])
    def test_event_must_be_a_pair_of_ints(self, event):
        # no coercion: True is no top 1, and a list is no pair
        with pytest.raises(ValueError) as info:
            diagram(3, (1, 2), event)
        assert str(info.value) == f"event 1 must be a (top, size) pair of ints: {event!r}"

    # a two-wire event inside the wires takes one combined test; any other
    # event is checked for its size first, then for its range
    @pytest.mark.parametrize("event, fault, message", [
        ((-1, 2), OutOfRange, "event 0 covers positions -1..0 on 3 wires"),
        ((2, 2), OutOfRange, "event 0 covers positions 2..3 on 3 wires"),
        ((-1, 1), OutOfRange, "event 0 has size 1, need at least 2"),
        ((True, 2), ValueError, "event 0 must be a (top, size) pair of ints: (True, 2)"),
    ])
    def test_two_wire_event_check_order(self, event, fault, message):
        with pytest.raises(fault) as info:
            diagram(3, event)
        assert str(info.value) == message

    # no coercion: a mapping is no list of its keys, nor is an iterator
    @pytest.mark.parametrize("events", [None, 5, iter([(0, 2)]), {(0, 2): 1}])
    def test_events_must_be_a_list_or_tuple(self, events):
        with pytest.raises(ValueError) as info:
            WiringDiagram(3, events)
        assert str(info.value) == f"events must be a list or tuple: {events!r}"

    def test_pair_crossing_twice(self):
        with pytest.raises(RepeatedCrossing):
            diagram(2, (0, 2), (0, 2))

    def test_pair_crossing_twice_through_triple(self):
        # wires 0 and 1 cross in the triple event and again later
        with pytest.raises(RepeatedCrossing):
            diagram(3, (0, 3), (1, 2))

    def test_one_event_of_many_wires(self):
        # the crossing check is linear in the event's size, not quadratic
        n = 20_000
        w = diagram(n, (0, n))
        assert w.groups == (tuple(range(n)),)
        assert sweep_f_vector(w) == (1, 2 * n, 2 * n)
        # the event reverses the wires: wire 0 leaves at position n - 1, above wire n
        assert diagram(n + 1, (0, n), (n - 1, 2)).groups == (tuple(range(n)), (0, n))
        with pytest.raises(RepeatedCrossing) as info:
            diagram(n, (0, n), (0, n))
        assert str(info.value) == f"wires {n - 2} and {n - 1} cross twice (event 1)"

    def test_needs_a_wire(self):
        with pytest.raises(OutOfRange, match="^a wiring diagram needs at least one wire$"):
            WiringDiagram(0, ())

    # no coercion: True is no one wire, nor 2.0 or "2" two wires
    @pytest.mark.parametrize("wires", [True, 2.0, "2"])
    def test_wire_count_must_be_an_int(self, wires):
        with pytest.raises(OutOfRange) as info:
            WiringDiagram(wires, ())
        assert str(info.value) == f"the wire count must be an int: {wires!r}"

    def test_flat_budget(self):
        # the plane, one line per wire and one point per event
        assert diagram(MAX_FLATS - 1).groups == ()
        assert diagram(MAX_FLATS - 2, (0, 2)).groups == ((0, 1),)
        for wires, events in [(MAX_FLATS, ()), (MAX_FLATS - 1, ((0, 2),))]:
            with pytest.raises(CapExceeded):
                diagram(wires, *events)


class TestLattice:
    def test_triple_point(self, triple):
        L = lattice_from_wiring(triple)
        assert sorted(f.dim for f in flats_by_id(L).values()) == [0, 1, 1, 1, 2]
        point = next(f for f in flats_by_id(L).values() if f.dim == 0)
        # the plane is flat 0 and wire i's line is flat 1 + i
        assert [x for x in L.ids() if x != point.id and point.id in L.above(x)] == [0, 1, 2, 3]
        assert all(f.support is None for f in flats_by_id(L).values())

    def test_generic_three(self, generic3):
        L = lattice_from_wiring(generic3)
        assert sorted(f.dim for f in flats_by_id(L).values()) == [0, 0, 0, 1, 1, 1, 2]

    def test_parallel_pair(self):
        L = lattice_from_wiring(diagram(2))
        assert len(flats_by_id(L)) == 3 and L.rank == 1

    def test_requires_validation(self):
        # no unchecked diagram exists to build a lattice from
        with pytest.raises(RepeatedCrossing) as info:
            WiringDiagram(2, ((0, 2), (0, 2)))
        assert str(info.value) == "wires 0 and 1 cross twice (event 1)"
        with pytest.raises(TypeError):
            WiringDiagram(2, ((0, 2),), (1, 0))


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
        # no unchecked diagram exists to sweep
        with pytest.raises(RepeatedCrossing) as info:
            WiringDiagram(2, ((0, 2), (0, 2)))
        assert str(info.value) == "wires 0 and 1 cross twice (event 1)"
        with pytest.raises(TypeError):
            WiringDiagram(2, ((0, 2),), (1, 0))

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
            mirrored = diagram(w.wires, *reversed(w.events))
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
        assert str(f_from_mobius(mobius_polynomial(L))) == "5x^2 + 20x + 16"

    def test_sweep(self, nine):
        assert sweep_f_vector(nine) == (5, 20, 16)


class TestJson:
    def test_round_trip(self, generic3):
        doc = wiring_to_json(generic3)
        back = wiring_from_json(doc)
        assert back.groups == generic3.groups
        assert wiring_to_json(back) == doc

    def test_fixture_parses(self, fixture_doc):
        w = wiring_from_json(fixture_doc("wiring_triple.json"))
        assert w.wires == 3 and sweep_f_vector(w) == (1, 6, 6)

    def test_invalid_fixture_raises(self):
        with pytest.raises(RepeatedCrossing):
            wiring_from_json({"kind": "wiring", "wires": 2,
                              "events": [{"top": 0, "size": 2}, {"top": 0, "size": 2}]})
