"""Pseudoline arrangements in the plane, encoded as wiring diagrams.

A diagram is n horizontal wires swept left to right through a sequence of
crossing events; an event of size k reverses k adjacent wires, realizing a
point where k pseudolines meet. No curve geometry is stored: the
semilattice and all face counts depend only on the crossing pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import CapExceeded, OutOfRange, RepeatedCrossing, json_field, malformed
from .poset import MAX_FLATS, Semilattice, validate_semilattice


@dataclass(frozen=True)
class WiringDiagram:
    """n wires and an ordered event list, checked when it is built. The
    events are a list or tuple; an event (top, size), a tuple of two ints,
    is size wires at positions top..top+size-1 meeting at one point and
    reversing. The constructor runs validate_wiring, which stores `events`
    as a tuple and `groups`, the wires meeting at each event from top to
    bottom, so no unchecked diagram exists."""

    wires: int
    events: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.wires) is not int:
            raise OutOfRange(f"the wire count must be an int: {self.wires!r}")
        if self.wires < 1:
            raise OutOfRange("a wiring diagram needs at least one wire")
        validate_wiring(self)


def validate_wiring(w: WiringDiagram) -> WiringDiagram:
    """Run the sweep, set `events` (as a tuple) and `groups` on `w`, and
    return it. Every WiringDiagram runs this when it is built.

    Raises ValueError on events that are not a list or tuple, then
    CapExceeded when the lattice would have more than MAX_FLATS flats, then
    in event order ValueError on an event that is not a tuple of two ints
    (the only type check on events, JSON input included), OutOfRange on
    its size, then its range, and RepeatedCrossing. Two wires of an event
    have crossed before when they are out of index order: a two-wire event
    inside the wires takes one combined size and range test, then one
    comparison, and swaps its pair in place; any other event is checked for
    size and range and finds its first such pair by suffix minima.
    """
    n, events = w.wires, w.events
    if type(events) not in (list, tuple):
        raise ValueError(f"events must be a list or tuple: {events!r}")
    flats = 1 + n + len(events)
    if flats > MAX_FLATS:
        raise CapExceeded(f"{n} wires and {len(events)} events make {flats} flats,"
                          f" over the budget of {MAX_FLATS}")
    perm = list(range(n))
    groups = []
    for i, event in enumerate(events):
        if type(event) is not tuple or len(event) != 2 or type(event[0]) is not int or type(event[1]) is not int:
            raise ValueError(f"event {i} must be a (top, size) pair of ints: {event!r}")
        top, size = event
        # two wires out of index order have crossed once already
        if size == 2 and 0 <= top < n - 1:
            a, b = perm[top], perm[top + 1]
            if a > b:
                raise RepeatedCrossing(f"wires {b} and {a} cross twice (event {i})")
            perm[top], perm[top + 1] = b, a
            groups.append((a, b))
            continue
        if size < 2:
            raise OutOfRange(f"event {i} has size {size}, need at least 2")
        end = top + size
        if top < 0 or end > n:
            raise OutOfRange(f"event {i} covers positions {top}..{end - 1} on {n} wires")
        group = perm[top:end]
        # suffix minima find the first such pair in combinations(group, 2) order
        if group != sorted(group):
            after = list(accumulate(reversed(group), min))[::-1]
            a = next(a for a, low in zip(group, after[1:]) if a > low)
            b = next(b for b in group[group.index(a):] if b < a)
            raise RepeatedCrossing(f"wires {b} and {a} cross twice (event {i})")
        perm[top:end] = group[::-1]
        groups.append(tuple(group))
    object.__setattr__(w, "events", tuple(events))
    object.__setattr__(w, "groups", tuple(groups))
    return w


def lattice_from_wiring(w: WiringDiagram) -> Semilattice:
    """Intersection semilattice: the plane, one line per wire, one point
    per event above the lines of the wires meeting there. Its flats carry
    no supports: the sweep, not the lattice, counts a diagram's faces."""
    n, groups = w.wires, w.groups
    # ids are positions: 0 the plane, 1 + i wire i, 1 + n + k event k (above the plane via 2+ wires)
    lines = [[] for _ in range(n)]
    for p, g in enumerate(groups, 1 + n):
        for wire in g:
            lines[wire].append(p)
    succ = [range(1, 1 + n), *lines, *[()] * len(groups)]
    return validate_semilattice(2, [0] + [1] * n + [2] * len(groups), succ, range(len(succ)))


def sweep_f_vector(w: WiringDiagram) -> tuple[int, int, int]:
    """Face counts (f0, f1, f2) by sweeping the diagram left to right.

    Vertices are the events; edges count, per wire, one segment more than
    its crossings; regions start as the n+1 slab intervals, and an event of
    size k closes the k-1 interior intervals and opens k-1 fresh regions.
    The three counts satisfy f0 - f1 + f2 = 1 by construction.
    """
    groups = w.groups
    n = w.wires
    f0 = len(groups)
    meets = sum(map(len, groups))
    return f0, n + meets, n + 1 + meets - f0


def wiring_from_json(doc: dict) -> WiringDiagram:
    """Build a diagram, which checks itself, from its JSON form; a shape fault
    is a ParseError. Each event object's top and size are passed on as they
    are, so their types are checked, in event order, by validate_wiring."""
    with malformed("wiring"):
        events = [(e["top"], e["size"]) if type(e) is dict else json_field(e, dict, "event")
                  for e in json_field(doc["events"], list, "events")]
        return WiringDiagram(json_field(doc["wires"], int, "wires"), events)


def wiring_to_json(w: WiringDiagram) -> dict:
    """JSON document form."""
    return {
        "kind": "wiring",
        "wires": w.wires,
        "events": [{"top": top, "size": size} for top, size in w.events],
    }
