"""Pseudoline arrangements in the plane, encoded as wiring diagrams.

A diagram is n horizontal wires swept left to right through a sequence of
crossing events; an event of size k reverses k adjacent wires, realizing a
point where k pseudolines meet. No curve geometry is stored: the
semilattice and all face counts depend only on the crossing pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapExceeded, OutOfRange, ParseError, RepeatedCrossing, json_field
from .poset import MAX_FLATS, Flat, Semilattice, validate_semilattice


@dataclass(frozen=True)
class CrossingEvent:
    """k wires at positions top..top+size-1 meet at one point and reverse."""

    top: int
    size: int


@dataclass(frozen=True)
class WiringDiagram:
    """n wires and an ordered event list. validate_wiring attaches
    final_permutation, which maps exit position to wire index, and `groups`,
    the wires meeting at each event from top to bottom."""

    wires: int
    events: tuple[CrossingEvent, ...]
    final_permutation: tuple[int, ...] | None = None
    groups: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.wires < 1:
            raise ValueError("a wiring diagram needs at least one wire")

    @property
    def validated(self) -> bool:
        return self.groups is not None


def validate_wiring(w: WiringDiagram) -> WiringDiagram:
    """Run the sweep; return the diagram with final_permutation and groups set.

    Raises OutOfRange or RepeatedCrossing on the first invalid event, and
    CapExceeded when the lattice would have more than MAX_FLATS flats.
    """
    flats = 1 + w.wires + len(w.events)
    if flats > MAX_FLATS:
        raise CapExceeded(f"{w.wires} wires and {len(w.events)} events make {flats} flats,"
                          f" over the budget of {MAX_FLATS}")
    perm = list(range(w.wires))
    crossed: set[tuple[int, int]] = set()
    groups = []
    for i, e in enumerate(w.events):
        if e.size < 2:
            raise OutOfRange(f"event {i} has size {e.size}, need at least 2")
        if e.top < 0 or e.top + e.size > w.wires:
            raise OutOfRange(
                f"event {i} covers positions {e.top}..{e.top + e.size - 1} on {w.wires} wires"
            )
        group = perm[e.top: e.top + e.size]
        for a, b in combinations(group, 2):
            pair = (min(a, b), max(a, b))
            if pair in crossed:
                raise RepeatedCrossing(f"wires {pair[0]} and {pair[1]} cross twice (event {i})")
            crossed.add(pair)
        perm[e.top: e.top + e.size] = reversed(group)
        groups.append(tuple(group))
    checked = WiringDiagram(w.wires, tuple(w.events), tuple(perm))
    object.__setattr__(checked, "groups", tuple(groups))
    return checked


def lattice_from_wiring(w: WiringDiagram) -> Semilattice:
    """Intersection semilattice: the plane, one line per wire, one point
    per event (supported by the wires meeting there)."""
    if not w.validated:
        raise ValueError("wiring diagram has not been validated")
    n = w.wires
    flats = [Flat(0, 2, frozenset())]
    flats += [Flat(1 + i, 1, frozenset([i])) for i in range(n)]
    pairs = [(0, 1 + i) for i in range(n)]
    for k, g in enumerate(w.groups):
        pid = 1 + n + k
        flats.append(Flat(pid, 0, frozenset(g)))
        pairs.append((0, pid))
        pairs += [(1 + wire, pid) for wire in g]
    return validate_semilattice(2, flats, pairs)


def sweep_f_vector(w: WiringDiagram) -> tuple[int, int, int]:
    """Face counts (f0, f1, f2) by sweeping the diagram left to right.

    Vertices are the events; edges count, per wire, one segment more than
    its crossings; regions start as the n+1 slab intervals, and an event of
    size k closes the k-1 interior intervals and opens k-1 fresh regions.
    """
    if not w.validated:
        raise ValueError("wiring diagram has not been validated")
    groups = w.groups
    n = w.wires
    f0 = len(groups)
    per_wire = [0] * n
    for g in groups:
        for wire in g:
            per_wire[wire] += 1
    f1 = sum(c + 1 for c in per_wire)
    f2 = n + 1 + sum(len(g) - 1 for g in groups)
    if f0 - f1 + f2 != 1:
        raise RuntimeError(f"sweep produced f = ({f0}, {f1}, {f2}), which fails f0 - f1 + f2 = 1")
    return f0, f1, f2


def wiring_from_json(doc: dict) -> WiringDiagram:
    """Build and validate a diagram from its JSON document form."""
    try:
        events = tuple(
            CrossingEvent(json_field(e["top"], int, "top"), json_field(e["size"], int, "size"))
            for e in json_field(doc["events"], list, "events")
        )
        wires = json_field(doc["wires"], int, "wires")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed wiring document: {exc}") from exc
    return validate_wiring(WiringDiagram(wires, events))


def wiring_to_json(w: WiringDiagram) -> dict:
    """JSON document form."""
    return {
        "kind": "wiring",
        "wires": w.wires,
        "events": [{"top": e.top, "size": e.size} for e in w.events],
    }
