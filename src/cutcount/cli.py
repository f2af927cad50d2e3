"""Command-line front end: compute, verify, and generate arrangements.

Exit codes: 0 on success (and on a verified match), 1 when verification
finds a mismatch between the two face-count pipelines, 2 for usage,
parse, or validation problems, and 141 (what a shell reports for a process
ended by SIGPIPE) when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import product

from .errors import CutcountError, ParamError, ParseError, UnsupportedKind
from .exactgeom import (
    Arrangement,
    _canonical,
    arrangement_from_json,
    arrangement_to_json,
    build_lattice,
)
from .faces import DEFAULT_CAP, enumerate_faces, f_vector_oracle, faces_to_json
from .poset import (
    MAX_FLATS,
    f_from_mobius,
    mobius_polynomial,
    semilattice_from_json,
)
from .wiring import (
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    wiring_from_json,
    wiring_to_json,
)


def load_document(path: str):
    """Read a JSON input file; returns (kind, typed payload), checked. Each ParseError names `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, and a non-UTF-8 byte, an integer over the digit limit or too deep a nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object with a 'kind' field")
    kind = doc.get("kind")
    try:
        if kind == "hyperplanes":
            return kind, arrangement_from_json(doc)
        if kind == "wiring":
            return kind, wiring_from_json(doc)
        if kind == "semilattice":
            return kind, semilattice_from_json(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: unknown document kind {kind!r}")


def _lattice_of(kind: str, payload):
    if kind == "hyperplanes":
        return build_lattice(payload)
    if kind == "wiring":
        return lattice_from_wiring(payload)
    return payload


def cmd_mobius(args) -> int:
    kind, payload = load_document(args.file)
    L = _lattice_of(kind, payload)
    print(json.dumps(mobius_polynomial(L).to_json()))
    return 0


def cmd_fpoly(args) -> int:
    kind, payload = load_document(args.file)
    L = _lattice_of(kind, payload)
    M = mobius_polynomial(L)
    print(json.dumps(f_from_mobius(M).to_json()))
    return 0


def cmd_faces(args) -> int:
    kind, payload = load_document(args.file)
    if kind == "semilattice":
        raise UnsupportedKind("abstract semilattices carry no face oracle")
    if kind == "hyperplanes":
        records = enumerate_faces(payload, cap=args.cap)
        print(json.dumps(faces_to_json(records)))
    else:
        f0, f1, f2 = sweep_f_vector(payload)
        print(json.dumps({"f_vector": [f0, f1, f2]}))
    return 0


def cmd_verify(args) -> int:
    kind, payload = load_document(args.file)
    if kind == "semilattice":
        raise UnsupportedKind("verification needs a face oracle; give hyperplanes or wiring input")
    # the oracle refuses an input over its budgets before any lattice is built
    if kind == "hyperplanes":
        direct = f_vector_oracle(payload, cap=args.cap)
    else:
        direct = list(sweep_f_vector(payload))
    L = _lattice_of(kind, payload)
    M = mobius_polynomial(L)
    fpoly = f_from_mobius(M)
    n = L.ambient_dim
    theorem = [fpoly.coefficient(n - i) for i in range(n + 1)]
    match = theorem == direct
    euler = sum(c if i % 2 == 0 else -c for i, c in enumerate(direct))
    euler_ok = euler == (1 if n % 2 == 0 else -1)
    report = {
        "mobius_poly": M.to_json(),
        "f_poly_theorem": fpoly.to_json(),
        "f_vector_direct": direct,
        "euler_check": euler_ok,
        "match": match,
    }
    if args.json:
        print(json.dumps(report))
    else:
        print(f"mobius_poly: {M}")
        print(f"f_poly_theorem: {fpoly}")
        print(f"f_vector_direct: {direct}")
        print(f"euler_check: {'pass' if euler_ok else 'FAIL'}")
        print(f"match: {'pass' if match else 'FAIL'}")
    return 0 if match else 1


def generate_arrangement(dim: int, count: int, bound: int, seed: int) -> Arrangement:
    """Seeded random arrangement; zero normals and duplicates are redrawn.

    Raises ParamError on parameters no draw can meet, before drawing.
    """
    if dim < 1:
        raise ParamError("--dim must be at least 1")
    if count < 0:
        raise ParamError("--count must be nonnegative")
    if count >= MAX_FLATS:
        # m distinct planes make the whole space and m flats of dimension dim - 1
        raise ParamError(f"{count} hyperplanes make at least {count + 1} flats, over the budget of {MAX_FLATS}")
    if bound < 1:
        raise ParamError("--bound must be at least 1")
    # a plane is a drawn vector over its lead c > 0, entries p / q from `values`; the
    # len(values) ** dim >= (2 bound + 1) ** dim planes led by 1 can all be drawn, so the
    # draw space is counted only when they fall short (and then bound < MAX_FLATS)
    if count > (2 * bound + 1) ** dim:
        values: set[Fraction] = set()
        for q in range(1, bound + 1):
            values.update(Fraction(p, q) for p in range(-bound, bound + 1))
            if len(values) ** dim >= count:
                break
        else:
            space = (tuple(v / c for v in rest) for m in range(dim, 0, -1)
                     for c in [v for v in values if v > 0] for rest in product(values, repeat=m))
            seen = set()
            if not any(seen.add(plane) or len(seen) == count for plane in space):
                raise ParamError(f"--dim {dim} --bound {bound} give only {len(seen)} distinct hyperplanes")
    rng = random.Random(seed)
    rows: dict[tuple[int, ...], None] = {}
    while len(rows) < count:
        normal = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim))
        if not any(normal):
            continue
        offset = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        rows[_canonical((*normal, offset))] = None  # a repeat is drawn again
    return Arrangement(dim, list(rows))


def generate_wiring(wires: int, crossings: int, seed: int) -> WiringDiagram:
    """Seeded random valid diagram with at most `crossings` events.

    Events are drawn from the currently applicable ones (mostly size 2,
    occasionally size 3); generation stops early once no event can be
    added without making some pair cross twice.
    """
    WiringDiagram(wires, ())  # over the flat budget with no events: refused before drawing
    rng = random.Random(seed)
    perm = list(range(wires))
    events: list[tuple[int, int]] = []
    # two wires have crossed exactly when they are out of index order; `simple`
    # and `triple` list, in increasing order, the positions starting an uncrossed
    # pair or triple, so rng.choice sees what a full rescan would build
    simple = list(range(wires - 1))
    triple = list(range(wires - 2))
    # drawing stops one flat past the budget, which WiringDiagram then refuses
    while simple and len(events) < crossings and wires + len(events) < MAX_FLATS:
        if triple and rng.random() < 0.15:
            top, size = rng.choice(triple), 3
        else:
            top, size = rng.choice(simple), 2
        perm[top: top + size] = reversed(perm[top: top + size])
        events.append((top, size))
        # only a pair or triple meeting the reversed block top ... top + size - 1 changes
        for t in range(max(top - 2, 0), top + size):
            _mark(simple, t, t < wires - 1 and perm[t] < perm[t + 1])
            _mark(triple, t, t < wires - 2 and perm[t] < perm[t + 1] < perm[t + 2])
    return WiringDiagram(wires, tuple(events))


def _mark(positions: list[int], t: int, present: bool) -> None:
    """Insert t into or delete it from the sorted list `positions`."""
    k = bisect_left(positions, t)
    if k < len(positions) and positions[k] == t:
        if not present:
            del positions[k]
    elif present:
        positions.insert(k, t)


def cmd_gen(args) -> int:
    if args.kind == "hyperplanes":
        if args.wires is not None or args.crossings is not None:
            raise ParamError("--wires/--crossings apply to --kind wiring only")
        dim = 2 if args.dim is None else args.dim
        count = 4 if args.count is None else args.count
        bound = 5 if args.bound is None else args.bound
        doc = arrangement_to_json(generate_arrangement(dim, count, bound, args.seed))
    else:
        if args.dim is not None or args.count is not None or args.bound is not None:
            raise ParamError("--dim/--count/--bound apply to --kind hyperplanes only")
        wires = 4 if args.wires is None else args.wires
        if wires < 1:
            raise ParamError("--wires must be at least 1")
        most = wires * (wires - 1) // 2
        crossings = most if args.crossings is None else args.crossings
        if crossings < 0:
            raise ParamError("--crossings must be nonnegative")
        if crossings > most:
            raise ParamError(f"{wires} wires admit at most {most} crossings")
        doc = wiring_to_json(generate_wiring(wires, crossings, args.seed))
    print(json.dumps(doc))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse looks up
    sys.stdout and sys.stderr when it prints, and every cmd_* function looks
    up the names it calls as module globals when it runs."""
    parser = argparse.ArgumentParser(
        prog="cutcount",
        description="Intersection lattices, Möbius polynomials, and exact face counts",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"hyperplane limit for face enumeration (default {DEFAULT_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mobius", help="print the Möbius polynomial of the input")
    p.add_argument("file")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("fpoly", help="print the face polynomial of the input")
    p.add_argument("file")
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("faces", help="enumerate faces and print the f-vector")
    p.add_argument("file")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("verify", help="check the face counts against direct enumeration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random input document")
    p.add_argument("--kind", choices=["hyperplanes", "wiring"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--wires", type=int)
    p.add_argument("--crossings", type=int)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cap < 0:
            raise ParamError(f"--cap must be nonnegative, got {args.cap}")
        code = args.func(args)
        # small outputs are still buffered here; a closed pipe must fail now
        sys.stdout.flush()
        return code
    except CutcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (`| head`); point stdout at the null device so
        # the interpreter's own flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
