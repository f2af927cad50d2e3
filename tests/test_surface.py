"""The names the package exports, and that it ships only what something calls;
adding or dropping a name is a deliberate edit."""

import ast
import pathlib
import types
from collections import Counter

import cutcount

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cutcount"


def test_public_surface():
    names = sorted(
        name for name, value in vars(cutcount).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "AffineFlat", "Arrangement", "BiPolynomial", "CapExceeded", "CrossingEvent",
        "CutcountError", "DuplicateHyperplane", "FaceRecord", "Flat",
        "FlatNotInLattice", "Hyperplane", "MissingMeet", "NegativeCoefficient", "NoMinimum",
        "NotAPartialOrder", "OutOfRange", "ParamError", "ParseError", "RankViolation",
        "RepeatedCrossing", "Semilattice", "UnknownFlat", "UnsupportedKind", "WiringDiagram",
        "arrangement_from_json", "arrangement_to_json", "build_lattice",
        "enumerate_faces", "f_from_mobius",
        "f_vector_oracle", "faces_to_json", "intersect", "lattice_from_wiring",
        "mobius_polynomial", "parse_rational", "semilattice_from_json",
        "sweep_f_vector", "validate_semilattice",
        "validate_wiring", "wiring_from_json", "wiring_to_json",
    ]


def _named(tree) -> Counter:
    """How often each identifier appears as a Name or an Attribute in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_has_a_caller():
    # a name counts as used when the package or the benchmark names it outside
    # its own definition; the exports in __init__.py are imports, not uses
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]}
    used = sum((_named(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        for node in tree.body:
            defs = [(node.name, node)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
            for qualified, definition in defs:
                if used[definition.name] == _named(definition)[definition.name]:
                    uncalled.append(f"{path.stem}.{qualified}")
    assert uncalled == []
