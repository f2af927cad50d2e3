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
        "Arrangement", "BiPolynomial", "CapExceeded",
        "CutcountError", "DuplicateHyperplane",
        "FlatNotInLattice", "MissingMeet", "NegativeCoefficient", "NoMinimum",
        "NotAPartialOrder", "OutOfRange", "ParamError", "ParseError", "RankViolation",
        "RepeatedCrossing", "Semilattice", "UnknownFlat", "UnsupportedKind", "WiringDiagram",
        "arrangement_from_json", "arrangement_to_json", "build_lattice",
        "enumerate_faces", "f_from_mobius",
        "f_vector_oracle", "faces_to_json", "lattice_from_wiring",
        "mobius_polynomial", "semilattice_from_json",
        "sweep_f_vector", "wiring_from_json", "wiring_to_json",
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


def _stored(owner: str, node) -> list[tuple[str, str]]:
    """(owner, field) for each field a definition stores: annotated names in
    a class body, `self.x = ...` and `object.__setattr__(obj, "x", ...)`."""
    fields = []
    if isinstance(node, ast.ClassDef):
        fields += [(owner, item.target.id) for item in node.body
                   if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            fields += [(owner, t.attr) for t in targets if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id == "self"]
        elif (isinstance(sub, ast.Call) and ast.unparse(sub.func) == "object.__setattr__"
              and len(sub.args) > 1 and isinstance(sub.args[1], ast.Constant)):
            fields.append((owner, sub.args[1].value))
    return fields


def test_every_stored_field_has_a_reader():
    # a field counts as read when the package or the benchmark loads it as an
    # attribute (`x.name`); storing it, here or in a test, is not a read
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({
        f"{path.stem}.{owner}.{name}"
        for path, tree in trees.items() if path.parent == SRC
        for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        for owner, name in _stored(node.name, node) if name not in read
    })
    assert unread == []
