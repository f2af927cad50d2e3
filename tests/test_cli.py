"""End-to-end command-line behavior, run through the installed module or
through cli.main in-process."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutcount import cli
from cutcount.errors import ParseError
from cutcount.faces import MAX_AMBIENT_DIM
from cutcount.poset import MAX_FLATS, semilattice_from_json
from cutcount.wiring import wiring_from_json

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text("utf-8"))


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cutcount", *args],
        capture_output=True, text=True, **kwargs,
    )


def run_in_process(argv):
    """Call cli.main directly; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_transcript(monkeypatch, case):
    # every fixture x {mobius, fpoly, faces, verify, verify --json}, recorded
    # from the command line with the fixture directory as working directory
    expected = GOLDEN[case]
    monkeypatch.chdir(pathlib.Path(__file__).parent / "fixtures")
    code, out, err = run_in_process(expected["argv"])
    assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"])


class TestMobius:
    def test_axes_golden(self, fixture_path):
        proc = run("mobius", fixture_path("axes.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pretty"] == "x^2 + 2xy + y^2 - 2x - 2y + 1"

    def test_empty_arrangement(self, fixture_path):
        proc = run("mobius", fixture_path("empty.json"))
        assert json.loads(proc.stdout)["pretty"] == "1"

    def test_concurrent(self, fixture_path):
        proc = run("mobius", fixture_path("concurrent3.json"))
        assert json.loads(proc.stdout)["pretty"] == "x^2 + 3xy + y^2 - 3x - 3y + 2"

    def test_abstract_semilattice(self, fixture_path):
        proc = run("mobius", fixture_path("semilattice_axes.json"))
        assert json.loads(proc.stdout)["pretty"] == "x^2 + 2xy + y^2 - 2x - 2y + 1"

    def test_terms_are_string_coefficients(self, fixture_path):
        doc = json.loads(run("mobius", fixture_path("axes.json")).stdout)
        assert {"x": 2, "y": 0, "coeff": "1"} in doc["terms"]


class TestFpoly:
    def test_generic3(self, fixture_path):
        proc = run("fpoly", fixture_path("generic3.json"))
        assert json.loads(proc.stdout)["pretty"] == "3x^2 + 9x + 7"

    def test_nine_line_semilattice(self, fixture_path):
        proc = run("fpoly", fixture_path("semilattice_ninelines.json"))
        assert json.loads(proc.stdout)["pretty"] == "5x^2 + 20x + 16"

    def test_empty(self, fixture_path):
        assert json.loads(run("fpoly", fixture_path("empty.json")).stdout)["pretty"] == "1"


class TestFaces:
    def test_axes(self, fixture_path):
        doc = json.loads(run("faces", fixture_path("axes.json")).stdout)
        assert doc["f_vector"] == [1, 4, 4]
        assert doc["faces"][0] == {"signs": "00", "dim": 0, "flat": 3}

    def test_wiring_triple(self, fixture_path):
        doc = json.loads(run("faces", fixture_path("wiring_triple.json")).stdout)
        assert doc["f_vector"] == [1, 6, 6]

    def test_semilattice_unsupported(self, fixture_path):
        proc = run("faces", fixture_path("semilattice_axes.json"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_cap_flag(self, fixture_path):
        assert run("--cap", "2", "faces", fixture_path("generic3.json")).returncode == 2
        assert run("--cap", "3", "faces", fixture_path("generic3.json")).returncode == 0

    def test_negative_cap_rejected(self, fixture_path):
        proc = run("--cap", "-1", "faces", fixture_path("axes.json"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --cap must be nonnegative, got -1\n"


class TestVerify:
    @pytest.mark.parametrize("name", [
        "empty.json", "axes.json", "generic3.json", "concurrent3.json",
        "parallel2.json", "point_on_line.json", "wiring_triple.json",
        "wiring_generic3.json", "wiring_parallel2.json", "ninewire.json",
    ])
    def test_every_fixture_matches(self, fixture_path, name):
        proc = run("verify", fixture_path(name))
        assert proc.returncode == 0, proc.stderr
        assert "match: pass" in proc.stdout

    def test_axes_euler_line(self, fixture_path):
        assert "euler_check: pass" in run("verify", fixture_path("axes.json")).stdout

    def test_json_report(self, fixture_path):
        doc = json.loads(run("verify", fixture_path("axes.json"), "--json").stdout)
        assert doc["match"] is True
        assert doc["euler_check"] is True
        assert doc["f_vector_direct"] == [1, 4, 4]
        assert doc["mobius_poly"]["pretty"] == "x^2 + 2xy + y^2 - 2x - 2y + 1"
        assert doc["f_poly_theorem"]["pretty"] == "x^2 + 4x + 4"

    def test_corrupted_golden_is_flagged(self, fixture_path):
        # negative control for the comparison harness itself: a corrupted
        # expected f-vector must not slip through the equality check
        doc = json.loads(run("verify", fixture_path("axes.json"), "--json").stdout)
        corrupted = [1, 4, 5]
        assert doc["f_vector_direct"] != corrupted

    def test_semilattice_rejected(self, fixture_path):
        assert run("verify", fixture_path("semilattice_axes.json")).returncode == 2

    def test_cap_checked_before_the_lattice(self, tmp_path, monkeypatch):
        # over the cap, verify must refuse without building the lattice
        def no_lattice(A):
            raise AssertionError("build_lattice ran on an input over the cap")

        monkeypatch.setattr(cli, "build_lattice", no_lattice)
        points = [{"normal": ["1"], "offset": str(i)} for i in range(13)]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": points}))
        code, out, err = run_in_process(["verify", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: 13 hyperplanes exceeds the cap of 12; raise the cap to proceed\n"


class TestGen:
    def test_same_seed_same_bytes(self):
        a = run("gen", "--kind", "hyperplanes", "--seed", "11", "--count", "3")
        b = run("gen", "--kind", "hyperplanes", "--seed", "11", "--count", "3")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_different_seeds_differ(self):
        a = run("gen", "--kind", "hyperplanes", "--seed", "1")
        b = run("gen", "--kind", "hyperplanes", "--seed", "2")
        assert a.stdout != b.stdout

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_generated_arrangement_verifies(self, tmp_path, seed):
        doc = run("gen", "--kind", "hyperplanes", "--seed", str(seed), "--dim", "2",
                  "--count", "4", "--bound", "5").stdout
        path = tmp_path / "gen.json"
        path.write_text(doc)
        assert run("verify", str(path)).returncode == 0

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_generated_wiring_verifies(self, tmp_path, seed):
        doc = run("gen", "--kind", "wiring", "--seed", str(seed), "--wires", "5").stdout
        path = tmp_path / "gen.json"
        path.write_text(doc)
        assert json.loads(doc)["kind"] == "wiring"
        assert run("verify", str(path)).returncode == 0

    def test_too_many_crossings(self):
        proc = run("gen", "--kind", "wiring", "--seed", "1", "--wires", "3", "--crossings", "99")
        assert proc.returncode == 2

    def test_mixed_params_rejected(self):
        proc = run("gen", "--kind", "hyperplanes", "--seed", "1", "--wires", "4")
        assert proc.returncode == 2

    def test_seed_is_required(self):
        assert run("gen", "--kind", "wiring").returncode == 2


class TestBadInput:
    def test_missing_file(self):
        assert run("mobius", "/nonexistent.json").returncode == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert run("mobius", str(path)).returncode == 2

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"kind": "simplices"}')
        proc = run("mobius", str(path))
        assert proc.returncode == 2 and "kind" in proc.stderr

    def test_invalid_semilattice(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "semilattice", "ambient_dim": 2,
            "flats": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}], "leq": [],
        }))
        assert run("mobius", str(path)).returncode == 2

    def test_no_command(self):
        assert run().returncode == 2

    @pytest.mark.parametrize("text", [
        '{"kind": "wiring", "wires": 3.9, "events": []}',
        '{"kind": "wiring", "wires": true, "events": []}',
        '{"kind": "wiring", "wires": "3", "events": []}',
        '{"kind": "wiring", "wires": 3, "events": {}}',
        '{"kind": "wiring", "wires": 3, "events": [{"top": 0, "size": 2.5}]}',
        '{"kind": "wiring", "wires": 3, "events": [{"top": false, "size": 2}]}',
        '{"kind": "hyperplanes", "ambient_dim": 2.7, "hyperplanes": []}',
        '{"kind": "hyperplanes", "ambient_dim": 1e400, "hyperplanes": []}',
        '{"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": {}}',
        '{"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [{"normal": "10", "offset": "0"}]}',
        '{"kind": "semilattice", "ambient_dim": 2.0, "flats": [{"id": 0, "dim": 2}], "leq": []}',
        '{"kind": "semilattice", "ambient_dim": 2, "flats": [{"id": 0.5, "dim": 2}], "leq": []}',
        '{"kind": "semilattice", "ambient_dim": 1, "flats": [{"id": 0, "dim": true}], "leq": []}',
        '{"kind": "semilattice", "ambient_dim": 2, "flats": [{"id": 0, "dim": 2}], "leq": {}}',
        '{"kind": "semilattice", "ambient_dim": 2, "flats": [{"id": 0, "dim": 2}], "leq": [["0", "0"]]}',
        '{"kind": "semilattice", "ambient_dim": 2, "flats": [{"id": 0, "dim": 2}], "leq": ["00"]}',
    ])
    def test_strict_json_types(self, tmp_path, text):
        # only real, non-bool integers and real lists are read; nothing is coerced
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_in_process(["mobius", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("dim", [10**18, MAX_AMBIENT_DIM + 1])
    @pytest.mark.parametrize("command", ["faces", "verify"])
    def test_huge_ambient_dimension_refused(self, tmp_path, command, dim):
        # the face oracle's budget trips before a count per dimension exists
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "hyperplanes", "ambient_dim": dim, "hyperplanes": []}))
        code, out, err = run_in_process([command, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "ambient dimension" in err

    @pytest.mark.parametrize("command", ["mobius", "fpoly"])
    def test_huge_ambient_dimension_order_side(self, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "hyperplanes", "ambient_dim": 10**18, "hyperplanes": []}))
        code, out, err = run_in_process([command, str(path)])
        assert (code, err) == (0, "")
        assert out == '{"terms": [{"x": 0, "y": 0, "coeff": "1"}], "pretty": "1"}\n'

    @pytest.mark.parametrize("command, doc", [
        ("verify", {"kind": "wiring", "wires": 10**9, "events": []}),
        ("mobius", {"kind": "semilattice", "ambient_dim": 1,
                    "flats": [{"id": i, "dim": int(i == 0)} for i in range(MAX_FLATS + 1)],
                    "leq": [[0, i] for i in range(1, MAX_FLATS + 1)]}),
    ])
    def test_flat_budget(self, tmp_path, command, doc):
        # a small document must not ask for gigabytes of order rows
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_in_process([command, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err

    def test_largest_ambient_dimension_enumerated(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "hyperplanes", "ambient_dim": MAX_AMBIENT_DIM, "hyperplanes": []}))
        code, out, _ = run_in_process(["faces", str(path)])
        assert code == 0
        assert json.loads(out)["f_vector"] == [0] * MAX_AMBIENT_DIM + [1]


@pytest.mark.parametrize("loader, doc", [
    (wiring_from_json, {"kind": "wiring"}),
    (wiring_from_json, {"kind": "wiring", "events": []}),
    (wiring_from_json, {"kind": "wiring", "wires": 3, "events": [{"top": 0}]}),
    (wiring_from_json, {"kind": "wiring", "wires": 3, "events": [[0, 2]]}),
    (wiring_from_json, []),
    (semilattice_from_json, {"kind": "semilattice"}),
    (semilattice_from_json, {"kind": "semilattice", "flats": [], "leq": []}),
    (semilattice_from_json, {"kind": "semilattice", "ambient_dim": 0, "flats": [{"id": 0}], "leq": []}),
    (semilattice_from_json, {"kind": "semilattice", "ambient_dim": 0, "flats": [0], "leq": []}),
    (semilattice_from_json, "semilattice"),
])
def test_loaders_raise_parse_error(loader, doc):
    # library callers get the same error class the hyperplane loader raises
    with pytest.raises(ParseError):
        loader(doc)


@pytest.mark.parametrize("args", [
    # larger than a pipe buffer, so the write fails inside the command
    ("gen", "--kind", "wiring", "--seed", "1", "--wires", "200"),
    # small enough to sit in the buffer until the final flush
    ("mobius", "axes.json"),
])
def test_closed_stdout_exits_quietly(fixture_path, args):
    args = [fixture_path(a) if a.endswith(".json") else a for a in args]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cutcount", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


# Small values only: no int above 8 and no list above 4 items, so no
# generated document asks for a large lattice or a long face walk.
small = st.integers(-1, 8)
junk = st.recursive(
    st.none() | st.booleans() | small | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=6,
)
rational = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"])


@st.composite
def hyperplane_docs(draw):
    n = draw(st.integers(1, 3))
    plane = st.fixed_dictionaries({"normal": st.lists(rational, min_size=n, max_size=n), "offset": rational})
    return {"kind": "hyperplanes", "ambient_dim": n, "hyperplanes": draw(st.lists(plane, max_size=4))}


@st.composite
def wiring_docs(draw):
    event = st.fixed_dictionaries({"top": st.integers(0, 3), "size": st.integers(2, 3)})
    return {"kind": "wiring", "wires": draw(st.integers(1, 5)), "events": draw(st.lists(event, max_size=4))}


@st.composite
def semilattice_docs(draw):
    n = draw(st.integers(0, 2))
    dims = [n] + draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3))
    size = len(dims)
    pairs = [[0, b] for b in range(1, size)]
    pairs += draw(st.lists(st.lists(st.integers(0, size - 1), min_size=2, max_size=2), max_size=2))
    flats = [{"id": i, "dim": d} for i, d in enumerate(dims)]
    return {"kind": "semilattice", "ambient_dim": n, "flats": flats, "leq": pairs}


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


@st.composite
def documents(draw):
    """A well-formed document of some kind, often with one value anywhere in
    it (the whole document included) replaced by an arbitrary JSON value."""
    doc = draw(hyperplane_docs() | wiring_docs() | semilattice_docs())
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(junk)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(junk)
    return doc


@given(documents())
@example({"kind": "hyperplanes", "ambient_dim": float("inf"), "hyperplanes": []})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_documents_exit_cleanly(tmp_path, doc):
    # every input either succeeds or exits 2 with a one-line error; 1 only
    # for a verified mismatch; never an uncaught exception
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("mobius", "fpoly", "faces", "verify"):
        code, out, err = run_in_process([command, str(path)])
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        elif code == 1:
            assert command == "verify" and out.endswith("match: FAIL\n")
        else:
            assert code == 0 and err == "", err
