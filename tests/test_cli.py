"""End-to-end command-line behavior, run through the installed module or
through cli.main in-process."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutcount import cli
from cutcount.errors import ParamError, ParseError
from cutcount.exactgeom import MAX_RATIONAL_DIGITS, arrangement_from_json, arrangement_to_json
from cutcount.faces import MAX_AMBIENT_DIM
from cutcount.poset import MAX_FLATS, MAX_MOBIUS_ADDITIONS, f_from_mobius, semilattice_from_json
from cutcount.wiring import wiring_from_json
from reference import draw_arrangement, draw_wiring, mobius_sum

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text("utf-8"))


def run(*args, timeout=120, **kwargs):
    # a hung command fails its test instead of holding the CI job
    return subprocess.run(
        [sys.executable, "-m", "cutcount", *args],
        capture_output=True, text=True, timeout=timeout, **kwargs,
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


def test_parser_is_reused_across_calls(monkeypatch, fixture_path):
    # one process, one parser: each call still prints what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    usage_error = ["verify"]
    sequence = [usage_error, ["--cap", "-1", "verify", "x.json"], ["--help"],
                ["verify", fixture_path("axes.json"), "--json"], usage_error]
    for argv in sequence:
        proc = run(*argv)
        assert run_in_process(argv) == (proc.returncode, proc.stdout, proc.stderr)
    assert cli.build_parser() is cli.build_parser()


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
        assert proc.stderr == "error: --wires/--crossings apply to --kind wiring only\n"

    @pytest.mark.parametrize("args, message", [
        (["--kind", "hyperplanes", "--dim", "0"], "--dim must be at least 1"),
        (["--kind", "hyperplanes", "--count", "-1"], "--count must be nonnegative"),
        (["--kind", "hyperplanes", "--bound", "0"], "--bound must be at least 1"),
        (["--kind", "wiring", "--wires", "0"], "--wires must be at least 1"),
        (["--kind", "wiring", "--crossings", "-1"], "--crossings must be nonnegative"),
        (["--kind", "wiring", "--dim", "2"], "--dim/--count/--bound apply to --kind hyperplanes only"),
    ])
    def test_parameters_out_of_range_refused(self, args, message):
        assert run_in_process(["gen", *args, "--seed", "1"]) == (2, "", f"error: {message}\n")

    def test_seed_is_required(self):
        assert run("gen", "--kind", "wiring").returncode == 2

    def test_wiring_draws_stop_at_the_flat_budget(self):
        # drawing ends one flat past the budget instead of at the last crossing
        for wires, events in ((300, 32468), (1000, 31768)):
            proc = run("gen", "--kind", "wiring", "--wires", str(wires), "--seed", "1")
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == (f"error: {wires} wires and {events} events make 32769 flats,"
                                   f" over the budget of {MAX_FLATS}\n")

    def test_wire_count_over_the_budget_refused_before_drawing(self):
        # 10^12 wires would need terabytes of position lists; the budget refuses them first
        wires = 10**12
        assert run_in_process(["gen", "--kind", "wiring", "--wires", str(wires), "--seed", "1"]) == (
            2, "", f"error: {wires} wires and 0 events make {wires + 1} flats, over the budget of {MAX_FLATS}\n")

    @pytest.mark.parametrize("wires", range(1, 25))
    def test_generated_wiring_follows_the_crossed_set_rule(self, wires):
        most = wires * (wires - 1) // 2
        for crossings in (0, 1, 5, 20, most):
            for seed in range(1, 5):
                events = cli.generate_wiring(wires, crossings, seed).events
                assert events == tuple(draw_wiring(wires, crossings, seed))

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_full_60_wire_diagram_follows_the_crossed_set_rule(self, seed):
        events = cli.generate_wiring(60, 1770, seed).events
        assert events == tuple(draw_wiring(60, 1770, seed))

    def test_too_few_distinct_hyperplanes(self):
        # x = -1, 0 and 1 are the only planes with entries in -1..1
        args = ("gen", "--kind", "hyperplanes", "--dim", "1", "--bound", "1", "--seed", "1")
        proc = run(*args, "--count", "4")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --dim 1 --bound 1 give only 3 distinct hyperplanes\n"
        doc = json.loads(run(*args, "--count", "3").stdout)
        assert len(doc["hyperplanes"]) == 3

    def test_generator_refuses_an_unreachable_count(self):
        # called directly, not through `gen`: the draws would never reach 4 planes
        with pytest.raises(ParamError) as info:
            cli.generate_arrangement(1, 4, 1, 0)
        assert str(info.value) == "--dim 1 --bound 1 give only 3 distinct hyperplanes"

    def test_hyperplane_count_over_the_budget_refused_before_drawing(self):
        # m distinct planes make the whole space and m more flats, which verify would refuse
        args = ["gen", "--kind", "hyperplanes", "--dim", "64", "--bound", "1", "--seed", "1"]
        for count in (MAX_FLATS, 10**9):
            start = time.perf_counter()
            assert run_in_process([*args, "--count", str(count)]) == (
                2, "", f"error: {count} hyperplanes make at least {count + 1} flats, over the budget of {MAX_FLATS}\n")
            assert time.perf_counter() - start < 1

    def test_hyperplane_count_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_FLATS", 5)
        assert len(cli.generate_arrangement(2, 4, 5, 1)) == 4
        with pytest.raises(ParamError) as info:
            cli.generate_arrangement(2, 5, 5, 1)
        assert str(info.value) == "5 hyperplanes make at least 6 flats, over the budget of 5"

    @pytest.mark.parametrize("dim", range(1, 5))
    def test_generated_hyperplanes_follow_the_lead_one_rule(self, dim):
        # bound 1 in R^1 has only the three planes x = -1, 0, 1: all of them are drawn
        for bound in range(1, 6):
            for count in (0, 1, 3) if (dim, bound) == (1, 1) else (0, 1, 4, 9):
                for seed in range(1, 5):
                    doc = arrangement_to_json(cli.generate_arrangement(dim, count, bound, seed))
                    assert doc["hyperplanes"] == draw_arrangement(dim, count, bound, seed)

    @pytest.mark.parametrize("wires, crossings, seed, events", [
        (6, 7, 1, [(0, 3), (3, 2), (4, 2), (3, 2), (2, 2), (1, 2), (3, 2)]),
        (6, 7, 2, [(0, 2), (2, 3), (1, 2), (4, 2), (2, 2), (3, 2), (4, 2)]),
        (6, 7, 3, [(4, 2), (2, 3), (4, 2), (0, 3), (3, 2), (2, 2), (1, 2)]),
        # full diagrams: a triple point stands for three crossings
        (5, 10, 1, [(0, 3), (3, 2), (2, 2), (3, 2), (1, 2), (0, 2), (2, 2), (1, 2)]),
        (5, 10, 2, [(0, 2), (2, 3), (1, 2), (2, 2), (3, 2), (0, 2), (1, 2), (2, 2)]),
        (5, 10, 4, [(0, 2), (2, 2), (1, 2), (2, 3), (1, 2), (0, 2), (1, 2), (2, 2)]),
    ])
    def test_generated_wiring_is_pinned(self, wires, crossings, seed, events):
        w = cli.generate_wiring(wires, crossings, seed)
        assert w.events == tuple(events)


class TestBadInput:
    def test_missing_file(self):
        assert run("mobius", "/nonexistent.json").returncode == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert run("mobius", str(path)).returncode == 2

    @pytest.mark.parametrize("body", [
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the recursion limit
        b'{"kind": "wiring\xff"}',  # not UTF-8
        b"[" + b"1" * 5000 + b"]",  # over the interpreter's integer digit limit
    ])
    def test_undecodable_json(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        code, out, err = run_in_process(["mobius", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_json_syntax_error_message(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert run_in_process(["mobius", str(path)]) == (
            2, "", f"error: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")

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

    def test_negative_ambient_dimension(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "kind": "semilattice", "ambient_dim": -1, "flats": [{"id": 0, "dim": -1}], "leq": [],
        }))
        assert run_in_process(["mobius", str(path)]) == (
            2, "", f"error: {path}: malformed semilattice document: ambient dimension must be nonnegative\n")

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

    @pytest.mark.parametrize("command, terms, pretty", [
        ("mobius", [(10**6, 0, "1"), (0, 10**6, "1"), (0, 0, "-1")], "x^1000000 + y^1000000 - 1"),
        ("fpoly", [(10**6, 0, "1")], "x^1000000"),
    ])
    def test_two_flats_of_huge_rank(self, tmp_path, command, terms, pretty):
        # the whole space and one point of it: two ranks, 0 and 10^6, and no others
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "semilattice", "ambient_dim": 10**6,
                                    "flats": [{"id": 0, "dim": 10**6}, {"id": 1, "dim": 0}],
                                    "leq": [[0, 1]]}))
        code, out, err = run_in_process([command, str(path)])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [(t["x"], t["y"], t["coeff"]) for t in doc["terms"]] == terms
        assert doc["pretty"] == pretty

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

    @staticmethod
    def chain(tmp_path, flats):
        # flat i has rank i and covers flat i - 1: F ranks and F (F - 1) / 2 strict pairs
        path = tmp_path / f"chain{flats}.json"
        path.write_text(json.dumps({"kind": "semilattice", "ambient_dim": flats - 1,
                                    "flats": [{"id": i, "dim": flats - 1 - i} for i in range(flats)],
                                    "leq": [[i, i + 1] for i in range(flats - 1)]}))
        return str(path)

    @pytest.mark.parametrize("command", ["mobius", "fpoly"])
    def test_tall_chain_refused_before_the_mobius_pass(self, tmp_path, command):
        # 2001 x 2001000 additions would take minutes; the budget refuses them first
        assert run_in_process([command, self.chain(tmp_path, 2001)]) == (
            2, "", "error: 2001 ranks times 2001000 strict order pairs exceed the Möbius budget"
                   f" of {MAX_MOBIUS_ADDITIONS} column additions\n")

    def test_chain_under_the_mobius_budget(self, tmp_path):
        # mu on a chain is 1 on each flat and -1 on each cover
        mu = {(i, i): 1 for i in range(301)} | {(i, i + 1): -1 for i in range(300)}
        M = mobius_sum(mu, {i: i for i in range(301)})
        path = self.chain(tmp_path, 301)
        for command, poly in (("mobius", M), ("fpoly", f_from_mobius(M))):
            assert run_in_process([command, path]) == (0, json.dumps(poly.to_json()) + "\n", "")

    def test_largest_ambient_dimension_enumerated(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "hyperplanes", "ambient_dim": MAX_AMBIENT_DIM, "hyperplanes": []}))
        code, out, _ = run_in_process(["faces", str(path)])
        assert code == 0
        assert json.loads(out)["f_vector"] == [0] * MAX_AMBIENT_DIM + [1]


class TestKnownAnswerOrders:
    """`mobius` and `fpoly` on orders whose Möbius functions have closed forms
    (Rota 1964; Stanley 2007), built here as semilattice documents. Each
    expected term comes from its formula, never from cutcount."""

    @staticmethod
    def document(tmp_path, ambient, dims, pairs):
        # dims maps each flat id to its dimension
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"kind": "semilattice", "ambient_dim": ambient,
                                    "flats": [{"id": i, "dim": d} for i, d in dims.items()],
                                    "leq": [list(pair) for pair in pairs]}))
        return str(path)

    @classmethod
    def terms(cls, tmp_path, ambient, dims, pairs):
        # the term maps of mobius and fpoly
        path = cls.document(tmp_path, ambient, dims, pairs)
        polys = []
        for command in ("mobius", "fpoly"):
            code, out, err = run_in_process([command, path])
            assert (code, err) == (0, "")
            polys.append({(t["x"], t["y"]): int(t["coeff"]) for t in json.loads(out)["terms"]})
        return polys

    @pytest.mark.parametrize("r", range(14))
    def test_boolean_lattice(self, tmp_path, r):
        # the subsets S of r elements, each of dimension r - |S|: mu(S, T) is
        # (-1)^|T - S|, so M = (x + y - 1)^r and f = (x + 2)^r
        dims = {m: r - m.bit_count() for m in range(2 ** r)}
        pairs = [(m, m | 1 << e) for m in dims for e in range(r) if not m >> e & 1]
        M, f = self.terms(tmp_path, r, dims, pairs)
        assert M == {(a, b): comb(r, a) * comb(r - a, b) * (-1) ** (r - a - b)
                     for a in range(r + 1) for b in range(r - a + 1)}
        assert f == {(a, 0): comb(r, a) * 2 ** (r - a) for a in range(r + 1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_lattice(self, tmp_path, n):
        # the braid arrangement's flats: the set partitions of n coordinates, each
        # of dimension its block count, a cover merging two blocks. Its
        # characteristic polynomial t (t - 1) ... (t - n + 1) is t M(0, t), and a
        # face of dimension k is an ordered partition into k blocks, n! regions
        partitions = [()]
        for e in range(n):
            partitions = [p[:i] + (b + (e,),) + p[i + 1:] for p in partitions for i, b in enumerate(p)] + \
                         [p + ((e,),) for p in partitions]
        ids = {p: i for i, p in enumerate(partitions)}
        pairs = [(ids[p], ids[tuple(sorted(p[:i] + p[i + 1:j] + p[j + 1:] + (tuple(sorted(p[i] + p[j])),)))])
                 for p in partitions for i in range(len(p)) for j in range(i + 1, len(p))]
        M, f = self.terms(tmp_path, n, {i: len(p) for p, i in ids.items()}, pairs)
        chi = [1]
        for k in range(n):
            chi = [a - k * b for a, b in zip([0] + chi, chi + [0])]
        assert {b: v for (a, b), v in M.items() if a == 0} == {j - 1: c for j, c in enumerate(chi) if c}
        # k blocks in order: the surjections of n coordinates onto k blocks
        assert f == {(n - k, 0): sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
                     for k in range(1, n + 1)}
        assert f[0, 0] == factorial(n)

    @pytest.mark.parametrize("flats", [1, 2, 585])
    def test_chain(self, tmp_path, flats):
        # mu is 1 on each flat and -1 on each cover, so M is the sum of
        # x^i y^(rk - i) - x^i y^(rk - i - 1) and f = x^rk + 2 (x^(rk - 1) + ... + 1)
        # 585 flats are the tallest chain under the Möbius budget: F ranks times F (F - 1) / 2 pairs
        assert 585 * (585 * 584 // 2) <= MAX_MOBIUS_ADDITIONS < 586 * (586 * 585 // 2)
        rk = flats - 1
        M, f = self.terms(tmp_path, rk, {i: rk - i for i in range(flats)}, [(i, i + 1) for i in range(rk)])
        assert M == {(i, rk - i): 1 for i in range(flats)} | {(i, rk - i - 1): -1 for i in range(rk)}
        assert f == {(i, 0): 2 for i in range(rk)} | {(rk, 0): 1}

    @pytest.mark.parametrize("flats", [586, 4001])
    def test_chain_past_the_mobius_budget(self, tmp_path, flats):
        # F ranks times F (F - 1) / 2 strict pairs: the chain validates, and
        # both commands refuse it before the Möbius pass
        rk = flats - 1
        path = self.document(tmp_path, rk, {i: rk - i for i in range(flats)}, [(i, i + 1) for i in range(rk)])
        for command in ("mobius", "fpoly"):
            assert run_in_process([command, path]) == (
                2, "", f"error: {flats} ranks times {flats * rk // 2} strict order pairs exceed the"
                       f" Möbius budget of {MAX_MOBIUS_ADDITIONS} column additions\n")

    @pytest.mark.parametrize("r, gone", [(4, (0, 1)), (13, (11, 12)), (5, (0, 1, 2))])
    def test_boolean_lattice_without_a_flat(self, tmp_path, r, gone):
        # B_r without the set X: with i < j the last two elements of X, the sets
        # X - {j} and X - {i} keep their common upper bounds, the sets X + {k},
        # but have no least one, so the sets X + {k} lose their meet. The
        # first flat checked with a failing pair is X - {i, j}, its one failing
        # pair is X - {j} and X - {i}, and the two first sets X + {k} in id
        # order are named
        x = sum(1 << e for e in gone)
        i, j = gone[-2:]
        dims = {m: r - m.bit_count() for m in range(2 ** r) if m != x}
        pairs = [(m, m | 1 << e) for m in dims for e in range(r) if not m >> e & 1 and m | 1 << e != x]
        u1, u2 = [x | 1 << e for e in range(r) if e not in gone][:2]
        assert run_in_process(["mobius", self.document(tmp_path, r, dims, pairs)]) == (
            2, "", f"error: flats {u1} and {u2} have no greatest lower bound:"
                   f" both are minimal above {x ^ 1 << j} and {x ^ 1 << i}\n")


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
    # faults the constructors report as ValueError are shape faults too
    (arrangement_from_json, {"kind": "hyperplanes", "ambient_dim": 0, "hyperplanes": []}),
    (semilattice_from_json, {"kind": "semilattice", "ambient_dim": 1,
                             "flats": [{"id": 0, "dim": 1}, {"id": 0, "dim": 0}], "leq": []}),
    (semilattice_from_json, {"kind": "semilattice", "ambient_dim": 1,
                             "flats": [{"id": 0, "dim": 1}, {"id": 1, "dim": 0}], "leq": [[0]]}),
    (semilattice_from_json, {"kind": "semilattice", "ambient_dim": 1,
                             "flats": [{"id": 0, "dim": 1}, {"id": 1, "dim": 0}], "leq": [[0, 1, 1]]}),
])
def test_loaders_raise_parse_error(loader, doc):
    # library callers get ParseError from every loader, named by document kind
    kind = {arrangement_from_json: "hyperplanes", wiring_from_json: "wiring",
            semilattice_from_json: "semilattice"}[loader]
    with pytest.raises(ParseError, match=f"^malformed {kind} document: "):
        loader(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "semilattice", "flats": [], "leq": []},
     "malformed semilattice document: missing field 'ambient_dim'"),
    ({"kind": "wiring", "wires": 3.5, "events": []},
     "malformed wiring document: wires must be a JSON int, got 3.5"),
    ({"kind": "wiring", "wires": 3, "events": [[0, 2]]},
     "malformed wiring document: event must be a JSON object, got [0, 2]"),
    ({"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [["1", "0"]]},
     "malformed hyperplanes document: hyperplane must be a JSON object, got ['1', '0']"),
    ({"kind": "semilattice", "ambient_dim": 1, "flats": [{"id": 0, "dim": 1}, {"id": 1, "dim": 0}],
      "leq": [[0, 1, 1]]},
     "malformed semilattice document: leq pair must have 2 entries, got [0, 1, 1]"),
    ({"kind": "semilattice", "ambient_dim": 1, "flats": [{"id": 0, "dim": 1}, {"id": 1, "dim": 0}], "leq": [[0]]},
     "malformed semilattice document: leq pair must have 2 entries, got [0]"),
    ({"kind": "semilattice", "ambient_dim": 1, "flats": [{"id": 0, "dim": 1}, {"id": 0, "dim": 0}], "leq": []},
     "malformed semilattice document: duplicate flat id 0"),
    ({"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [{"normal": ["0", "0"], "offset": "1"}]},
     "malformed hyperplanes document: hyperplane normal must be nonzero"),
    ({"kind": "hyperplanes", "ambient_dim": 2, "hyperplanes": [{"normal": ["1"], "offset": "1"}]},
     "malformed hyperplanes document: hyperplane 0 has 1 coordinates, expected 2"),
    ({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1.5"], "offset": "0"}]},
     "malformed hyperplanes document: not a rational literal: '1.5'"),
    # validation faults carry no path: the document is well formed
    ({"kind": "wiring", "wires": 0, "events": []}, "a wiring diagram needs at least one wire"),
    ({"kind": "wiring", "wires": 3, "events": [{"top": 2, "size": 2}]}, "event 0 covers positions 2..3 on 3 wires"),
    ({"kind": "hyperplanes", "ambient_dim": 2,
      "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}, {"normal": ["2", "0"], "offset": "0"}]},
     "hyperplane 1 repeats hyperplane 0: (1, 0) . x = 0"),
    ({"kind": "hyperplanes", "ambient_dim": 2,
      "hyperplanes": [{"normal": ["0", "1"], "offset": "0"}, {"normal": ["-2", "-1"], "offset": "1/2"},
                      {"normal": ["4", "2"], "offset": "-1"}]},
     "hyperplane 2 repeats hyperplane 1: (1, 1/2) . x = -1/4"),
    # refused before Fraction reads it, so neither the literal nor Python's advice is echoed
    ({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1" * 5000], "offset": "0"}]},
     f"malformed hyperplanes document: rational literal of 5000 digits exceeds the budget of {MAX_RATIONAL_DIGITS}"),
    # neither a trailing newline nor a digit outside 0-9 is read as a number
    ({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1\n"], "offset": "\u0663"}]},
     "malformed hyperplanes document: not a rational literal: '1\\n'"),
    ({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1"], "offset": "\u0663"}]},
     "malformed hyperplanes document: not a rational literal: '\u0663'"),
    ({"kind": "hyperplanes", "ambient_dim": 1, "hyperplanes": [{"normal": ["1/\u0663"], "offset": "0"}]},
     "malformed hyperplanes document: not a rational literal: '1/\u0663'"),
    # an event's types are checked by validate_wiring, as on a library call
    ({"kind": "wiring", "wires": 3, "events": [{"top": False, "size": 2}]},
     "malformed wiring document: event 0 must be a (top, size) pair of ints: (False, 2)"),
    # so events are checked in order: event 1's bool top is never reached
    ({"kind": "wiring", "wires": 3, "events": [{"top": 2, "size": 2}, {"top": True, "size": 2}]},
     "event 0 covers positions 2..3 on 3 wires"),
])
@pytest.mark.parametrize("command", ["mobius", "fpoly", "faces", "verify"])
def test_refusal_messages(tmp_path, command, doc, message):
    # a shape fault names the file and the document kind; a validation fault
    # prints its own message; neither carries Python's exception text
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    prefix = f"{path}: " if message.startswith("malformed ") else ""
    assert run_in_process([command, str(path)]) == (2, "", f"error: {prefix}{message}\n")


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
            # one shape for every shape fault, whichever loader found it
            assert "malformed" not in err or err.startswith(f"error: {path}: malformed "), err
        elif code == 1:
            assert command == "verify" and out.endswith("match: FAIL\n")
        else:
            assert code == 0 and err == "", err
