import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from relconvex import io as rio
from relconvex.cli import main
from relconvex.lattice import MAX_ELEMENTS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_check_lb_collinear_exit_3(capsys):
    code, out = run(capsys, "check", "lb", "--input", FIXTURES / "collinear4.json")
    assert code == 3
    doc = json.loads(out)
    assert doc["result"] is False
    assert doc["witness"]["kind"] == "d-cycle"
    assert doc["witness"]["elements"][0] == doc["witness"]["elements"][-1]


def test_check_jsd_square_exit_0(capsys):
    code, out = run(capsys, "check", "jsd", "--input", FIXTURES / "unit_square.json")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_check_m3_lattice_found(capsys):
    code, out = run(capsys, "check", "m3", "--input", FIXTURES / "m3_lattice.json")
    assert code == 3
    assert json.loads(out)["witness"]["kind"] == "m3-sublattice"


def test_check_antiexchange_table_violation(capsys):
    code, out = run(capsys, "check", "antiexchange",
                    "--input", FIXTURES / "exchange_table.json")
    assert code == 3
    assert json.loads(out)["witness"]["kind"] == "anti-exchange-violation"


def test_check_antiexchange_ground_holds(capsys):
    code, out = run(capsys, "check", "antiexchange",
                    "--input", FIXTURES / "unit_square.json")
    assert code == 0


def test_segments_sdv_cevian_fixture(capsys):
    code, out = run(capsys, "segments", "sdv",
                    "--input", FIXTURES / "cevian_ground.json",
                    "--set", FIXTURES / "cevian_triple.json")
    assert code == 3
    doc = json.loads(out)
    assert doc["witness"]["kind"] == "sdv-violation"


def test_segments_conditions(capsys):
    code, _ = run(capsys, "segments", "check-i", "--input", FIXTURES / "cevian_ground.json")
    assert code == 3
    code, _ = run(capsys, "segments", "check-i", "--input", FIXTURES / "disjoint_segments.json")
    assert code == 0
    code, _ = run(capsys, "segments", "check-ii",
                  "--input", FIXTURES / "triangle_edges.json",
                  "--polytope", FIXTURES / "triangle.json")
    assert code == 0
    code, _ = run(capsys, "segments", "check-ii",
                  "--input", FIXTURES / "cevian_ground.json",
                  "--polytope", FIXTURES / "triangle.json")
    assert code == 3


def test_segments_three_lines_random_spot_check(capsys):
    code, out = run(capsys, "segments", "sdv",
                    "--input", FIXTURES / "three_lines_bounded.json",
                    "--count", "25")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_segments_sdv_reports_empty_triple_list(tmp_path, capsys):
    doc = json.loads((FIXTURES / "cevian_triple.json").read_text())
    doc["triples"] = []
    path = tmp_path / "no_triples.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "segments", "sdv",
                    "--input", FIXTURES / "cevian_ground.json", "--set", path)
    assert code == 0
    assert json.loads(out)["triples"] == 0


def test_segments_sdv_negative_count_exit_1(capsys):
    code = main(["segments", "sdv", "--input", str(FIXTURES / "cevian_ground.json"),
                 "--count", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


def test_build_outputs_lattice_json(capsys):
    code, out = run(capsys, "build", "--input", FIXTURES / "collinear4.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 11
    assert doc["elements"][0] == []


def test_build_dot(capsys):
    code, out = run(capsys, "build", "--input", FIXTURES / "collinear4.json",
                    "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_embed_n1_exit_0(tmp_path, capsys):
    code, _ = run(capsys, "--out-dir", tmp_path, "embed", "--n", "1")
    assert code == 0
    report = json.loads((tmp_path / "embed_report_n1.json").read_text())
    assert report["result"] is True
    assert report["report"]["injective"] and report["report"]["lower_bounded"]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_embed_n_below_1_exit_1(tmp_path, capsys, n):
    code = main(["--out-dir", str(tmp_path), "embed", "--n", n])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err) == {"error": "input",
                                        "reason": "construction requires n >= 1"}
    assert not list(tmp_path.iterdir())


def test_embed_n1_svg_exit_1_before_any_artifact(tmp_path, capsys):
    # the n = 1 ground lies on a line: refused before the construction runs
    for argv in (["--out-dir", str(tmp_path)], []):
        code = main(argv + ["embed", "--n", "1", "--format", "svg"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "input", "reason": "SVG output needs a planar configuration (n = 2)"}
    assert not list(tmp_path.iterdir())


def test_embed_n2_reports_dependency_cycle(tmp_path, capsys):
    code, _ = run(capsys, "--out-dir", tmp_path, "embed", "--n", "2", "--format", "svg")
    assert code == 3
    report = json.loads((tmp_path / "embed_report_n2.json").read_text())
    assert report["report"]["embedding_verified"] is True
    assert report["report"]["lower_bounded"] is False
    assert report["report"]["defect"]["kind"] == "d-cycle"
    svg = (tmp_path / "embed_points_n2.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 10


def test_artifacts_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(capsys, "--out-dir", d1, "embed", "--n", "1")
    run(capsys, "--out-dir", d2, "embed", "--n", "1")
    for f in d1.iterdir():
        assert f.read_bytes() == (d2 / f.name).read_bytes()


def test_global_flags_after_subcommand(tmp_path, capsys):
    code, _ = run(capsys, "embed", "--n", "1", "--out-dir", tmp_path)
    assert code == 0
    assert (tmp_path / "embed_report_n1.json").exists()


def test_input_error_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["check", "jsd", "--input", str(missing)])
    assert code == 1
    err = capsys.readouterr().err
    assert "input" in err


def test_resource_error_exit_2(tmp_path, capsys):
    code = main(["--max-ground", "2", "build", "--input",
                 str(FIXTURES / "collinear4.json")])
    assert code == 2
    assert "resource-limit" in capsys.readouterr().err


def test_antiexchange_on_a_ground_honours_max_ground(capsys):
    code = main(["--max-ground", "2", "check", "antiexchange", "--input",
                 str(FIXTURES / "collinear4.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "resource-limit",
        "reason": "ground of size 4 exceeds the enumeration bound 2"}


def parabola(k: int) -> dict:
    """k points in convex position: 2^k closed sets."""
    return {"type": "finite-ground", "points": [[str(i), str(i * i)] for i in range(k)]}


CHAIN = MAX_ELEMENTS + 1
OVERSIZED = {
    "build-14-points": (["build"], parabola(14), 2),
    "jsd-14-points": (["check", "jsd"], parabola(14), 2),
    "antiexchange-13-points": (["check", "antiexchange"], parabola(13), 2),
    "jsd-lattice-past-the-bound": (["check", "jsd"], {
        "type": "lattice", "elements": list(range(CHAIN)),
        "covers": [[i, i + 1] for i in range(CHAIN - 1)]}, 2),
    "closure-table-huge-n": (["check", "antiexchange"], {
        "type": "closure-table", "n": 10**12, "closure": {"0": 0}}, 1),
}


def _cap_address_space():
    # runs in the child only, so an allocation past 2 GiB fails there
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_input_exits_fast_under_a_memory_cap(tmp_path, name):
    argv, doc, code = OVERSIZED[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "relconvex.cli", *argv, "--input", str(path)],
                          env=env, capture_output=True, text=True, timeout=30,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stderr)["error"] == {1: "input", 2: "resource-limit"}[code]


def test_malformed_rational_exit_1(tmp_path, capsys):
    ground = tmp_path / "ground.json"
    ground.write_text(json.dumps({"type": "finite-ground",
                                  "points": [["0", "0"], ["1/0", "1"]]}))
    code = main(["build", "--input", str(ground)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_reversed_interval_exit_1(tmp_path, capsys):
    pieces = tmp_path / "set.json"
    pieces.write_text(json.dumps({"pieces": [
        {"carrier_index": 0, "t_lo": "3/4", "t_hi": "1/4"}]}))
    code = main(["segments", "closure", "--input", str(FIXTURES / "cevian_ground.json"),
                 "--set", str(pieces)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_ground_without_points_exit_1(tmp_path, capsys):
    ground = tmp_path / "ground.json"
    ground.write_text(json.dumps({"type": "finite-ground"}))
    code = main(["build", "--input", str(ground)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_ground_with_contradicting_dim_exit_1(tmp_path, capsys):
    ground = tmp_path / "ground.json"
    ground.write_text(json.dumps({"type": "finite-ground", "dim": 5,
                                  "points": [["0"], ["1"]]}))
    code = main(["build", "--input", str(ground)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "input", "reason": "declared dim 5 but the points lie in Q^1"}


def test_segment_without_endpoint_exit_1(tmp_path, capsys):
    ground = tmp_path / "segments.json"
    ground.write_text(json.dumps({"type": "segment-ground",
                                  "segments": [{"a": ["0", "0"]}]}))
    code = main(["segments", "check-i", "--input", str(ground)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_cover_outside_lattice_exit_1(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"type": "lattice", "elements": [[], [0]],
                                   "covers": [[0, 5]]}))
    code = main(["check", "jsd", "--input", str(lattice)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_negative_cover_index_exit_1(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"type": "lattice", "elements": [[], [0], [1], [0, 1]],
                                   "covers": [[0, 1], [0, 2], [1, -1], [2, 3]]}))
    code = main(["check", "jsd", "--input", str(lattice)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "input", "reason": "cover index -1 outside elements 0..3"}


@pytest.mark.parametrize("key", ["+3", " 0_3", "3 ", "03"],
                         ids=["plus", "space-underscore", "trailing-space", "leading-zero"])
def test_closure_table_key_not_canonical_exit_1(tmp_path, capsys, key):
    # int() reads each of these as subset 3, so it could stand in for the key "3"
    closure = {"0": 0, "1": 3, "2": 3, key: 3}
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"type": "closure-table", "n": 2, "closure": closure}))
    code = main(["check", "antiexchange", "--input", str(table)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "input", "reason": f"closure table key {key!r} is not a canonical decimal integer"}


def test_closure_table_key_outside_subsets_exit_1(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"type": "closure-table", "n": 2, "closure": {
        "0": 0, "1": 1, "2": 2, "3": 3, "9": 1}}))
    code = main(["check", "antiexchange", "--input", str(table)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "input", "reason": "closure table key 9 is not a subset of 2 points"}


def test_error_documents_are_written_like_artifacts(tmp_path, capsys):
    for argv, code in [(["check", "jsd", "--input", str(tmp_path / "missing.json")], 1),
                       (["--max-ground", "2", "build", "--input",
                         str(FIXTURES / "collinear4.json")], 2)]:
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == rio.dumps(json.loads(err))


CEVIAN = str(FIXTURES / "cevian_ground.json")
CEVIAN_TRIPLE = json.loads((FIXTURES / "cevian_triple.json").read_text())
TABLE = {"type": "closure-table", "n": 2, "closure": {"0": 0, "1": 1, "2": 2, "3": 3}}

# values that int(), bool() or iteration would coerce into a well-formed
# document, or that a reader would crash on, with the command that reads them
# and the input error it must report
WRONG_JSON_TYPES = {
    "cover-indices-booleans": (
        ["check", "jsd", "--input"],
        {"type": "lattice", "elements": [[], [0]], "covers": [[False, True]]},
        "cover index must be a JSON integer, got False"),
    "lattice-elements-string": (
        ["check", "jsd", "--input"],
        {"type": "lattice", "elements": "ab", "covers": [[0, 1]]},
        "lattice elements must be a JSON array, got 'ab'"),
    "lattice-elements-object": (
        ["check", "jsd", "--input"],
        {"type": "lattice", "elements": {"a": 1, "b": 2}, "covers": [[0, 1]]},
        "lattice elements must be a JSON array, got {'a': 1, 'b': 2}"),
    "closure-value-float": (
        ["check", "antiexchange", "--input"],
        {**TABLE, "closure": {**TABLE["closure"], "0": 0.9}},
        "closure of 0 must be a JSON integer, got 0.9"),
    "closure-size-float": (
        ["check", "antiexchange", "--input"],
        {**TABLE, "n": 1.7, "closure": {"0": 0, "1": 1}},
        "closure-table n must be a JSON integer, got 1.7"),
    "carrier-index-float": (
        ["segments", "closure", "--input", CEVIAN, "--set"],
        {"pieces": [{"carrier_index": 0.5, "t_lo": "0", "t_hi": "1"}]},
        "carrier_index must be a JSON integer, got 0.5"),
    "openness-flag-string": (
        ["segments", "check-i", "--input"],
        {"type": "segment-ground",
         "segments": [{"a": ["0", "0"], "b": ["1", "0"], "a_closed": "false"}]},
        "a_closed must be a JSON boolean, got 'false'"),
    "openness-flag-int": (
        ["segments", "closure", "--input", CEVIAN, "--set"],
        {"pieces": [{"carrier_index": 0, "t_lo": "0", "t_hi": "1", "lo_closed": 0}]},
        "lo_closed must be a JSON boolean, got 0"),
    "coordinate-float": (
        ["build", "--input"],
        {"type": "finite-ground", "points": [["0"], [0.1]]},
        'rational must be a "p/q" string, got 0.1'),
    "coordinate-boolean": (
        ["build", "--input"],
        {"type": "finite-ground", "points": [["0"], [True]]},
        'rational must be a "p/q" string, got True'),
    "point-string": (
        ["build", "--input"],
        {"type": "finite-ground", "points": ["12", "34", "05"]},
        "point must be a JSON array, got '12'"),
    "point-object": (
        ["build", "--input"],
        {"type": "finite-ground", "points": [{"1": 0, "2": 0}]},
        "point must be a JSON array, got {'1': 0, '2': 0}"),
    "segment-endpoint-string": (
        ["segments", "check-i", "--input"],
        {"type": "segment-ground", "segments": [{"a": "00", "b": ["1", "0"]}]},
        "point must be a JSON array, got '00'"),
    "polytope-vertex-string": (
        ["segments", "check-ii", "--input", CEVIAN, "--polytope"],
        {"type": "polytope", "vertices": ["00", ["4", "0"], ["0", "4"]]},
        "point must be a JSON array, got '00'"),
    "triple-of-two": (
        ["segments", "sdv", "--input", CEVIAN, "--set"],
        {**CEVIAN_TRIPLE, "triples": [["A", "B", "C"], ["A", "B"]]},
        "a triple must be a JSON array of three set names, got ['A', 'B']"),
    "triple-string": (
        ["segments", "sdv", "--input", CEVIAN, "--set"],
        {**CEVIAN_TRIPLE, "triples": ["ABC"]},
        "a triple must be a JSON array of three set names, got 'ABC'"),
    "interval-end-float": (
        ["segments", "closure", "--input", CEVIAN, "--set"],
        {"pieces": [{"carrier_index": 0, "t_lo": 0.25, "t_hi": "1"}]},
        'rational must be a "p/q" string, got 0.25'),
}


@pytest.mark.parametrize("name", sorted(WRONG_JSON_TYPES))
def test_wrong_json_type_exit_1(tmp_path, capsys, name):
    argv, doc, reason = WRONG_JSON_TYPES[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "input", "reason": reason}


def test_document_not_an_object_exit_1(tmp_path, capsys):
    doc = tmp_path / "list.json"
    doc.write_text("[]")
    code = main(["check", "jsd", "--input", str(doc)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


# orders that are not lattices: Λ has no top, V no bottom, in the bowtie
# a and b have the two upper bounds c and d but no least one, the empty
# order has neither bottom nor top, and covers b < c < b make no order
NON_LATTICES = {
    "lambda": (["0", "a", "b"], [[0, 1], [0, 2]], "pair without upper bound"),
    "vee": (["a", "b", "1"], [[0, 2], [1, 2]], "pair without lower bound"),
    "bowtie": (["a", "b", "c", "d"], [[0, 2], [0, 3], [1, 2], [1, 3]],
               "pair without least upper bound"),
    "empty": ([], [], "lattice without elements"),
    "cover-cycle": (["a", "b", "c"], [[0, 1], [1, 2], [2, 1]], "order not antisymmetric"),
}


# the atom checks ask for the bottom element before any join or meet
NO_BOTTOM_FIRST = {("biatomic", "vee"), ("biatomic", "bowtie"),
                   ("weakatom", "vee"), ("weakatom", "bowtie")}
LATTICE_PROPERTIES = ["jsd", "lb", "biatomic", "weakatom", "m3"]


@pytest.mark.parametrize("prop,name", [(p, n) for p in LATTICE_PROPERTIES
                                       for n in sorted(NON_LATTICES)],
                         ids=lambda v: v)
def test_check_on_non_lattice_exit_1(tmp_path, capsys, prop, name):
    elements, covers, reason = NON_LATTICES[name]
    if (prop, name) in NO_BOTTOM_FIRST:
        reason = "no unique bottom element"
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps({"type": "lattice", "elements": elements, "covers": covers}))
    code = main(["check", prop, "--input", str(doc)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {"error": "input", "reason": reason}
