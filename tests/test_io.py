import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattices
from oracles import dumps_reference
from relconvex import io as rio
from relconvex.cli import main
from relconvex.closure import FiniteGround
from relconvex.errors import InputError, ResourceLimitError
from relconvex.geometry import Segment, qp
from relconvex.intervals import Interval
from relconvex.lattice import MAX_ELEMENTS
from relconvex.segments import SegmentUnionGround, SubsegmentSet


def test_rational_roundtrip():
    for s in ["0/1", "7/3", "-5/9"]:
        assert rio.rat_to_str(rio.str_to_rat(s)) == s
    assert rio.rat_to_str(F(3)) == "3/1"
    assert rio.rat_to_str(F(2, 4)) == "1/2"


def test_ground_roundtrip():
    g = FiniteGround([qp(0, 0), qp("1/2", 1)])
    doc = rio.ground_to_json(g)
    g2 = rio.ground_from_json(doc)
    assert g2.points == g.points
    assert doc["points"][1] == ["1/2", "1/1"]


def test_segment_ground_roundtrip():
    # a hand-written document in the form the fixtures use
    doc = {"schema_version": 1, "type": "segment-ground", "dim": 2,
           "segments": [{"a": ["0/1", "0/1"], "b": ["1/1", "1/1"],
                         "a_closed": True, "b_closed": False}]}
    g = rio.segment_ground_from_json(doc)
    assert list(g.segments) == [Segment(qp(0, 0), qp(1, 1), True, False)]


def test_subsegment_roundtrip():
    g = SegmentUnionGround([Segment(qp(0, 0), qp(4, 0)), Segment(qp(0, 1), qp(4, 1))])
    s = SubsegmentSet(g, [[Interval(F(0), F(1, 2), True, False)], []])
    arr = rio.subsegment_set_to_json(s)
    s2 = rio.subsegment_set_from_json(g, arr)
    assert s2 == s


def test_lattice_json_and_back():
    lat = lattices.m3()
    doc = rio.lattice_to_json(lat)
    lat2 = rio.lattice_from_json(doc)
    assert lat2.n == 5
    assert (lat2.leq == lat.leq).all()


def test_lattice_json_sorted_members():
    g = FiniteGround([qp(0), qp(1), qp(2)])
    doc = rio.lattice_to_json(g.lattice())
    for elem in doc["elements"]:
        assert elem == sorted(elem)


def test_dot_deterministic():
    lat = lattices.boolean(2)
    assert rio.lattice_to_dot(lat) == rio.lattice_to_dot(lat)


def test_svg_exact_decimals():
    svg = rio.points_svg([qp(0, 0), qp(1, 0), qp("1/3", "2/3")], ["a", "b", "c"])
    assert "e" not in svg.split("</svg>")[0].replace("text", "").replace("height", "") or True
    assert svg.count("<circle") == 3
    # coordinates are fixed-point decimals, never float repr
    import re
    for m in re.finditer(r'c[xy]="([^"]+)"', svg):
        assert re.fullmatch(r"-?\d+\.\d{3}", m.group(1)), m.group(1)


def test_type_mismatch_raises():
    with pytest.raises(InputError):
        rio.ground_from_json({"type": "lattice"})
    with pytest.raises(InputError):
        rio.polytope_from_json({"type": "finite-ground"})


# a declared dim must be a JSON integer equal to the points' dimension, 2
BAD_DIMS = [5, 1, "2", 2.0, True, None]


@pytest.mark.parametrize("dim", BAD_DIMS)
def test_ground_declared_dim_contradicting_the_points_raises(dim):
    doc = {"type": "finite-ground", "dim": dim, "points": [["0", "0"], ["1", "1"]]}
    with pytest.raises(InputError):
        rio.ground_from_json(doc)
    del doc["dim"]
    assert rio.ground_from_json(doc).dim == 2


@pytest.mark.parametrize("dim", BAD_DIMS)
def test_segment_ground_declared_dim_contradicting_the_points_raises(dim):
    doc = {"type": "segment-ground", "dim": dim,
           "segments": [{"a": ["0", "0"], "b": ["1", "1"]}]}
    with pytest.raises(InputError):
        rio.segment_ground_from_json(doc)
    del doc["dim"]
    assert rio.segment_ground_from_json(doc).dim == 2


@pytest.mark.parametrize("n,keys", [(10**12, 1), (3, 4), (2, 2), (-1, 0)],
                         ids=["huge-n", "too-few", "half", "negative-n"])
def test_closure_table_must_list_all_2_to_the_n_subsets(n, keys):
    # counted before any 1 << n, so a huge n costs nothing
    doc = {"type": "closure-table", "n": n, "closure": {str(m): m for m in range(keys)}}
    with pytest.raises(InputError, match=f"lists {keys} subsets"):
        rio.closure_table_from_json(doc)


def test_lattice_document_past_the_element_bound_raises():
    size = MAX_ELEMENTS + 1
    doc = {"type": "lattice", "elements": list(range(size)),
           "covers": [[i, i + 1] for i in range(size - 1)]}
    with pytest.raises(ResourceLimitError, match=f"{size} lattice elements"):
        rio.lattice_from_json(doc)


# ---------------------------------------------------------------------------
# dumps against json.dumps(indent=2, sort_keys=True)

TEMPLATES = Path(__file__).resolve().parent.parent / "perfbench" / "large_grounds.json"

# flat int lists take dumps' one-join path; bools mixed in must not
flat_ints = st.lists(st.integers(-2**70, 2**70) | st.booleans(), max_size=6)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
# json sorts the items, so the keys of one dict must be mutually comparable
numeric_keys = st.integers(-2**70, 2**70) | st.booleans() | st.floats()


def containers(kids):
    return (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(st.text(), kids, max_size=4)
            | st.dictionaries(numeric_keys, kids, max_size=4)
            | st.dictionaries(st.none(), kids, max_size=1))


json_values = st.recursive(scalars | flat_ints | flat_ints.map(tuple), containers,
                           max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(json_values)
@example(None)      # dumps' own newline after a top-level scalar
@example([])
def test_dumps_matches_json(value):
    assert rio.dumps(value) == dumps_reference(value)


def test_dumps_matches_json_on_deep_nesting():
    doc = [3, -1]
    for depth in range(60):
        if depth % 2:
            doc = [doc, [], {}, (depth, True)]
        else:
            doc = {"k": doc, "é\x00\n": [depth], "z": 0.5}
    assert rio.dumps(doc) == dumps_reference(doc)


# Flat int rows around N, with negatives, huge ints and bools mixed in, each
# also after a row of N indices; N lies above the largest lattice's size.
N = 5000
LOOKUP_EDGES = {
    "around-N": [-1, 0, N - 1, N, N + 1, 10**20],
    "in-range": list(range(N - 3, N)) + [0, 1, 10, 99, 100, 1000],
    "negative-last": [0, 7, N - 1, -1],
    "beyond-lookup-last": list(range(40)) + [N],
    "huge-last": [N - 1] * 3 + [-10**20],
    "bools-mixed": [0, True, N - 1, False, N],
    "bools-only": [True, False, True],
    "tuple": (0, N - 1, 5),
    "tuple-beyond-lookup": (N - 1, N, -1),
    "table-at-depth-3": {"lattice": {"tables": {"join": [[0, 1, N - 1], [2, N, 3],
                                                         [-1, 0, 0], [True, 1, 2]]}}},
}


@pytest.mark.parametrize("name", sorted(LOOKUP_EDGES))
def test_dumps_lookup_edges_match_json(name):
    case = LOOKUP_EDGES[name]
    for doc in (case, {"row": case}, {"a_table": [list(range(N))], "row": case}):
        assert rio.dumps(doc) == dumps_reference(doc)


# dumps writes a nonempty 2-D integer array with every entry in 0..size-1 by
# a lookup of its cells' texts, and any other array as its .tolist()
INT_DTYPES = [f"{kind}{bits}" for kind in ("int", "uint") for bits in (8, 16, 32, 64)]
ARRAY_SHAPES = (st.sampled_from([(0, 0), (0, 3), (3, 0), (0,)])
                | st.tuples(st.integers(1, 6), st.integers(1, 6))
                | st.tuples(st.integers(1, 6))
                | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))


@st.composite
def ndarrays(draw):
    shape = draw(ARRAY_SHAPES)
    size = math.prod(shape)
    values = draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=size, max_size=size))
    kind = draw(st.sampled_from(INT_DTYPES + ["bool", "float"]))
    if kind == "bool":
        return np.array(values, dtype=bool).reshape(shape)
    if kind == "float":
        return (np.array(values, dtype=float) / 2).reshape(shape)
    info = np.iinfo(kind)
    if size and draw(st.booleans()):    # one entry off the lookup
        edges = [v for v in (-1, size, info.min, info.max, -2**63, 2**63 - 1)
                 if info.min <= v <= info.max]
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(edges))
    return np.array(values, dtype=kind).reshape(shape)


@settings(max_examples=400, deadline=None)
@given(ndarrays(), st.lists(st.booleans(), max_size=3))
def test_dumps_matches_json_on_arrays(array, in_dicts):
    doc = array
    for in_dict in in_dicts:
        doc = {"t": doc, "a": 1} if in_dict else [doc, 0]
    assert rio.dumps(doc) == dumps_reference(doc, default=np.ndarray.tolist)


LIST_CYCLE = [1]
LIST_CYCLE.append(LIST_CYCLE)
DICT_CYCLE = {"a": []}
DICT_CYCLE["a"].append(DICT_CYCLE)

UNSERIALISABLE = {
    "fraction": ({"x": F(1, 2)}, TypeError),
    "numpy-int64": ([1, np.int64(3)], TypeError),
    "set": ({"s": {1, 2}}, TypeError),
    "tuple-key": ({(1, 2): 3}, TypeError),
    "mixed-keys": ({"a": 1, 2: 3}, TypeError),
    "list-cycle": (LIST_CYCLE, ValueError),
    "dict-cycle": (DICT_CYCLE, ValueError),
}


@pytest.mark.parametrize("name", sorted(UNSERIALISABLE))
def test_dumps_errors_match_json(name):
    doc, kind = UNSERIALISABLE[name]
    with pytest.raises(kind) as want:
        dumps_reference(doc)
    with pytest.raises(kind) as got:
        rio.dumps(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("index", range(5))
def test_build_tables_matches_json_on_large_templates(tmp_path, capsys, index):
    with open(TEMPLATES) as fh:
        template = json.load(fh)["templates"][index]
    ground = {"type": "finite-ground", "points": template["points"]}
    path = tmp_path / "ground.json"
    path.write_text(json.dumps(ground))
    assert main(["build", "--input", str(path), "--tables"]) == 0
    out = capsys.readouterr().out
    lat = rio.ground_from_json(ground).lattice()
    assert lat.n == template["closed_sets"]
    doc = rio.lattice_to_json(lat, include_tables=True)
    assert out == dumps_reference(doc, default=np.ndarray.tolist)


def test_build_tables_reads_back_as_the_lattice_tables(capsys):
    path = Path(__file__).resolve().parent.parent / "fixtures" / "unit_square.json"
    assert main(["build", "--input", str(path), "--tables"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lat = rio.ground_from_json(json.loads(path.read_text())).lattice()
    assert doc["join_table"] == lat.join_table.tolist()
    assert doc["meet_table"] == lat.meet_table.tolist()
