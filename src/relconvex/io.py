"""Serialization: rationals as "p/q" strings, grounds and lattices as JSON,
Hasse diagrams as DOT, and planar point configurations as SVG.

All emitters sort keys and sequences so identical inputs give byte-identical
artifacts.  SVG coordinates are fixed-point decimal strings computed with
integer arithmetic only.  ``dumps`` writes the bytes of
``json.dumps(data, indent=2, sort_keys=True)`` plus a newline, with an
``np.ndarray`` written as its ``.tolist()``, but joins each list of plain
ints in one step instead of running json's pure-Python indent encoder value
by value, and writes a lattice's join and meet tables, kept as its int32
arrays, by one lookup of their cells' texts.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closure import ClosureTable, FiniteGround
from .errors import InputError
from .geometry import Point, Segment, VPolytope
from .intervals import Interval
from .lattice import FiniteLattice
from .segments import SegmentUnionGround, SubsegmentSet

SCHEMA_VERSION = 1


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def str_to_rat(s: str) -> Fraction:
    """Fraction(s) for a string s; a JSON number or boolean is an InputError."""
    if not isinstance(s, str):
        raise InputError(f"rational must be a \"p/q\" string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {s!r}: {exc}") from exc


def _document(load):
    """A missing key, bad index or wrong type in the document is an InputError."""
    @functools.wraps(load)
    def checked(*args):
        try:
            return load(*args)
        except InputError:
            raise
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"{load.__name__}: malformed document ({exc!r})") from exc
    return checked


def _int(v, what: str) -> int:
    """v if it is a JSON integer; a bool, float or string is an InputError."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"{what} must be a JSON integer, got {v!r}")
    return v


def _subset_key(k: str) -> int:
    """int(k) if str() writes it back as k, so "+3", " 3" and "03" fail."""
    if str(int(k)) != k:
        raise InputError(f"closure table key {k!r} is not a canonical decimal integer")
    return int(k)


def _flag(v, what: str) -> bool:
    """v if it is a JSON boolean; 0, 1 or "false" is an InputError."""
    if not isinstance(v, bool):
        raise InputError(f"{what} must be a JSON boolean, got {v!r}")
    return v


def point_to_json(p: Point) -> list[str]:
    return [rat_to_str(c) for c in p]


def point_from_json(arr: list[str]) -> Point:
    if not isinstance(arr, list):
        raise InputError(f"point must be a JSON array, got {arr!r}")
    return tuple(str_to_rat(c) for c in arr)


# ---------------------------------------------------------------------------
# grounds


def ground_to_json(g: FiniteGround) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "finite-ground",
        "dim": g.dim,
        "points": [point_to_json(p) for p in g.points],
    }


def _declared_dim(data: dict, ground):
    """ground, unless the document declares a "dim" other than its dimension."""
    if "dim" in data and _int(data["dim"], "dim") != ground.dim:
        raise InputError(f"declared dim {data['dim']} but the points lie in Q^{ground.dim}")
    return ground


@_document
def ground_from_json(data: dict) -> FiniteGround:
    if data.get("type") != "finite-ground":
        raise InputError("expected a finite-ground document")
    return _declared_dim(data, FiniteGround([point_from_json(p) for p in data["points"]]))


@_document
def segment_ground_from_json(data: dict) -> SegmentUnionGround:
    if data.get("type") != "segment-ground":
        raise InputError("expected a segment-ground document")
    segs = []
    for s in data["segments"]:
        segs.append(Segment(point_from_json(s["a"]), point_from_json(s["b"]),
                            _flag(s.get("a_closed", True), "a_closed"),
                            _flag(s.get("b_closed", True), "b_closed")))
    return _declared_dim(data, SegmentUnionGround(segs))


@_document
def polytope_from_json(data: dict) -> VPolytope:
    if data.get("type") != "polytope":
        raise InputError("expected a polytope document")
    return VPolytope([point_from_json(p) for p in data["vertices"]])


def subsegment_set_to_json(s: SubsegmentSet) -> list[dict]:
    out = []
    for carrier, ivs in enumerate(s.pieces):
        for iv in ivs:
            out.append({
                "carrier_index": carrier,
                "t_lo": rat_to_str(iv.lo), "t_hi": rat_to_str(iv.hi),
                "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed,
            })
    return out


@_document
def subsegment_set_from_json(ground: SegmentUnionGround, arr: Sequence[dict]) -> SubsegmentSet:
    pieces: list[list[Interval]] = [[] for _ in range(ground.k)]
    for rec in arr:
        idx = _int(rec["carrier_index"], "carrier_index")
        if not 0 <= idx < ground.k:
            raise InputError(f"carrier index {idx} outside ground")
        pieces[idx].append(Interval(str_to_rat(rec["t_lo"]), str_to_rat(rec["t_hi"]),
                                    _flag(rec.get("lo_closed", True), "lo_closed"),
                                    _flag(rec.get("hi_closed", True), "hi_closed")))
    return SubsegmentSet(ground, pieces)


@_document
def subsegment_set_doc_from_json(ground: SegmentUnionGround, doc: dict) -> SubsegmentSet:
    """The set in a ``{"pieces": [...]}`` document (``segments closure --set``)."""
    return subsegment_set_from_json(ground, doc["pieces"])


@_document
def subsegment_triples_from_json(ground: SegmentUnionGround, doc: dict) -> list[tuple]:
    """The triples of a ``{"sets": {name: pieces}, "triples": [[name, ...]]}``
    document (``segments sdv --set``)."""
    named = {k: subsegment_set_from_json(ground, v) for k, v in doc["sets"].items()}
    for t in doc["triples"]:
        if not isinstance(t, list) or len(t) != 3:
            raise InputError(f"a triple must be a JSON array of three set names, got {t!r}")
    return [tuple(named[n] for n in t) for t in doc["triples"]]


@_document
def closure_table_from_json(data: dict) -> ClosureTable:
    if data.get("type") != "closure-table":
        raise InputError("expected a closure-table document")
    n = _int(data["n"], "closure-table n")
    table = {_subset_key(k): _int(v, f"closure of {k}") for k, v in data["closure"].items()}
    return ClosureTable(n, table)


# ---------------------------------------------------------------------------
# lattices


def _element_to_json(label) -> object:
    if isinstance(label, int):
        return sorted(i for i in range(label.bit_length()) if label >> i & 1)
    return label


def lattice_to_json(lat: FiniteLattice, include_tables: bool = False) -> dict:
    """The lattice document; its tables are the lattice's own int32 arrays,
    so a ``json.dumps`` caller passes ``default=np.ndarray.tolist``."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": "lattice",
        "size": lat.n,
        "elements": [_element_to_json(lab) for lab in lat.labels],
        "covers": sorted(lat.cover_pairs()),
        "atoms": sorted(lat.atoms()),
        "join_irreducibles": sorted(lat.join_irreducibles()),
    }
    if include_tables:
        out["join_table"] = lat.join_table
        out["meet_table"] = lat.meet_table
    return out


@_document
def lattice_from_json(data: dict) -> FiniteLattice:
    if data.get("type") != "lattice":
        raise InputError("expected a lattice document")
    if not isinstance(data["elements"], list):
        raise InputError(f"lattice elements must be a JSON array, got {data['elements']!r}")
    labels = [tuple(e) if isinstance(e, list) else e for e in data["elements"]]
    for pair in data["covers"]:
        for i in pair:
            if not 0 <= _int(i, "cover index") < len(labels):
                raise InputError(f"cover index {i} outside elements 0..{len(labels) - 1}")
    return FiniteLattice.from_cover_pairs(labels, data["covers"])


def lattice_to_dot(lat: FiniteLattice) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, lab in enumerate(lat.labels):
        text = _element_to_json(lab)
        lines.append(f'  e{i} [label="{text}"];')
    for i, j in sorted(lat.cover_pairs()):
        lines.append(f"  e{i} -> e{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG (planar configurations)


def _fixed_decimal(x: Fraction) -> str:
    scale = 1000
    num = x.numerator * scale
    q, r = divmod(num, x.denominator)
    if r * 2 >= x.denominator:
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:03d}"


def points_svg(points: Sequence[Point], labels: Sequence) -> str:
    if any(len(p) != 2 for p in points):
        raise InputError("SVG rendering supports planar points only")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    pad = span / 10
    size = 400

    def sx(v: Fraction) -> str:
        return _fixed_decimal((v - lo_x + pad) / (span + 2 * pad) * size)

    def sy(v: Fraction) -> str:
        return _fixed_decimal(size - (v - lo_y + pad) / (span + 2 * pad) * size)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for i, p in enumerate(points):
        cx, cy = sx(p[0]), sy(p[1])
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
        parts.append(f'<text x="{cx}" y="{cy}" dx="6" dy="-6" '
                     f'font-size="12">{labels[i]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# JSON text

_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode  # floats; TypeError for the unserialisable
_INT = {int}


def dumps(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    where an ``np.ndarray`` is written as json writes its ``.tolist()``.

    With an indent, json writes through its pure-Python encoder, one
    generator step per value.  Here a list of plain ints (a cover pair, the
    members of an element) is one join of ``int.__repr__``, and a 2-D
    integer array (a join or meet table) one join of its cells' texts,
    looked up by entry.  Each dict's text, and so the whole document, is one
    join of its parts, so the text of a large document is held at most twice.
    """
    parts = _dict_parts(data, "\n", set()) if isinstance(data, dict) else [_emit(data, "\n", set())]
    parts.append("\n")
    return "".join(parts)


def _emit(o, nl: str, open_ids: set) -> str:
    """o as indented JSON; nl is a newline plus the indent of o's own line."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, o)) == _INT:
            body = sep.join(map(int.__repr__, o))
        else:
            _enter(o, open_ids)
            body = sep.join([_emit(v, inner, open_ids) for v in o])
            open_ids.remove(id(o))
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        return "".join(_dict_parts(o, nl, open_ids))
    if isinstance(o, np.ndarray):
        return _array(o, nl, open_ids)
    return _encode_scalar(o)


def _dict_parts(o: dict, nl: str, open_ids: set) -> list[str]:
    """The texts whose join is o as indented JSON."""
    if not o:
        return ["{}"]
    inner = nl + "  "
    _enter(o, open_ids)
    parts = ["{"]
    for k, v in sorted(o.items()):
        parts += (inner, _key(k), ": ", _emit(v, inner, open_ids), ",")
    open_ids.remove(id(o))
    parts[-1] = nl + "}"
    return parts


def _array(a: np.ndarray, nl: str, open_ids: set) -> str:
    """a as json writes a.tolist().  A nonempty 2-D integer array with every
    entry in 0..a.size-1 (a join or meet table) is one join of a text per
    cell, looked up by entry, that carries the separator and indent before
    it, or for a row's first cell the close of the row before and the open
    of its own; the bound keeps the lookup no longer than a itself."""
    if not (a.ndim == 2 and a.size and np.issubdtype(a.dtype, np.integer)
            and a.min() >= 0 and a.max() < a.size):
        return _emit(a.tolist(), nl, open_ids)
    inner = nl + "  "
    inner2 = inner + "  "
    values = range(int(a.max()) + 1)
    cells = np.array(["," + inner2 + str(v) for v in values], dtype=object)[a]
    cells[:, 0] = np.array([inner + "]," + inner + "[" + inner2 + str(v) for v in values],
                           dtype=object)[a[:, 0]]
    cells[0, 0] = "[" + inner + "[" + inner2 + str(a[0, 0])
    cells[-1, -1] += inner + "]" + nl + "]"
    return "".join(cells.ravel().tolist())


def _enter(o, open_ids: set) -> None:
    if id(o) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(o))


def _key(k) -> str:
    """A dict key as json writes it: non-str scalars become their JSON text, quoted."""
    if isinstance(k, str):
        return _encode_str(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _emit(k, "", set()) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
