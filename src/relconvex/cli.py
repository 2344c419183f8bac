"""Command-line interface.

Commands:
    build        enumerate the closed-set lattice of a finite ground file
    check        run a lattice/closure property check (jsd, lb, biatomic,
                 antiexchange, weakatom, m3)
    embed        run the simplex construction and verify the embedding
    segments     segment-union ground operations (check-i, check-ii, sdv,
                 closure)
    verify-paper run the full acceptance suite

Exit codes: 0 = success / property holds, 3 = property violated (witness in
the report), 1 = input error, 2 = resource bound exceeded (over --max-ground
points, over MAX_ELEMENTS closed sets or lattice elements, or embed n >= 3).  All artifacts are
deterministic for a fixed seed; timings appear only with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import io as rio
from .analysis import (
    check_anti_exchange,
    check_biatomic,
    check_jsd,
    check_lower_bounded,
    check_m3,
    check_weak_atom_property,
)
from .closure import DEFAULT_MAX_GROUND
from .embedding import build_embedding
from .errors import InputError, ResourceLimitError
from .segments import (
    check_condition_disjoint,
    check_condition_faces,
    sdv_spot_check,
    seg_closure,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_VIOLATION = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _write(args, name: str, text: str):
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, check: str, result: bool, witness=None, extra=None) -> dict:
    payload = {
        "schema_version": rio.SCHEMA_VERSION,
        "check": check,
        "result": bool(result),
    }
    if witness is not None:
        payload["witness"] = witness.to_json() if hasattr(witness, "to_json") else witness
    if extra:
        payload.update(extra)
    if args.timings:
        payload["elapsed"] = round(time.monotonic() - args._t0, 3)
    return payload


def cmd_build(args) -> int:
    g = rio.ground_from_json(_load_json(args.input))
    lat = g.lattice(args.max_ground)
    if args.format == "dot":
        _write(args, "lattice.dot", rio.lattice_to_dot(lat))
    elif args.format == "csv":
        rows = ["index,members"]
        for i, lab in enumerate(lat.labels):
            members = " ".join(str(b) for b in range(lab.bit_length()) if lab >> b & 1)
            rows.append(f"{i},{members}")
        rows.append("")
        _write(args, "lattice.csv", "\n".join(rows))
    else:
        doc = rio.lattice_to_json(lat, include_tables=args.tables)
        _write(args, "lattice.json", rio.dumps(doc))
    return EXIT_OK


LATTICE_CHECKS = {"jsd": check_jsd, "lb": check_lower_bounded, "biatomic": check_biatomic,
                  "weakatom": check_weak_atom_property, "m3": check_m3}


def cmd_check(args) -> int:
    data = _load_json(args.input)
    kind = data.get("type")
    if args.property == "antiexchange":
        if kind == "finite-ground":
            operator = rio.ground_from_json(data)
            closed = operator.enumerate_closed_masks(args.max_ground)
        elif kind == "closure-table":
            operator = rio.closure_table_from_json(data)
            closed = operator.enumerate_closed_masks()
        else:
            raise InputError("antiexchange expects a finite-ground or closure-table file")
        ok, witness = check_anti_exchange(operator, closed)
    else:
        if kind == "finite-ground":
            lat = rio.ground_from_json(data).lattice(args.max_ground)
        elif kind == "lattice":
            lat = rio.lattice_from_json(data)
        else:
            raise InputError("expected a finite-ground or lattice file")
        ok, witness = LATTICE_CHECKS[args.property](lat)
    _write(args, f"check_{args.property}.json",
           rio.dumps(_report(args, args.property, ok, witness)))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_embed(args) -> int:
    if args.format == "svg" and args.n == 1:    # the one non-planar n that build_embedding finishes
        raise InputError("SVG output needs a planar configuration (n = 2)")
    w = build_embedding(args.n)
    ground_doc = rio.ground_to_json(w.ground)
    ground_doc["labels"] = [str(lab) for lab in w.labels]
    _write(args, f"embed_ground_n{args.n}.json", rio.dumps(ground_doc))
    construction = {
        "schema_version": rio.SCHEMA_VERSION,
        "type": "construction",
        "n": args.n,
        "schedule_amounts": [rio.rat_to_str(a) for a in w.construction.amounts],
        "schedule_ratios": [rio.rat_to_str(1 - a) for a in w.construction.amounts],
        "copies": {
            ",".join(map(str, sorted(A))): {
                str(i): rio.point_to_json(p) for i, p in sorted(pts.items())
            }
            for A, pts in sorted(w.construction.copies.items(),
                                 key=lambda kv: (len(kv[0]), sorted(kv[0])))
        },
        "center": rio.point_to_json(w.construction.center),
    }
    _write(args, f"embed_construction_n{args.n}.json", rio.dumps(construction))
    report = dict(w.report)
    if w.defect is not None:
        report["defect"] = w.defect.to_json()
    _write(args, f"embed_report_n{args.n}.json",
           rio.dumps(_report(args, "embedding", w.verified, extra={"report": report})))
    if args.format == "dot":
        _write(args, f"embed_target_n{args.n}.dot", rio.lattice_to_dot(w.target))
    if args.format == "svg":
        _write(args, f"embed_points_n{args.n}.svg",
               rio.points_svg(w.ground.points, [str(lab) for lab in w.labels]))
    return EXIT_OK if w.verified else EXIT_VIOLATION


def cmd_segments(args) -> int:
    ground = rio.segment_ground_from_json(_load_json(args.input))
    if args.operation == "check-i":
        ok, pair = check_condition_disjoint(ground)
        report = _report(args, "condition-disjoint-closures", ok,
                         None if ok else {"kind": "overlapping-pair", "elements": list(pair)})
        _write(args, "segments_check_i.json", rio.dumps(report))
        return EXIT_OK if ok else EXIT_VIOLATION
    if args.operation == "check-ii":
        if not args.polytope:
            raise InputError("check-ii needs --polytope")
        poly = rio.polytope_from_json(_load_json(args.polytope))
        ok, bad = check_condition_faces(ground, poly)
        report = _report(args, "condition-segments-in-faces", ok,
                         None if ok else {"kind": "segment-off-faces", "elements": [bad]})
        _write(args, "segments_check_ii.json", rio.dumps(report))
        return EXIT_OK if ok else EXIT_VIOLATION
    if args.operation == "closure":
        if not args.set:
            raise InputError("closure needs --set")
        y = rio.subsegment_set_doc_from_json(ground, _load_json(args.set))
        closed = seg_closure(y)
        _write(args, "segments_closure.json", rio.dumps({
            "schema_version": rio.SCHEMA_VERSION,
            "type": "subsegment-set",
            "pieces": rio.subsegment_set_to_json(closed),
        }))
        return EXIT_OK
    # sdv
    triples = None
    if args.set:
        triples = rio.subsegment_triples_from_json(ground, _load_json(args.set))
    ok, info = sdv_spot_check(ground, triples=triples, count=args.count, seed=args.seed)
    witness = None
    if not ok:
        witness = {"kind": "sdv-violation",
                   "a_join_b": rio.subsegment_set_to_json(info["a_join_b"]),
                   "a_join_meet": rio.subsegment_set_to_json(info["a_join_meet"])}
    report = _report(args, "segment-semidistributivity", ok, witness,
                     extra={"triples": len(triples) if triples is not None else args.count})
    _write(args, "segments_sdv.json", rio.dumps(report))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify_paper(args) -> int:
    from .acceptance import run_all

    results = run_all()
    payload = {
        "schema_version": rio.SCHEMA_VERSION,
        "check": "acceptance-suite",
        "result": all(r.ok for r in results),
        "criteria": [
            {"name": r.name, "ok": r.ok, "detail": r.detail,
             **({"elapsed": round(r.elapsed, 1)} if args.timings else {})}
            for r in results
        ],
    }
    if args.out_dir:
        _write(args, "verify_paper.json", rio.dumps(payload))
    return EXIT_OK if payload["result"] else EXIT_VIOLATION


def _add_common(parser, suppress: bool):
    # shared options, accepted both before and after the subcommand; the
    # post-command occurrence wins because subparsers suppress their defaults
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--out-dir", default=dflt(None),
                        help="write artifacts here instead of stdout")
    parser.add_argument("--seed", type=int, default=dflt(0),
                        help="seed for randomized checks")
    parser.add_argument("--timings", action="store_true", default=dflt(False),
                        help="include elapsed times in reports")
    parser.add_argument("--max-ground", type=int, default=dflt(DEFAULT_MAX_GROUND),
                        help="enumeration bound for grounds")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="relconvex",
                                 description="exact lattices of relatively convex sets")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common(p, suppress=True)
        return p

    b = add_cmd("build", help="enumerate the lattice of a finite ground")
    b.add_argument("--input", required=True)
    b.add_argument("--format", choices=["json", "dot", "csv"], default="json")
    b.add_argument("--tables", action="store_true", help="include join/meet tables")
    b.set_defaults(func=cmd_build)

    c = add_cmd("check", help="decision procedures on a ground or lattice")
    c.add_argument("property",
                   choices=["jsd", "lb", "biatomic", "antiexchange", "weakatom", "m3"])
    c.add_argument("--input", required=True)
    c.set_defaults(func=cmd_check)

    e = add_cmd("embed", help="simplex construction and embedding verification")
    e.add_argument("--n", type=int, required=True, help="1 or 2 (3 exceeds the closed-set bound)")
    e.add_argument("--format", choices=["json", "dot", "svg"], default="json")
    e.set_defaults(func=cmd_embed)

    s = add_cmd("segments", help="segment-union ground operations")
    s.add_argument("operation", choices=["check-i", "check-ii", "sdv", "closure"])
    s.add_argument("--input", required=True)
    s.add_argument("--polytope", default=None)
    s.add_argument("--set", default=None,
                   help="subsegment set (closure) or named sets + triples (sdv)")
    s.add_argument("--count", type=int, default=50, help="random triples for sdv")
    s.set_defaults(func=cmd_segments)

    v = add_cmd("verify-paper", help="run the acceptance suite")
    v.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(rio.dumps({"error": "resource-limit", "reason": str(exc)}))
        return EXIT_RESOURCE
    except InputError as exc:
        sys.stderr.write(rio.dumps({"error": "input", "reason": str(exc)}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
