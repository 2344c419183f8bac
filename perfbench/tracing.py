"""Per-layer spans recorded from outside the package.

Every traced function is wrapped at each of its binding sites: the defining
module, every ``relconvex`` module that imported the name directly (``from
.geometry import hull_member``), and the class dictionary for methods.  A
wrapped call records one span ``(item, parent, name, start_ns, end_ns)``; the
benchmark opens one root span per item, so the spans of an item share its
id.  Spans stay in memory until the run writes them out.

Everything runs on one thread, so no layer ever waits on another; the
summary reports busy time and self time only.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced callable.  Spans are named
# "<module>.<function>" with leading underscores dropped.
TRACED = {
    "linalg": ["rref", "rank", "solve", "nullspace"],
    "lp": ["maximize", "feasible"],
    "geometry": ["hull_member", "strict_hull_member", "segment_hull_param_intervals",
                 "segment_hull_intersection", "affine_coordinates", "affinely_independent",
                 "affine_span_dim", "extreme_points", "caratheodory_member", "supports_face",
                 "VPolytope.faces"],
    "closure": ["FiniteGround._witness_table", "FiniteGround.closure_mask",
                "FiniteGround.enumerate_closed_masks", "FiniteGround.scan_closed_masks",
                "FiniteGround.lattice"],
    "lattice": ["FiniteLattice.from_closed_masks", "FiniteLattice.from_cover_pairs",
                "FiniteLattice._check_order", "FiniteLattice._compute_tables",
                "FiniteLattice.covers_matrix"],
    "analysis": ["check_anti_exchange", "check_jsd", "check_lower_bounded",
                 "check_weak_atom_property", "check_biatomic", "check_distributive",
                 "find_m3", "d_relation", "find_d_cycle", "verify_embedding"],
    "boolsub": ["verify_claim_join", "subm_lattice", "enumerate_subm", "meet_closure",
                "phi", "psi"],
    "segments": ["seg_closure", "seg_join", "seg_meet", "sdv_spot_check",
                 "random_closed_set", "check_condition_disjoint", "check_condition_faces",
                 "face_restriction_check"],
    "embedding": ["build_construction", "verify_lemmas", "build_embedding",
                  "build_ground_set", "epsilon_search"],
    "io": ["dumps", "lattice_to_json", "ground_to_json", "points_svg",
           "subsegment_set_to_json", "segment_ground_from_json"],
}

ITEM = "bench.item"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1].lstrip('_')}"


class Tracer:
    """In-memory span recorder plus the counters that spans cannot give."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()

    def begin_item(self, item: int) -> None:
        self.item = item
        self.stack[:] = [len(self.spans)]
        self.spans.append(None)
        self._t_item = time.perf_counter_ns()

    def end_item(self) -> None:
        root = self.stack.pop()
        self.spans[root] = (self.item, -1, ITEM, self._t_item, time.perf_counter_ns())

    def wrap(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (self.item, parent, name, t0, t1)
            if after is not None:
                after(self.counts, result)
            return result

        return traced

    # -- summaries ------------------------------------------------------------

    def totals(self):
        """Per span name: call count, inclusive seconds; per layer: self seconds."""
        calls: Counter = Counter()
        incl: dict = defaultdict(int)
        child: dict = defaultdict(int)
        for item, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict = defaultdict(int)
        for idx, (item, parent, name, t0, t1) in enumerate(self.spans):
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child.get(idx, 0)
        return calls, {k: v / 1e9 for k, v in incl.items()}, {k: v / 1e9 for k, v in self_ns.items()}

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for idx, (item, parent, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([idx, item, parent, name, t0, t1]) + "\n")


def _witness_table_counter(counts, table):
    counts["closure.witness_table.minimal_witnesses"] += sum(len(w) for w in table)


def _closed_sets_counter(counts, masks):
    counts["closure.closed_sets"] += len(masks)


def _elements_counter(counts, lat):
    counts["lattice.elements"] += lat.n


def _bytes_counter(counts, text):
    counts["io.dumps.bytes"] += len(text.encode())


AFTER = {
    "closure.enumerate_closed_masks": _closed_sets_counter,
    "lattice.from_closed_masks": _elements_counter,
    "io.dumps": _bytes_counter,
}


def install(tracer: Tracer):
    """Wrap every traced callable at all of its binding sites.

    Returns a function that restores the originals, and the span names whose
    callable the package no longer has (their metrics then read 0).
    """
    import relconvex  # noqa: F401  (loads every package module)

    package = {name: mod for name, mod in sys.modules.items()
               if name == "relconvex" or name.startswith("relconvex.")}
    undo = []
    missing = []

    def patch(owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    for module, paths in TRACED.items():
        mod = package.get(f"relconvex.{module}")
        for path in paths:
            name = span_name(module, path)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                missing.append(name)
                continue
            if owner_name:
                cls = owner
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patch(cls, attr, classmethod(tracer.wrap(raw.__func__, name, AFTER.get(name))))
                elif name == "closure.witness_table":
                    patch(cls, attr, _wrap_witness_table(tracer, raw))
                else:
                    patch(cls, attr, tracer.wrap(raw, name, AFTER.get(name)))
                continue
            original = getattr(mod, path)
            wrapped = tracer.wrap(original, name, AFTER.get(name))
            for site in package.values():
                for attr, value in list(vars(site).items()):
                    if value is original:
                        patch(site, attr, wrapped)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore, missing


def _wrap_witness_table(tracer: Tracer, method):
    """Span only the calls that build the table; cached reads stay silent."""
    build = tracer.wrap(method, "closure.witness_table", _witness_table_counter)

    @functools.wraps(method)
    def witness_table(self):
        cached = getattr(self, "_witnesses", None)
        return cached if cached is not None else build(self)

    return witness_table
