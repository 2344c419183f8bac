"""Benchmark of relconvex: end-to-end rates with tracing off, per-layer
counts and times from a separate traced run.

    python3 perfbench/run.py --workload point-grounds --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from the repository root (the package is imported from ./src).  Each
workload runs in its own fresh process; ``--workload all`` starts one child
per workload, one after the other.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads, the metrics and the
predictions they are meant to test.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported: lattice order
# checks run float matrix products whose thread count would otherwise
# depend on the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
NAMES = ("point-grounds", "large-lattices", "open-hulls", "embedding")
SETUP_REPEATS = 5
P90_MIN_ITEMS = 100
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import relconvex, relconvex.io; print(time.perf_counter() - t)")
NO_WAIT_NOTE = ("layers: single-threaded, so no layer waits on another; "
                "busy and self times only, no wait time")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def load_golden(name: str, seed: int) -> list:
    if not GOLDEN.exists():
        return []
    doc = json.loads(GOLDEN.read_text())
    return doc["digests"].get(name, []) if doc["seed"] == seed else []


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Import time of relconvex in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload, seed: int):
    """Import, fixture load and input generation, repeated; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        state = workload.prepare()
        stream = workload.inputs(state, seed)
        pool = list(islice(stream, workload.pool))
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), pool, stream


def item_stream(pool, stream):
    yield from enumerate(pool)
    yield from enumerate(stream, start=len(pool))


# ---------------------------------------------------------------------------
# one pass over items


class Pass:
    """Times items one by one; digests and checks run outside the timing."""

    def __init__(self, workload, golden, check=True, tracer=None):
        self.workload = workload
        self.golden = golden
        self.do_check = check
        self.tracer = tracer
        self.durations: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.problems: list[str] = []

    def item(self, idx: int, inp) -> None:
        if self.tracer is not None:
            self.tracer.begin_item(idx)
        t0 = time.perf_counter()
        try:
            texts, facts = self.workload.run(inp)
        except Exception as exc:  # an item that raises is a failed item
            texts, facts = None, exc
        self.durations.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.end_item()
        if texts is None:
            self.digests.append("")
            self.fail(idx, f"raised {type(facts).__name__}: {facts}")
            return
        d = digest(texts)
        self.digests.append(d)
        problems = self.workload.check(inp, facts) if self.do_check else []
        if idx < len(self.golden) and d != self.golden[idx]:
            problems.append(f"artifact digest {d} differs from golden {self.golden[idx]}")
        if problems:
            self.fail(idx, "; ".join(problems))

    def fail(self, idx: int, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"item {idx}: {msg}")

    @property
    def busy(self) -> float:
        return sum(self.durations)


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, seed, seconds, max_items):
    setup_s, pool, stream = setup(workload, seed)
    p = Pass(workload, load_golden(workload.name, seed))
    for idx, inp in item_stream(pool, stream):
        if p.busy >= seconds or (max_items is not None and idx >= max_items):
            break
        p.item(idx, inp)
    ms = sorted(1e3 * d for d in p.durations)
    n = len(ms)
    metrics = {
        "items_per_s": (n / p.busy, "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"items {n}, busy {p.busy:.3f} s, failed_ratio {p.failed / max(n, 1):.4f}"]
    if n >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(ms, n=10)[-1]
        notes.append(f"item_p90_ms {p90:.3f} ms over {n} samples "
                     f"({sum(v > p90 for v in ms)} beyond it)")
    else:
        notes.append(f"item_p90_ms not reported: {n} samples, fewer than {P90_MIN_ITEMS}")
    return n, p.failed, metrics, notes, p.problems


def traced_run(workload, seed, max_items, trace_file):
    """An untraced pass and two traced passes over the same fixed items.

    The traced passes must give the untraced pass's digests and exactly the
    same counts; per-layer numbers come from the second traced pass.
    """
    import tracing

    _, pool, stream = setup(workload, seed)
    count = max_items if max_items is not None else workload.trace_items
    items = [inp for _, inp in islice(item_stream(pool, stream), count)]

    untraced = Pass(workload, load_golden(workload.name, seed))
    for idx, inp in enumerate(items):
        untraced.item(idx, inp)
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore, missing = tracing.install(tracer)
        p = Pass(workload, untraced.digests, check=False, tracer=tracer)
        try:
            for idx, inp in enumerate(items):
                p.item(idx, inp)
        finally:
            restore()
        traced.append((p, tracer, tracer.totals()))

    problems = list(untraced.problems)
    for p, _, _ in traced:
        problems += [f"traced: {m}" for m in p.problems]
    (_, tracer1, (calls1, _, _)), (last, tracer, (calls, incl, self_s)) = traced
    if calls1 != calls or tracer1.counts != tracer.counts:
        problems.append("two traced passes gave different counts")

    metrics = layer_metrics(calls, incl, self_s, tracer.counts)
    overhead = last.busy / untraced.busy - 1 if untraced.busy else 0.0
    metrics["trace.items"] = (len(items), "count")
    metrics["trace.untraced_s"] = (untraced.busy, "s")
    metrics["trace.traced_s"] = (last.busy, "s")
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    notes = [NO_WAIT_NOTE,
             f"{len(tracer.spans)} spans written to {trace_file}",
             f"tracing overhead {100 * overhead:.1f}% "
             f"({last.busy:.3f} s traced, {untraced.busy:.3f} s untraced)"]
    if missing:
        notes.append("not traced (absent from the package): " + ", ".join(missing))
    failed = untraced.failed + sum(p.failed for p, _, _ in traced)
    return 3 * len(items), failed, metrics, notes, problems


PER_LAYER_CALLS = (
    "linalg.rref", "linalg.solve", "linalg.rank", "lp.maximize",
    "geometry.hull_member", "geometry.strict_hull_member",
    "geometry.segment_hull_param_intervals", "geometry.affine_coordinates",
    "closure.closure_mask", "lattice.from_closed_masks",
    "analysis.check_anti_exchange", "analysis.check_jsd", "analysis.check_lower_bounded",
    "analysis.verify_embedding", "boolsub.verify_claim_join",
    "segments.seg_closure", "segments.seg_join",
)
PER_LAYER_SECONDS = (
    "linalg.rref", "lp.maximize", "geometry.hull_member", "geometry.strict_hull_member",
    "geometry.segment_hull_param_intervals", "closure.witness_table",
    "closure.enumerate_closed_masks", "lattice.from_closed_masks", "lattice.covers_matrix",
    "analysis.check_anti_exchange", "analysis.check_jsd", "analysis.check_lower_bounded",
    "analysis.verify_embedding", "boolsub.verify_claim_join", "boolsub.subm_lattice",
    "segments.seg_closure", "segments.sdv_spot_check", "embedding.build_construction",
    "embedding.verify_lemmas", "embedding.build_embedding", "io.dumps",
)
SELF_TIME_LAYERS = ("linalg", "lp", "geometry", "closure", "lattice", "analysis",
                    "boolsub", "segments", "embedding", "io", "bench")


def layer_metrics(calls, incl, self_s, counts) -> dict:
    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in PER_LAYER_SECONDS:
        m[f"{name}.s"] = (incl.get(name, 0.0), "s")
    m["closure.witness_table.builds"] = (calls.get("closure.witness_table", 0), "count")
    for name in ("closure.witness_table.minimal_witnesses", "closure.closed_sets",
                 "lattice.elements"):
        m[name] = (counts.get(name, 0), "count")
    m["io.dumps.bytes"] = (counts.get("io.dumps.bytes", 0), "bytes")
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    def ratio(num, base):
        return num / base if base else 0.0

    strict = calls.get("geometry.strict_hull_member", 0) + \
        calls.get("geometry.segment_hull_param_intervals", 0)
    m["lp.strict_queries"] = (strict, "count")
    m["lp.solves_per_strict_query"] = (ratio(calls.get("lp.maximize", 0), strict), "ratio")
    m["closure.masks_per_closed_set"] = (
        ratio(calls.get("closure.closure_mask", 0), counts.get("closure.closed_sets", 0)),
        "ratio")
    m["linalg.rref_per_witness"] = (
        ratio(calls.get("linalg.rref", 0),
              counts.get("closure.witness_table.minimal_witnesses", 0)), "ratio")
    return m


# ---------------------------------------------------------------------------
# entry points


def environment(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run_one(args) -> int:
    if not (SRC / "relconvex" / "__init__.py").is_file():
        fail(f"no relconvex package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import relconvex
    import workloads

    if not Path(relconvex.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"relconvex imported from {relconvex.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    if args.write_golden:
        return write_golden(workload, args)
    if args.trace:
        trace_file = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        run = traced_run(workload, args.seed, args.items, trace_file)
    else:
        run = timed_run(workload, args.seed, args.seconds, args.items)
    attempted, failed, metrics, notes, problems = run

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for p in problems:
        print(f"  FAIL {p}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_golden(workload, args) -> int:
    """Record the default seed's per-item digests for this workload."""
    _, pool, stream = setup(workload, args.seed)
    p = Pass(workload, [])
    for idx, inp in islice(item_stream(pool, stream), args.items):
        p.item(idx, inp)
    if p.failed:
        fail("cannot record golden digests: " + "; ".join(p.problems))
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": args.seed,
                                                                  "digests": {}}
    if doc["seed"] != args.seed:
        fail(f"golden.json holds seed {doc['seed']}, not {args.seed}")
    doc["digests"][workload.name] = p.digests
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{workload.name}: {len(p.digests)} digests recorded")
    return 0


def run_all(args) -> int:
    """Every workload in a fresh child process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.items is not None:
            cmd += ["--items", str(args.items)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="stop after this many items (traced: the item count)")
    ap.add_argument("--write-golden", action="store_true",
                    help="record per-item digests of the first --items items")
    args = ap.parse_args(argv)
    if args.write_golden and (args.workload == "all" or args.items is None):
        ap.error("--write-golden needs one workload and --items")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
