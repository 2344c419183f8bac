"""Every callable that ``perfbench/tracing.py`` traces still exists in the
package, so that a rename cannot silently drop a layer from the benchmark's
per-layer metrics.  ``TRACED`` is read from the source with ast; the
benchmark is neither imported nor edited."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Traced names that the package no longer has.  The benchmark prints them as
# "not traced" until they leave TRACED; a name that leaves needs no edit here.
GONE = {
    "linalg.rank", "linalg.solve", "linalg.nullspace", "lp.feasible",
    "geometry.segment_hull_intersection", "geometry.affine_coordinates",
    "geometry.affinely_independent", "geometry.affine_span_dim",
    "geometry.caratheodory_member", "geometry.supports_face",
    "lattice.FiniteLattice._check_order", "analysis.find_m3", "analysis.verify_embedding",
    "boolsub.enumerate_subm", "boolsub.meet_closure", "boolsub.phi", "boolsub.psi",
}


def _traced() -> list[str]:
    """module.path of each entry of TRACED, as the benchmark resolves it."""
    tree = ast.parse(TRACING.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    return [f"{module}.{path}" for module, paths in ast.literal_eval(value).items()
            for path in paths]


def _resolves(name: str) -> bool:
    """The benchmark's own test: the owner (module or class) exists and
    defines the attribute itself."""
    module, _, path = name.partition(".")
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(f"relconvex.{module}")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner is not None and attr in vars(owner)


def test_every_traced_name_resolves_in_the_package():
    missing = [name for name in _traced() if name not in GONE and not _resolves(name)]
    assert not missing, f"traced but absent from the package: {missing}"
