"""Build and inspect the planar embedding construction.

The target ground set has ten points: the triangle's vertices, two interior
points on each edge (the endpoints of the shrunken edge copies), and the
center.  Every top-containing meet-closed family of subsets of {0,1,2} maps
to the trace of its face-interior union on those points; the map is verified
to land on closed sets, injective and join/meet-preserving on the closure
operator of those points itself: meets are intersections, and joins, checked
against each join-irreducible family, are closures of unions.  The report
still counts the 309 relatively convex subsets of the target.

The run also shows the construction's one structural surprise: each edge
carries four collinear ground points, so the target lattice contains a
join-dependency cycle and cannot be lower bounded.

Run:  python demos/verified_embedding.py
"""

from relconvex import build_embedding
from relconvex.analysis import d_relation

w = build_embedding(2)

print("ground points (label: coordinates):")
for label, point in zip(w.labels, w.ground.points):
    print(f"  {label}: ({point[0]}, {point[1]})")

print()
print("schedule amounts:", w.report["schedule_amounts"])
print("certificate summary:")
for name, stats in w.report["lemma_summary"].items():
    print(f"  {name}: {stats['checked']} checked, {stats['failed']} failed")

print()
print("families (all / top-containing):",
      w.report["families_total"], "/", w.report["families_top"])
print("target lattice size:", w.report["target_size"])
print("injective:", w.report["injective"])
print("meet-preserving:", w.report["meet_preserving"])
print("join-preserving:", w.report["join_preserving"])
print("lower bounded:", w.report["lower_bounded"])

if w.defect is not None:
    cycle = w.defect.elements
    names = [w.labels[w.target.labels[i].bit_length() - 1] for i in cycle]
    print("join-dependency cycle between:", " -> ".join(map(str, names)))

print()
print("join-dependency edges (by point label):")
graph = d_relation(w.target)
for src, dsts in graph.items():
    if not dsts:
        continue
    sname = w.labels[w.target.labels[src].bit_length() - 1]
    dnames = [w.labels[w.target.labels[d].bit_length() - 1] for d in dsts]
    print(f"  {sname} -> {dnames}")
