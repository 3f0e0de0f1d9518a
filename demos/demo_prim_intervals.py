"""Why the Prim order linearises percolation.

Take a complete graph with random edge weights and look at the connected
components of the level graph (edges with weight <= t) at several levels.
Listed by vertex label the components are scattered sets; listed by Prim
rank every component is a contiguous interval, at every level at once, so
the whole merge history is a sequence of interval fusions.
"""

import numpy as np

from primcoal import (
    component_filtration,
    level_components,
    prim_order,
    random_complete_graph,
)

rng = np.random.default_rng(42)
n = 12
g = random_complete_graph(n, rng)
ordering = prim_order(g)

print(f"Prim order from vertex 1: {ordering.order.tolist()}\n")

for t in (0.05, 0.12, 0.25, 0.6):
    pairs = level_components(g, t, ordering)
    print(f"t = {t}")
    for comp, (a, b) in pairs:
        print(f"  ranks [{a:2d},{b:2d}]  <->  vertices {sorted(comp)}")
    print()

print("merge history (each event fuses two adjacent rank intervals):")
filt = component_filtration(g, ordering)
for ev in filt.merge_events:
    print(f"  t={ev.time:.4f}  {ev.left} + {ev.right}")

print("\nfinal state with cycle edges counted as excess:")
for interval, size, excess in filt.components_at(1.0):
    print(f"  interval {interval}, size {size}, excess {excess}")
