"""Cluster sizes as gaps between the zeros of an exploration walk.

The exploration walk Z tracks the frontier size while the graph is
traversed in Prim order; components are exactly the stretches where Z
stays positive.  The drifting companion Y carries the same component
structure in its ladder intervals (descents of one unit below the running
minimum) and is the object whose rescaled version converges to a Brownian
path with parabolic drift.
"""

import numpy as np

from primcoal import (
    CriticalWindowParams,
    component_filtration,
    component_surpluses,
    prim_order,
    psi,
    random_complete_graph,
    reorder_field_from_graph,
    surplus_field,
    walk_component_sizes,
    z_walk,
)
from primcoal.walks import excursions_above_min

rng = np.random.default_rng(7)
n = 30
params = CriticalWindowParams(n, lam=1.0)
# the field of K_n with uniform weights, rows reordered along Prim order
g = random_complete_graph(n, rng)
o = prim_order(g)
field = reorder_field_from_graph(g, o)
z, y = z_walk(params, field)

print(f"n={n}, lambda={params.lam}, p={params.p:.4f}\n")
print("k   :", "".join(f"{k:4d}" for k in range(n + 1)))
print("Z(k):", "".join(f"{v:4d}" for v in z.values[:-1]))
print("Y(k):", "".join(f"{v:4d}" for v in y.values))
print("PsiY:", "".join(f"{v:4d}" for v in psi(y).values))

print("\ncomponent sizes from zero gaps of Z:", walk_component_sizes(z))
ladder = excursions_above_min(y)
print("ladder interval lengths of Y:       ", [b - a for a, b in ladder.intervals])

s = surplus_field(params, z, field)
graph_pairs = [(size, exc) for _, size, exc in component_filtration(g, o).components_at(params.p)]
print("\n(size, surplus) per component, walk side: ", component_surpluses(z, s))
print("(size, excess) per component, graph side:", graph_pairs)
print("surplus counts the retained field entries that close a cycle,")
print("so size - 1 + surplus edges sit inside each component of G_p.")
