"""primcoal: coalescent simulation through the Prim (invasion) order.

Percolation systems, Prim-order linearisation, walk encodings of cluster
structure, the combinatorial additive and multiplicative coalescents in
their critical windows, Brownian limit objects, and statistical oracles
for comparing all of the above.
"""

from .graphs import (
    ComponentFiltration,
    DisconnectedGraphError,
    DuplicateWeightError,
    GraphError,
    PrimOrdering,
    ProperlyWeightedGraph,
    component_filtration,
    level_components,
    prim_order,
    random_complete_graph,
)
from .states import AugmentedState, MassVector, MergeHistory, d_U
from .walks import (
    LatticePath,
    excursions_above_min,
    explore,
    psi,
    walk_component_sizes,
)
from .additive import (
    ConditionedWalk,
    ForestProcess,
    ParkingConfiguration,
    ThinnedWalkFamily,
    bfs_outdegrees,
    gamma_plus,
    park,
    percolate_cayley,
    pitman_forest,
    prim_thinned_outdegrees,
    prufer_decode,
    retention_level,
    sample_conditioned_walk,
    uniform_cayley_tree,
    weighted_cayley_tree,
)
from .multiplicative import (
    CriticalWindowParams,
    SparseField,
    augmented_state,
    component_surpluses,
    gamma_times,
    graph_route,
    largest_component,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    sparse_z_trace,
    surplus_field,
    walk_route,
    z_walk,
)
from .limits import (
    MLTrajectory,
    limit_gamma,
    limit_surplus,
    marcus_lushnikov,
    ml_additive_sizes,
    ml_multiplicative_sizes,
    simulate_excursion,
    simulate_parabolic,
)
from .oracles import (
    TestVerdict,
    cayley_outdegree_law,
    conditioned_walk_law,
    enumerate_weight_orders,
    ks_statistic,
    ks_threshold,
    ks_two_sample,
    label_order_probability,
    row_counts,
    tv_distance,
    tv_threshold,
    tv_two_sample,
)

__version__ = "0.1.0"
