import numpy as np
import pytest

from primcoal.graphs import (
    DisconnectedGraphError,
    DuplicateWeightError,
    GraphError,
    PrimOrdering,
    ProperlyWeightedGraph,
    component_filtration,
    level_components,
    mst_weight_kruskal,
    prim_order,
    prim_order_rescan,
    random_complete_graph,
    read_edge_list,
    write_edge_list,
)
from primcoal.additive import weighted_cayley_tree


def path_graph(weights):
    return ProperlyWeightedGraph(
        len(weights) + 1, [(i + 1, i + 2, w) for i, w in enumerate(weights)]
    )


def sparse_connected_graph(n, extra, rng):
    """Weighted Cayley tree on n vertices plus `extra` random non-tree edges."""
    tree = weighted_cayley_tree(n, rng)
    edges = list(tree.edges)
    pairs = {(u, v) for u, v, _ in edges}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        if (u, v) not in pairs:
            pairs.add((u, v))
            edges.append((u, v, float(rng.random())))
    return ProperlyWeightedGraph(n, edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 1, 0.5)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 2, 0.5), (2, 1, 0.7)])

    def test_rejects_duplicate_weight(self):
        with pytest.raises(DuplicateWeightError):
            ProperlyWeightedGraph(3, [(1, 2, 0.5), (2, 3, 0.5)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 2, 0.0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 3, 0.5)])

    def test_connectivity_flag(self):
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)])
        assert not g.is_connected
        assert path_graph([0.1, 0.2, 0.3]).is_connected


class TestPrimOrder:
    def test_path_graph_order(self):
        # weights increase along the path, so Prim just walks it
        g = path_graph([0.1, 0.2, 0.3, 0.4])
        assert prim_order(g).order == (1, 2, 3, 4, 5)

    def test_matches_rescan_oracle(self, rng):
        # complete graphs take the dense path, sparse ones the heap path
        graphs = [random_complete_graph(int(rng.integers(2, 20)), rng) for _ in range(200)]
        for _ in range(200):
            n = int(rng.integers(4, 40))
            graphs.append(sparse_connected_graph(n, int(rng.integers(0, n - 1)), rng))
            assert graphs[-1].m < n * (n - 1) // 2
        for g in graphs:
            root = int(rng.integers(1, g.n + 1))
            fast = prim_order(g, root)
            slow = prim_order_rescan(g, root)
            assert fast.order == slow.order
            assert fast.attach_parent == slow.attach_parent
            assert fast.attach_weight == slow.attach_weight

    def test_mst_weight_matches_kruskal(self, rng):
        for _ in range(100):
            g = random_complete_graph(int(rng.integers(2, 30)), rng)
            assert prim_order(g).mst_weight() == pytest.approx(
                mst_weight_kruskal(g), abs=1e-12
            )

    def test_disconnected_raises(self):
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)])
        with pytest.raises(DisconnectedGraphError):
            prim_order(g)

    def test_root_is_first(self, rng):
        g = random_complete_graph(8, rng)
        for root in (1, 3, 8):
            assert prim_order(g, root).order[0] == root


class TestLevelComponents:
    def test_every_component_is_a_prim_interval(self, rng):
        # the interval property should hold for any root, not just 1
        for _ in range(300):
            n = int(rng.integers(2, 40))
            g = random_complete_graph(n, rng)
            root = int(rng.integers(1, n + 1))
            ordering = prim_order(g, root)
            t = float(rng.random())
            pairs = level_components(g, t, ordering)
            covered = []
            for comp, (a, b) in pairs:
                assert b - a + 1 == len(comp)
                covered.extend(range(a, b + 1))
            assert sorted(covered) == list(range(1, n + 1))

    def test_extremes(self, rng):
        g = random_complete_graph(6, rng)
        assert len(level_components(g, 0.0)) == 6
        assert len(level_components(g, 1.0)) == 1

    def test_bad_level_raises(self, rng):
        g = random_complete_graph(4, rng)
        with pytest.raises(GraphError):
            level_components(g, 1.5)


class TestFiltration:
    def test_matches_level_components(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            g = random_complete_graph(n, rng)
            ordering = prim_order(g)
            filt = component_filtration(g, ordering)
            for t in rng.random(3):
                state = filt.components_at(float(t))
                direct = level_components(g, float(t), ordering)
                assert [(iv, len(c)) for c, iv in direct] == [
                    (iv, size) for iv, size, _ in state
                ]

    def test_excess_counts_internal_edges(self, rng):
        g = random_complete_graph(5, rng)
        filt = component_filtration(g, prim_order(g))
        (interval, size, excess) = filt.components_at(1.0)[0]
        assert interval == (1, 5) and size == 5
        assert excess == g.m - g.n + 1

    def test_merge_events_join_adjacent_intervals(self, rng):
        g = random_complete_graph(12, rng)
        filt = component_filtration(g, prim_order(g))
        for ev in filt.merge_events:
            assert ev.left[1] + 1 == ev.right[0]
        assert len(filt.merge_events) == g.n - 1

    def test_rejects_label_order_when_prim_differs(self, rng):
        # label order with each vertex attached by its lightest edge to an
        # earlier label: the attach edges are edges of g, the order is not Prim
        rejected = 0
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_complete_graph(n, rng)
            if prim_order(g).order == tuple(range(1, n + 1)):
                continue
            w = {(u, v): wt for u, v, wt in g.edges}
            parents = [min(range(1, i), key=lambda j: w[(j, i)]) for i in range(2, n + 1)]
            labels = PrimOrdering(
                tuple(range(1, n + 1)),
                (None,) + tuple(w[(p, i)] for i, p in enumerate(parents, start=2)),
                (None,) + tuple(parents),
            )
            with pytest.raises(GraphError):
                component_filtration(g, labels)
            rejected += 1
        assert rejected > 0

    def test_rejects_attach_edges_not_in_graph(self):
        g = path_graph([0.1, 0.2, 0.3])
        assert component_filtration(g, prim_order(g)).components_at(1.0) == [((1, 4), 4, 0)]
        not_an_edge = PrimOrdering((1, 2, 3, 4), (None, 0.1, 0.2, 0.3), (None, 1, 1, 3))
        wrong_weight = PrimOrdering((1, 2, 3, 4), (None, 0.1, 0.25, 0.3), (None, 1, 2, 3))
        for ordering in (not_an_edge, wrong_weight):
            with pytest.raises(GraphError):
                component_filtration(g, ordering)


def test_edge_list_roundtrip(tmp_path, rng):
    g = random_complete_graph(7, rng)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    g2 = read_edge_list(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_random_complete_refuses_huge(rng):
    with pytest.raises(GraphError):
        random_complete_graph(5000, rng)
