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
    prim_order,
    random_complete_graph,
)
from primcoal.additive import percolate_cayley, prim_thinned_outdegrees, weighted_cayley_tree
from primcoal.multiplicative import reorder_field_from_graph
from primcoal.walks import explore


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


def prim_order_rescan(g: ProperlyWeightedGraph, root: int = 1) -> PrimOrdering:
    """Literal O(n*m) Prim order: rescan every cut edge at every step.

    Test oracle for prim_order; follows the defining minimisation verbatim.
    """
    if not (1 <= root <= g.n):
        raise GraphError(f"root {root} not in [1, {g.n}]")
    visited = {root}
    order, attach_weight, attach_parent = [root], [np.inf], [0]
    edges = g.edges
    while len(order) < g.n:
        best = None
        for u, v, w in edges:
            if (u in visited) != (v in visited):
                if best is None or w < best[0]:
                    inside, outside = (u, v) if u in visited else (v, u)
                    best = (w, outside, inside)
        if best is None:
            raise DisconnectedGraphError("graph disconnected")
        w, v, parent = best
        visited.add(v)
        order.append(v)
        attach_weight.append(w)
        attach_parent.append(parent)
    return PrimOrdering(order, attach_weight, attach_parent)


class UnionFind:
    """Union-find with path compression, union by size, per-root counters."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True


def mst_weight_kruskal(g: ProperlyWeightedGraph) -> float:
    """Independent MST total weight (sort edges + union-find)."""
    uf = UnionFind(g.n)
    total = 0.0
    for u, v, w in sorted(g.edges, key=lambda e: e[2]):
        if uf.union(u - 1, v - 1):
            total += w
    if uf.n_components != 1:
        raise DisconnectedGraphError("graph disconnected")
    return total


def _sequential_level_components(g, t, ordering=None):
    """level_components as a literal loop: one UnionFind.union per level
    edge, one rank lookup per vertex.  The labeller is held to this."""
    uf = UnionFind(g.n)
    keep = g.w <= t
    for u, v in zip(g.u[keep].tolist(), g.v[keep].tolist()):
        uf.union(u - 1, v - 1)
    groups = {}
    for v in range(1, g.n + 1):
        groups.setdefault(uf.find(v - 1), []).append(v)
    comps = sorted((frozenset(vs) for vs in groups.values()), key=min)
    if ordering is None:
        return comps
    rank = {v: i + 1 for i, v in enumerate(ordering.order)}
    out = []
    for comp in comps:
        ranks = sorted(rank[v] for v in comp)
        a, b = ranks[0], ranks[-1]
        if b - a + 1 != len(ranks):
            raise GraphError(f"component {sorted(comp)} is not a Prim interval")
        out.append((comp, (a, b)))
    out.sort(key=lambda item: item[1][0])
    return out


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 1, 0.5)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 2, 0.5), (2, 1, 0.7)])

    def test_rejects_repeat_among_increasing_pairs(self):
        # sorted pairs skip the sort, so a repeat next to itself must still be seen
        edges = [(1, 2, 0.1), (1, 3, 0.2), (1, 3, 0.3), (2, 3, 0.4)]
        with pytest.raises(GraphError, match=r"parallel edge \(1, 3\)"):
            ProperlyWeightedGraph(3, edges)

    def test_rejects_duplicate_weight(self):
        with pytest.raises(DuplicateWeightError):
            ProperlyWeightedGraph(3, [(1, 2, 0.5), (2, 3, 0.5)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 2, 0.0)])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("build", ["edges", "arrays"])
    def test_rejects_non_finite_weight(self, bad, build):
        edges = [(1, 2, 0.1), (1, 3, bad), (2, 3, 0.2)]
        with pytest.raises(GraphError, match=rf"non-finite weight {bad} on edge \(1, 3\)"):
            if build == "edges":
                ProperlyWeightedGraph(3, edges)
            else:
                ProperlyWeightedGraph.from_arrays(3, *zip(*edges))

    def test_accepts_weights_above_one(self):
        # weight orders are enumerated on graphs weighted 1..m
        g = ProperlyWeightedGraph(3, [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)])
        assert g.w.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            ProperlyWeightedGraph(2, [(1, 3, 0.5)])

    def test_connectivity_flag(self):
        # connectivity is read off prim_order: it reaches every vertex or raises
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)])
        with pytest.raises(DisconnectedGraphError):
            prim_order(g)
        assert len(prim_order(path_graph([0.1, 0.2, 0.3])).order) == 4


class TestPrimOrder:
    def test_path_graph_order(self):
        # weights increase along the path, so Prim just walks it
        g = path_graph([0.1, 0.2, 0.3, 0.4])
        assert prim_order(g).order.tolist() == [1, 2, 3, 4, 5]

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
            assert np.array_equal(fast.order, slow.order)
            assert np.array_equal(fast.attach_parent, slow.attach_parent)
            assert np.array_equal(fast.attach_weight, slow.attach_weight)

    def test_mst_weight_matches_kruskal(self, rng):
        for _ in range(100):
            g = random_complete_graph(int(rng.integers(2, 30)), rng)
            assert sum(prim_order(g).attach_weight[1:]) == pytest.approx(
                mst_weight_kruskal(g), abs=1e-12
            )

    def test_disconnected_raises(self):
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)])
        with pytest.raises(DisconnectedGraphError):
            prim_order(g)

    def test_record_refuses_malformed_orderings(self):
        with pytest.raises(GraphError, match="ordering is not a permutation of 1..n"):
            PrimOrdering((1, 2, 2), (np.inf, 0.1, 0.2), (0, 1, 2))
        with pytest.raises(GraphError, match="ordering is not a permutation of 1..n"):
            PrimOrdering((0, 1, 2), (np.inf, 0.1, 0.2), (0, 1, 2))
        with pytest.raises(GraphError, match="needs 3 attach weights and 3 parents in 0..3"):
            PrimOrdering((1, 2, 3), (np.inf, 0.1), (0, 1, 2))
        with pytest.raises(GraphError, match="needs 3 attach weights and 3 parents in 0..3"):
            PrimOrdering((1, 2, 3), (np.inf, 0.1, 0.2), (0, 1, 4))

    def test_permutation_check_matches_sorted_definition(self, rng):
        # the constructor's range test and rank scatter accept exactly the
        # orders whose sort is 1..n: repeats and values outside 1..n refused
        for k in range(400):
            n = int(rng.integers(1, 12))
            order = rng.permutation(np.arange(1, n + 1))
            if k % 3 == 1:
                order[rng.integers(n)] = order[rng.integers(n)]
            elif k % 3 == 2:
                order[rng.integers(n)] = rng.choice([-n, -1, 0, n + 1, 2 * n])
            args = (order, np.full(n, np.inf), np.zeros(n, dtype=np.int64))
            if np.array_equal(np.sort(order), np.arange(1, n + 1)):
                o = PrimOrdering(*args)
                assert o.rank[0] == 0 and np.array_equal(o.rank[o.order], np.arange(1, n + 1))
            else:
                with pytest.raises(GraphError, match="ordering is not a permutation of 1..n"):
                    PrimOrdering(*args)

    def test_own_orderings_have_record_dtypes(self, rng):
        # dense and heap paths alike: int64 order, parent and rank, float64
        # weights, and rank inverting order
        for k in range(200):
            n = int(rng.integers(1, 61))
            if k % 2:
                g = random_complete_graph(n, rng)
            else:
                g = sparse_connected_graph(n, int(rng.integers(0, n * (n - 1) // 2 - n + 2)), rng)
            o = prim_order(g, int(rng.integers(1, n + 1)))
            assert (o.order.dtype, o.attach_weight.dtype) == (np.int64, np.float64)
            assert (o.attach_parent.dtype, o.rank.dtype) == (np.int64, np.int64)
            assert o.rank[0] == 0 and np.array_equal(o.rank[o.order], np.arange(1, n + 1))

    @pytest.mark.parametrize("root", [0, 5])
    @pytest.mark.parametrize("prim", [prim_order, prim_order_rescan], ids=["prim_order", "rescan"])
    def test_root_outside_graph_refused(self, prim, root):
        with pytest.raises(GraphError, match=rf"root {root} not in \[1, 4\]"):
            prim(path_graph([0.1, 0.2, 0.3]), root=root)

    @pytest.mark.parametrize("oracle", [prim_order_rescan, mst_weight_kruskal], ids=["rescan", "kruskal"])
    def test_oracles_refuse_disconnected(self, oracle):
        with pytest.raises(DisconnectedGraphError):
            oracle(ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)]))

    def test_rank_inverts_order(self, rng):
        o = prim_order(random_complete_graph(9, rng), root=4)
        assert o.rank[0] == 0
        assert o.rank[o.order].tolist() == list(range(1, 10))

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
        with pytest.raises(GraphError, match="ordering has 5 vertices, graph has 4"):
            level_components(g, 0.5, prim_order(random_complete_graph(5, rng)))

    def test_matches_sequential_union_find(self, rng):
        cases = []
        for n in range(1, 91):
            g = random_complete_graph(n, rng)
            levels = (0.0, 1.0, min(1.0, 3.0 / n), float(rng.random()))
            cases.append((g, prim_order(g, int(rng.integers(1, n + 1))), levels))
        for n in (1, 2, 5, 40, 300):
            g = weighted_cayley_tree(n, rng)
            cases.append((g, prim_order(g), (0.0, 1.0, float(rng.random()), float(rng.random()))))
        # a path whose labels are shuffled: the labeller needs several rounds
        labels = rng.permutation(1000) + 1
        g = ProperlyWeightedGraph.from_arrays(1000, labels[:-1], labels[1:], rng.random(999))
        cases.append((g, prim_order(g), (0.0, 0.3, 0.7, 0.99, 1.0)))
        for g, ordering, levels in cases:
            for t in levels:
                assert level_components(g, t) == _sequential_level_components(g, t)
                assert level_components(g, t, ordering) == _sequential_level_components(
                    g, t, ordering
                )

    def test_non_prim_orderings_raise_as_the_sequential_loop(self, rng):
        raised = 0
        for _ in range(300):
            n = int(rng.integers(2, 30))
            g = random_complete_graph(n, rng)
            perm = tuple((rng.permutation(n) + 1).tolist())
            labels = PrimOrdering(perm, np.full(n, np.inf), np.zeros(n))
            t = float(rng.random())
            try:
                expected = _sequential_level_components(g, t, labels)
            except GraphError as exc:
                with pytest.raises(GraphError) as got:
                    level_components(g, t, labels)
                assert str(got.value) == str(exc)
                raised += 1
            else:
                assert level_components(g, t, labels) == expected
        assert 0 < raised < 300


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
                # excess counted straight off g's edges: level edges inside the component
                for (c, _), (_, _, excess) in zip(direct, state):
                    inside = np.isin(g.u, list(c)) & np.isin(g.v, list(c)) & (g.w <= t)
                    assert excess == np.count_nonzero(inside) - len(c) + 1

    def test_excess_counts_internal_edges(self, rng):
        g = random_complete_graph(5, rng)
        filt = component_filtration(g, prim_order(g))
        (interval, size, excess) = filt.components_at(1.0)[0]
        assert interval == (1, 5) and size == 5
        assert excess == g.m - g.n + 1

    def test_level_at_or_above_every_weight_is_one_block(self, rng):
        # the root's attach weight +inf is not above t = +inf, yet the root
        # opens the one block there as at any level above the top weight
        graphs = [random_complete_graph(6, rng), sparse_connected_graph(20, 15, rng), weighted_cayley_tree(9, rng)]
        for g in graphs:
            filt = component_filtration(g, prim_order(g))
            for t in (float(g.w.max()), 2.0, np.inf):
                assert filt.components_at(t) == [((1, g.n), g.n, g.m - g.n + 1)]

    def test_history_owner_is_level_interval_start(self, rng):
        # the filtration as a merge history: n - 1 merges in time order, each
        # joining adjacent ranks; its owners are the starts of the union-find
        # oracle's level intervals, and its block sizes those of components_at
        graphs = [random_complete_graph(12, rng)] + [sparse_connected_graph(20, 15, rng) for _ in range(3)]
        for g in graphs:
            ordering = prim_order(g)
            filt = component_filtration(g, ordering)
            history = filt.history
            assert history.times.shape == (1, g.n - 1)
            assert (history.j == history.i + 1).all() and (np.diff(history.times[0]) > 0).all()
            for t in [0.0, *filt.attach_weight[1:].tolist(), 1.0]:
                first = np.empty(g.n, dtype=np.int64)
                for _, (a, b) in level_components(g, t, ordering):
                    first[a - 1 : b] = a
                assert (history.owner_at(t)[0] + 1).tolist() == first.tolist()
                sizes = history.values_at(t)[0]
                expected = sorted((size for _, size, _ in filt.components_at(t)), reverse=True)
                assert sizes[sizes > 0].tolist() == expected

    def test_rejects_label_order_when_prim_differs(self, rng):
        # label order with each vertex attached by its lightest edge to an
        # earlier label: the attach edges are edges of g, the order is not Prim
        rejected = 0
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_complete_graph(n, rng)
            if prim_order(g).order.tolist() == list(range(1, n + 1)):
                continue
            w = {(u, v): wt for u, v, wt in g.edges}
            parents = [min(range(1, i), key=lambda j: w[(j, i)]) for i in range(2, n + 1)]
            labels = PrimOrdering(
                tuple(range(1, n + 1)),
                (np.inf,) + tuple(w[(p, i)] for i, p in enumerate(parents, start=2)),
                (0,) + tuple(parents),
            )
            with pytest.raises(GraphError):
                component_filtration(g, labels)
            rejected += 1
        assert rejected > 0

    def test_rejects_ordering_of_another_size(self, rng):
        g = random_complete_graph(5, rng)
        with pytest.raises(GraphError, match="ordering has 6 vertices, graph has 5"):
            component_filtration(g, prim_order(random_complete_graph(6, rng)))

    def test_rejects_too_few_edges(self):
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (3, 4, 0.2)])
        with pytest.raises(GraphError, match="2 edges cannot connect 4 vertices"):
            component_filtration(g, prim_order(path_graph([0.1, 0.3, 0.2])))

    def test_rejects_attach_edges_not_in_graph(self):
        g = path_graph([0.1, 0.2, 0.3])
        assert component_filtration(g, prim_order(g)).components_at(1.0) == [((1, 4), 4, 0)]
        not_an_edge = PrimOrdering((1, 2, 3, 4), (np.inf, 0.1, 0.2, 0.3), (0, 1, 1, 3))
        wrong_weight = PrimOrdering((1, 2, 3, 4), (np.inf, 0.1, 0.25, 0.3), (0, 1, 2, 3))
        # edge 2-3 is in g at 0.2, but its recorded parent 2 comes after vertex 3
        later_parent = PrimOrdering((1, 3, 2, 4), (np.inf, 0.2, 0.1, 0.3), (0, 2, 1, 3))
        for ordering in (not_an_edge, wrong_weight, later_parent):
            with pytest.raises(GraphError, match="attach edges are not edges of g"):
                component_filtration(g, ordering)


@pytest.mark.parametrize("other", [4, 6], ids=["n-minus-one", "n-plus-one"])
@pytest.mark.parametrize(
    "read, make",
    [
        (lambda g, o: level_components(g, 0.5, o), random_complete_graph),
        (component_filtration, random_complete_graph),
        (lambda g, o: explore(g, 0.5, o), random_complete_graph),
        (lambda g, o: prim_thinned_outdegrees(g, o, 0.5), weighted_cayley_tree),
        (reorder_field_from_graph, random_complete_graph),
    ],
    ids=["level_components", "component_filtration", "explore", "prim_thinned_outdegrees", "reorder_field_from_graph"],
)
def test_every_reader_refuses_an_ordering_of_another_size(rng, read, make, other):
    # each reader gets a graph it otherwise takes (a tree for the thinned
    # out-degrees, a complete graph for the rest) and the Prim order of
    # another graph of its kind on 4 or 6 vertices
    g = make(5, rng)
    ordering = prim_order(make(other, rng))
    with pytest.raises(GraphError, match=f"ordering has {other} vertices, graph has 5"):
        read(g, ordering)


@pytest.mark.parametrize(
    "read",
    [
        lambda g, o, rng: component_filtration(g, o).components_at(np.nan),
        lambda g, o, rng: explore(g, np.nan),
        lambda g, o, rng: explore(g, np.nan, o),
        lambda g, o, rng: prim_thinned_outdegrees(g, o, np.nan),
        lambda g, o, rng: percolate_cayley(5, np.nan, rng),
    ],
    ids=["components_at", "explore-labels", "explore-prim", "prim_thinned_outdegrees", "percolate_cayley"],
)
def test_every_level_reader_refuses_nan(rng, read):
    # NaN compares false with every weight, so it would read as a level below
    # all of them; each reader refuses it, percolate_cayley before its draw
    g = weighted_cayley_tree(5, rng)
    o = prim_order(g)
    state = rng.bit_generator.state
    with pytest.raises(GraphError, match="level t=nan is not a number"):
        read(g, o, rng)
    assert rng.bit_generator.state == state


class _RepeatFirstDraw:
    """A generator whose first draw repeats a weight; later draws are rng's."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def random(self, size):
        self.draws += 1
        return np.full(size, 0.5) if self.draws == 1 else self.rng.random(size)


def test_random_complete_redraws_a_repeated_weight():
    stub = _RepeatFirstDraw(np.random.default_rng(1))
    g = random_complete_graph(4, stub)
    assert stub.draws == 2
    assert g.w.tolist() == np.random.default_rng(1).random(6).tolist()


def test_random_complete_refuses_huge(rng):
    with pytest.raises(GraphError):
        random_complete_graph(5000, rng)
