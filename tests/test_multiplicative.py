import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primcoal.additive import pitman_forest
from primcoal.graphs import (
    GraphError,
    PrimOrdering,
    ProperlyWeightedGraph,
    _interval_blocks,
    component_filtration,
    level_components,
    prim_order,
    random_complete_graph,
)
from primcoal.limits import marcus_lushnikov, ml_additive_sizes, ml_multiplicative_sizes
from primcoal.multiplicative import (
    CriticalWindowParams,
    SparseField,
    _decode_edge_indices,
    _explore,
    _level,
    _radix_order,
    _triangle_cells,
    augmented_state,
    component_surpluses,
    gamma_times,
    graph_route,
    largest_component,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    sample_edge_weights,
    sparse_z_trace,
    surplus_field,
    walk_route,
    z_walk,
)
from primcoal.oracles import ks_two_sample, row_counts, tv_distance
from primcoal.walks import LatticePath, walk_component_sizes

from _oracles import sample_graph_outcomes, sample_walk_outcomes


class TestPLambda:
    def test_examples(self):
        assert p_lambda(8, 2.0) == pytest.approx(0.25)
        assert p_lambda(100, 0.0) == pytest.approx(0.01)
        assert p_lambda(1000, -1.0) == pytest.approx(0.0009)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            p_lambda(4, 10.0)
        with pytest.raises(ValueError):
            p_lambda(4, -2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: p_lambda(0, 0.0),
            lambda: graph_route(0, [0.0], np.random.default_rng(0)),
            lambda: walk_route(0, [0.0], np.random.default_rng(0)),
            lambda: p_lambda(-3, 0.0),
        ],
        ids=["p_lambda", "graph_route", "walk_route", "negative"],
    )
    def test_no_vertices_refused(self, call):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


_BATCH_SAMPLERS = {
    "graph_route": lambda rng, reps: graph_route(50, [0.0, 1.0], rng, reps=reps),
    "walk_route": lambda rng, reps: walk_route(50, [0.0, 1.0], rng, reps=reps),
    "sample_edge_weights": lambda rng, reps: sample_edge_weights(50, 0.1, rng, reps),
    "SparseField.sample": lambda rng, reps: SparseField.sample(50, 0.1, rng, reps),
    "pitman_forest": lambda rng, reps: pitman_forest(5, rng, reps=reps),
    "ml_multiplicative_sizes": lambda rng, reps: ml_multiplicative_sizes(5, 0.3, rng, reps=reps),
    "ml_additive_sizes": lambda rng, reps: ml_additive_sizes(5, 0.7, rng, reps=reps),
}


@pytest.mark.parametrize(
    "call, reps",
    [pytest.param(call, reps, id=f"{name}-{reps}") for name, call in _BATCH_SAMPLERS.items() for reps in (0, -1)]
    # the masses give marcus_lushnikov its batch, and no array has -1 rows
    + [
        pytest.param(
            lambda rng, reps: marcus_lushnikov(np.ones((reps, 5)), "additive", rng, t_max=1.0),
            0,
            id="marcus_lushnikov-0",
        )
    ],
)
def test_reps_below_one_refused_before_any_draw(call, reps):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"reps must be >= 1, got reps = {reps}"):
        call(rng, reps)
    assert rng.bit_generator.state == state


def _dense_field(n, rng):
    """The dense i.i.d. field U(i, k), 1 <= i < k <= n, drawn as an (n+1) x
    (n+1) matrix and held as the p_max = 1 field of all its entries."""
    u = rng.random((n + 1, n + 1))
    i, k = np.triu_indices(n + 1, 1)
    i, k = i[n:], k[n:]
    return SparseField(n, 1, 1.0, i, k - i - 1, u[i, k])


def _dense_matrix(field):
    """The field's entries as an (n+1) x (n+1) matrix, U(i, k) at row i,
    column i + 1 + slot; inf where the field has no hit."""
    u = np.full((field.n + 1, field.n + 1), np.inf)
    u[field.step, field.step + 1 + field.slot] = field.mark
    return u


class TestZWalk:
    def test_t_zero(self, rng):
        n = 10
        lam = -float(n ** (1.0 / 3.0))  # p = 0
        params = CriticalWindowParams(n, lam)
        assert params.p == pytest.approx(0.0)
        z, y = z_walk(params, _dense_field(n, rng))
        assert (z.values == 0).all()
        assert y.values.tolist() == list(range(0, -(n + 1), -1))

    def test_t_one(self, rng):
        n = 10
        lam = float((1.0 - 1.0 / n) * n ** (4.0 / 3.0))  # p = 1
        params = CriticalWindowParams(n, lam)
        assert params.p == pytest.approx(1.0)
        z, _ = z_walk(params, _dense_field(n, rng))
        assert walk_component_sizes(z) == [n]

    def test_internal_identities_hold_on_random_fields(self, rng):
        # construction asserts psi(Y) = max(Z-1, 0) and the ladder/zero-gap
        # interval coincidence; just exercise them
        for _ in range(100):
            n = int(rng.integers(2, 60))
            lam = float(rng.uniform(-0.9, 2.0)) * n ** (1.0 / 3.0)
            params = CriticalWindowParams(n, min(lam, (1 - 1 / n) * n ** (4 / 3)))
            z, y = z_walk(params, _dense_field(n, rng))
            assert (np.diff(z.values[:-1]) >= -1).all()
            assert sum(walk_component_sizes(z)) == n

    @pytest.mark.parametrize(
        "z, message",
        [
            ([0, 3, 1, 0, 0], "Psi Y must equal max"),
            ([0, 2, 0, 0, 0], "Z steps must be >= -1"),
            ([0, 2, 1, 1, 0], "ladder intervals of Y must match zero gaps of Z"),
            ([0, 2, 1, 0, 0], None),
        ],
        ids=["psi", "step", "ladder", "consistent"],
    )
    def test_each_identity_can_fail(self, rng, monkeypatch, z, message):
        # at n = 4 with X = (0, 2, 0, 0, 0), each of the first three Z breaks
        # only the identity named, and the last one none
        x = np.array([0, 2, 0, 0, 0])
        monkeypatch.setattr(SparseField, "walk", lambda self, p: (np.array(z), x, np.zeros_like(x)))
        params = CriticalWindowParams(4, 0.0)
        field = SparseField.sample(4, params.p, rng)
        if message is None:
            assert z_walk(params, field)[0].values.tolist() == z + [0]
        else:
            with pytest.raises(AssertionError, match=message):
                z_walk(params, field)

    def test_field_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            z_walk(CriticalWindowParams(5, 0.0), _dense_field(6, rng))

    def test_batch_field_refused(self, rng):
        params = CriticalWindowParams(20, 0.0)
        field = SparseField.sample(20, params.p, rng, reps=2)
        with pytest.raises(ValueError):
            z_walk(params, field)
        with pytest.raises(ValueError):
            surplus_field(params, LatticePath(np.zeros(22, dtype=np.int64)), field)


def _literal_field_walk(n, p, field):
    """Reference walk: Z, Y and S read straight off the field's dense matrix,
    step by step."""
    u = _dense_matrix(field)
    z = np.zeros(n + 2, dtype=np.int64)
    y = np.zeros(n + 1, dtype=np.int64)
    s = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        lo = i + max(z[i - 1] - 1, 0)
        x = int((u[i, lo + 1 : n + 1] <= p).sum())
        s[i] = int((u[i, i + 1 : lo + 1] <= p).sum())
        y[i] = y[i - 1] + x - 1
        z[i] = z[i - 1] + x - (1 if z[i - 1] > 0 else 0)
    return z, y, s


class TestFieldRecursion:
    def _check(self, params, field):
        z, y = z_walk(params, field)
        want_z, want_y, want_s = _literal_field_walk(params.n, params.p, field)
        assert np.array_equal(z.values, want_z)
        assert np.array_equal(y.values, want_y)
        assert np.array_equal(surplus_field(params, z, field), want_s)
        # its hits below a smaller p_max walk to the literal loop at every p <= p_max
        p_max = min(2.0 * params.p, 1.0)
        keep = field.mark <= p_max
        hits = SparseField(params.n, 1, p_max, field.step[keep], field.slot[keep], field.mark[keep])
        for p in (params.p / 3, params.p, min(1.5 * params.p, 1.0)):
            z, x, s = hits.walk(p)
            want_z, want_y, want_s = _literal_field_walk(params.n, p, field)
            assert np.array_equal(z, want_z[:-1])
            assert np.array_equal(x[1:], np.diff(want_y) + 1)
            assert np.array_equal(s, want_s)

    def test_matches_literal_loop_on_raw_fields(self, rng):
        for n in [int(k) for k in rng.integers(3, 150, size=150)] + [1024]:
            c = float(rng.uniform(-0.9, 2.0))
            self._check(CriticalWindowParams(n, c * n ** (1.0 / 3.0)), _dense_field(n, rng))

    def test_matches_literal_loop_on_supercritical_fields(self, rng):
        # far above the window, where the frontier covers most of each row
        for n in [int(k) for k in rng.integers(20, 300, size=40)]:
            lam = min(float(rng.uniform(5.0, 40.0)), (1 - 1 / n) * n ** (4.0 / 3.0))
            self._check(CriticalWindowParams(n, lam), _dense_field(n, rng))

    def test_matches_literal_loop_on_reordered_fields(self, rng):
        for _ in range(150):
            n = int(rng.integers(3, 150))
            g = random_complete_graph(n, rng)
            field = reorder_field_from_graph(g, prim_order(g))
            c = float(rng.uniform(-0.9, 2.0))
            self._check(CriticalWindowParams(n, c * n ** (1.0 / 3.0)), field)

    def test_matches_literal_loop_on_unsorted_fields(self, rng):
        # hits in no order of step or slot: a round's held hits come in field
        # order, so rounds that hold the same S list it in the same order
        for n in [int(k) for k in rng.integers(20, 300, size=30)]:
            lam = min(float(rng.uniform(5.0, 40.0)), (1 - 1 / n) * n ** (4.0 / 3.0))
            p_max = p_lambda(n, lam)
            field = SparseField.sample(n, p_max, rng)
            perm = rng.permutation(len(field.step))
            shuffled = SparseField(n, 1, p_max, field.step[perm], field.slot[perm], field.mark[perm])
            for p in (p_max / 2, p_max):
                want_z, want_y, want_s = _literal_field_walk(n, p, field)
                z, x, s = shuffled.walk(p)
                assert np.array_equal(z, want_z[:-1])
                assert np.array_equal(x[1:], np.diff(want_y) + 1)
                assert np.array_equal(s, want_s)
                for a, b in zip(field.walk(p), (z, x, s)):
                    assert np.array_equal(a, b)

    def test_surplus_refuses_another_fields_walk(self, rng):
        n = 200
        params = CriticalWindowParams(n, 1.0)
        a, b = _dense_field(n, rng), _dense_field(n, rng)
        z, _ = z_walk(params, a)
        with pytest.raises(ValueError):
            surplus_field(params, z, b)


def _literal_reordered_field(g, ordering):
    """The reordered field built row by row with Python lists: row 1 lists
    the later ranks in rank order, and row i >= 2 the ranks k > i sorted by
    (min over j < i of w(j, k), k), once rank i is checked to come first.
    Returns (step, slot, mark) lists."""
    n, rank = g.n, ordering.rank.tolist()
    w = [[None] * (n + 1) for _ in range(n + 1)]
    for u, v, wt in g.edges:
        w[rank[u]][rank[v]] = w[rank[v]][rank[u]] = wt
    key = [math.inf] * (n + 1)  # key[k] = min over j < i of w(j, k)
    step, slot, mark = [], [], []
    for i in range(1, n):
        ranks = list(range(i, n + 1))
        if i > 1:
            for k in ranks:
                key[k] = min(key[k], w[i - 1][k])
            ranks.sort(key=lambda k: (key[k], k))
        assert ranks[0] == i
        for q, k in enumerate(ranks[1:]):
            step.append(i)
            slot.append(q)
            mark.append(w[i][k])
    return step, slot, mark


def _complete_graph(n, weights):
    """K_n with weights[e] on the e-th pair of np.triu_indices order."""
    u, v = np.triu_indices(n, 1)
    return ProperlyWeightedGraph.from_arrays(n, u + 1, v + 1, weights)


class TestReorderedField:
    def _assert_literal(self, g, root=1):
        o = prim_order(g, root)
        field = reorder_field_from_graph(g, o)
        step, slot, mark = _literal_reordered_field(g, o)
        assert field.step.dtype == field.slot.dtype == np.int32
        assert field.mark.dtype == np.float64
        assert field.step.tolist() == step
        assert field.slot.tolist() == slot
        assert field.mark.tolist() == mark

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_graphs_match_literal_rows(self, rng, n):
        g = random_complete_graph(n, rng)
        for root in range(1, n + 1):
            self._assert_literal(g, root)

    def test_uniform_graphs_match_literal_rows(self, rng):
        for n in list(range(4, 41)) + [101, 150, 199]:
            self._assert_literal(random_complete_graph(n, rng), int(rng.integers(1, n + 1)))

    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_hand_built_weights_match_literal_rows(self, rng, n):
        m = n * (n - 1) // 2
        ramp = np.arange(1, m + 1) / m  # ends at exactly 1.0
        patterns = [
            1e-300 * (1 + rng.permutation(m) / m),  # near the bottom of float64
            ramp,  # weights rise along the pair order
            ramp[::-1].copy(),  # and fall
            rng.permutation(ramp),
            np.where(np.arange(m) == rng.integers(m), 1.0, rng.random(m) / 2),
        ]
        for weights in patterns:
            g = _complete_graph(n, weights)
            for root in (1, n, int(rng.integers(1, n + 1))):
                self._assert_literal(g, root)

    def test_infinite_weight_refused(self):
        # refused when the graph is built, so no field reordering ever sees
        # an infinite key that would tie with the padding
        with pytest.raises(GraphError, match=r"non-finite weight inf on edge \(1, 3\)"):
            ProperlyWeightedGraph(3, [(1, 2, 0.1), (1, 3, np.inf), (2, 3, 0.2)])

    def test_reordering_memory_gate(self, rng):
        # the weight matrix, the shifted key rows and their argsort, each
        # 8 bytes per (n + 1)^2 cell, with the field's 8 bytes per entry:
        # about 25 bytes per cell, against 32 when a fourth matrix was alive
        n = 512
        g = random_complete_graph(n, rng)
        o = prim_order(g)
        small = random_complete_graph(8, rng)
        reorder_field_from_graph(small, prim_order(small))  # first-call costs
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            field = reorder_field_from_graph(g, o)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(field.mark) == n * (n - 1) // 2
        assert peak <= 26 * (n + 1) ** 2, f"{peak / (n + 1) ** 2:.1f} bytes per cell"

    def test_requires_complete_graph(self, rng):
        from primcoal.graphs import ProperlyWeightedGraph

        g = ProperlyWeightedGraph(3, [(1, 2, 0.1), (2, 3, 0.2)])
        with pytest.raises(ValueError):
            reorder_field_from_graph(g, prim_order(g))

    def test_non_prim_ordering_refused(self, rng):
        g = random_complete_graph(8, rng)
        for _ in range(20):
            ordering = PrimOrdering(rng.permutation(np.arange(1, 9)), [np.inf] * 8, [0] * 8)
            with pytest.raises(AssertionError, match="first frontier entrant must be the next Prim vertex"):
                reorder_field_from_graph(g, ordering)

    def test_first_row_is_rank_order(self, rng):
        g = random_complete_graph(6, rng)
        o = prim_order(g)
        inv = np.argsort(o.rank).tolist()  # inv[k] = vertex of Prim rank k
        u = _dense_matrix(reorder_field_from_graph(g, o))
        w = {tuple(sorted((a, b))): wt for a, b, wt in g.edges}
        for k in range(2, 7):
            assert u[1, k] == w[tuple(sorted((inv[1], inv[k])))]

    def test_surplus_equals_graph_excess(self, rng):
        # the reordered field replays the exploration of the level graph:
        # per-component surplus from the field = excess from union-find
        for _ in range(60):
            n = int(rng.integers(4, 100))
            lam = float(rng.choice([-1.0, 0.0, 1.0]))
            g = random_complete_graph(n, rng)
            o = prim_order(g)
            field = reorder_field_from_graph(g, o)
            params = CriticalWindowParams(n, lam)
            z, _ = z_walk(params, field)
            s = surplus_field(params, z, field)
            walk_pairs = component_surpluses(z, s)
            filt = component_filtration(g, o)
            graph_pairs = [
                (size, exc) for (_, size, exc) in filt.components_at(params.p)
            ]
            assert walk_pairs == graph_pairs


class TestSparseSampling:
    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=50))
    def test_decode_edge_indices_inverts_triangular_enumeration(self, idx_list):
        idx = np.array(idx_list, dtype=np.int64)
        u, v = _decode_edge_indices(idx)
        assert ((0 <= v) & (v < u)).all()
        assert np.array_equal(u * (u - 1) // 2 + v, idx)

    def test_decode_edge_indices_at_row_boundaries(self):
        # T(u) = u(u-1)/2 is the first index of row u: the float root is
        # likeliest to land one row off at T(u) - 1, T(u) and T(u) + 1.  Rows
        # run past n = 4e6 (indices near 8e12) to u = 2**31 (near 2.3e18),
        # where the root of T(u) - 1 is often one row too high
        rows = np.unique(np.concatenate([
            np.arange(2, 3000),
            np.geomspace(3000, 2**31, 3000).astype(np.int64),
            np.arange(4_000_000 - 500, 4_000_001),
            np.arange(2**31 - 500, 2**31 + 1),
        ]))
        first = rows * (rows - 1) // 2
        idx = np.concatenate([first - 1, first, first + 1])
        u, v = _decode_edge_indices(idx)
        want_u = [(1 + math.isqrt(1 + 8 * k)) // 2 for k in idx.tolist()]
        assert u.tolist() == want_u
        assert v.tolist() == [k - w * (w - 1) // 2 for k, w in zip(idx.tolist(), want_u)]

    def test_sample_edge_weights_sorted_and_valid(self, rng):
        u, v, w = sample_edge_weights(100, 0.1, rng)
        # sorted by endpoints: u, then v
        assert (np.diff(u * 100 + v) > 0).all()
        assert (w <= 0.1).all() and (w > 0).all()
        assert (u > v).all() and (u < 100).all()
        pairs = set(zip(u.tolist(), v.tolist()))
        assert len(pairs) == len(u)

    def test_p_max_validation(self, rng):
        with pytest.raises(ValueError):
            sample_edge_weights(10, 1.5, rng)

    def test_edge_count_law(self, rng):
        n, p = 40, 0.05
        ne = n * (n - 1) // 2
        counts = [len(sample_edge_weights(n, p, rng)[2]) for _ in range(2000)]
        mean = np.mean(counts)
        se = np.sqrt(ne * p * (1 - p) / 2000)
        assert abs(mean - ne * p) < 4 * se


ROUTES = pytest.mark.parametrize("route", [graph_route, walk_route], ids=["graph", "walk"])


class TestGraphRoute:
    @ROUTES
    def test_sizes_partition_n(self, rng, route):
        for _, sizes, excess in route(500, [-1.0, 0.0, 1.0], rng):
            assert sizes.sum() == 500
            assert (np.diff(sizes) <= 0).all()
            assert (excess >= 0).all()

    def test_monotone_coupling_partial_square_sums(self, rng):
        # coalescence along the coupled grid only ever grows partial l2 sums
        lambdas = np.linspace(-2.0, 2.0, 9).tolist()
        for _ in range(20):
            n = int(rng.integers(50, 2000))
            states = graph_route(n, lambdas, rng)
            prev = None
            for _, sizes, _ in states:
                gam = gamma_times(n, sizes)
                cur = gam.partial_square_sums()
                if prev is not None:
                    k = min(len(prev), len(cur))
                    assert (cur[:k] - prev[:k] >= -1e-12).all()
                    if len(prev) > k:
                        assert (cur[-1] >= prev[k:] - 1e-12).all()
                prev = cur

    def test_matches_dense_construction_in_law(self, rng):
        # sparse coupled sampler vs the dense i.i.d.-weights level graph
        n, reps = 6, 30000
        rep, sizes, _ = graph_route(n, [0.0], rng, reps=reps)[0]
        sparse = row_counts(replicate_rows(rep, sizes, reps, n))
        from primcoal.graphs import level_components

        dense = []
        t = p_lambda(n, 0.0)
        for _ in range(reps):
            g = random_complete_graph(n, rng)
            found = sorted((len(c) for c in level_components(g, t)), reverse=True)
            dense.append(tuple(found + [0] * (n - len(found))))
        assert tv_distance(sparse, Counter(dense)) < 0.025

    def test_batch_of_one_draws_are_stable(self):
        # re-recorded when the edges became geometric skips over one
        # Bernoulli run of cells, in place of a binomial count and uniform
        # slot sets
        rng = np.random.default_rng(20240607)
        got = [(s.tolist(), e.tolist()) for _, s, e in graph_route(50, [-1.0, 0.0, 1.5], rng)]
        assert got == [
            ([5, 4] + [2] * 7 + [1] * 27, [0] * 36),
            ([6, 6] + [2] * 8 + [1] * 22, [0] * 32),
            ([9, 6, 3] + [2] * 7 + [1] * 18, [1] + [0] * 27),
        ]

    @pytest.mark.parametrize(
        "n, reps, lambdas",
        [
            pytest.param(n, reps, lambdas, id=f"{reps}-{n}{tag}")
            for tag, lambdas in (
                ("", [1.5, -2.0, 4.0, 0.0, 1.5, 30.0]),
                ("-one-level", [0.0]),
                ("-one-level-repeated", [1.5, 1.5]),
            )
            for n in (50, 300)
            for reps in (1, 3)
        ]
        + [
            pytest.param(6, 1024, [-1.0, 0.0, 2.0], id="1024-6"),
            # p_lambda(n, -n^(1/3)) = 0: every component a singleton, with
            # no edge drawn at all, or below the other levels' edges
            pytest.param(300, 3, [-(300 ** (1 / 3))], id="3-300-all-singletons"),
            pytest.param(50, 3, [0.0, -(50 ** (1 / 3)), 1.5], id="3-50-a-level-of-singletons"),
            pytest.param(50, 1, [30.0], id="1-50-no-singleton"),
        ],
    )
    def test_matches_union_find_on_same_edges(self, n, reps, lambdas):
        # the same seed gives the same edges to the union-find oracle; the
        # grid comes unsorted, with a repeat and a supercritical lambda, and
        # one distinct level takes the route's path that sorts no edges.
        # The order is exact: in each rep, decreasing size, then lowest
        # vertex, so the singletons close the rep in vertex order
        ps = [p_lambda(n, lam) for lam in lambdas]
        found = graph_route(n, lambdas, np.random.default_rng(17), reps=reps)
        u, v, w = sample_edge_weights(n, max(ps), np.random.default_rng(17), reps)
        for p, (rep, sizes, excess) in zip(ps, found):
            assert rep.dtype == sizes.dtype == excess.dtype == np.int64
            assert (np.diff(rep) >= 0).all()
            for r in range(reps):
                mine = u // n == r
                g = ProperlyWeightedGraph.from_arrays(
                    n, u[mine] - r * n + 1, v[mine] - r * n + 1, w[mine]
                )
                level = g.w <= p
                comps = []
                for comp in level_components(g, p):
                    inside = np.isin(g.u[level], list(comp))
                    comps.append((len(comp), int(inside.sum()) - len(comp) + 1, min(comp)))
                want = [(size, exc) for size, exc, _ in sorted(comps, key=lambda c: (-c[0], c[2]))]
                ours = rep == r
                assert list(zip(sizes[ours].tolist(), excess[ours].tolist())) == want
        if lambdas == [30.0]:
            assert sizes.min() > 1, "the case must hold a level with no singleton"

    @ROUTES
    def test_batch_components_partition_each_replicate(self, rng, route):
        n, reps = 40, 300
        for rep, sizes, excess in route(n, [-1.0, 0.0, 1.0], rng, reps=reps):
            assert (np.diff(rep) >= 0).all()
            assert np.array_equal(np.bincount(rep, weights=sizes, minlength=reps), np.full(reps, n))
            assert (np.diff(sizes)[np.diff(rep) == 0] <= 0).all()
            assert (excess >= 0).all()


def _valid_lambdas(n, lambdas):
    """The lambdas whose p_lambda(n, .) lies in [0, 1]."""
    return [lam for lam in lambdas if 0.0 <= 1.0 / n + lam / n ** (4.0 / 3.0) <= 1.0]


class TestLargestComponent:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 50, 2000, 100000])
    def test_matches_graph_route_and_leaves_the_same_state(self, n):
        # subcritical to supercritical; at n = 1 and 2 only the lambdas
        # whose p lies in [0, 1]
        for lam in _valid_lambdas(n, [-(n ** (1 / 3)), -2.0, -1.0, 0.0, 1.0, 3.0, 30.0]):
            for seed in (1, 2, 3):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = largest_component(n, lam, ours)
                _, sizes, _ = graph_route(n, [lam], theirs)[0]
                assert type(got) is int and got == sizes[0], (n, lam, seed)
                assert ours.random() == theirs.random(), (n, lam, seed)

    @pytest.mark.parametrize("n", [2, 7, 40, 300])
    def test_matches_union_find_oracle_on_same_edges(self, n):
        # the same seed gives the same edges to level_components
        for lam in _valid_lambdas(n, [-1.0, 0.0, 1.0, 4.0]):
            for seed in (5, 6, 7):
                p = p_lambda(n, lam)
                u, v, w = sample_edge_weights(n, p, np.random.default_rng(seed))
                g = ProperlyWeightedGraph.from_arrays(n, u + 1, v + 1, w)
                want = max(len(c) for c in level_components(g, p))
                assert largest_component(n, lam, np.random.default_rng(seed)) == want, (n, lam, seed)

    def test_p_one_and_p_zero(self):
        # p = 1 keeps every pair, and p = 0 none
        assert largest_component(5, 5 ** (4 / 3) * (1 - 1 / 5), np.random.default_rng(0)) == 5
        assert largest_component(5, -(5 ** (1 / 3)), np.random.default_rng(0)) == 1


class TestWalkRoute:
    def test_component_pairs_partition(self, rng):
        _, sizes, surplus = walk_route(80, [0.5], rng)[0]
        assert sizes.sum() == 80
        assert (surplus >= 0).all()

    def test_surplus_zero_on_trees(self, rng):
        # at very subcritical p the components are almost surely trees
        for _ in range(50):
            _, sizes, surplus = walk_route(30, [-2.0], rng)[0]
            if sizes.max() <= 2:
                assert (surplus == 0).all()

    def test_draws_are_stable(self):
        # re-recorded when a field's hits, drawn as sample_edge_weights draws
        # edges, became geometric skips over one Bernoulli run of cells in
        # place of a binomial count and uniform slot sets; listed by
        # decreasing size, ties in exploration order
        _, sizes, surplus = walk_route(40, [3.0], np.random.default_rng(2024))[0]
        assert list(zip(sizes.tolist(), surplus.tolist())) == [(33, 7)] + [(1, 0)] * 7
        assert sample_walk_outcomes(4, 0.5, 30, np.random.default_rng(2025)) == {
            (1, 0, 1, 0, 1, 0, 1, 0): 5,
            (2, 0, 1, 0, 1, 0, 0, 0): 4,
            (2, 0, 2, 0, 0, 0, 0, 0): 3,
            (3, 0, 1, 0, 0, 0, 0, 0): 12,
            (4, 0, 0, 0, 0, 0, 0, 0): 5,
            (4, 1, 0, 0, 0, 0, 0, 0): 1,
        }
        z = sparse_z_trace(30, 1.0, np.random.default_rng(2026))
        assert z.tolist() == [0, 1, 2, 3, 3, 4, 4, 4, 3, 3, 2, 1, 1, 0, 2, 2, 2, 2, 2, 1, 1, 0] + [0] * 10

    def test_each_level_walked_once(self, monkeypatch):
        # both grids top out at lambda 1, so one seed gives them the same field
        walked = []
        walk = SparseField.walk

        def counted(field, p):
            walked.append(p)
            return walk(field, p)

        monkeypatch.setattr(SparseField, "walk", counted)
        grid = walk_route(300, [1.0, -1.0, 0.0, 1.0], np.random.default_rng(9), reps=3)
        assert len(walked) == 3 and walked == sorted(walked)
        plain = walk_route(300, [-1.0, 0.0, 1.0], np.random.default_rng(9), reps=3)
        for got, want in zip(grid, [plain[2], plain[0], plain[1], plain[2]]):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_levels_are_the_field_blocks_in_lexsort_order(self):
        # the same seed gives the route's field; the grid comes unsorted and
        # repeated, with a level at p = 0 (every block a singleton) and one
        # with no singleton.  Each level is the field's own blocks at p, by
        # rep, then decreasing size, ties in exploration order
        n, reps = 50, 3
        lambdas = [1.5, 30.0, -(n ** (1 / 3)), 0.0, 1.5]
        ps = [p_lambda(n, lam) for lam in lambdas]
        assert min(ps) == 0.0
        found = walk_route(n, lambdas, np.random.default_rng(23), reps=reps)
        field = SparseField.sample(n, max(ps), np.random.default_rng(23), reps)
        for p, got in zip(ps, found):
            z, _, s = field.walk(p)
            opened, sizes, surplus = _interval_blocks(z[:-1] == 0, s[1:])
            rep = opened // n
            order = np.lexsort((-sizes, rep))
            for a, b in zip(got, (rep, sizes, surplus.astype(np.int64))):
                assert a.dtype == np.int64
                assert np.array_equal(a, b[order])
            if p == 0.0:
                assert (got[1] == 1).all()
        assert found[1][1].min() > 1, "the grid must hold a level with no singleton"

    def test_walk_vs_graph_outcomes_small_tv(self, rng):
        counts_w = sample_walk_outcomes(5, 0.5, 20000, rng)
        counts_g = sample_graph_outcomes(5, 0.5, 20000, rng)
        assert tv_distance(counts_w, counts_g) < 0.03


class TestScalingHelpers:
    def test_gamma_times_norm(self):
        gam = gamma_times(1000, [100, 50, 10])
        assert gam[0] == pytest.approx(100 / 1000 ** (2 / 3))

    def test_augmented_state_sorting(self):
        st_ = augmented_state(8, np.array([2, 5, 1]), np.array([1, 0, 0]))
        assert st_.masses.values.tolist() == pytest.approx(
            [5 / 4, 2 / 4, 1 / 4]
        )
        assert st_.surpluses.tolist() == [0, 1, 0]

    def test_augmented_state_ties_by_ascending_surplus(self):
        st_ = augmented_state(8, [3, 1, 3, 3, 1], [2, 1, 0, 1, 0])
        assert st_.masses.values.tolist() == pytest.approx([3 / 4] * 3 + [1 / 4] * 2)
        assert st_.surpluses.tolist() == [0, 1, 2, 0, 1]


def _literal_explore(totals, step, pos):
    """Reference recursion: one step at a time over the given hit positions."""
    slots = [[] for _ in range(len(totals) + 1)]
    for i, q in zip(step.tolist(), pos.tolist()):
        slots[i].append(q)
    z = np.zeros(len(totals) + 1, dtype=np.int64)
    s = np.zeros(len(totals) + 1, dtype=np.int64)
    for i in range(1, len(totals) + 1):
        m = max(z[i - 1] - 1, 0)
        s[i] = sum(q < m for q in slots[i])
        z[i] = z[i - 1] + totals[i - 1] - s[i] - (z[i - 1] > 0)
    return z, s


def _given_slots(n, reps, p, rng):
    """Totals and distinct hit positions of `reps` flat rows, drawn row by row."""
    widths = np.tile(np.arange(n - 1, -1, -1), reps)
    totals = rng.binomial(widths, p)
    step = np.repeat(np.arange(1, len(widths) + 1), totals)
    pos = np.concatenate(
        [rng.choice(w, size=t, replace=False) for w, t in zip(widths, totals)]
    )
    return totals, step, pos.astype(np.int64)


class TestExploreFixedPoint:
    @pytest.mark.parametrize(
        "n_range, c_range",
        [((2, 120), (-1.0, 2.0)), ((200, 400), (20.0, 40.0))],
        ids=["window", "supercritical"],
    )
    def test_matches_literal_loop(self, rng, n_range, c_range):
        for _ in range(25):
            n, reps = int(rng.integers(*n_range)), int(rng.integers(1, 4))
            lam = min(float(rng.uniform(*c_range)), (1 - 1 / n) * n ** (4.0 / 3.0))
            totals, step, pos = _given_slots(n, reps, p_lambda(n, lam), rng)
            counts = np.append(0, totals)
            z, x, s = _explore(n, counts, step, pos)
            want_z, want_s = _literal_explore(totals, step, pos)
            assert np.array_equal(counts[1:], totals)  # only read
            assert np.array_equal(z, want_z)
            assert np.array_equal(s, want_s)
            assert np.array_equal(x, np.append(0, totals) - want_s)
            assert (z[::n] == 0).all()


class TestComponentOrder:
    @pytest.mark.parametrize("top", [0, 3, 2**16 - 1, 2**16, 2**20, 2**32, 2**40 + 7])
    def test_radix_order_is_stable_argsort(self, rng, top):
        for size in (0, 1, 5000):
            key = rng.integers(0, top + 1, size=size)
            if size:
                key[rng.integers(0, size)] = top
            assert np.array_equal(_radix_order(key), np.argsort(key, kind="stable"))

    @pytest.mark.parametrize("reps", [1, 7, 1000])
    @pytest.mark.parametrize("top", [1, 12, 200, 70000])
    def test_level_is_lexsort(self, rng, reps, top):
        # many size ties, extras that tell tied rows apart, reps grouped
        # in the order the routes give them
        k = 5 * reps
        rep = np.sort(rng.integers(0, reps, size=k))
        sizes = rng.integers(1, min(top, 12) + 1, size=k)
        sizes[rng.integers(0, k)] = top
        extra = rng.permutation(k)
        want = np.lexsort((-sizes, rep))
        got = _level(rep, sizes, extra)
        assert all(np.array_equal(a, b[want]) for a, b in zip(got, (rep, sizes, extra)))

    @pytest.mark.parametrize("reps", [1, 2])
    def test_graph_route_with_a_giant_above_16_bits(self, reps):
        # lambda = 150 at n = 70000 has mean degree about 4.6: the giant
        # holds about 99% of the vertices, so _level's key needs two passes
        n = 70000
        for rep, sizes, _ in graph_route(n, [0.0, 150.0], np.random.default_rng(8), reps=reps):
            assert (np.diff(rep) >= 0).all()
            assert (np.diff(sizes)[np.diff(rep) == 0] <= 0).all()
            assert np.array_equal(np.bincount(rep, weights=sizes), np.full(reps, n))
        assert sizes.max() > 2**16 - 1


def _hit_set_law(n, reps, step, slot):
    """Frequency of each hit set of a replicate, over the 2^(n(n-1)/2)
    subsets of the triangle; row i, slot q is bit sum_{j<i}(n - j) + q."""
    start = np.cumsum(np.append(0, np.arange(n - 1, 0, -1)))
    rep, row = np.divmod(step - 1, n)
    sets = np.bincount(rep, weights=2 ** (start[row] + slot), minlength=reps).astype(np.int64)
    return np.bincount(sets, minlength=2 ** start[-1]) / reps


def _exact_hit_set_law(n, p):
    """p^k (1 - p)^(cells - k) for the hit set of every bitmask."""
    cells = n * (n - 1) // 2
    k = np.array([bin(m).count("1") for m in range(2**cells)])
    return p**k * (1 - p) ** (cells - k)


def _cells_with_replacement(n, p, rng, reps):
    """A wrong sampler: Bin(n(n-1)/2, p) cells drawn with replacement, repeats
    merged, so a replicate has too few hits."""
    cells = n * (n - 1) // 2
    rep = np.repeat(np.arange(reps), rng.binomial(cells, p, size=reps))
    rep, cell = np.divmod(np.unique(rep * cells + rng.integers(0, cells, len(rep))), cells)
    u, v = _decode_edge_indices(cells - 1 - cell)
    return rep * n + n - u, u - 1 - v


def _rows_one_short(n, p, rng, reps):
    """A wrong sampler: row i drawn over n - i - 1 slots, one too few."""
    widths = np.tile(np.arange(n - 2, -2, -1).clip(0), reps)
    totals = rng.binomial(widths, p)
    step = np.repeat(np.arange(1, len(widths) + 1), totals)
    slot = np.concatenate([rng.choice(w, size=t, replace=False) for w, t in zip(widths, totals)])
    return step, slot.astype(np.int64)


def _tv(a, b):
    return 0.5 * np.abs(a - b).sum()


class TestSparseFieldSample:
    # Same-law noise at n = 4 (64 hit sets), from 4000 multinomial draws of
    # the exact law: one sample of 100k reads TV <= 0.0130, and 10k against
    # 100k reads TV <= 0.0411 (either p below).  The bounds sit just above.
    LAW_REPS, LAW_BOUND = 100000, 0.015
    ORACLE_REPS, ORACLE_BOUND = 10000, 0.05

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_hit_sets_follow_exact_law(self, rng, p):
        n, reps = 4, self.LAW_REPS
        field = SparseField.sample(n, p, rng, reps)
        law = _hit_set_law(n, reps, field.step, field.slot)
        assert _tv(law, _exact_hit_set_law(n, p)) < self.LAW_BOUND
        _, step, slot = _given_slots(n, self.ORACLE_REPS, p, rng)
        assert _tv(law, _hit_set_law(n, self.ORACLE_REPS, step, slot)) < self.ORACLE_BOUND

    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("wrong", [_cells_with_replacement, _rows_one_short])
    def test_hit_set_check_has_power(self, rng, p, wrong):
        n, reps = 4, self.ORACLE_REPS
        law = _hit_set_law(n, reps, *wrong(n, p, rng, reps))
        assert _tv(law, _exact_hit_set_law(n, p)) > self.ORACLE_BOUND

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p_max", [0.0, 0.5, 1.0])
    def test_small_fields(self, rng, n, p_max):
        reps = 50
        field = SparseField.sample(n, p_max, rng, reps)
        row = (field.step - 1) % n + 1
        assert ((1 <= row) & (row <= n - 1)).all()
        assert ((0 <= field.slot) & (field.slot < n - row)).all()
        assert (np.diff(field.step * n + field.slot) > 0).all()
        if p_max == 1.0:
            assert len(field.step) == reps * n * (n - 1) // 2
        z, x, s = field.walk(p_max)
        if p_max == 0.0:
            assert len(field.step) == len(field.mark) == 0
            assert not (z.any() or x.any() or s.any())

    @pytest.mark.parametrize("p_max", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("sampler", [SparseField.sample, sample_edge_weights])
    def test_p_max_outside_unit_interval_refused(self, rng, sampler, p_max):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            sampler(5, p_max, rng, 2)

    def test_edge_weights_empty_at_p_zero(self, rng):
        u, v, w = sample_edge_weights(6, 0.0, rng, 3)
        assert len(u) == len(v) == len(w) == 0


class _ZeroExponentials:
    """A generator whose exponentials are all 0, so every gap is 1."""

    def __init__(self):
        self.blocks = 0

    def standard_exponential(self, size):
        self.blocks += 1
        return np.zeros(size)


class TestTriangleCells:
    def test_unit_gaps_hit_every_cell_over_several_blocks(self):
        n, reps = 7, 4
        rng = _ZeroExponentials()
        rep, cell = _triangle_cells(n, 0.1, rng, reps)
        assert rng.blocks > 1
        assert rep.tolist() == np.repeat(np.arange(reps), 21).tolist()
        assert cell.tolist() == list(range(21)) * reps

    @pytest.mark.parametrize("p_max", [5e-324, 1e-300, 1e-18])
    def test_tiny_p_max_hits_nothing(self, rng, p_max):
        # a gap past the run is clipped there, not cast from inf or onto
        # the last cell
        rep, cell = _triangle_cells(50, p_max, rng, 3)
        assert len(rep) == len(cell) == 0

    def test_p_max_one_hits_every_cell(self, rng):
        rep, cell = _triangle_cells(6, 1.0, rng, 3)
        assert rep.tolist() == np.repeat(np.arange(3), 15).tolist()
        assert cell.tolist() == list(range(15)) * 3

    @pytest.mark.parametrize("p_max", [0.0, 0.5, 1.0])
    def test_one_vertex_has_no_cells(self, rng, p_max):
        rep, cell = _triangle_cells(1, p_max, rng, 3)
        assert len(rep) == len(cell) == 0


class TestSparseWalk:
    def test_flat_batch_closes_every_block(self, rng):
        n, reps = 37, 400
        field = SparseField.sample(n, p_lambda(n, 2.0), rng, reps)
        assert ((0 < field.mark) & (field.mark <= field.p_max)).all()
        for lam in (-1.0, 1.0, 2.0):
            z, x, s = field.walk(p_lambda(n, lam))
            assert len(z) == len(x) == len(s) == n * reps + 1
            assert z.dtype == x.dtype == s.dtype == np.int32
            assert (z[::n] == 0).all()
            assert (z >= 0).all() and (np.diff(z) >= -1).all()
            assert (x >= 0).all() and (s >= 0).all()
        with pytest.raises(ValueError):
            field.walk(p_lambda(n, 3.0))

    def test_walks_share_no_memory(self, rng):
        # _explore reuses its buffers within a call, never across calls
        n, reps = 300, 3
        field = SparseField.sample(n, p_lambda(n, 2.0), rng, reps)
        for p in (p_lambda(n, 0.0), field.p_max):
            first, second = field.walk(p), field.walk(p)
            for a, b in zip(first, second):
                assert np.array_equal(a, b)
                assert not np.shares_memory(a, b)
            for a, b in itertools.combinations(first, 2):
                assert not np.shares_memory(a, b)
            for a in first:
                assert not any(np.shares_memory(a, f) for f in (field.step, field.slot, field.mark))

    def test_walk_memory_gate(self, rng):
        # the field and its walk, every temporary included: 24-28 bytes per
        # vertex with int32 positions and a sparse fixed point, 61-65 with
        # int64 positions and a dense count of the held hits every round
        n = 200_000
        p = p_lambda(n, 0.0)
        SparseField.sample(1000, p_lambda(1000, 0.0), rng).walk(p_lambda(1000, 0.0))  # first-call imports
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            field = SparseField.sample(n, p, rng)
            field.walk(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 32 * n, f"{peak / n:.1f} bytes per vertex"
        g = random_complete_graph(30, rng)
        for f in (field, reorder_field_from_graph(g, prim_order(g))):
            assert f.step.dtype == f.slot.dtype == np.int32

    def test_arrays_held_read_only_uncopied(self):
        step, slot, mark = np.array([1, 1, 2], np.int32), np.array([0, 2, 0], np.int32), np.array([0.1, 0.2, 0.3])
        field = SparseField(4, 1, 1.0, step, slot, mark)
        for given, held in zip((step, slot, mark), (field.step, field.slot, field.mark)):
            assert given.flags.writeable and not held.flags.writeable
            assert held.base is given
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0
        # step 2's frontier holds slot 0, so its one hit is surplus
        z, _, s = field.walk(1.0)
        assert z.tolist() == [0, 2, 1, 0, 0] and s.tolist() == [0, 0, 1, 0, 0]

    def test_int32_overflow_refused_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for n, reps in ((2**31 - 1, 1), (2**16, 2**15)):
            with pytest.raises(ValueError, match="does not fit int32"):
                SparseField.sample(n, 0.0, rng, reps)
        assert rng.bit_generator.state == state
        # n + 1 = 2**31 - 1 fits; at p_max 0 no hit is drawn, so nothing large is made
        assert len(SparseField.sample(2**31 - 2, 0.0, rng).step) == 0

    def test_outcomes_partition_each_replicate(self, rng):
        n, reps = 9, 3000
        counts = sample_walk_outcomes(n, 1.0, reps, rng)
        assert sum(counts.values()) == reps
        for key in counts:
            assert sum(key[::2]) == n


class TestSparseTrace:
    def test_walk_shape_and_steps(self, rng):
        z = sparse_z_trace(2000, 0.0, rng)
        assert len(z) == 2002
        assert z[0] == 0 and z[-1] == 0
        assert (np.diff(z[:-1]) >= -1).all()

    def test_matches_field_walk_in_law(self, rng):
        # largest component and total surplus at lambda 0: sparse fields drawn
        # at p and at p_lambda(n, 2) against the dense field recursion
        n, reps = 60, 3000
        params = CriticalWindowParams(n, 0.0)
        dense_largest, dense_surplus = [], []
        for _ in range(reps):
            field = _dense_field(n, rng)
            z, _ = z_walk(params, field)
            dense_largest.append(max(walk_component_sizes(z)))
            dense_surplus.append(surplus_field(params, z, field).sum())
        for p_max in (params.p, p_lambda(n, 2.0)):
            z, _, s = SparseField.sample(n, p_max, rng, reps).walk(params.p)
            opens = z[:-1] == 0
            largest = np.zeros(reps, dtype=np.int64)
            np.maximum.at(largest, np.flatnonzero(opens) // n, np.bincount(np.cumsum(opens) - 1))
            surplus = s[1:].reshape(reps, n).sum(axis=1)
            assert ks_two_sample(largest, dense_largest, f"largest, p_max {p_max:.4f}").passed
            assert ks_two_sample(surplus, dense_surplus, f"surplus, p_max {p_max:.4f}").passed
