import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primcoal.graphs import component_filtration, prim_order, random_complete_graph
from primcoal.multiplicative import (
    CriticalWindowParams,
    UniformField,
    _decode_edge_indices,
    _explore,
    _sparse_walk,
    _uniform_slots,
    augmented_state,
    component_surpluses,
    gamma_times,
    graph_route,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    sample_edge_weights,
    sample_graph_outcomes,
    sample_walk_outcomes,
    sparse_z_trace,
    surplus_field,
    walk_route,
    y_times,
    z_walk,
)
from primcoal.oracles import empirical_counts, ks_two_sample, row_counts, tv_distance
from primcoal.walks import LatticePath, psi, walk_component_sizes


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


class TestZWalk:
    def test_t_zero(self, rng):
        n = 10
        lam = -float(n ** (1.0 / 3.0))  # p = 0
        params = CriticalWindowParams(n, lam)
        assert params.p == pytest.approx(0.0)
        z, y = z_walk(params, UniformField.sample(n, rng))
        assert (z.values == 0).all()
        assert y.values.tolist() == list(range(0, -(n + 1), -1))

    def test_t_one(self, rng):
        n = 10
        lam = float((1.0 - 1.0 / n) * n ** (4.0 / 3.0))  # p = 1
        params = CriticalWindowParams(n, lam)
        assert params.p == pytest.approx(1.0)
        z, _ = z_walk(params, UniformField.sample(n, rng))
        assert walk_component_sizes(z) == [n]

    def test_internal_identities_hold_on_random_fields(self, rng):
        # construction asserts psi(Y) = max(Z-1, 0) and the ladder/zero-gap
        # interval coincidence; just exercise them
        for _ in range(100):
            n = int(rng.integers(2, 60))
            lam = float(rng.uniform(-0.9, 2.0)) * n ** (1.0 / 3.0)
            params = CriticalWindowParams(n, min(lam, (1 - 1 / n) * n ** (4 / 3)))
            z, y = z_walk(params, UniformField.sample(n, rng))
            assert (np.diff(z.values[:-1]) >= -1).all()
            assert sum(walk_component_sizes(z)) == n

    def test_field_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            z_walk(CriticalWindowParams(5, 0.0), UniformField.sample(6, rng))


def _literal_field_walk(n, p, u):
    """Reference walk: Z, Y and S read straight off the field, step by step."""
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
        want_z, want_y, want_s = _literal_field_walk(params.n, params.p, field.matrix)
        assert np.array_equal(z.values, want_z)
        assert np.array_equal(y.values, want_y)
        assert np.array_equal(surplus_field(params, z, field), want_s)

    def test_matches_literal_loop_on_raw_fields(self, rng):
        for n in [int(k) for k in rng.integers(3, 150, size=150)] + [1024]:
            c = float(rng.uniform(-0.9, 2.0))
            self._check(CriticalWindowParams(n, c * n ** (1.0 / 3.0)), UniformField.sample(n, rng))

    def test_matches_literal_loop_on_supercritical_fields(self, rng):
        # far above the window, where the frontier covers most of each row
        for n in [int(k) for k in rng.integers(20, 300, size=40)]:
            lam = min(float(rng.uniform(5.0, 40.0)), (1 - 1 / n) * n ** (4.0 / 3.0))
            self._check(CriticalWindowParams(n, lam), UniformField.sample(n, rng))

    def test_matches_literal_loop_on_reordered_fields(self, rng):
        for _ in range(150):
            n = int(rng.integers(3, 150))
            g = random_complete_graph(n, rng)
            field = reorder_field_from_graph(g, prim_order(g))
            c = float(rng.uniform(-0.9, 2.0))
            self._check(CriticalWindowParams(n, c * n ** (1.0 / 3.0)), field)

    def test_surplus_refuses_another_fields_walk(self, rng):
        n = 200
        params = CriticalWindowParams(n, 1.0)
        a, b = UniformField.sample(n, rng), UniformField.sample(n, rng)
        z, _ = z_walk(params, a)
        with pytest.raises(ValueError):
            surplus_field(params, z, b)


class TestUniformField:
    def test_bounds(self, rng):
        f = UniformField.sample(5, rng)
        assert 0.0 <= f(1, 2) <= 1.0
        with pytest.raises(IndexError):
            f(2, 2)
        with pytest.raises(IndexError):
            f(0, 3)

    def test_size_cap(self, rng):
        with pytest.raises(ValueError):
            UniformField.sample(5000, rng)


class TestReorderedField:
    def test_requires_complete_graph(self, rng):
        from primcoal.graphs import ProperlyWeightedGraph

        g = ProperlyWeightedGraph(3, [(1, 2, 0.1), (2, 3, 0.2)])
        with pytest.raises(ValueError):
            reorder_field_from_graph(g, prim_order(g))

    def test_first_row_is_rank_order(self, rng):
        g = random_complete_graph(6, rng)
        o = prim_order(g)
        rank = o.rank()
        field = reorder_field_from_graph(g, o)
        w = {tuple(sorted((u, v))): wt for u, v, wt in g.edges}
        inv = {r: v for v, r in rank.items()}
        for k in range(2, 7):
            assert field(1, k) == w[tuple(sorted((inv[1], inv[k])))]

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

    def test_sample_edge_weights_sorted_and_valid(self, rng):
        u, v, w = sample_edge_weights(100, 0.1, rng)
        assert (np.diff(w) >= 0).all()
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


class TestGraphRoute:
    def test_sizes_partition_n(self, rng):
        for sizes, excess in graph_route(500, [-1.0, 0.0, 1.0], rng):
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
            for sizes, _ in states:
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
        assert tv_distance(sparse, empirical_counts(dense)) < 0.025

    def test_batch_of_one_draws_are_stable(self):
        # recorded before graph_route had a replicate axis: the batch of one
        # still makes exactly the same draws
        rng = np.random.default_rng(20240607)
        got = [(s.tolist(), e.tolist()) for s, e in graph_route(50, [-1.0, 0.0, 1.5], rng)]
        assert got == [
            ([5, 3, 3] + [2] * 6 + [1] * 27, [0] * 36),
            ([8, 6, 6, 3] + [2] * 4 + [1] * 19, [0] * 27),
            ([30, 3, 2] + [1] * 15, [1] + [0] * 17),
        ]

    def test_batch_components_partition_each_replicate(self, rng):
        n, reps = 40, 300
        for rep, sizes, excess in graph_route(n, [-1.0, 0.0, 1.0], rng, reps=reps):
            assert (np.diff(rep) >= 0).all()
            assert np.array_equal(np.bincount(rep, weights=sizes, minlength=reps), np.full(reps, n))
            assert (np.diff(sizes)[np.diff(rep) == 0] <= 0).all()
            assert (excess >= 0).all()


class TestWalkRoute:
    def test_component_pairs_partition(self, rng):
        pairs = walk_route(CriticalWindowParams(80, 0.5), rng)
        assert sum(size for size, _ in pairs) == 80
        assert all(s >= 0 for _, s in pairs)

    def test_surplus_zero_on_trees(self, rng):
        # at very subcritical p the components are almost surely trees
        params = CriticalWindowParams(30, -2.0)
        for _ in range(50):
            pairs = walk_route(params, rng)
            sizes = [sz for sz, _ in pairs]
            if max(sizes) <= 2:
                assert all(s == 0 for _, s in pairs)

    def test_walk_vs_graph_outcomes_small_tv(self, rng):
        counts_w = sample_walk_outcomes(5, 0.5, 20000, rng)
        counts_g = sample_graph_outcomes(5, 0.5, 20000, rng)
        assert tv_distance(counts_w, counts_g) < 0.03


class TestScalingHelpers:
    def test_gamma_times_norm(self):
        gam = gamma_times(1000, [100, 50, 10])
        assert gam.norm == "l2"
        assert gam[0] == pytest.approx(100 / 1000 ** (2 / 3))

    def test_y_times_scaling(self, rng):
        n = 27
        yt = y_times(CriticalWindowParams(n, 0.0), UniformField.sample(n, rng))
        assert yt.x_step == pytest.approx(n ** (-2 / 3))
        assert len(yt) == n + 1

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
            z, x, s = _explore(n, totals, step, pos)
            want_z, want_s = _literal_explore(totals, step, pos)
            assert np.array_equal(z, want_z)
            assert np.array_equal(s, want_s)
            assert np.array_equal(x, np.append(0, totals) - want_s)
            assert (z[::n] == 0).all()

    def test_uniform_slots_are_distinct_and_counted(self, rng):
        # dense rows (p near 1) force many collisions and redraws
        for n, p in [(50, 0.9), (300, 0.02), (40, 1.0)]:
            widths = np.tile(np.arange(n - 1, -1, -1), 3)
            totals = rng.binomial(widths, p)
            row, slot = _uniform_slots(totals, widths, rng)
            assert np.array_equal(np.bincount(row, minlength=len(totals)), totals)
            assert ((0 <= slot) & (slot < widths[row])).all()
            assert len(set(zip(row.tolist(), slot.tolist()))) == len(row)

    def test_uniform_slots_pick_uniform_subsets(self, rng):
        # 2 of 4 slots: each of the 6 pairs has probability 1/6
        reps = 30000
        row, slot = _uniform_slots(np.full(reps, 2), np.full(reps, 4), rng)
        order = np.lexsort((slot, row))
        pair = slot[order].reshape(reps, 2)
        counts = np.bincount(4 * pair[:, 0] + pair[:, 1], minlength=16)
        expect, sd = reps / 6, np.sqrt(reps * (1 / 6) * (5 / 6))
        assert counts[[1, 2, 3, 6, 7, 11]] == pytest.approx(np.full(6, expect), abs=5 * sd)
        assert counts.sum() == reps


class TestSparseWalk:
    def test_flat_batch_closes_every_block(self, rng):
        n, reps = 37, 400
        z, x, s = _sparse_walk(n, p_lambda(n, 1.0), reps, rng)
        assert len(z) == len(x) == len(s) == n * reps + 1
        assert (z[::n] == 0).all()
        assert (z >= 0).all() and (np.diff(z) >= -1).all()
        assert (x >= 0).all() and (s >= 0).all()

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
        # largest-component KS between the O(n)-memory trace and the dense
        # field recursion
        n, reps = 60, 3000
        a = []
        for _ in range(reps):
            z = sparse_z_trace(n, 0.0, rng)
            a.append(max(walk_component_sizes(LatticePath(z))))
        b = []
        params = CriticalWindowParams(n, 0.0)
        for _ in range(reps):
            z, _ = z_walk(params, UniformField.sample(n, rng))
            b.append(max(walk_component_sizes(z)))
        assert ks_two_sample(a, b, "sparse vs dense walk route").passed
