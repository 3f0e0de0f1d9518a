import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from primcoal.additive import pitman_forest
from primcoal.graphs import ProperlyWeightedGraph, prim_order
from primcoal.limits import ml_additive_sizes, ml_multiplicative_sizes
from primcoal.multiplicative import graph_route, p_lambda, replicate_rows
from primcoal.oracles import (
    all_cayley_trees,
    cayley_outdegree_law,
    conditioned_walk_law,
    enumerate_weight_orders,
    ks_statistic,
    ks_threshold,
    ks_two_sample,
    row_counts,
    tv_distance,
    tv_threshold,
    tv_two_sample,
)


class TestKS:
    def test_identical_samples_zero(self):
        a = [1.0, 2.0, 3.0]
        assert ks_statistic(a, a) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_hand_computed(self):
        # F_a jumps at 1,2; F_b jumps at 2,3; max gap 1/2 at x in [1,2)
        assert ks_statistic([1.0, 2.0], [2.0, 3.0]) == pytest.approx(0.5)

    def test_threshold_formula(self):
        assert ks_threshold(1000, 1000) == pytest.approx(1.95 * np.sqrt(2 / 1000))

    def test_verdict_roundtrip(self):
        v = ks_two_sample([1.0, 2.0], [1.1, 2.1], "demo", seeds=(7,))
        payload = json.loads(v.to_json())
        assert payload["description"] == "demo"
        assert payload["seeds"] == [7]
        assert isinstance(payload["passed"], bool)

    def test_same_law_usually_passes(self, rng):
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        assert ks_two_sample(a, b, "normal vs normal").passed

    def test_different_law_fails(self, rng):
        a = rng.normal(size=2000)
        b = rng.normal(size=2000) + 0.5
        assert not ks_two_sample(a, b, "shifted").passed


class TestTV:
    def test_identical_counts_zero(self):
        c = {"a": 10, "b": 5}
        assert tv_distance(c, c) == 0.0

    def test_disjoint_counts_one(self):
        assert tv_distance({"a": 3}, {"b": 7}) == 1.0

    def test_hand_computed(self):
        assert tv_distance({"a": 1, "b": 1}, {"a": 1, "b": 3}) == pytest.approx(0.25)

    def test_two_sample_verdict(self):
        v = tv_two_sample({"a": 50, "b": 50}, {"a": 55, "b": 45}, "coin")
        assert v.passed and v.statistic == pytest.approx(0.05)
        assert v.threshold == tv_threshold(100, 100) == pytest.approx(0.2 * 2 ** 0.5)

    def test_threshold_from_sample_sizes(self):
        # 0.02 at the benchmark's 20000 replicates a side
        assert tv_threshold(20000, 20000) == 0.02
        assert tv_threshold(200, 200) == pytest.approx(0.2)
        assert tv_threshold(100, 400) == pytest.approx(2.0 * (500 / 40000) ** 0.5)

    def test_threshold_passes_same_law_and_rejects_shifted_laws(self, rng):
        # 2000 n = 6 replicates a side (threshold 0.063): the ML kernels pass
        # against their own laws and fail against a nearby one, the graph
        # route at lambda 0.5 (TV near 0.18) and the forest at 0.6 (near 0.11)
        n, reps = 6, 2000

        def graph(lam):
            rep, sizes, _ = graph_route(n, [lam], rng, reps=reps)[0]
            return row_counts(replicate_rows(rep, sizes, reps, n))

        def forest(s):
            return row_counts(pitman_forest(n, rng, reps=reps).tree_sizes_at(s))

        mult = ml_multiplicative_sizes(n, p_lambda(n, 0.0), rng, reps=reps)
        add = ml_additive_sizes(n, 0.5, rng, reps=reps)
        mult, add = row_counts(mult), row_counts(add)
        same = [tv_two_sample(mult, graph(0.0), "mult"), tv_two_sample(add, forest(0.5), "add")]
        shifted = [tv_two_sample(mult, graph(0.5), "mult"), tv_two_sample(add, forest(0.6), "add")]
        assert all(v.threshold == pytest.approx(0.0632, abs=1e-4) for v in same + shifted)
        assert [v.passed for v in same] == [True, True]
        assert [v.passed for v in shifted] == [False, False]


class TestWeightOrderEnumeration:
    def test_triangle_symmetry(self):
        # by symmetry each neighbour of the root is second with probability 1/2
        g = ProperlyWeightedGraph(3, [(1, 2, 0.1), (1, 3, 0.2), (2, 3, 0.3)])
        p = enumerate_weight_orders(g, lambda gp: prim_order(gp).order[1] == 2)
        assert p == Fraction(1, 2)

    def test_refuses_large_graphs(self, rng):
        from primcoal.graphs import random_complete_graph

        g = random_complete_graph(6, rng)  # 15 edges
        with pytest.raises(ValueError):
            enumerate_weight_orders(g, lambda gp: True)

    def test_star_plus_edge_prim_quarter(self):
        # conditioned on this level graph, Prim visits (1,3,4,2) for 6 of
        # the 24 weight orders
        g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (1, 3, 0.2), (1, 4, 0.3), (3, 4, 0.4)])
        p = enumerate_weight_orders(
            g, lambda gp: prim_order(gp, root=1).order.tolist() == [1, 3, 4, 2]
        )
        assert p == Fraction(1, 4)


class TestExactLaws:
    def test_tree_count(self):
        for n in (2, 3, 4, 5):
            assert sum(1 for _ in all_cayley_trees(n)) == n ** max(n - 2, 0)

    def test_walk_law_n3(self):
        assert conditioned_walk_law(3) == {
            (2, 0, 0): Fraction(1, 3),
            (1, 1, 0): Fraction(2, 3),
        }

    def test_walk_law_sums_to_one(self):
        for n in (2, 3, 4, 5):
            assert sum(conditioned_walk_law(n).values()) == 1

    def test_outdegree_law_equals_walk_law(self):
        for n in (3, 4):
            assert cayley_outdegree_law(n) == conditioned_walk_law(n)

    def test_size_caps(self):
        with pytest.raises(ValueError):
            conditioned_walk_law(9)
        with pytest.raises(ValueError):
            list(all_cayley_trees(6))


@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 30), st.integers(1, 4)),
        elements=st.integers(-3, 3) | st.sampled_from([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
    )
)
@example(np.empty((0, 3), dtype=np.int64))
@example(np.array([[2], [-1], [2], [0]]))
def test_row_counts_matches_counter(a):
    # an independent counter: row_counts feeds both sides of every TV gate
    counts = row_counts(a)
    assert counts == Counter(map(tuple, a.tolist()))
    assert list(counts) == sorted(counts)
