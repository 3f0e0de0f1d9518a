import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from primcoal.graphs import ProperlyWeightedGraph, prim_order
from primcoal.oracles import (
    all_cayley_trees,
    cayley_outdegree_law,
    conditioned_walk_law,
    empirical_counts,
    enumerate_weight_orders,
    ks_statistic,
    ks_threshold,
    ks_two_sample,
    row_counts,
    tv_distance,
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
        v = tv_two_sample({"a": 50, "b": 50}, {"a": 55, "b": 45}, 0.1, "coin")
        assert v.passed and v.statistic == pytest.approx(0.05)


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


def test_empirical_counts():
    assert empirical_counts(["x", "y", "x"]) == {"x": 2, "y": 1}


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
    assert counts == empirical_counts(map(tuple, a.tolist()))
    assert list(counts) == sorted(counts)
