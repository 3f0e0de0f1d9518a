import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primcoal.graphs import level_components, prim_order, random_complete_graph
from primcoal.limits import simulate_excursion, simulate_parabolic
from primcoal.walks import (
    LatticePath,
    excursions_above_min,
    explore,
    psi,
    walk_component_sizes,
)

from _oracles import excursions_above_zero

lattice_steps = st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=60)


def from_steps(steps):
    return LatticePath(np.concatenate([[0], np.cumsum(steps)]))


@pytest.mark.parametrize("values", [[], [[0, 1]]], ids=["empty", "two-dimensional"])
def test_lattice_path_refuses_shape(values):
    with pytest.raises(ValueError, match="path values must be a non-empty 1-d sequence"):
        LatticePath(values)


class TestPsi:
    def test_example(self):
        f = LatticePath([0, 1, 0, -1, 0, 1])
        assert psi(f).values.tolist() == [0, 1, 0, 0, 1, 2]

    @given(lattice_steps)
    def test_nonnegative_and_idempotent(self, steps):
        f = from_steps(steps)
        g = psi(f)
        assert (g.values >= 0).all()
        assert np.array_equal(psi(g).values, g.values)

    @given(lattice_steps)
    def test_fixes_nonnegative_paths(self, steps):
        f = from_steps(steps)
        # a non-negative path from 0 has running minimum 0: psi fixes it
        nonneg = LatticePath(np.abs(f.values))
        assert np.array_equal(psi(nonneg).values, nonneg.values)
        g = psi(f)
        # psi leaves a path starting at its own minimum untouched up to the
        # first strict new minimum
        first_neg = np.flatnonzero(f.values < 0)
        k = first_neg[0] if len(first_neg) else len(f.values)
        assert np.array_equal(g.values[:k], f.values[:k])


class TestExcursionsAboveZero:
    def test_flat_zero_path_has_none(self):
        f = LatticePath([0, 0, 0, 0])
        starts, ends = excursions_above_zero(f)
        assert starts.tolist() == ends.tolist() == []

    def test_unit_gaps_are_dropped(self):
        f = LatticePath([0, 1, 0, 0, 2, 0])
        starts, ends = excursions_above_zero(f)
        assert starts.tolist() == [0, 3] and ends.tolist() == [2, 5]

    def test_trailing_incomplete_excursion_reported(self):
        f = LatticePath([0, 0, 1, 2])
        starts, ends = excursions_above_zero(f)
        assert starts.tolist() == [1] and ends.tolist() == [3]

    def test_requires_nonnegative_start_zero(self):
        with pytest.raises(ValueError):
            excursions_above_zero(LatticePath([1, 0]))
        with pytest.raises(ValueError):
            excursions_above_zero(LatticePath([0, -1]))


def _literal_scan(vals, beta):
    """Above-minimum excursion intervals by a plain scan, as a (2, k) array
    of starts over ends: the reference."""
    boundaries = [0]
    cur = vals[0]
    for k in range(1, len(vals)):
        if vals[k] <= cur - beta:
            boundaries.append(k)
            cur = vals[k]
        elif vals[k] < cur:
            cur = vals[k]
    intervals = [
        (a, b) for a, b in zip(boundaries[:-1], boundaries[1:]) if beta > 0 or b - a >= 2
    ]
    if boundaries[-1] != len(vals) - 1:
        intervals.append((boundaries[-1], len(vals) - 1))
    return np.array(intervals, dtype=np.int64).reshape(-1, 2).T


class TestExcursionsAboveMin:
    def test_requires_start_zero(self):
        with pytest.raises(ValueError, match="path must start at 0"):
            excursions_above_min(LatticePath([1, 0, -1]))

    def test_ladder_convention_keeps_unit_descents(self):
        # strict descents of a pure down-drift: n unit excursions
        f = LatticePath([0, -1, -2, -3])
        starts, ends = excursions_above_min(f)
        assert starts.tolist() == [0, 1, 2] and ends.tolist() == [1, 2, 3]

    def test_ladder_convention_example(self):
        f = LatticePath([0, 1, 0, -1, 0, 1])
        # boundary only at the strict unit drop to -1
        starts, ends = excursions_above_min(f)
        assert starts.tolist() == [0, 3] and ends.tolist() == [3, 5]

    def test_weak_convention_matches_psi_zeros(self):
        f = LatticePath([0, 1, 0, -1, 0, 1])
        starts, ends = excursions_above_min(f, weak=True)
        assert starts.tolist() == [0, 3] and ends.tolist() == [2, 5]

    @given(lattice_steps)
    def test_weak_convention_equals_above_zero_of_psi(self, steps):
        # interval identity between f above its running min and psi f above 0
        f = from_steps(steps)
        assert np.array_equal(excursions_above_min(f, weak=True), excursions_above_zero(psi(f)))

    @given(lattice_steps)
    def test_ladder_intervals_tile_up_to_last_boundary(self, steps):
        f = from_steps(steps)
        pos = 0
        for a, b in zip(*excursions_above_min(f)):
            assert a == pos and b > a
            pos = b
        assert pos == len(f.values) - 1

    def test_matches_literal_scan(self, rng):
        # the vectorised scan against the plain loop it replaced, on integer
        # and float walks under both conventions, and on long Brownian grids
        # under the weak one, the convention the limit objects read
        mismatches = 0
        for trial in range(4000):
            size = int(rng.integers(1, 120))
            steps = rng.integers(-2, 3, size=size) if trial % 2 else rng.normal(0.0, 1.0, size=size)
            f = LatticePath(np.concatenate([[0], np.cumsum(steps)]))
            for weak, beta in ((False, 1.0), (True, 0.0)):
                got = excursions_above_min(f, weak=weak)
                mismatches += not np.array_equal(got, _literal_scan(f.values, beta))
        for lam in (-1.0, 0.0, 2.0):
            for f in (simulate_parabolic(lam, rng, horizon=4.0), simulate_excursion(abs(lam), rng)):
                got = excursions_above_min(f, weak=True)
                mismatches += not np.array_equal(got, _literal_scan(f.values, 0.0))
        assert mismatches == 0


class TestExplore:
    def test_component_sizes_match_graph_both_orders(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 50))
            g = random_complete_graph(n, rng)
            t = float(rng.random())
            expected = sorted((len(c) for c in level_components(g, t)), reverse=True)
            for ordering in (None, prim_order(g)):
                z = explore(g, t, ordering)
                assert len(z) == n + 1 and z[0] == z[-1] == 0
                got = sorted(walk_component_sizes(z), reverse=True)
                assert got == expected

    def test_prim_order_gives_interval_components(self, rng):
        # under the Prim order the exploration never jumps mid-component,
        # so the z-walk zero gaps are exactly the rank intervals
        for _ in range(50):
            n = int(rng.integers(2, 40))
            g = random_complete_graph(n, rng)
            ordering = prim_order(g)
            t = float(rng.random())
            z = explore(g, t, ordering)
            gaps = walk_component_sizes(z)
            ivals = [iv for _, iv in level_components(g, t, ordering)]
            assert [b - a + 1 for a, b in ivals] == gaps

    def test_extreme_levels(self, rng):
        g = random_complete_graph(5, rng)
        assert walk_component_sizes(explore(g, 0.0)) == [1] * 5
        assert walk_component_sizes(explore(g, 1.0)) == [5]
