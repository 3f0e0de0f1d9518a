import numpy as np
import pytest

from primcoal.additive import pitman_forest
from primcoal.limits import marcus_lushnikov
from primcoal.states import AugmentedState, MassVector, MergeHistory, d_U


class TestMassVector:
    def test_sorts_descending(self):
        mv = MassVector([0.2, 0.5, 0.3])
        assert mv.values.tolist() == [0.5, 0.3, 0.2]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MassVector([0.5, -0.1])

    def test_zero_tail_indexing(self):
        mv = MassVector([0.5, 0.3])
        assert mv[0] == 0.5
        assert mv[5] == 0.0

    def test_partial_square_sums_monotone(self):
        mv = MassVector([0.5, 0.3, 0.2])
        s = mv.partial_square_sums()
        assert (np.diff(s) >= 0).all()
        assert s[-1] == pytest.approx(0.38)


class TestAugmentedState:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            AugmentedState(MassVector([0.5, 0.3]), [1])

    def test_negative_surplus_rejected(self):
        with pytest.raises(ValueError):
            AugmentedState(MassVector([0.5]), [-1])

    def test_zero_mass_needs_zero_surplus(self):
        with pytest.raises(ValueError):
            AugmentedState(MassVector([0.5, 0.0]), [0, 1])


class TestDistance:
    def test_identical_states_zero(self):
        a = AugmentedState(MassVector([1.0, 0.5]), [2, 0])
        assert d_U(a, a) == 0.0

    def test_surplus_only_difference(self):
        a = AugmentedState(MassVector([1.0]), [2])
        b = AugmentedState(MassVector([1.0]), [0])
        assert d_U(a, b) == pytest.approx(2.0)

    def test_mass_only_difference_with_padding(self):
        a = AugmentedState(MassVector([1.0]), [0])
        b = AugmentedState(MassVector([]), [])
        assert d_U(a, b) == pytest.approx(1.0)

    def test_symmetry(self):
        a = AugmentedState(MassVector([0.7, 0.2]), [1, 0])
        b = AugmentedState(MassVector([0.6]), [2])
        assert d_U(a, b) == pytest.approx(d_U(b, a))


def _replay_values(history: MergeHistory, s: float) -> np.ndarray:
    """Literal oracle for values_at: replay the merges one at a time,
    adding slot j into slot i and emptying j."""
    out = history.values0.copy()
    for k in range(history.times.shape[1]):
        r = np.flatnonzero(history.times[:, k] <= s)
        i, j = history.i[r, k], history.j[r, k]
        out[r, i] += out[r, j]
        out[r, j] = 0
    return -np.sort(-out, axis=1)


def _observation_times(history: MergeHistory) -> list[float]:
    """0, every merge time, the midpoints between them, and a large finite s."""
    t = np.unique(history.times[np.isfinite(history.times)])
    return [0.0, *t.tolist(), *((t[1:] + t[:-1]) / 2).tolist(), 1e9]


def _histories(rng):
    """(history, n, exact) over a seeded pool: forest and unit-mass ML
    batches are integer-valued, so exact; ML masses 1/n are not."""
    for _ in range(12):
        n = int(rng.integers(1, 9))
        yield pitman_forest(n, rng, reps=40), n, True
        t_max = float(rng.random())
        yield marcus_lushnikov(np.ones((40, n)), "multiplicative", rng, t_max=t_max), n, True
        yield marcus_lushnikov(np.full((40, n), 1.0 / n), "additive", rng, t_max=2 * t_max), n, False


class TestMergeHistory:
    def test_values_match_the_replay(self, rng):
        for history, n, exact in _histories(rng):
            for s in _observation_times(history):
                fast, slow = history.values_at(s), _replay_values(history, s)
                assert fast.dtype == slow.dtype
                if exact:
                    assert np.array_equal(fast, slow)
                else:
                    # bincount sums the blocks in slot order, the replay in merge order
                    assert np.allclose(fast, slow)
                    assert np.array_equal(np.rint(fast * n), np.rint(slow * n))

    def test_owner_invariants(self, rng):
        for history, _, _ in _histories(rng):
            reps, slots = history.values0.shape
            rows = np.arange(reps)[:, None]
            for s in _observation_times(history):
                own = history.owner_at(s)
                assert own.dtype == np.int64 and own.shape == (reps, slots)
                assert (own <= np.arange(slots)).all()
                assert np.array_equal(own[rows, own], own)
                made = history.times <= s
                r = np.broadcast_to(rows, made.shape)[made]
                # both slots of a merge made by s end up in one block
                assert np.array_equal(own[r, history.i[made]], own[r, history.j[made]])
                # a block is named by a slot it holds, and no block is empty
                blocks = np.count_nonzero(own == np.arange(slots), axis=1)
                assert np.array_equal(np.count_nonzero(history.values_at(s), axis=1), blocks)

    def test_unmade_merges_keep_mass_at_infinity(self, rng):
        # marcus_lushnikov stores an unmade merge as time inf on slots (0, 0);
        # read at s = inf it must join nothing, not empty slot 0
        traj = marcus_lushnikov([[1.0, 2.0, 3.0]], "additive", rng, t_max=0.0)
        assert traj.masses_at(np.inf).tolist() == [[3.0, 2.0, 1.0]]
        masses = rng.integers(1, 5, size=(200, 5)).astype(float)
        traj = marcus_lushnikov(masses, "multiplicative", rng, t_max=0.05)
        assert np.isinf(traj.times).any()  # some replicates froze before their last merge
        assert np.array_equal(traj.masses_at(np.inf).sum(axis=1), masses.sum(axis=1))
