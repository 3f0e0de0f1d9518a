import numpy as np
import pytest

from primcoal.states import AugmentedState, MassVector, d_U


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
