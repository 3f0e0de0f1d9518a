"""Mass vectors and augmented (mass, surplus) states.

The coalescent state spaces are non-increasing sequences of non-negative
masses, taken with the l1 norm in the additive case and the l2 norm in the
multiplicative case.  The augmented state pairs each mass with an integer
surplus; its metric adds the l2 distance of masses and the l1 distance of
mass-weighted surpluses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MassVector:
    """Finite non-increasing sequence of non-negative reals, zero tail implied."""

    values: np.ndarray

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("mass vector must be one-dimensional")
        if (arr < 0).any():
            raise ValueError("masses must be non-negative")
        arr = np.sort(arr)[::-1].copy()
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        """Entry i (0-based); the implicit zero tail extends indefinitely."""
        return float(self.values[i]) if i < len(self.values) else 0.0

    def partial_square_sums(self) -> np.ndarray:
        """Cumulative sums of squared masses (monotone along coalescence)."""
        return np.cumsum(self.values**2)


@dataclass(frozen=True)
class AugmentedState:
    """Sorted masses plus aligned non-negative integer surpluses."""

    masses: MassVector
    surpluses: np.ndarray

    def __init__(self, masses: MassVector, surpluses):
        s = np.asarray(surpluses, dtype=int)
        if len(s) != len(masses.values):
            raise ValueError("surplus vector must align with masses")
        if (s < 0).any():
            raise ValueError("surpluses must be non-negative")
        if ((masses.values == 0) & (s != 0)).any():
            raise ValueError("zero-mass entries must have zero surplus")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "surpluses", s.copy())


def d_U(a: AugmentedState, b: AugmentedState) -> float:
    """l2 distance of masses plus l1 distance of mass-weighted surpluses."""
    k = max(len(a.masses), len(b.masses))
    xa = np.zeros(k)
    xb = np.zeros(k)
    xa[: len(a.masses)] = a.masses.values
    xb[: len(b.masses)] = b.masses.values
    sa = np.zeros(k)
    sb = np.zeros(k)
    sa[: len(a.masses)] = a.surpluses
    sb[: len(b.masses)] = b.surpluses
    return float(np.sqrt(((xa - xb) ** 2).sum()) + np.abs(xa * sa - xb * sb).sum())


@dataclass(frozen=True)
class MergeHistory:
    """Merges of one coalescent run, or of a batch, on fixed block slots.

    values0 holds the positive initial block values, (slots,) for one run
    and (reps, slots) for a batch.  Merge k of replicate r adds slot j[r, k]
    into slot i[r, k] < j[r, k] at time times[r, k] and empties slot j;
    times is inf where replicate r made no k-th merge.
    """

    times: np.ndarray
    i: np.ndarray
    j: np.ndarray
    values0: np.ndarray

    def records(self) -> np.recarray:
        """The merges made, as records (rep, time, i, j) by replicate, then time."""
        rep, k = np.nonzero(np.isfinite(self.times))
        return np.rec.fromarrays(
            (rep, self.times[rep, k], self.i[rep, k], self.j[rep, k]), names="rep,time,i,j"
        )

    def values_at(self, s: float) -> np.ndarray:
        """Block values at time s, sorted non-increasing: the live blocks of
        one run, or (reps, slots) rows padded with zeros for a batch."""
        out = np.atleast_2d(self.values0).copy()
        for k in range(self.times.shape[1]):
            r = np.flatnonzero(self.times[:, k] <= s)
            i, j = self.i[r, k], self.j[r, k]
            out[r, i] += out[r, j]
            out[r, j] = 0
        out = -np.sort(-out, axis=1)
        return out if self.values0.ndim == 2 else out[0][out[0] > 0]
