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


def _check_reps(reps: int) -> None:
    """Refuse a batch of fewer than one run; samplers call it before any draw."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got reps = {reps}")


def _running_sum(x: np.ndarray) -> np.ndarray:
    """Running sums down the first axis of x, in place; returns x.

    x[k] += x[k - 1] for k = 1..len(x) - 1: on (slots, reps) rows each step
    is one whole-row add, and every column gets the same left-to-right
    additions as np.cumsum, so float sums match it bit for bit."""
    for k in range(1, len(x)):
        x[k] += x[k - 1]
    return x


@dataclass(frozen=True)
class MergeHistory:
    """Merges of a batch of coalescent runs on fixed block slots.

    values0 holds the positive initial block values, (reps, slots); one run
    is the batch of one.  Merge k of replicate r joins the block holding
    slot j[r, k] to the block holding slot i[r, k] < j[r, k] at time
    times[r, k]; the j of a made merge is the j of no other merge, and an
    unmade merge has time inf, i = j.
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

    def _owners(self, s: float) -> np.ndarray:
        """owner_at(s) over flat ids r * slots + slot.  One scatter points
        every j at i for the merges made by s, and at j itself for the rest,
        a no-op that no made merge's write can meet; pointers only fall, so
        jumping own = own[own] reaches each block's lowest slot in
        O(log slots) rounds."""
        reps, slots = self.values0.shape
        base = np.arange(0, reps * slots, slots)[:, None]
        own = np.arange(reps * slots)
        own[self.j + base] = np.where(self.times <= s, self.i, self.j) + base
        up = own[own]
        while not np.array_equal(up, own):
            own, up = up, up[up]
        return own

    def owner_at(self, s: float) -> np.ndarray:
        """(reps, slots) int64: the block holding each initial slot at time s,
        named by its lowest slot."""
        reps, slots = self.values0.shape
        return self._owners(s).reshape(reps, slots) - np.arange(0, reps * slots, slots)[:, None]

    def values_at(self, s: float) -> np.ndarray:
        """Block values at time s as (reps, slots) rows, each sorted
        non-increasing and padded with zeros: one bincount over the owners."""
        own = self._owners(s)
        out = np.bincount(own, weights=self.values0.ravel(), minlength=own.size)
        return -np.sort(-out.reshape(self.values0.shape).astype(self.values0.dtype), axis=1)
