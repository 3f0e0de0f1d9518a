"""Brownian limit objects and the Marcus-Lushnikov finite-rate simulator.

Grid discretisations of the parabolically drifted Brownian motion
B(x) + lambda x - x^2/2 (multiplicative limit) and of the tilted normalised
excursion (additive limit), their excursion lengths above the running
minimum, planar Poisson points under the reflected path for the limiting
surplus counts, and an event-driven stochastic coalescent with pluggable
collision kernel.
"""

from __future__ import annotations

import numpy as np

from .states import MassVector, MergeHistory
from .walks import WEAK_MIN_CONVENTION, LatticePath, excursions_above_min, psi


def simulate_parabolic(lam: float, rng, horizon: float | None = None, dx: float = 1e-3) -> LatticePath:
    """B(x) + lambda x - x^2/2 on [0, horizon], steps N(0, dx).

    Default horizon max(10, 2 lambda + 10): past 2 lambda the drift is
    negative and excursions straddling the cutoff become negligible.
    """
    if horizon is None:
        horizon = max(10.0, 2.0 * lam + 10.0)
    steps = int(round(horizon / dx))
    x = np.arange(steps + 1) * dx
    noise = np.concatenate([[0.0], rng.normal(0.0, np.sqrt(dx), size=steps)])
    return LatticePath(np.cumsum(noise) + lam * x - x**2 / 2.0, x_step=dx)


def simulate_excursion(lam: float, rng, dx: float = 1e-3) -> LatticePath:
    """Tilted normalised Brownian excursion e(x) - lambda x on [0, 1].

    The excursion comes from the Vervaat rotation of a Brownian bridge at
    its argmin; endpoints are pinned to 0 exactly.
    """
    steps = int(round(1.0 / dx))
    noise = rng.normal(0.0, np.sqrt(dx), size=steps)
    w = np.concatenate([[0.0], np.cumsum(noise)])
    x = np.arange(steps + 1) * dx
    bridge = w - x * w[-1]
    k = int(np.argmin(bridge))
    exc = np.concatenate([bridge[k:], bridge[1 : k + 1]]) - bridge[k]
    exc[0] = 0.0
    exc[-1] = 0.0
    return LatticePath(exc - lam * x, x_step=dx)


def limit_gamma(path: LatticePath, top: int | None = None) -> MassVector:
    """Sorted excursion lengths of path above its running minimum, in x units."""
    lengths = excursions_above_min(path, WEAK_MIN_CONVENTION).lengths()
    lengths = np.sort(lengths)[::-1] * path.x_step
    if top is not None:
        lengths = lengths[:top]
    return MassVector(lengths)


SURPLUS_MARGIN = 0.5


def limit_surplus(path: LatticePath, rng) -> list[tuple[float, int]]:
    """(excursion length, surplus) per excursion of path above its running
    minimum, by decreasing length, then increasing surplus.

    The surplus of an excursion is the number of unit-rate planar Poisson
    points in the box [0, width] x [0, height] lying strictly under the
    reflected path Psi(path) over its interval; the height is the reflected
    path's maximum plus SURPLUS_MARGIN so no point is clipped.
    """
    exc = excursions_above_min(path, WEAK_MIN_CONVENTION)
    reflected = psi(path).values
    dx = path.x_step
    width = (len(reflected) - 1) * dx
    height = float(reflected.max()) + SURPLUS_MARGIN
    count = rng.poisson(width * height)
    xs, ys = rng.random(count) * width, rng.random(count) * height
    under = ys < reflected[np.minimum((xs / dx).astype(int), len(reflected) - 1)]
    # the intervals are disjoint and ordered, so x can only lie in the first
    # one ending at or after it
    k = np.searchsorted(exc.ends * dx, xs)
    hit = np.flatnonzero(under & (k < len(exc.ends)))
    hit = hit[exc.starts[k[hit]] * dx < xs[hit]]
    surplus = np.bincount(k[hit], minlength=len(exc.ends))
    lengths = exc.lengths() * dx
    order = np.lexsort((surplus, -lengths))
    return list(zip(lengths[order].tolist(), surplus[order].tolist()))


# ---------------------------------------------------------------------------
# Marcus-Lushnikov finite-rate coalescent


_KERNELS = {"additive": np.add, "multiplicative": np.multiply}


class MLTrajectory(MergeHistory):
    """Merge history of Marcus-Lushnikov runs; values0 are the initial masses."""

    events = property(MergeHistory.records)
    masses_at = MergeHistory.values_at


def marcus_lushnikov(masses, kernel, rng, t_max: float, n_norm: float | None = None) -> MLTrajectory:
    """Event-driven Marcus-Lushnikov process, for one run or a batch.

    `masses` is (m0,) for one run or (reps, m0) for independent runs, all
    positive.  Blocks i, j merge at rate K(x_i, x_j) / n_norm; `kernel` is
    "additive", "multiplicative" or a callable on arrays (a scalar result
    broadcasts).  Exact event-by-event simulation in which every live
    replicate makes one event per round: total rate, exponential waiting
    time, pair chosen by its rate share.  A replicate freezes once its
    clock passes t_max or its total rate is 0.  A round costs O(reps m0^2);
    there are at most m0 - 1 rounds.
    """
    if isinstance(kernel, str):
        kernel = _KERNELS[kernel]
    masses0 = np.asarray(masses, dtype=float)
    if masses0.ndim not in (1, 2) or (masses0 <= 0).any():
        raise ValueError("masses must be a positive (m0,) or (reps, m0) array")
    blocks = np.atleast_2d(masses0).copy()
    reps, m0 = blocks.shape
    if n_norm is None:
        n_norm = float(m0)
    iu, ju = np.triu_indices(m0, 1)
    clock = np.zeros(reps)
    times = np.full((reps, max(m0 - 1, 0)), np.inf)
    pairs = np.zeros((2,) + times.shape, dtype=np.int64)
    live = np.arange(reps)
    for k in range(times.shape[1]):
        # a merged-away slot holds mass 0 and is dead
        b = blocks[live]
        rates = np.where((b[:, iu] > 0) & (b[:, ju] > 0), kernel(b[:, iu], b[:, ju]) / n_norm, 0.0)
        cum = np.cumsum(rates, axis=1)
        keep = cum[:, -1] > 0
        live, cum = live[keep], cum[keep]
        clock[live] += rng.exponential(size=len(live)) / cum[:, -1]
        keep = clock[live] <= t_max
        live, cum = live[keep], cum[keep]
        # the first pair whose cumulative rate exceeds a uniform share of the
        # total has positive rate
        share = rng.random(len(live)) * cum[:, -1]
        pick = np.minimum((cum <= share[:, None]).sum(axis=1), len(iu) - 1)
        i, j = iu[pick], ju[pick]
        times[live, k] = clock[live]
        pairs[:, live, k] = i, j
        blocks[live, i] += blocks[live, j]
        blocks[live, j] = 0.0
    return MLTrajectory(times, *pairs, masses0)


def ml_multiplicative_sizes(n: int, p: float, rng, reps: int | None = None) -> np.ndarray:
    """Unit masses, multiplicative kernel, run to tau = -ln(1 - p).

    At that horizon the partition law coincides with the components of the
    Erdos-Renyi graph G(n, p).  `reps` runs give (reps, n) padded rows.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1)")
    tau = -np.log1p(-p)
    # per-pair clock rate x_i * x_j with unit masses: each vertex pair is an
    # independent rate-1 clock, so by time tau an edge exists w.p. 1 - e^{-tau}
    masses = np.ones(n if reps is None else (reps, n))
    traj = marcus_lushnikov(masses, "multiplicative", rng, t_max=tau, n_norm=1.0)
    return traj.masses_at(tau)


def ml_additive_sizes(n: int, s: float, rng, reps: int | None = None) -> np.ndarray:
    """Masses 1/n, additive kernel, observed at time s; matches the forest
    process tree sizes (reported in units of 1/n).  `reps` as above."""
    masses = np.full(n if reps is None else (reps, n), 1.0 / n)
    traj = marcus_lushnikov(masses, "additive", rng, t_max=s, n_norm=1.0)
    return traj.masses_at(s)
