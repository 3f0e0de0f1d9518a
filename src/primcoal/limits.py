"""Brownian limit objects and the Marcus-Lushnikov finite-rate simulator.

Grid discretisations of the parabolically drifted Brownian motion
B(x) + lambda x - x^2/2 (multiplicative limit) and of the tilted normalised
excursion (additive limit), their excursion lengths above the running
minimum, planar Poisson points under the reflected path for the limiting
surplus counts, and an event-driven stochastic coalescent with the additive
or the multiplicative kernel.
"""

from __future__ import annotations

import numpy as np

from .states import MassVector, MergeHistory, _check_reps, _running_sum
from .walks import LatticePath, excursions_above_min, psi


def _grid_steps(lam: float, horizon: float, dx: float) -> int:
    """Steps of width dx on [0, horizon], horizon / dx rounded.  Refuses,
    before any draw, a lambda that is not finite, a dx or horizon that is
    not finite and > 0, and a grid of no step or of too many to count."""
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got lam = {lam}")
    for name, value in (("dx", dx), ("horizon", horizon)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {name} = {value}")
    if not 0.5 < horizon / dx < np.inf:  # round(0.5) is 0
        raise ValueError(f"horizon / dx = {horizon} / {dx} must round to a finite count of steps >= 1")
    return int(round(horizon / dx))


def simulate_parabolic(lam: float, rng, horizon: float | None = None, dx: float = 1e-3) -> LatticePath:
    """B(x) + lambda x - x^2/2 on [0, horizon], steps N(0, dx).

    Default horizon max(10, 2 lambda + 10): past 2 lambda the drift is
    negative and excursions straddling the cutoff become negligible.  A
    bad grid or lambda is refused before any draw (_grid_steps).
    """
    if horizon is None:
        horizon = max(10.0, 2.0 * lam + 10.0)
    steps = _grid_steps(lam, horizon, dx)
    x = np.arange(steps + 1) * dx
    noise = np.concatenate([[0.0], rng.normal(0.0, np.sqrt(dx), size=steps)])
    return LatticePath(np.cumsum(noise) + lam * x - x**2 / 2.0, x_step=dx)


def simulate_excursion(lam: float, rng, dx: float = 1e-3) -> LatticePath:
    """Tilted normalised Brownian excursion e(x) - lambda x on [0, 1].

    The excursion comes from the Vervaat rotation of a Brownian bridge at
    its argmin; endpoints are pinned to 0 exactly.  A bad grid or lambda is
    refused before any draw (_grid_steps).
    """
    steps = _grid_steps(lam, 1.0, dx)
    noise = rng.normal(0.0, np.sqrt(dx), size=steps)
    w = np.concatenate([[0.0], np.cumsum(noise)])
    x = np.arange(steps + 1) * dx
    bridge = w - x * w[-1]
    k = int(np.argmin(bridge))
    exc = np.concatenate([bridge[k:], bridge[1 : k + 1]]) - bridge[k]
    exc[0] = 0.0
    exc[-1] = 0.0
    return LatticePath(exc - lam * x, x_step=dx)


def limit_gamma(path: LatticePath) -> MassVector:
    """Sorted excursion lengths of path above its running minimum, in x units."""
    starts, ends = excursions_above_min(path, weak=True)
    return MassVector((ends - starts) * path.x_step)


SURPLUS_MARGIN = 0.5


def limit_surplus(path: LatticePath, rng) -> list[tuple[float, int]]:
    """(excursion length, surplus) per excursion of path above its running
    minimum, by decreasing length, then increasing surplus.

    The surplus of an excursion is the number of unit-rate planar Poisson
    points in the box [0, width] x [0, height] lying strictly under the
    reflected path Psi(path) over its interval; the height is the reflected
    path's maximum plus SURPLUS_MARGIN so no point is clipped.
    """
    starts, ends = excursions_above_min(path, weak=True)
    reflected = psi(path).values
    dx = path.x_step
    width = (len(reflected) - 1) * dx
    height = float(reflected.max()) + SURPLUS_MARGIN
    count = rng.poisson(width * height)
    xs, ys = rng.random(count) * width, rng.random(count) * height
    under = ys < reflected[np.minimum((xs / dx).astype(int), len(reflected) - 1)]
    # the intervals are disjoint and ordered, so x can only lie in the first
    # one ending at or after it
    k = np.searchsorted(ends * dx, xs)
    hit = np.flatnonzero(under & (k < len(ends)))
    hit = hit[starts[k[hit]] * dx < xs[hit]]
    surplus = np.bincount(k[hit], minlength=len(ends))
    lengths = (ends - starts) * dx
    order = np.lexsort((surplus, -lengths))
    return list(zip(lengths[order].tolist(), surplus[order].tolist()))


# ---------------------------------------------------------------------------
# Marcus-Lushnikov finite-rate coalescent


def _additive_rates(x, y):
    """x + y, times 0 on a pair with a dead slot (mass 0)."""
    r = x + y
    r *= (x > 0) & (y > 0)
    return r


# pair rates from the two slots' masses, 0 where a slot is dead; a dead slot's
# mass 0 makes the product 0 by itself
_KERNELS = {"additive": _additive_rates, "multiplicative": np.multiply}


class MLTrajectory(MergeHistory):
    """Merge history of Marcus-Lushnikov runs; values0 are the initial masses."""

    events = property(MergeHistory.records)
    masses_at = MergeHistory.values_at


def marcus_lushnikov(masses, kernel, rng, t_max: float) -> MLTrajectory:
    """Event-driven Marcus-Lushnikov process for a batch of runs.

    `masses` is (reps, m0), the finite positive initial masses of `reps` >= 1
    independent runs.  Blocks i, j merge at rate K(x_i, x_j), where
    `kernel` names K: "additive" (x + y) or "multiplicative" (x y); a run
    whose bound on the total rate, K(total, total) times the pair count,
    overflows float64 is refused.  Exact
    event-by-event simulation in which every live replicate makes one event
    per round: total rate, exponential waiting time, pair chosen by its rate
    share.  A replicate freezes once its clock passes t_max (a number, inf
    allowed) or its total rate is 0.  A round costs O(reps m0^2); there are
    at most m0 - 1 rounds.

    The batch is held slot-major: the blocks as (m0, live reps) rows and the
    pair rates as (pairs, live reps) rows, so a round is a few whole-row
    operations.  The cumulative rates are one running sum down the pair
    rows, the same float additions as a per-replicate np.cumsum, so the
    draws do not depend on the layout.
    """
    if not isinstance(kernel, str) or kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {', '.join(map(repr, _KERNELS))}, got {kernel!r}")
    rate = _KERNELS[kernel]
    masses0 = np.asarray(masses, dtype=float)
    if masses0.ndim != 2 or not (np.isfinite(masses0) & (masses0 > 0)).all():
        raise ValueError("masses must be a finite positive (reps, m0) array")
    if np.isnan(t_max):
        raise ValueError("t_max must be a number, got nan")
    _check_reps(len(masses0))
    reps, m0 = masses0.shape
    iu, ju = np.triu_indices(m0, 1)
    # a pair's rate is at most K(total, total) for the run's total mass, so a
    # finite bound keeps every round's cumulative rate finite
    with np.errstate(over="ignore"):
        total = masses0.sum(axis=1)
        bound = rate(total, total) * len(iu)
    if len(iu) and not np.isfinite(bound).all():
        raise ValueError("masses too large: the total merge rate overflows float64")
    times = np.full((max(m0 - 1, 0), reps), np.inf)
    i_out, j_out = np.zeros((2,) + times.shape, dtype=np.int64)
    # one column per live replicate; a merged-away slot holds mass 0
    blocks, clock, live = masses0.T.copy(), np.zeros(reps), np.arange(reps)
    for k in range(len(times)):
        cum = _running_sum(rate(blocks[iu], blocks[ju]))
        # a replicate freezes once its total rate is 0, then once its clock passes t_max
        keep = cum[-1] > 0
        clock[keep] += rng.exponential(size=np.count_nonzero(keep)) / cum[-1, keep]
        keep &= clock <= t_max
        live, clock, blocks, cum = (a.compress(keep, axis=-1) for a in (live, clock, blocks, cum))
        # the first pair whose cumulative rate exceeds a uniform share of the
        # total has positive rate
        share = rng.random(len(live)) * cum[-1]
        pick = np.minimum((cum <= share).sum(axis=0), len(iu) - 1)
        i, j, cols = iu[pick], ju[pick], np.arange(len(live))
        times[k, live], i_out[k, live], j_out[k, live] = clock, i, j
        blocks[i, cols] += blocks[j, cols]
        blocks[j, cols] = 0.0
    return MLTrajectory(times.T, i_out.T, j_out.T, masses0)


def ml_multiplicative_sizes(n: int, p: float, rng, reps: int = 1) -> np.ndarray:
    """Unit masses, multiplicative kernel, run to tau = -ln(1 - p).

    At that horizon the partition law coincides with the components of the
    Erdos-Renyi graph G(n, p).  `reps` runs give (reps, n) padded rows of
    int64 block sizes.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1)")
    _check_reps(reps)
    tau = -np.log1p(-p)
    # per-pair clock rate x_i * x_j with unit masses: each vertex pair is an
    # independent rate-1 clock, so by time tau an edge exists w.p. 1 - e^{-tau}
    masses = np.ones((reps, n))
    traj = marcus_lushnikov(masses, "multiplicative", rng, t_max=tau)
    return traj.masses_at(tau).astype(np.int64)  # sums of unit masses: exact


def ml_additive_sizes(n: int, s: float, rng, reps: int = 1) -> np.ndarray:
    """Masses 1/n, additive kernel, observed at time s; matches the forest
    process tree sizes, so the masses are reported times n, rounded to int64
    block sizes.  `reps` as above."""
    if not s >= 0.0:
        raise ValueError(f"s must be >= 0, got s = {s}")
    _check_reps(reps)
    masses = np.full((reps, n), 1.0 / n)
    traj = marcus_lushnikov(masses, "additive", rng, t_max=s)
    return np.rint(traj.masses_at(s) * n).astype(np.int64)
