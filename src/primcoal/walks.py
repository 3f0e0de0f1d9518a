"""Graph explorations, the reflection operator and excursion extraction.

The neighbourhood-size process Z of an exploration encodes component sizes
as gaps between its zeros.  The reflection operator Psi lifts a drifting
walk Y above its running minimum; excursions of Y above the minimum and of
Psi Y above zero carry the same intervals, which is what lets walk-side and
graph-side cluster computations be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ProperlyWeightedGraph, PrimOrdering, _check_level, _check_ordering


@dataclass(frozen=True, eq=False)
class LatticePath:
    """Finite path f(0..L); x_step is the rescaled width of one index step.

    Integer-valued walks keep exact integer dtype so zero tests are exact;
    values are interpreted as linearly interpolated between indices.
    """

    values: np.ndarray
    x_step: float = 1.0

    def __init__(self, values, x_step: float = 1.0):
        arr = np.asarray(values)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("path values must be a non-empty 1-d sequence")
        object.__setattr__(self, "values", arr.copy())
        object.__setattr__(self, "x_step", float(x_step))


def psi(f: LatticePath) -> LatticePath:
    """Reflection above the running minimum: f(x) - min_{y<=x} f(y)."""
    return LatticePath(f.values - np.minimum.accumulate(f.values), x_step=f.x_step)


def excursions_above_min(f: LatticePath, weak: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Excursions of f above its running minimum, as (starts, ends) int
    arrays: excursion k is the index interval (starts[k], ends[k]], in order.

    By default an excursion closes at the first later index one unit or
    more below the running minimum, a strict new minimum of an integer walk:
    every ladder interval counts, including unit descents (unit clusters),
    as drifting walks whose ladder epochs mark cluster boundaries need.
    With weak=True it closes at every return to the running minimum, as in
    the continuous definition, so the intervals are those of Psi f above
    zero; unit gaps are then flat or descending under interpolation, never
    above the minimum, and are dropped.  Scans f directly, not Psi f, for
    integer walks and float grids alike (a float grid almost never returns
    exactly to its minimum, so with weak=True it closes at new minima).
    """
    vals = f.values
    if vals[0] != 0:
        raise ValueError("path must start at 0")
    # index k closes an excursion when vals[k] <= min(vals[:k]) - 1 (- 0 if weak)
    runmin = np.minimum.accumulate(vals)
    boundaries = np.concatenate(([0], 1 + np.flatnonzero(vals[1:] <= runmin[:-1] - (0 if weak else 1))))
    a, b = boundaries[:-1], boundaries[1:]
    if weak:  # unit gaps are no excursion
        a, b = a[b - a >= 2], b[b - a >= 2]
    if boundaries[-1] != len(vals) - 1:
        a, b = np.append(a, boundaries[-1]), np.append(b, len(vals) - 1)
    return a, b


def explore(g: ProperlyWeightedGraph, t: float, ordering: PrimOrdering | None = None) -> np.ndarray:
    """Neighbourhood-size walk Z of the level graph G_t under a total order.

    Without an ordering, vertices compare by label; with a PrimOrdering of
    g, by Prim rank.  Returns Z(0..n) as an int array, Z(0) = Z(n) = 0;
    when the frontier empties the exploration restarts at the least
    unvisited vertex.  A NaN level is refused.
    """
    _check_level(t)
    n, key = g.n, None  # without an ordering, labels compare as they are
    if ordering is not None:
        _check_ordering(g, ordering)
        key = ordering.rank.tolist().__getitem__
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    keep = g.w <= t
    for u, v in zip(g.u[keep].tolist(), g.v[keep].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    unvisited = set(range(1, n + 1))
    frontier: set[int] = set()
    z = np.zeros(n + 1, dtype=int)
    for k in range(1, n + 1):
        v = min(frontier or unvisited, key=key)
        unvisited.discard(v)
        frontier.discard(v)
        frontier.update(x for x in adj[v] if x in unvisited)
        z[k] = len(frontier)
    return z


def walk_component_sizes(z: np.ndarray) -> list[int]:
    """Component sizes in exploration order from a Z-walk Z(0..n): the gaps
    between its successive zeros."""
    return np.diff(np.flatnonzero(z == 0)).tolist()
