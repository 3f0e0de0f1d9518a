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

from .graphs import ProperlyWeightedGraph, PrimOrdering, _check_ordering


@dataclass(frozen=True)
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

    def __len__(self) -> int:
        return len(self.values)

    def running_min(self) -> np.ndarray:
        return np.minimum.accumulate(self.values)


def psi(f: LatticePath) -> LatticePath:
    """Reflection above the running minimum: f(x) - min_{y<=x} f(y)."""
    return LatticePath(f.values - f.running_min(), x_step=f.x_step)


@dataclass(frozen=True, eq=False)
class ExcursionSet:
    """Disjoint ordered excursion intervals (starts[k], ends[k]] in index units."""

    starts: np.ndarray
    ends: np.ndarray

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.starts.tolist(), self.ends.tolist()))

    def lengths(self) -> np.ndarray:
        """Lengths in index units."""
        return self.ends - self.starts


def excursions_above_min(f: LatticePath, weak: bool = False) -> ExcursionSet:
    """Excursions of f above its running minimum.

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
    return ExcursionSet(a, b)


def explore(
    g: ProperlyWeightedGraph,
    t: float,
    order: PrimOrdering | str = "labels",
) -> LatticePath:
    """Neighbourhood-size walk Z of the level graph G_t under a total order.

    `order` is either the string "labels" (compare vertex labels) or a
    PrimOrdering of g (compare Prim ranks).  Returns Z(0..n+1) with the
    boundary zeros Z(0) = Z(n+1) = 0; when the frontier empties the
    exploration restarts at the smallest unvisited vertex.
    """
    n = g.n
    if isinstance(order, PrimOrdering):
        _check_ordering(g, order)
        key = order.rank.tolist()
    elif order == "labels":
        key = list(range(n + 1))
    else:
        raise ValueError(f"unknown order spec {order!r}")
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    keep = g.w <= t
    for u, v in zip(g.u[keep].tolist(), g.v[keep].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    visited = [False] * (n + 1)
    unvisited = set(range(1, n + 1))
    frontier: set[int] = set()
    z = np.zeros(n + 2, dtype=int)

    def visit(v: int) -> None:
        visited[v] = True
        unvisited.discard(v)
        frontier.discard(v)
        for x in adj[v]:
            if not visited[x]:
                frontier.add(x)

    v1 = min(unvisited, key=key.__getitem__)
    visit(v1)
    z[1] = len(frontier)
    for k in range(2, n + 1):
        pool = frontier if frontier else unvisited
        v = min(pool, key=key.__getitem__)
        visit(v)
        z[k] = len(frontier)
    return LatticePath(z)


def walk_component_sizes(z: LatticePath) -> list[int]:
    """Component sizes in exploration order from a Z-walk over 0..n+1.

    Counts zeros over k in {1..n} (with the implicit zero at k=0); the gaps
    between successive zeros are the component sizes.  The sentinel Z(n+1)
    is ignored.
    """
    vals = z.values[:-1]
    zeros = np.flatnonzero(vals == 0)
    return np.diff(zeros).astype(int).tolist()
