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

from .graphs import ProperlyWeightedGraph, PrimOrdering


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


@dataclass(frozen=True)
class ExcursionConvention:
    """Discrete excursion convention.

    beta: drop below the running minimum that closes an above-minimum
      excursion.  beta > 0 (one space unit for integer walks) delimits at
      strict new minima, the convention matching drifting walks whose ladder
      epochs mark cluster boundaries; beta = 0 delimits at every return to
      the running minimum, the direct analogue of the continuous definition
      and the convention under which above-minimum excursions of f coincide
      with above-zero excursions of Psi f.
    """

    beta: float = 1.0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


DEFAULT_CONVENTION = ExcursionConvention()
WEAK_MIN_CONVENTION = ExcursionConvention(beta=0.0)


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


def excursions_above_zero(f: LatticePath) -> ExcursionSet:
    """Maximal intervals between successive zeros of a non-negative path.

    Requires f >= 0 and f(0) = 0.  A trailing stretch that never returns to
    zero is reported as a final (incomplete) excursion.
    """
    vals = f.values
    if vals[0] != 0:
        raise ValueError("path must start at 0")
    if (vals < 0).any():
        raise ValueError("path must be non-negative")
    zeros = np.flatnonzero(vals == 0)
    # A unit gap between zeros is flat at 0 under interpolation, hence not
    # an excursion (a constant-zero path has none).
    intervals = [
        (int(a), int(b)) for a, b in zip(zeros[:-1], zeros[1:]) if b - a >= 2
    ]
    if zeros[-1] != len(vals) - 1:
        intervals.append((int(zeros[-1]), len(vals) - 1))
    starts, ends = np.array(intervals, dtype=np.int64).reshape(-1, 2).T
    return ExcursionSet(starts, ends)


def excursions_above_min(
    f: LatticePath, conv: ExcursionConvention = DEFAULT_CONVENTION
) -> ExcursionSet:
    """Excursions of f above its running minimum.

    An excursion starting at a boundary point with value v closes at the
    first later index whose value is <= v - beta (see ExcursionConvention).
    With beta > 0 every ladder interval counts, including unit descents
    (unit clusters); with beta = 0 unit gaps are flat or descending under
    interpolation, never above the minimum, and are dropped.  Scans f
    directly; does not go through Psi.  Integer walks and float grids alike:
    a float grid almost never returns exactly to its minimum, so under
    beta = 0 its boundaries are its new running minima.
    """
    vals = f.values
    if vals[0] != 0:
        raise ValueError("path must start at 0")
    # index k closes an excursion when vals[k] <= min(vals[:k]) - beta
    runmin = np.minimum.accumulate(vals)
    boundaries = np.concatenate(([0], 1 + np.flatnonzero(vals[1:] <= runmin[:-1] - conv.beta)))
    a, b = boundaries[:-1], boundaries[1:]
    if not conv.beta > 0:  # unit gaps are no excursion under beta = 0
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
