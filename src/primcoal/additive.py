"""Combinatorial additive coalescent: conditioned walk, parking, forests.

One object drives everything: a walk with i.i.d. Poisson(1) increments minus
drift, conditioned to first hit -1 at time n.  Thinning its unit increments
couples the walk family across the retention level t; ladder intervals of
the thinned walk are the cluster sizes.  The same law shows up as block
sizes of a circular parking scheme, as tree sizes of Pitman's forest-valued
merge process, and as percolation clusters of a uniform Cayley tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, ProperlyWeightedGraph, PrimOrdering, _check_ordering, component_filtration, prim_order
from .states import MassVector, MergeHistory, _check_reps, _running_sum
from .walks import LatticePath, excursions_above_min


@dataclass(frozen=True)
class ConditionedWalk:
    """Increments X(1..n) of the Poisson walk conditioned on tau_{-1} = n."""

    n: int
    increments: np.ndarray

    def __init__(self, n: int, increments):
        x = np.asarray(increments)
        if n < 1 or x.shape != (n,):
            raise ValueError("need n >= 1 increments")
        if x.dtype.kind not in "iu":
            raise ValueError(f"increments must be integers, got dtype {x.dtype}")
        x = x.astype(np.int64)
        if (x < 0).any() or x.sum() != n - 1:
            raise ValueError("increments must be non-negative and sum to n-1")
        y = np.cumsum(x - 1)
        if (y[:-1] < 0).any() or y[-1] != -1:
            raise ValueError("walk must first hit -1 at time n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "increments", x)

    @classmethod
    def _unchecked(cls, n: int, increments: np.ndarray) -> ConditionedWalk:
        """A walk the caller guarantees valid (int64 increments of a first
        passage at n), built without the constructor's checks."""
        walk = object.__new__(cls)
        object.__setattr__(walk, "n", n)
        object.__setattr__(walk, "increments", increments)
        return walk

    def path(self) -> LatticePath:
        """Y(0..n) with Y(m) = sum_{j<=m} (X(j) - 1)."""
        vals = np.concatenate([[0], np.cumsum(self.increments - 1)])
        return LatticePath(vals)


def _cycle_rotation(c: np.ndarray) -> tuple[np.ndarray, int]:
    """c rotated to start just past the first minimum of cumsum(c - 1), and
    the shift.  By the cycle lemma, for counts summing to len(c) - 1 this is
    the one rotation whose walk of c - 1 first reaches -1 at its end."""
    shift = int(np.argmin(np.cumsum(c - 1))) + 1
    return np.roll(c, -shift), shift


def sample_conditioned_walk(n: int, rng) -> ConditionedWalk:
    """Exact O(n) sampler: counts of n - 1 uniform cars on n places, the
    Multinomial(n - 1; uniform) law, rotated by the cycle lemma.

    That multinomial is the law of i.i.d. Poisson(1) increments conditioned
    on total n - 1, and exactly one cyclic rotation of them is a
    first-passage path.  The draws are those of `park(n, n - 1, rng)`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cars = np.bincount(rng.integers(0, n, n - 1), minlength=n)
    # the cycle lemma makes the rotation a first passage at n: no re-check
    return ConditionedWalk._unchecked(n, _cycle_rotation(cars)[0])


class ThinnedWalkFamily:
    """Monotone coupling of thinned walks across retention levels t.

    Each unit increment of the base walk carries one stored uniform; the
    level-t walk keeps the units whose uniform is <= t, so the family is
    non-decreasing in t on a single sample.
    """

    def __init__(self, walk: ConditionedWalk, rng):
        self.n = walk.n
        # unit j belongs to step _owner[j]; one stored uniform per unit
        self._owner = np.repeat(np.arange(walk.n), walk.increments)
        self._uniforms = rng.random(int(walk.increments.sum()))

    def thinned_increments(self, t: float) -> np.ndarray:
        if not (0.0 <= t <= 1.0):
            raise ValueError("retention t must lie in [0, 1]")
        kept = self._uniforms <= t
        return np.bincount(self._owner[kept], minlength=self.n)

    def path(self, t: float) -> LatticePath:
        """Y^{(t)}(0..n), the thinned walk with unit drift."""
        x = self.thinned_increments(t)
        vals = np.concatenate([[0], np.cumsum(x - 1)])
        return LatticePath(vals)


def retention_level(n: int, lam: float) -> float:
    """t = 1 - lambda / sqrt(n); lambda must stay within [0, sqrt(n)]."""
    if not 0 <= lam <= np.sqrt(n):
        raise ValueError(f"lambda={lam} outside [0, sqrt(n)]")
    return 1.0 - lam / np.sqrt(n)


def gamma_plus(family: ThinnedWalkFamily, lam: float) -> MassVector:
    """Sorted cluster masses at time t = 1 - lambda/sqrt(n), normalised by n.

    Clusters are the ladder intervals of the thinned walk (excursions above
    the running minimum, one-unit-drop convention); masses sum to 1.
    """
    t = retention_level(family.n, lam)
    exc = excursions_above_min(family.path(t))
    return MassVector(exc.lengths() / family.n)


# ---------------------------------------------------------------------------
# Parking scheme


@dataclass(frozen=True)
class ParkingConfiguration:
    """m cars parked on the circular lot Z/nZ with rightward probing.

    Places are 1..n.  A block is a maximal run of occupied places plus the
    empty place terminating it ("cars + 1"); an empty place flanked by
    empty places is its own block of size 1.  `choices` holds the cars'
    first choices in arrival order, as a read-only int64 array.
    """

    n: int
    choices: np.ndarray
    occupied: np.ndarray

    def block_sizes(self) -> list[int]:
        """Block sizes, non-increasing: the circular gaps between successive
        empty places, each gap's block ending at the later of the two."""
        empty = np.flatnonzero(~self.occupied)
        if not len(empty):
            raise ValueError("parking lot is full; blocks are undefined")
        return sorted(np.diff(empty, append=empty[0] + self.n).tolist(), reverse=True)


def park(n: int, m: int, rng=None, choices=None) -> ParkingConfiguration:
    """Park m cars with uniform first choices and rightward probing; pass
    explicit 1-based integer `choices` to couple with a walk construction.
    Read off the walk of c - 1, c[p] the cars choosing place p, started past
    its first minimum: a place stays empty where it reaches a new strict minimum."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got m = {m}")
    if m >= n:
        raise ValueError("m must be < n (at least one empty place)")
    if choices is None and rng is None:
        raise ValueError("need rng or choices")
    ch = np.asarray(rng.integers(1, n + 1, size=m) if choices is None else choices)
    if ch.shape != (m,):
        raise ValueError("need exactly m choices")
    if m and ch.dtype.kind not in "iu":
        raise ValueError(f"choices must be integers, got dtype {ch.dtype}")
    if ((ch < 1) | (ch > n)).any():
        raise ValueError(f"choices must lie in 1..{n}")
    ch = ch.astype(np.int64)  # a copy: the caller's array stays writeable
    ch.setflags(write=False)
    c, shift = _cycle_rotation(np.bincount(ch - 1, minlength=n))
    walk = np.cumsum(c - 1)
    empty = walk < np.minimum.accumulate(np.append(0, walk))[:-1]
    return ParkingConfiguration(n, ch, np.roll(~empty, shift))


# ---------------------------------------------------------------------------
# Pitman's forest process


class ForestProcess(MergeHistory):
    """Merge history of the forest process on n labelled vertices.

    With m trees remaining the next merge fires at rate m - 1, and the pair
    (t_i, t_j) is chosen with probability (|t_i| + |t_j|) / (n (m - 1)).
    Only tree sizes are tracked: slot k starts as the singleton tree of
    vertex k + 1, so values0 is all ones.
    """

    merges = property(MergeHistory.records)
    tree_sizes_at = MergeHistory.values_at


def pitman_forest(n: int, rng, reps: int = 1) -> ForestProcess:
    """`reps` independent runs of the forest process on n vertices, each
    run to a single tree (see ForestProcess).

    The batch is held slot-major, the tree sizes as (n, reps) rows, so a
    round is a few whole-row operations; the cumulative sizes and live-slot
    counts are running sums down the slot rows, the same additions as a
    per-replicate np.cumsum, so the draws do not depend on the layout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_reps(reps)
    sizes = np.ones((n, reps), dtype=np.int64)
    cols = np.arange(reps)
    clock = np.zeros(reps)
    times = np.empty((n - 1, reps))
    i_out, j_out = np.empty((2,) + times.shape, dtype=np.int64)
    for k in range(n - 1):
        m = n - k
        clock += rng.exponential(size=reps) / (m - 1)
        # P{pair {i,j}} = (s_i+s_j)/(n(m-1)): draw i by size, j uniform other
        i = (_running_sum(sizes.copy()) <= rng.random(reps) * n).sum(axis=0)
        other = (sizes > 0).astype(np.int64)
        other[i, cols] = 0
        j = (_running_sum(other) <= rng.integers(m - 1, size=reps)).sum(axis=0)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        times[k], i_out[k], j_out[k] = clock, lo, hi
        sizes[lo, cols] += sizes[hi, cols]
        sizes[hi, cols] = 0
    return ForestProcess(times.T, i_out.T, j_out.T, np.ones((reps, n), dtype=np.int64))


# ---------------------------------------------------------------------------
# Cayley trees and tree percolation


def prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Labelled tree on 1..n from a Prufer sequence (length n-2)."""
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def uniform_cayley_tree(n: int, rng) -> list[tuple[int, int]]:
    """Uniform labelled tree on 1..n, decoded from a uniform Prufer sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return prufer_decode(rng.integers(1, n + 1, size=max(n - 2, 0)).tolist(), n)


def weighted_cayley_tree(n: int, rng) -> ProperlyWeightedGraph:
    ends = np.array(uniform_cayley_tree(n, rng), dtype=np.int64).reshape(-1, 2)
    return ProperlyWeightedGraph.from_arrays(n, ends[:, 0], ends[:, 1], rng.random(len(ends)))


def percolate_cayley(n: int, t: float, rng):
    """Percolated weighted Cayley tree.

    Returns (weighted tree, Prim ordering from root 1, component sizes of
    the level graph at t sorted in decreasing order).  The components are
    the Prim-rank intervals split where the attach weight exceeds t.
    """
    g = weighted_cayley_tree(n, rng)
    ordering = prim_order(g, root=1)
    comps = component_filtration(g, ordering).components_at(t)
    sizes = sorted((size for _, size, _ in comps), reverse=True)
    return g, ordering, sizes


def rooted_children(edges: list[tuple[int, int]], n: int, root: int = 1) -> list[list[int]]:
    """Children lists of the tree rooted at `root` (BFS orientation)."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    seen = [False] * (n + 1)
    seen[root] = True
    queue = [root]
    while queue:
        v = queue.pop(0)
        for x in sorted(adj[v]):
            if not seen[x]:
                seen[x] = True
                children[v].append(x)
                queue.append(x)
    return children


def bfs_outdegrees(edges: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Out-degree sequence in breadth-first order from vertex 1, children by label."""
    children = rooted_children(edges, n)
    order = []
    queue = [1]
    while queue:
        v = queue.pop(0)
        order.append(v)
        queue.extend(children[v])
    return tuple(len(children[v]) for v in order)


def prim_thinned_outdegrees(g: ProperlyWeightedGraph, ordering: PrimOrdering, t: float) -> tuple[int, ...]:
    """X^t(i): edges of weight <= t from the i-th Prim node to its children.

    The tree is rooted at the Prim root; children point away from it, so a
    node's children are the nodes it attached, each by its attach edge.
    Raises GraphError unless g is a tree.
    """
    if g.m != g.n - 1:
        raise GraphError(f"{g.m} edges on {g.n} vertices: not a tree")
    _check_ordering(g, ordering)
    parents = ordering.attach_parent[1:][ordering.attach_weight[1:] <= t]  # the root has no attach edge
    return tuple(np.bincount(ordering.rank[parents] - 1, minlength=g.n).tolist())
