"""Properly weighted graphs, Prim order and the level-set merge filtration.

A percolation system is a graph with distinct positive edge weights; its
time-t state keeps the edges of weight <= t.  Running Prim's algorithm from a
root linearises the system: every component of every level set is an interval
of consecutive Prim ranks, and the interval boundaries at level t are exactly
the ranks whose Prim attach weight exceeds t.  The whole merge history is
therefore read off the attach weights, with no replay of the edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .states import MergeHistory


class GraphError(ValueError):
    pass


class DuplicateWeightError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


def _first_repeat(x: np.ndarray):
    """Some value occurring twice in x, or None (sort-and-diff, no hashing)."""
    s = np.sort(x)
    hit = np.flatnonzero(s[1:] == s[:-1])
    return s[hit[0]] if len(hit) else None


class ProperlyWeightedGraph:
    """Graph on vertices 1..n with distinct finite positive weights.

    Vertices are 1-based.  The edges are held as read-only arrays: endpoints
    `u < v` (int64) and weights `w` (float64), edge k being (u[k], v[k],
    w[k]).  Construction rejects self-loops, out-of-range vertices, parallel
    edges, non-finite, non-positive or duplicate weights.  A weight of +inf
    would tie with the +inf that marks Prim's root and a dense matrix's
    non-edges.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        rows = list(edges)
        u, v, w = zip(*rows) if rows else ((), (), ())
        self._set_arrays(n, u, v, w)

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "ProperlyWeightedGraph":
        """Build from endpoint and weight arrays, with the same validation."""
        g = cls.__new__(cls)
        g._set_arrays(n, u, v, w)
        return g

    def _set_arrays(self, n, u, v, w) -> None:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
        loops = np.flatnonzero(u == v)
        if len(loops):
            raise GraphError(f"self-loop at vertex {u[loops[0]]}")
        bad = np.flatnonzero((u < 1) | (u > n) | (v < 1) | (v > n))
        if len(bad):
            raise GraphError(f"vertex id out of range: ({u[bad[0]]}, {v[bad[0]]})")
        a, b = np.minimum(u, v), np.maximum(u, v)
        key = a * (n + 1) + b
        # pairs listed in increasing order (K_n's triu pairs) need no sort
        pair = None if (key[1:] > key[:-1]).all() else _first_repeat(key)
        if pair is not None:
            raise GraphError(f"parallel edge ({pair // (n + 1)}, {pair % (n + 1)})")
        bad = np.flatnonzero(~np.isfinite(w))
        if len(bad):
            raise GraphError(f"non-finite weight {w[bad[0]]} on edge ({a[bad[0]]}, {b[bad[0]]})")
        bad = np.flatnonzero(~(w > 0.0))
        if len(bad):
            raise GraphError(
                f"non-positive weight {w[bad[0]]} on edge ({a[bad[0]]}, {b[bad[0]]})"
            )
        dup = _first_repeat(w)
        if dup is not None:
            raise DuplicateWeightError(f"duplicate weight {dup}")
        for arr in (a, b, w):
            arr.setflags(write=False)
        self.n, self.u, self.v, self.w = n, a, b, w

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as (u, v, w) tuples with u < v, in construction order."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Adjacency lists indexed 0..n (slot 0 unused)."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n + 1)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True, eq=False)
class PrimOrdering:
    """Prim order (u_1, ..., u_n) of a properly weighted connected graph.

    Arrays of length n indexed by rank - 1: order[i] is u_{i+1}, and
    attach_weight[i] / attach_parent[i] describe the minimal cut edge that
    brought it in (+inf and 0 for the root).  The attach edges form the
    minimum spanning tree.  rank[v] is the Prim rank (1-based) of vertex v,
    with rank[0] = 0; it is built, and the order checked, once here.
    """

    order: np.ndarray
    attach_weight: np.ndarray
    attach_parent: np.ndarray
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        weight = np.asarray(self.attach_weight, dtype=np.float64)
        parent = np.asarray(self.attach_parent, dtype=np.int64)
        n = len(order)
        # order - 1 read as unsigned is >= n exactly where order leaves 1..n;
        # inside 1..n, a repeated vertex leaves another one with rank 0
        if order.ndim != 1 or np.count_nonzero((order - 1).view(np.uint64) >= n):
            raise GraphError("ordering is not a permutation of 1..n")
        rank = np.zeros(n + 1, dtype=np.int64)
        rank[order] = np.arange(1, n + 1)
        if np.count_nonzero(rank) != n:
            raise GraphError("ordering is not a permutation of 1..n")
        if len(weight) != n or len(parent) != n or ((parent < 0) | (parent > n)).any():
            raise GraphError(f"ordering needs {n} attach weights and {n} parents in 0..{n}")
        for name, arr in zip(("order", "attach_weight", "attach_parent", "rank"),
                             (order, weight, parent, rank)):
            object.__setattr__(self, name, arr)


def _check_ordering(g: ProperlyWeightedGraph, ordering: PrimOrdering) -> None:
    """Refuse an ordering of another number of vertices than g's."""
    if len(ordering.order) != g.n:
        raise GraphError(f"ordering has {len(ordering.order)} vertices, graph has {g.n}")


def prim_order(g: ProperlyWeightedGraph, root: int = 1) -> PrimOrdering:
    """Prim order from `root`.

    A complete graph takes a dense O(n^2) path over its weight matrix; any
    other graph a lazy-deletion heap over cut edges, O(m log m).  Distinct
    weights make the minimal cut edge unique, so both give the same result.
    Raises on a disconnected graph.
    """
    if not (1 <= root <= g.n):
        raise GraphError(f"root {root} not in [1, {g.n}]")
    if g.m == g.n * (g.n - 1) // 2:
        return _prim_dense(g, root)
    adj = g.adjacency()
    in_tree = [False] * (g.n + 1)
    in_tree[root] = True
    order, attach_weight, attach_parent = [root], [np.inf], [0]
    heap: list[tuple[float, int, int]] = []
    for v, w in adj[root]:
        heapq.heappush(heap, (w, v, root))
    while len(order) < g.n:
        while heap and in_tree[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            raise DisconnectedGraphError(
                f"graph disconnected: reached {len(order)} of {g.n} vertices"
            )
        w, v, parent = heapq.heappop(heap)
        in_tree[v] = True
        order.append(v)
        attach_weight.append(w)
        attach_parent.append(parent)
        for x, wx in adj[v]:
            if not in_tree[x]:
                heapq.heappush(heap, (wx, x, v))
    return PrimOrdering(order, attach_weight, attach_parent)


def _weight_matrix(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The symmetric (n + 1) x (n + 1) matrix holding w[k] at (a[k], b[k]) and
    (b[k], a[k]), +inf elsewhere (row and column 0 included).  It is filled
    through the flat indices a (n + 1) + b and b (n + 1) + a, which cost
    less than 2-D fancy indexing; the two are built in turn in one index array."""
    wm = np.full((n + 1, n + 1), np.inf)
    flat = wm.ravel()
    idx = a * (n + 1)
    idx += b
    flat[idx] = w
    np.multiply(b, n + 1, out=idx)
    idx += a
    flat[idx] = w
    return wm


def _prim_dense(g: ProperlyWeightedGraph, root: int) -> PrimOrdering:
    """Prim on a complete graph: argmin of the frontier distances, row-min update.

    The weights are read from `_weight_matrix` in vertex coordinates.  Tree
    vertices hold +inf in `dist`, so the argmin never picks one; a boolean
    mask of the vertices still off the tree keeps the row-min update from
    writing the new vertex's weights into their slots.
    """
    n = g.n
    wm = _weight_matrix(n, g.u, g.v, g.w)
    off_tree = np.ones(n + 1, dtype=bool)
    off_tree[root] = False
    dist = wm[root].copy()
    parent = np.full(n + 1, root, dtype=np.int64)
    closer = np.empty(n + 1, dtype=bool)
    order = np.full(n, root, dtype=np.int64)
    attach_weight = np.full(n, np.inf)
    attach_parent = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        x = int(dist.argmin())
        order[i] = x
        attach_weight[i] = dist[x]
        attach_parent[i] = parent[x]
        off_tree[x] = False
        dist[x] = np.inf
        np.less(wm[x], dist, out=closer)
        closer &= off_tree
        np.copyto(dist, wm[x], where=closer)
        np.copyto(parent, x, where=closer)
    return PrimOrdering(order, attach_weight, attach_parent)


def _least_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """lab[v] = least vertex of v's component, for the graph on 0..n whose
    edges are (a[k], b[k]) with a[k] < b[k].

    Labels start as the vertices themselves.  Each round takes the edges
    whose endpoint labels differ, hooks the larger label under the smallest
    label it meets across them (`np.minimum.at`), then pointer-jumps
    lab = lab[lab] to a fixed point, so every label is again its own label.
    Labels only fall, and only along edges, so the rounds end, with no edge
    left across two labels, at the least vertex of each component.
    """
    lab = np.arange(n + 1)
    lo, hi = a, b  # every edge crosses at the start, smaller end first
    while len(hi):
        np.minimum.at(lab, hi, lo)
        while True:
            up = lab[lab]
            if not np.count_nonzero(up != lab):
                break
            lab = up
        la, lb = lab[a], lab[b]
        cross = la != lb
        if not np.count_nonzero(cross):
            break
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        lo, hi = np.minimum(la, lb), np.maximum(la, lb)
    return lab


def level_components(
    g: ProperlyWeightedGraph,
    t: float,
    ordering: PrimOrdering | None = None,
) -> list[frozenset[int]] | list[tuple[frozenset[int], tuple[int, int]]]:
    """Connected components of the level graph G_t (edges of weight <= t).

    Without an ordering, returns components as frozensets sorted by their
    smallest vertex.  With a PrimOrdering, returns (component, (a, b)) pairs
    where [a, b] is the component's interval of Prim ranks, sorted by a;
    raises if some component is not a Prim interval, naming the one with
    the smallest least vertex.

    The components are the classes of `_least_labels` over the level edges:
    whole-array min-label hooking and pointer jumping on g's own edge list.
    It reads no attach weight and shares no code with the graph route's
    `multiplicative._merge`, because this function is the oracle both are
    checked against: the interval property here, and `graph_route` in
    `test_matches_union_find_on_same_edges`.  A fast path is never checked
    against itself.
    """
    if not (0.0 <= t <= 1.0):
        raise GraphError(f"level t={t} outside [0, 1]")
    keep = g.w <= t
    lab = _least_labels(g.n, g.u[keep], g.v[keep])[1:]
    groups: dict[int, list[int]] = {}  # filled in least-vertex order: a label is its least vertex
    for v, root in enumerate(lab.tolist(), start=1):
        groups.setdefault(root, []).append(v)
    comps = {root: frozenset(vs) for root, vs in groups.items()}
    if ordering is None:
        return list(comps.values())
    _check_ordering(g, ordering)
    by_rank = np.empty(g.n, dtype=np.int64)  # label of the vertex at each rank
    by_rank[ordering.rank[1:] - 1] = lab
    cut = (by_rank[1:] != by_rank[:-1]).nonzero()[0] + 1  # where a run of labels starts
    if len(cut) + 1 != len(comps):
        runs = np.bincount(by_rank[cut], minlength=g.n + 1)
        runs[by_rank[0]] += 1
        raise GraphError(f"component {groups[int(np.argmax(runs > 1))]} is not a Prim interval")
    cut = cut.tolist()
    return [
        (comps[root], (a + 1, b))
        for root, a, b in zip(by_rank[[0] + cut].tolist(), [0] + cut, cut + [g.n])
    ]


def _interval_blocks(opens: np.ndarray, weights: np.ndarray):
    """(starts, sizes, sums) of the blocks of positions 0..len(opens) - 1
    that open where `opens` holds: block k runs from starts[k] up to the
    next open, and sums[k] adds `weights` over it.  opens[0] must hold."""
    starts = np.flatnonzero(opens)
    return starts, np.diff(starts, append=len(opens)), np.add.reduceat(weights, starts)


@dataclass(frozen=True, eq=False)
class ComponentFiltration:
    """Full merge history of a percolation system in Prim-rank coordinates.

    Rank positions are 0-based here.  attach_weight[r] is the attach weight
    of the vertex of rank r + 1 (+inf for the root); at level t the
    components are the rank intervals that start where attach_weight > t.
    edge_rank[k] is the smaller endpoint rank of edge k and edge_weight[k]
    its weight; they count each component's edges for its excess.
    """

    attach_weight: np.ndarray
    edge_rank: np.ndarray
    edge_weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.attach_weight)

    def components_at(self, t: float) -> list[tuple[tuple[int, int], int, int]]:
        """State at level t: list of (rank interval, size, excess)."""
        # a level edge lies in the interval that holds its smaller rank
        level_edges = np.bincount(self.edge_rank[self.edge_weight <= t], minlength=self.n)
        starts, sizes, edges = _interval_blocks(self.attach_weight > t, level_edges)
        excess = edges - sizes + 1
        return [
            ((a + 1, a + size), size, exc)
            for a, size, exc in zip(starts.tolist(), sizes.tolist(), excess.tolist())
        ]

    @property
    def history(self) -> MergeHistory:
        """This filtration as a merge history of one run on 0-based rank slots:
        at attach_weight[r] the interval holding rank r - 1 absorbs the one
        starting at rank r, so owner_at(t)[0] is each rank's interval start."""
        r = np.argsort(self.attach_weight[1:]) + 1
        rows = (self.attach_weight[r], r - 1, r, np.ones(self.n, dtype=np.int64))
        return MergeHistory(*(x[None] for x in rows))


def _range_max(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(x[lo[k]..hi[k]]) for every k (lo <= hi), by a sparse table."""
    table = [x]  # table[j][i] = max(x[i : i + 2**j]), clipped at the end of x
    while 2 ** len(table) <= len(x):
        half = 2 ** (len(table) - 1)
        prev = table[-1]
        nxt = prev.copy()
        np.maximum(prev[:-half], prev[half:], out=nxt[:-half])
        table.append(nxt)
    span = hi - lo + 1
    level = np.frexp(span)[1] - 1  # floor(log2(span)), exact
    left = level * np.int64(len(x))  # flat index of table[level][lo]
    left += lo
    right = span  # flat index of table[level][hi - 2**level + 1], made in place
    right -= 1 << level
    right += left
    flat = np.concatenate(table)
    out = flat[left]
    return np.maximum(out, flat[right], out=out)


def component_filtration(
    g: ProperlyWeightedGraph, ordering: PrimOrdering
) -> ComponentFiltration:
    """Merge filtration of g read off the attach weights of its Prim order.

    The ordering is checked to be g's Prim order: each attach edge is an
    edge of g with the recorded weight whose parent has the lower rank, and
    every edge joining ranks a < b weighs at least the largest attach weight
    on ranks a+1..b.  Together these make every component of every level
    graph a rank interval whose merges join adjacent intervals; a violation
    raises GraphError.
    """
    n = g.n
    _check_ordering(g, ordering)
    if g.m < n - 1:
        raise GraphError(f"{g.m} edges cannot connect {n} vertices")
    rank = ordering.rank - 1  # 0-based; the root's parent 0 has rank -1
    aw = ordering.attach_weight
    a = np.minimum(rank[g.u], rank[g.v])
    b = np.maximum(rank[g.u], rank[g.v])
    # edge k attaches rank b[k] iff it has that rank's weight and joins it to its parent
    attach = (g.w == aw[b]) & (a == rank[ordering.attach_parent[b]])
    if not (np.bincount(b[attach], minlength=n)[1:] == 1).all():
        raise GraphError("ordering's attach edges are not edges of g at their weights")
    bad = np.flatnonzero(g.w < _range_max(aw, a + 1, b))
    if len(bad):
        k = bad[0]
        raise GraphError(
            f"edge between Prim ranks {a[k] + 1} and {b[k] + 1} at t={g.w[k]} "
            "merges non-adjacent Prim intervals"
        )
    return ComponentFiltration(attach_weight=aw, edge_rank=a, edge_weight=g.w)


def random_complete_graph(n, rng) -> ProperlyWeightedGraph:
    """Dense K_n with i.i.d. uniform (0, 1] weights.

    Edges are listed in row-major order (1,2), (1,3), ..., (n-1,n); a draw
    with a zero or repeated weight is redrawn whole.  Materialising K_n is
    refused for n > 4096; use the sparse sampler in `primcoal.multiplicative`
    for larger graphs.
    """
    if n > 4096:
        raise GraphError("dense K_n refused for n > 4096; use the sparse sampler")
    u, v = np.triu_indices(n, k=1)
    while True:
        w = rng.random(n * (n - 1) // 2)
        try:
            return ProperlyWeightedGraph.from_arrays(n, u + 1, v + 1, w)
        except GraphError:
            continue
