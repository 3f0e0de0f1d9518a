"""Multiplicative coalescent in the critical window: walk and graph routes.

Percolation on the complete graph at p = 1/n + lambda/n^{4/3} is simulated
two ways.  The graph route samples edges directly and reads off component
sizes and excess; the walk route runs the neighbourhood-size recursion on a
triangular field of uniforms, with the surplus counted on the fly.  The
field reordering extracted from a concrete weighted graph makes the two
routes agree realisation by realisation, not just in law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import ProperlyWeightedGraph, PrimOrdering
from .states import AugmentedState, MassVector
from .walks import (
    DEFAULT_CONVENTION,
    LatticePath,
    excursions_above_min,
    psi,
    walk_component_sizes,
)

FIELD_N_MAX = 4096


def p_lambda(n: int, lam: float) -> float:
    """Critical-window edge probability 1/n + lambda/n^{4/3}."""
    p = 1.0 / n + lam / n ** (4.0 / 3.0)
    if not (0.0 <= p <= 1.0):
        # tolerate pure floating-point spill at the endpoints
        if -1e-9 < p < 0.0:
            return 0.0
        if 1.0 < p < 1.0 + 1e-9:
            return 1.0
        raise ValueError(f"p_lambda(n={n}, lam={lam}) = {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class CriticalWindowParams:
    n: int
    lam: float

    @property
    def p(self) -> float:
        return p_lambda(self.n, self.lam)


class UniformField:
    """Triangular array of i.i.d. uniforms U(i, k), 1 <= i < k <= n.

    Stored as a dense (n+1) x (n+1) matrix with row/column 0 unused; only
    the strict upper triangle is meaningful.  Dense storage caps n at 4096.
    """

    def __init__(self, n: int, matrix: np.ndarray):
        if n > FIELD_N_MAX:
            raise ValueError(f"dense uniform field limited to n <= {FIELD_N_MAX}")
        if matrix.shape != (n + 1, n + 1):
            raise ValueError("field matrix must be (n+1) x (n+1)")
        self.n = n
        self.matrix = matrix

    @classmethod
    def sample(cls, n: int, rng) -> "UniformField":
        if n > FIELD_N_MAX:
            raise ValueError(f"dense uniform field limited to n <= {FIELD_N_MAX}")
        m = rng.random((n + 1, n + 1))
        return cls(n, m)

    def __call__(self, i: int, k: int) -> float:
        if not (1 <= i < k <= self.n):
            raise IndexError("field defined for 1 <= i < k <= n")
        return float(self.matrix[i, k])


def reorder_field_from_graph(
    g: ProperlyWeightedGraph, ordering: PrimOrdering
) -> UniformField:
    """Rebuild the exploration field U*(i, .) from a complete weighted graph.

    Row i lists the weights from the i-th Prim vertex to the later vertices,
    ordered by when those vertices first entered the frontier of the first
    i - 1 Prim vertices (row 1 is in plain Prim-rank order).  Running the
    walk recursion on this field reproduces, vertex for vertex, the
    exploration of the level graph of g, so surplus and excess can be
    compared on a single realisation.
    """
    n = g.n
    if g.m != n * (n - 1) // 2:
        raise ValueError("field reordering requires a complete graph")
    rank = ordering.ranks()
    a, b = rank[g.u], rank[g.v]
    wr = np.full((n + 1, n + 1), np.inf)
    wr[a, b] = g.w
    wr[b, a] = g.w
    out = np.full((n + 1, n + 1), np.nan)
    out[1, 2:] = wr[1, 2:]
    # entry[k] = min over already-explored rows j of wr[j, k]
    entry = wr[1].copy()
    for i in range(2, n):
        later = np.arange(i, n + 1)
        order = later[np.argsort(entry[later], kind="stable")]
        if order[0] != i:
            raise AssertionError("first frontier entrant must be the next Prim vertex")
        out[i, i + 1 :] = wr[i, order[1:]]
        np.minimum(entry, wr[i], out=entry)
    return UniformField(n, out)


def z_walk(params: CriticalWindowParams, field: UniformField):
    """Walk-route exploration on a uniform field.

    Returns (z, y): the neighbourhood-size walk Z(0..n+1) and the drifting
    walk Y(0..n) with increments X(i) - 1.  Two exact identities are
    asserted on every call: Psi Y = max(Z - 1, 0) pointwise, and the
    one-unit-drop ladder intervals of Y coincide with the intervals between
    zeros of Z (so Y and Z carry the same component structure).  Note that
    Z itself is one above Psi Y strictly inside components: Y loses only
    its drift unit at a restart while Z also picks up the restart vertex.
    Every step of Z is >= -1, also checked.
    """
    n, t = params.n, params.p
    if field.n != n:
        raise ValueError("field size does not match parameters")
    u = field.matrix
    z = np.zeros(n + 2, dtype=int)
    y = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        lo = i + max(z[i - 1] - 1, 0)
        x = int((u[i, lo + 1 : n + 1] <= t).sum())
        y[i] = y[i - 1] + x - 1
        z[i] = z[i - 1] + x - (1 if z[i - 1] > 0 else 0)
    zp = LatticePath(z)
    yp = LatticePath(y)
    if not np.array_equal(np.maximum(z[: n + 1] - 1, 0), psi(yp).values):
        raise AssertionError("Psi Y must equal max(Z - 1, 0) pointwise")
    if (np.diff(z[: n + 1]) < -1).any():
        raise AssertionError("Z steps must be >= -1")
    ladder = excursions_above_min(yp, DEFAULT_CONVENTION)
    z_zeros = np.flatnonzero(z[: n + 1] == 0)
    z_intervals = tuple(zip(z_zeros[:-1].tolist(), z_zeros[1:].tolist()))
    if ladder.intervals != z_intervals:
        raise AssertionError("ladder intervals of Y must match zero gaps of Z")
    return zp, yp


def surplus_field(params: CriticalWindowParams, z: LatticePath, field: UniformField) -> np.ndarray:
    """Per-step surplus S(i): field entries <= p among the skipped frontier slots.

    S(i) counts k with U(i, k) <= p and i < k <= i + (Z(i-1) - 1)_+; summing
    S over a component's interval gives that component's surplus (its number
    of independent cycles).
    """
    n, t = params.n, params.p
    u = field.matrix
    zv = z.values
    s = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        hi = i + max(int(zv[i - 1]) - 1, 0)
        s[i] = int((u[i, i + 1 : hi + 1] <= t).sum())
    return s


def component_surpluses(z: LatticePath, s: np.ndarray) -> list[tuple[int, int]]:
    """(size, surplus) per component in exploration order."""
    sizes = walk_component_sizes(z)
    out = []
    pos = 0
    for size in sizes:
        out.append((size, int(s[pos + 1 : pos + size + 1].sum())))
        pos += size
    return out


def walk_route(params: CriticalWindowParams, rng) -> list[tuple[int, int]]:
    """Sample one walk-route realisation: (size, surplus) per component."""
    field = UniformField.sample(params.n, rng)
    z, _ = z_walk(params, field)
    s = surplus_field(params, z, field)
    return component_surpluses(z, s)


def gamma_times(n: int, sizes) -> MassVector:
    """Component sizes rescaled by n^{2/3}, sorted, under the l2 norm."""
    return MassVector(np.asarray(sizes, dtype=float) / n ** (2.0 / 3.0), norm="l2")


def y_times(params: CriticalWindowParams, field: UniformField) -> LatticePath:
    """Rescaled walk Y(n^{2/3} x) / n^{1/3} on x in [0, n^{1/3}]."""
    _, y = z_walk(params, field)
    n = params.n
    return LatticePath(y.values / n ** (1.0 / 3.0), x_step=n ** (-2.0 / 3.0))


def augmented_state(n: int, pairs: list[tuple[int, int]]) -> AugmentedState:
    """Rescaled (mass, surplus) state from (size, surplus) pairs."""
    pairs = sorted(pairs, key=lambda p: (-p[0], p[1]))
    sizes = np.array([p[0] for p in pairs], dtype=float)
    surps = [p[1] for p in pairs]
    return AugmentedState(MassVector(sizes / n ** (2.0 / 3.0), norm="l2"), surps)


# ---------------------------------------------------------------------------
# Sparse graph route


def _decode_edge_indices(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices into the strict lower triangle to 0-based (u, v).

    Index idx enumerates pairs (u, v) with 0 <= v < u by rows: pair (u, v)
    has index u(u-1)/2 + v.  Inverts the quadratic with a float sqrt and a
    one-step integer correction to dodge rounding at large n.
    """
    u = ((1.0 + np.sqrt(1.0 + 8.0 * idx.astype(float))) / 2.0).astype(np.int64)
    base = u * (u - 1) // 2
    over = base > idx
    u = u - over
    base = u * (u - 1) // 2
    under = idx - base >= u
    u = u + under
    base = u * (u - 1) // 2
    v = idx - base
    return u, v


def sample_edge_weights(n: int, p_max: float, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of G(n, p_max) with i.i.d. uniform(0, p_max] marks.

    Returns 0-based endpoint arrays (u, v) and weights sorted increasingly;
    the level set {w <= p} is exactly G(n, p) for any p <= p_max, coupled
    monotonically across p.  Memory stays O(#edges), never O(n^2).
    """
    if not (0.0 < p_max <= 1.0):
        raise ValueError("p_max must lie in (0, 1]")
    ne = n * (n - 1) // 2
    m = int(rng.binomial(ne, p_max))
    # distinct uniform edge indices; resample collisions until all distinct
    idx = np.unique(rng.integers(0, ne, size=m))
    while len(idx) < m:
        extra = rng.integers(0, ne, size=m - len(idx))
        idx = np.unique(np.concatenate([idx, extra]))
    u, v = _decode_edge_indices(idx.astype(np.int64))
    w = rng.random(m) * p_max
    order = np.argsort(w, kind="stable")
    return u[order], v[order], w[order]


def graph_route(
    n: int, lambdas, rng, p_max: float | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Component sizes and excesses of G(n, p_lambda) on a coupled grid.

    One edge-weight realisation serves every lambda in `lambdas` (monotone
    coupling: the level graphs are nested).  For each lambda returns
    (sizes, excess) with sizes sorted non-increasing and excess = edges -
    size + 1 aligned to it; ties in size break by component discovery id so
    reruns are deterministic.
    """
    lambdas = list(lambdas)
    ps = [p_lambda(n, lam) for lam in lambdas]
    if p_max is None:
        p_max = max(ps)
    u, v, w = sample_edge_weights(n, p_max, rng)
    out = []
    for p in ps:
        k = int(np.searchsorted(w, p, side="right"))
        adj = coo_matrix(
            (np.ones(k, dtype=np.int8), (u[:k], v[:k])), shape=(n, n)
        )
        ncomp, labels = connected_components(adj, directed=False)
        sizes = np.bincount(labels, minlength=ncomp)
        edge_counts = np.bincount(labels[u[:k]], minlength=ncomp)
        excess = edge_counts - sizes + 1
        order = np.lexsort((np.arange(ncomp), -sizes))
        out.append((sizes[order], excess[order]))
    return out


def sparse_z_trace(n: int, lam: float, rng) -> np.ndarray:
    """Walk-route Z(0..n+1) without materialising the uniform field.

    Each step draws X(i) ~ Binomial(#unseen vertices beyond the frontier, p)
    directly, which is the marginal of the field-based recursion.  O(n)
    memory, O(n) binomial draws.
    """
    t = p_lambda(n, lam)
    z = np.zeros(n + 2, dtype=np.int64)
    zprev = 0
    binom = rng.binomial
    for i in range(1, n + 1):
        avail = n - i - max(zprev - 1, 0)
        x = binom(avail, t) if avail > 0 else 0
        zprev = zprev + x - (1 if zprev > 0 else 0)
        z[i] = zprev
    return z


# ---------------------------------------------------------------------------
# Small-n replicate samplers (outcome distributions for two-sample tests)


def _outcome_key(pairs: list[tuple[int, int]]) -> tuple:
    return tuple(sorted(pairs, key=lambda p: (-p[0], p[1])))


def sample_walk_outcomes(n: int, lam: float, reps: int, rng) -> dict[tuple, int]:
    """Empirical law of the multiset {(size, surplus)} under the walk route.

    Vectorised over replicates; intended for small n (memory is reps * n^2).
    """
    t = p_lambda(n, lam)
    u = rng.random((reps, n + 1, n + 1))
    k = np.arange(n + 2)
    z = np.zeros((reps, n + 1), dtype=np.int64)
    s = np.zeros((reps, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        zprev = z[:, i - 1]
        lo = i + np.maximum(zprev - 1, 0)
        ui = u[:, i, :]
        hit = ui <= t
        beyond = (k[None, : n + 1] > lo[:, None]) & (k[None, : n + 1] > i)
        x = (hit & beyond).sum(axis=1)
        skipped = (k[None, : n + 1] > i) & (k[None, : n + 1] <= lo[:, None])
        s[:, i] = (hit & skipped).sum(axis=1)
        z[:, i] = zprev + x - (zprev > 0)
    counts: dict[tuple, int] = {}
    for r in range(reps):
        zr = z[r]
        zeros = np.flatnonzero(zr == 0)
        pairs = []
        for a, b in zip(zeros[:-1], zeros[1:]):
            pairs.append((int(b - a), int(s[r, a + 1 : b + 1].sum())))
        key = _outcome_key(pairs)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _component_table(n: int):
    """For each edge-subset mask of K_n: (sorted component (size, excess))."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = len(pairs)
    table = []
    from .graphs import UnionFind

    for mask in range(1 << m):
        uf = UnionFind(n)
        for e in range(m):
            if mask >> e & 1:
                uf.union(*pairs[e])
        comp: dict[int, list[int]] = {}
        for v in range(n):
            comp.setdefault(uf.find(v), [0, 0])[0] += 1
        for e in range(m):
            if mask >> e & 1:
                comp[uf.find(pairs[e][0])][1] += 1
        out = _outcome_key([(c, edges - c + 1) for c, edges in comp.values()])
        table.append(out)
    return table


def sample_graph_outcomes(n: int, lam: float, reps: int, rng) -> dict[tuple, int]:
    """Empirical law of {(size, excess)} components of G(n, p_lambda).

    For n <= 6 all 2^C(n,2) edge subsets are tabulated once and replicates
    reduce to a masked lookup; larger n falls back to per-replicate scans.
    """
    t = p_lambda(n, lam)
    m = n * (n - 1) // 2
    counts: dict[tuple, int] = {}
    if n <= 6:
        table = _component_table(n)
        bits = rng.random((reps, m)) <= t
        masks = bits @ (1 << np.arange(m, dtype=np.int64))
        for mask in masks:
            key = table[int(mask)]
            counts[key] = counts.get(key, 0) + 1
        return counts
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    from .graphs import UnionFind

    for _ in range(reps):
        keep = rng.random(m) <= t
        uf = UnionFind(n)
        for e in np.flatnonzero(keep):
            uf.union(*pairs[e])
        comp: dict[int, list[int]] = {}
        for v in range(n):
            comp.setdefault(uf.find(v), [0, 0])[0] += 1
        for e in np.flatnonzero(keep):
            comp[uf.find(pairs[e][0])][1] += 1
        key = _outcome_key([(c, k - c + 1) for c, k in comp.values()])
        counts[key] = counts.get(key, 0) + 1
    return counts
