"""Multiplicative coalescent in the critical window: walk and graph routes.

Percolation on the complete graph at p = 1/n + lambda/n^{4/3} is simulated
two ways.  The graph route samples edges directly and reads off component
sizes and excess; the walk route runs one exploration recursion that counts
new vertices and surplus together, fed either by a triangular field of
uniforms or, in O(n) memory, by binomial and hypergeometric draws of the
same counts.  The field reordering extracted from a concrete weighted graph
makes the two routes agree realisation by realisation, not just in law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import ProperlyWeightedGraph, PrimOrdering
from .oracles import row_counts
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


def _explore(n: int, totals: np.ndarray, split):
    """The exploration recursion: (Z, X, S) over steps 1..len(totals).

    Step i of a walk on n vertices reads row i of a triangular array:
    T(i) hits among its n - i later slots, the first m = (Z(i-1) - 1)_+ of
    which are held by the frontier.  split(i, m, t) gives S(i), the hits
    among those m (called only when t > 0 and m > 0); X(i) = T(i) - S(i)
    vertices are new.  Steps run in blocks of n, and Z is 0 at the end of
    every block, so a batch of walks is one flat walk: flat step k + 1 is
    step i = k mod n + 1 of its block and reads totals[k].  Returns Z, X and
    S with a leading 0 at step 0.
    """
    zs, ss = [0], [0]
    z = 0
    for k, t in enumerate(totals.tolist()):
        m = z - 1 if z > 1 else 0
        s = int(split(k % n + 1, m, t)) if t and m else 0
        z += t - s - (z > 0)
        zs.append(z)
        ss.append(s)
    s = np.array(ss, dtype=np.int64)
    return np.array(zs, dtype=np.int64), np.append(0, totals) - s, s


def _field_walk(params: CriticalWindowParams, field: UniformField):
    """The recursion on a uniform field: slot k of row i is U(i, k) <= p."""
    n, p = params.n, params.p
    if field.n != n:
        raise ValueError("field size does not match parameters")
    u = field.matrix
    totals = np.array([np.count_nonzero(u[i, i + 1 :] <= p) for i in range(1, n + 1)])
    return _explore(n, totals, lambda i, m, t: np.count_nonzero(u[i, i + 1 : i + m + 1] <= p))


def _sparse_walk(n: int, p: float, reps: int, rng):
    """`reps` field walks as one flat walk, without the field.

    Every T(i) ~ Bin(n - i, p) is drawn in one call, and S(i) is
    hypergeometric: row i is untouched by the steps before it, so given T(i)
    its hits fill a uniform T(i)-subset of its n - i slots.  Exact in law,
    O(n reps) memory.
    """
    totals = rng.binomial(np.tile(np.arange(n - 1, -1, -1), reps), p)
    return _explore(n, totals, lambda i, m, t: rng.hypergeometric(m, n - i - m, t))


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
    z, x, _ = _field_walk(params, field)
    y = LatticePath(np.concatenate([[0], np.cumsum(x[1:] - 1)]))
    if not np.array_equal(np.maximum(z - 1, 0), psi(y).values):
        raise AssertionError("Psi Y must equal max(Z - 1, 0) pointwise")
    if (np.diff(z) < -1).any():
        raise AssertionError("Z steps must be >= -1")
    ladder = excursions_above_min(y, DEFAULT_CONVENTION)
    z_zeros = np.flatnonzero(z == 0)
    z_intervals = tuple(zip(z_zeros[:-1].tolist(), z_zeros[1:].tolist()))
    if ladder.intervals != z_intervals:
        raise AssertionError("ladder intervals of Y must match zero gaps of Z")
    return LatticePath(np.append(z, 0)), y


def surplus_field(params: CriticalWindowParams, z: LatticePath, field: UniformField) -> np.ndarray:
    """Per-step surplus S(i): field entries <= p among the skipped frontier slots.

    S(i) counts k with U(i, k) <= p and i < k <= i + (Z(i-1) - 1)_+; summing
    S over a component's interval gives that component's surplus (its number
    of independent cycles).  z must be this field's walk at p.
    """
    zf, _, s = _field_walk(params, field)
    if not np.array_equal(z.values[: params.n + 1], zf):
        raise ValueError("z is not the walk of this field at p")
    return s


def component_surpluses(z: LatticePath, s: np.ndarray) -> list[tuple[int, int]]:
    """(size, surplus) per component in exploration order."""
    sizes = walk_component_sizes(z)
    starts = np.cumsum([0] + sizes[:-1])
    return list(zip(sizes, np.add.reduceat(s[1:], starts).tolist()))


def walk_route(params: CriticalWindowParams, rng) -> list[tuple[int, int]]:
    """Sample one walk-route realisation: (size, surplus) per component."""
    z, _, s = _sparse_walk(params.n, params.p, 1, rng)
    return component_surpluses(LatticePath(np.append(z, 0)), s)


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


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of non-negative keys by sort-and-diff (numpy 2.4 hashes, slower)."""
    s = np.sort(keys)
    return s[np.diff(s, prepend=-1) != 0]


def sample_edge_weights(n: int, p_max: float, rng, reps: int = 1):
    """Edges of `reps` copies of G(n, p_max) with i.i.d. uniform(0, p_max] marks.

    Copy r sits on the 0-based vertices r n .. r n + n - 1.  Returns endpoint
    arrays (u, v) and weights, grouped by copy and sorted increasingly in
    each; the level set {w <= p} is exactly G(n, p) for any p <= p_max,
    coupled monotonically across p.  Memory stays O(#edges), never O(n^2).
    """
    if not (0.0 < p_max <= 1.0):
        raise ValueError("p_max must lie in (0, 1]")
    ne = n * (n - 1) // 2
    base = np.arange(reps, dtype=np.int64) * ne
    m = rng.binomial(ne, p_max, size=reps)
    # distinct keys rep * ne + edge index; redraw each copy's collisions
    # until it has m distinct edges
    key = _sorted_distinct(np.repeat(base, m) + rng.integers(0, ne, size=m.sum()))
    short = m - np.bincount(key // ne, minlength=reps)
    while short.any():
        extra = np.repeat(base, short) + rng.integers(0, ne, size=short.sum())
        key = _sorted_distinct(np.concatenate([key, extra]))
        short = m - np.bincount(key // ne, minlength=reps)
    rep, idx = np.divmod(key, ne)
    u, v = _decode_edge_indices(idx)
    w = rng.random(len(key)) * p_max
    order = np.lexsort((w, rep))
    offset = rep[order] * n
    return u[order] + offset, v[order] + offset, w[order]


def graph_route(n: int, lambdas, rng, p_max: float | None = None, reps: int | None = None):
    """Component sizes and excesses of G(n, p_lambda) on a coupled grid.

    One edge-weight realisation serves every lambda in `lambdas` (monotone
    coupling: the level graphs are nested).  For each lambda returns
    (sizes, excess) with sizes sorted non-increasing and excess = edges -
    size + 1 aligned to it; ties in size break by component discovery id so
    reruns are deterministic.

    With `reps` given, `reps` independent realisations run as one
    block-diagonal graph and each lambda gives (rep, sizes, excess) over
    the components of all of them, grouped by increasing rep and ordered as
    above within each.  reps=None is the batch of one with rep dropped.
    """
    ps = [p_lambda(n, lam) for lam in lambdas]
    if p_max is None:
        p_max = max(ps)
    batch = 1 if reps is None else reps
    u, v, w = sample_edge_weights(n, p_max, rng, batch)
    vertex_rep = np.arange(batch * n) // n
    out = []
    for p in ps:
        keep = w <= p
        ku, kv = u[keep], v[keep]
        adj = coo_matrix(
            (np.ones(len(ku), dtype=np.int8), (ku, kv)), shape=(batch * n, batch * n)
        )
        ncomp, labels = connected_components(adj, directed=False)
        sizes = np.bincount(labels, minlength=ncomp)
        excess = np.bincount(labels[ku], minlength=ncomp) - sizes + 1
        # labels are discovery ids: they follow each component's lowest vertex
        rep = np.empty(ncomp, dtype=np.int64)
        rep[labels] = vertex_rep
        order = np.lexsort((np.arange(ncomp), -sizes, rep))
        found = (rep[order], sizes[order], excess[order])
        out.append(found[1:] if reps is None else found)
    return out


def replicate_rows(rep: np.ndarray, values: np.ndarray, reps: int, width: int) -> np.ndarray:
    """Rows (reps, width, ...) holding replicate r's values, grouped by
    increasing rep, in order from rows[r, 0]; the rest is 0."""
    pos = np.arange(len(rep)) - np.searchsorted(rep, rep)
    rows = np.zeros((reps, width) + values.shape[1:], dtype=values.dtype)
    rows[rep, pos] = values
    return rows


def sparse_z_trace(n: int, lam: float, rng) -> np.ndarray:
    """Walk-route Z(0..n+1) without materialising the uniform field.

    The sparse recursion of `_sparse_walk`: O(n) memory, one vectorised
    binomial draw, and a hypergeometric draw for each step that has both
    hits and skipped slots.
    """
    z, _, _ = _sparse_walk(n, p_lambda(n, lam), 1, rng)
    return np.append(z, 0)


# ---------------------------------------------------------------------------
# Small-n replicate samplers (outcome distributions for two-sample tests)


def _outcome_counts(rep, sizes, extra, reps: int, n: int) -> dict[tuple, int]:
    """Count dict of the per-replicate multisets {(size, extra)}.

    Components come as flat arrays grouped by increasing rep.  A key lists
    a replicate's pairs by decreasing size, then extra, as the flat tuple
    (size_1, extra_1, size_2, extra_2, ...) padded with zeros to length 2n.
    """
    order = np.lexsort((extra, -sizes, rep))
    pairs = np.stack([sizes[order], extra[order]], axis=1)
    return row_counts(replicate_rows(rep[order], pairs, reps, n).reshape(reps, 2 * n))


def sample_walk_outcomes(n: int, lam: float, reps: int, rng) -> dict[tuple, int]:
    """Empirical law of the multiset {(size, surplus)} under the walk route,
    keyed as in _outcome_counts, from one flat batch of sparse walks."""
    z, _, s = _sparse_walk(n, p_lambda(n, lam), reps, rng)
    # step k belongs to the component opened at the last zero of Z before it
    opens = z[:-1] == 0
    comp = np.cumsum(opens) - 1
    sizes = np.bincount(comp)
    surplus = np.bincount(comp, weights=s[1:]).astype(np.int64)
    return _outcome_counts(np.flatnonzero(opens) // n, sizes, surplus, reps, n)


def sample_graph_outcomes(n: int, lam: float, reps: int, rng) -> dict[tuple, int]:
    """Empirical law of the multiset {(size, excess)} of the components of
    G(n, p_lambda), keyed as in _outcome_counts, from the batched graph route."""
    rep, sizes, excess = graph_route(n, [lam], rng, reps=reps)[0]
    return _outcome_counts(rep, sizes, excess, reps, n)
