"""Multiplicative coalescent in the critical window: walk and graph routes.

Percolation on the complete graph at p = 1/n + lambda/n^{4/3} is simulated
two ways.  The graph route samples edges directly and reads off component
sizes and excess; the walk route runs one exploration recursion that counts
new vertices and surplus together.  The recursion is a fixed point over the
positions of the hits in each row of a triangular array, solved with whole-
array reflections; the hits come either from a field of uniforms or, in
O(n) memory, from binomial row counts and uniform slot subsets.  The field
reordering extracted from a concrete weighted graph makes the two routes
agree realisation by realisation, not just in law.
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


def _frontier(n: int, x: np.ndarray) -> np.ndarray:
    """m(i) = (Z(i-1) - 1)_+ of walks on n vertices with new-vertex counts x.

    x[0] = 0 leads, then one block of n steps per walk.  Z is the Lindley
    walk Z(i) = X(i) + (Z(i-1) - 1)_+, so (Z - 1)_+ is the reflection Psi Y
    of Y = cumsum(X - 1) above its running minimum (Y(0) = 0 included),
    restarted in each block.  m is that reflection shifted one step, and
    Z = X + m.
    """
    c = np.cumsum(x[1:].reshape(-1, n) - 1, axis=1)
    m = np.zeros_like(c)
    m[:, 1:] = (c - np.minimum(np.minimum.accumulate(c, axis=1), 0))[:, :-1]
    return np.append(0, m)


def _explore(n: int, totals: np.ndarray, step: np.ndarray, pos: np.ndarray):
    """The exploration recursion: (Z, X, S) over steps 1..len(totals).

    Step i reads row i of a triangular array: totals[i - 1] = T(i) hits, and
    the hit j with step[j] = i sits at slot pos[j] of the row.  The first
    m(i) = (Z(i-1) - 1)_+ slots are held by the frontier, so S(i) counts the
    hits at slots below m(i), and X(i) = T(i) - S(i) vertices are new.  A
    batch of walks on n vertices is one flat walk: Z is 0 at the end of each
    block of n steps, and each block is reflected on its own.

    S(i) depends only on the steps before i, so S is the fixed point of
    S -> #{j : step_j = i, pos_j < m(i)} with m from X = T - S: from S = 0,
    each round settles at least one more step, and the first unchanged
    round is exact.  Returns Z, X and S with a leading 0 at step 0.
    """
    t = np.append(0, totals)
    s = np.zeros_like(t)
    while True:
        x = t - s
        m = _frontier(n, x)
        s_next = np.bincount(step[pos < m[step]], minlength=len(t))
        if np.array_equal(s_next, s):
            return x + m, x, s
        s = s_next


def _field_walk(params: CriticalWindowParams, field: UniformField):
    """The recursion on a uniform field: slot k of row i is U(i, k) <= p.

    S = 0 gives the largest frontier (Z is monotone in X), so only the band
    of each row under it can hold frontier hits; that band is read with one
    gather.
    """
    n, p = params.n, params.p
    if field.n != n:
        raise ValueError("field size does not match parameters")
    u = field.matrix
    totals = np.array([np.count_nonzero(u[i, i + 1 :] <= p) for i in range(1, n + 1)])
    width = np.minimum(_frontier(n, np.append(0, totals))[1:], np.arange(n - 1, -1, -1))
    step = np.repeat(np.arange(1, n + 1), width)
    pos = np.arange(len(step)) - np.repeat(np.cumsum(width) - width, width)
    hit = u[step, step + 1 + pos] <= p
    return _explore(n, totals, step[hit], pos[hit])


def _uniform_slots(totals: np.ndarray, widths: np.ndarray, rng):
    """Row k gets a uniform totals[k]-subset of its widths[k] slots.

    One uniform slot per hit, then repeats dropped by sort-and-diff (numpy
    2.4's hashing np.unique is slower) and the shortfall redrawn until every
    row has totals[k] distinct slots.  Returns (row, slot) of every hit,
    sorted by row, then slot.
    """
    rows = np.arange(len(totals))
    base = int(widths.max(initial=1))
    key = np.empty(0, dtype=np.int64)
    short = totals
    while short.any():
        row = np.repeat(rows, short)
        key = np.sort(np.concatenate([key, row * base + rng.integers(0, widths[row])]))
        key = key[np.diff(key, prepend=-1) != 0]
        short = totals - np.bincount(key // base, minlength=len(totals))
    return np.divmod(key, base)


def _sparse_walk(n: int, p: float, reps: int, rng):
    """`reps` field walks as one flat walk, without the field.

    Every T(i) ~ Bin(n - i, p) is drawn in one call, then the positions of
    the hits: row i is untouched by the steps before it, so given T(i) its
    hits fill a uniform T(i)-subset of its n - i slots, and S(i) is
    Hypergeometric(m, n - i - m, T(i)) as on the field.  Exact in law,
    O(n reps) memory.
    """
    widths = np.tile(np.arange(n - 1, -1, -1), reps)
    totals = rng.binomial(widths, p)
    row, slot = _uniform_slots(totals, widths, rng)
    return _explore(n, totals, row + 1, slot)


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
    """Sample one walk-route realisation: (size, surplus) per component,
    from the sparse hit positions of `_sparse_walk` (any n, O(n) memory)."""
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


def augmented_state(n: int, sizes, surpluses) -> AugmentedState:
    """Rescaled (mass, surplus) state from aligned component sizes and
    surpluses, ordered by decreasing size, then increasing surplus."""
    sizes, surpluses = np.asarray(sizes), np.asarray(surpluses)
    order = np.lexsort((surpluses, -sizes))
    return AugmentedState(MassVector(sizes[order] / n ** (2.0 / 3.0), norm="l2"), surpluses[order])


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
    rep, idx = _uniform_slots(rng.binomial(ne, p_max, size=reps), np.full(reps, ne), rng)
    u, v = _decode_edge_indices(idx)
    w = rng.random(len(idx)) * p_max
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
    binomial draw of the row counts, one uniform slot per hit (plus redraws
    of repeated slots), and a few whole-array rounds of the fixed point.
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
