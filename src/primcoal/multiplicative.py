"""Multiplicative coalescent in the critical window: walk and graph routes.

Percolation on the complete graph at p = 1/n + lambda/n^{4/3} is simulated
two ways.  The graph route samples edges directly and reads off component
sizes and excess; the walk route runs one exploration recursion that counts
new vertices and surplus together.  The recursion is a fixed point over the
positions of the hits in each row of a triangular array, solved with whole-
array reflections.  A field is held as its hits below some p_max, each with
a uniform mark, drawn as the graph route draws its edges, so one O(n) draw
couples the walks at every p <= p_max, as the dense field of uniforms does.
The field reordering extracted from a concrete weighted graph is such a
field, with p_max = 1 and the edge weights as marks; it makes the two
routes agree realisation by realisation, not just in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ProperlyWeightedGraph, PrimOrdering, _check_ordering, _interval_blocks, _weight_matrix
from .states import AugmentedState, MassVector, _check_reps
from .walks import LatticePath, excursions_above_min, psi


def p_lambda(n: int, lam: float) -> float:
    """Critical-window edge probability 1/n + lambda/n^{4/3}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got n = {n}")
    p = 1.0 / n + lam / n ** (4.0 / 3.0)
    # tolerate pure floating-point spill at the endpoints
    if -1e-9 < p < 1.0 + 1e-9:
        return min(max(p, 0.0), 1.0)
    raise ValueError(f"p_lambda(n={n}, lam={lam}) = {p} outside [0, 1]")


@dataclass(frozen=True)
class CriticalWindowParams:
    n: int
    lam: float

    @property
    def p(self) -> float:
        return p_lambda(self.n, self.lam)


def reorder_field_from_graph(g: ProperlyWeightedGraph, ordering: PrimOrdering) -> SparseField:
    """Rebuild the exploration field U*(i, .) from a complete weighted graph.

    Row i lists the weights from the i-th Prim vertex to the later vertices,
    ordered by when those vertices first entered the frontier of the first
    i - 1 Prim vertices (row 1 is in plain Prim-rank order).  Every entry is
    a hit of a p_max = 1 field, marked with its weight.  Running the walk
    recursion on this field reproduces, vertex for vertex, the exploration
    of the level graph of g, so surplus and excess can be compared on a
    single realisation.

    In rank coordinates, row i >= 2 sorts the ranks k >= i by the key
    min over j < i of w(j, k).  The running minima of the weight matrix's
    rows 1..n - 1 are written into an n x (n + 1) buffer of the rows
    i = 2..n + 1, +inf at the explored places k < i (row n + 1 is all
    +inf).  Read with a row pitch of n + 2 from place 2 of its first row,
    the buffer holds row i's keys for k = i..n left-aligned, with +inf
    padding after them: a plain reshape and slice, nothing copied.  Two
    ranks take their minima over different edges, and the weights are
    finite and distinct, so every key a row keeps is finite and distinct:
    any sort kind gives the same permutation, and numpy's default one is
    used.  Row 1, whose keys would all be +inf, is not sorted: it is in rank
    order.  Each (n + 1)^2 array is dropped once used, so no more than three
    are ever alive.
    """
    n = g.n
    if g.m != n * (n - 1) // 2:
        raise ValueError("field reordering requires a complete graph")
    _check_ordering(g, ordering)
    rank = ordering.rank
    wr = _weight_matrix(n, rank[g.u], rank[g.v], g.w)
    keys = np.empty((n, n + 1))  # row r is row i = r + 2
    np.minimum.accumulate(wr[1:n], axis=0, out=keys[:n - 1])
    keys[np.tri(n, n + 1, k=1, dtype=bool)] = np.inf
    # place q of row i (i = 2..n) is rank i + q
    order = np.argsort(keys.ravel()[2:].reshape(n - 1, n + 2)[:, :n + 1], axis=1)
    del keys
    if (order[:, 0] != 0).any():
        raise AssertionError("first frontier entrant must be the next Prim vertex")
    # row i's weight to rank i + q sits at flat i (n + 2) + q of wr; row 1
    # is in rank order, and row i >= 2 keeps places 1..n - i (place 0, its
    # own rank, is compared as n + 1 so that no row keeps it)
    order += (np.arange(2, n + 1) * (n + 2))[:, None]
    place = np.arange(n + 1)
    place[0] = n + 1
    kept = np.greater_equal.outer(np.arange(n - 2, -1, -1), place)
    mark = np.empty(n * (n - 1) // 2)
    mark[:n - 1] = wr[1, 2:]
    np.take(wr.ravel(), order[kept], out=mark[n - 1:], mode="clip")  # mode "raise" would copy out first
    del wr, order, kept
    # int32 positions built by repeats, not from index arrays of every entry:
    # the field takes the dense matrix's 16 bytes per entry, and no more
    widths = np.arange(n - 1, 0, -1)
    step = np.repeat(np.arange(1, n, dtype=np.int32), widths)
    slot = np.arange(len(step), dtype=np.int32)
    slot -= np.repeat((np.cumsum(widths) - widths).astype(np.int32), widths)
    return SparseField(n, 1, 1.0, step, slot, mark)


def _frontier(n: int, x: np.ndarray, m: np.ndarray) -> None:
    """Write into the caller's m, of x's length, m(i) = (Z(i-1) - 1)_+ of
    walks on n vertices with new-vertex counts x.

    x[0] = 0 leads, then one block of n steps per walk.  Z is the Lindley
    walk Z(i) = X(i) + (Z(i-1) - 1)_+, so (Z - 1)_+ is the reflection Psi Y
    of Y = cumsum(X - 1) above its running minimum (Y(0) = 0 included),
    restarted in each block.  m is that reflection shifted one step, and
    Z = X + m.  m is written once and reflected in place: the running
    minimum is the only other array of its size.
    """
    m[0] = 0
    y = m[1:].reshape(-1, n)
    # row b is walk b's Y(0..n-1); reflected, it is m at that walk's steps 1..n
    y[:, 0] = 0
    np.subtract(x[1:].reshape(-1, n)[:, :-1], 1, out=y[:, 1:])
    np.cumsum(y, axis=1, out=y)
    y -= np.minimum.accumulate(y, axis=1)


def _explore(n: int, counts: np.ndarray, step: np.ndarray, pos: np.ndarray):
    """The exploration recursion: (Z, X, S) over steps 1..len(counts) - 1.

    Step i reads row i of a triangular array: counts[i] = T(i) hits, after
    counts[0] = 0 for step 0, and the hit j with step[j] = i sits at slot
    pos[j] of the row.  The first m(i) = (Z(i-1) - 1)_+ slots are held by
    the frontier, so S(i) counts the hits at slots below m(i), and X(i) =
    T(i) - S(i) vertices are new.  A batch of walks on n vertices is one
    flat walk: Z is 0 at the end of each block of n steps, and each block is
    reflected on its own.

    S(i) depends only on the steps before i, so S is the fixed point of
    S -> #{j : step_j = i, pos_j < m(i)} with m from X = T - S: from S = 0,
    each round settles at least one more step, and the first unchanged
    round is exact.  A row's hits sit at distinct slots, so S(i) fixes which
    of them the frontier holds: each round keeps only the steps of the held
    hits, few near p = 1/n, in field order, and stops when that list is
    unchanged.  X moves by those hits each round, and S = T - X is made
    once, at the end.  Returns Z, X and S with a leading 0 at step 0, in new arrays of counts'
    dtype; counts is only read.  Each round rewrites the same x and m, and
    Z is made in m's place.
    """
    x, m = counts.copy(), np.empty_like(counts)
    held = step[:0]
    while True:
        _frontier(n, x, m)
        now = step[pos < m[step]]
        if np.array_equal(now, held):
            m += x
            return m, x, counts - x
        np.add.at(x, held, 1)
        np.subtract.at(x, now, 1)
        held = now


def _triangle_cells(n: int, p_max: float, rng, reps: int):
    """(rep, cell) of the hits, sorted, of `reps` triangles of n(n-1)/2
    cells, each hit with probability p_max independently.

    The triangles are one run of Bernoulli(p_max) cells end to end, so the
    gaps between hits are i.i.d. Geometric(p_max), ceil(E / -log(1 - p_max))
    for E standard exponential, and their running sums are the hits,
    distinct and sorted as drawn.  Gaps clip to [1, total + 1], so none is
    0 and an oversized one leaves the run; they come in blocks of the
    expected count plus about 4 sd, until the run is passed.  reps < 1 is
    refused before any draw.
    """
    _check_reps(reps)
    if not 0.0 <= p_max <= 1.0:
        raise ValueError(f"p_max = {p_max} outside [0, 1]")
    ne = n * (n - 1) // 2
    total = reps * ne
    block = int(total * p_max + 4.0 * math.sqrt(total * p_max * (1.0 - p_max))) + 16
    hits, last = [np.empty(0, dtype=np.int64)], -1
    # -log1p(-1) is inf, and E over a tiny scale overflows to inf: both clip
    with np.errstate(divide="ignore", over="ignore"):
        scale = -np.log1p(-p_max)
        while p_max > 0.0 and last < total - 1:
            # clip(ceil(E / scale)) in place: one float array a block
            gap = rng.standard_exponential(block)
            gap /= scale
            np.ceil(gap, out=gap)
            np.clip(gap, 1, total + 1, out=gap)
            hits.append(np.cumsum(gap.astype(np.int64)))
            hits[-1] += last
            last = hits[-1][-1]
    cell = np.concatenate(hits)
    del hits  # the blocks, before the cut makes two more arrays of the hits
    # replicate r holds the cells r ne .. (r + 1) ne - 1; the rest is past the run
    cut = np.searchsorted(cell, np.arange(reps + 1) * ne)
    rep = np.repeat(np.arange(reps), np.diff(cut))
    cell = cell[: cut[-1]]
    cell -= rep * ne
    return rep, cell


def check_walk_size(n: int, reps: int = 1) -> None:
    """Refuse a flat walk of `reps` blocks of n steps whose n reps + 1
    positions do not fit the int32 that SparseField holds them in."""
    top = int(np.iinfo(np.int32).max)
    if n * reps + 1 > top:
        raise ValueError(f"a walk of n reps + 1 = {n * reps + 1} positions does not fit int32 (at most {top})")


@dataclass(frozen=True, eq=False)
class SparseField:
    """A field held as its hits: the entries <= p_max of `reps` triangular
    arrays on n vertices, laid end to end as one flat array of n reps rows.

    Hit j sits in row step[j] (1-based; row i of replicate r is r n + i), at
    slot slot[j] of that row's n - i slots, and carries the field's uniform
    mark[j] in (0, p_max].  The hits with mark <= p are the field at p, so
    one field couples the walks at every p <= p_max.  Both constructors
    give int32 positions.  The field holds read-only views of the arrays it
    is given, so its walks may read them uncopied; the caller's arrays stay
    writeable.
    """

    n: int
    reps: int
    p_max: float
    step: np.ndarray
    slot: np.ndarray
    mark: np.ndarray

    def __post_init__(self):
        for name in ("step", "slot", "mark"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def sample(cls, n: int, p_max: float, rng, reps: int = 1) -> "SparseField":
        """Each entry is a hit with probability p_max, independently, as on
        the dense field: the cells of sample_edge_weights, cell c read as the
        edge (u, v) = _decode_edge_indices(n(n-1)/2 - 1 - c) at row n - u, slot
        u - 1 - v, so rows, then slots, rise with c.  Then one uniform mark
        per hit.  Exact in law up to double rounding, in the geometric skips
        as in the marks; O(n reps) memory near p = 1/n.  A walk too long for
        int32 positions is refused before any draw."""
        check_walk_size(n, reps)
        rep, cell = _triangle_cells(n, p_max, rng, reps)
        np.subtract(n * (n - 1) // 2 - 1, cell, out=cell)
        u, v = _decode_edge_indices(cell)
        del cell
        # rep n + n - u and u - 1 - v in place of rep and u, then int32; each
        # int64 array goes before the marks are drawn
        rep *= n
        rep += n
        rep -= u
        u -= 1
        u -= v
        step, slot = rep.astype(np.int32), u.astype(np.int32)
        del rep, u, v
        mark = rng.random(len(step))
        np.subtract(1.0, mark, out=mark)
        mark *= p_max
        return cls(n, reps, p_max, step, slot, mark)

    def walk(self, p: float):
        """(Z, X, S) of the flat walk at p <= p_max, as `_explore` returns
        them, in int32.  At p = p_max every hit is kept, and the field's own
        arrays are walked."""
        if not p <= self.p_max:
            raise ValueError(f"p = {p} above the field's p_max = {self.p_max}")
        step, slot = self.step, self.slot
        if p < self.p_max:
            keep = self.mark <= p
            step, slot = step[keep], slot[keep]
        # steps are 1-based, so the count at step 0 is the leading 0
        counts = np.bincount(step, minlength=self.n * self.reps + 1).astype(np.int32)
        return _explore(self.n, counts, step, slot)


def _check_field(params: CriticalWindowParams, field: SparseField) -> None:
    if field.n != params.n:
        raise ValueError("field size does not match parameters")
    if field.reps != 1:
        raise ValueError(f"a single field is needed, got a batch of {field.reps}")


def z_walk(params: CriticalWindowParams, field: SparseField):
    """Walk-route exploration on a single field (reps = 1) at params.p.

    Returns (z, y): the neighbourhood-size walk Z(0..n), the int array of
    field.walk(p), and the drifting walk Y(0..n) with increments X(i) - 1.
    Two exact identities are asserted on every call: Psi Y = max(Z - 1, 0)
    pointwise, and the one-unit-drop ladder intervals of Y coincide with
    the intervals between zeros of Z (so Y and Z carry the same component
    structure).  Note that Z itself is one above Psi Y strictly inside
    components: Y loses only its drift unit at a restart while Z also picks
    up the restart vertex.  Every step of Z is >= -1, also checked.
    """
    _check_field(params, field)
    z, x, _ = field.walk(params.p)
    y = LatticePath(np.concatenate([[0], np.cumsum(x[1:] - 1)]))
    if not np.array_equal(np.maximum(z - 1, 0), psi(y).values):
        raise AssertionError("Psi Y must equal max(Z - 1, 0) pointwise")
    if (np.diff(z) < -1).any():
        raise AssertionError("Z steps must be >= -1")
    z_zeros = np.flatnonzero(z == 0)
    if not np.array_equal(excursions_above_min(y), (z_zeros[:-1], z_zeros[1:])):
        raise AssertionError("ladder intervals of Y must match zero gaps of Z")
    return z, y


def surplus_field(params: CriticalWindowParams, z: np.ndarray, field: SparseField) -> np.ndarray:
    """Per-step surplus S(i): field entries <= p among the skipped frontier slots.

    S(i) counts k with U(i, k) <= p and i < k <= i + (Z(i-1) - 1)_+; summing
    S over a component's interval gives that component's surplus (its number
    of independent cycles).  S is the field's walk at p, and z must be that
    walk's Z(0..n), as z_walk returns it; any other z is refused.
    """
    _check_field(params, field)
    walk_z, _, s = field.walk(params.p)
    if not np.array_equal(z, walk_z):
        raise ValueError("z is not the walk of this field at p")
    return s


def component_surpluses(z: np.ndarray, s: np.ndarray) -> list[tuple[int, int]]:
    """(size, surplus) per component in exploration order, from z_walk's
    Z(0..n) and surplus_field's S.  Step k + 1 opens a component where
    Z(k) = 0."""
    _, sizes, surplus = _interval_blocks(z[:-1] == 0, s[1:])
    return list(zip(sizes.tolist(), surplus.tolist()))


def _radix_order(key: np.ndarray) -> np.ndarray:
    """np.argsort(key, kind="stable") of a non-negative integer key, as LSD
    passes over its 16-bit digits: numpy's stable sort of uint16 is an O(N)
    radix sort, so a key below 2**16 costs one pass."""
    top = int(key.max()) if len(key) else 0
    # casting to uint16 keeps a digit's low 16 bits
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _level(rep, sizes, extra):
    """One lambda's components in the routes' schema (rep, sizes, extra):
    grouped by increasing rep, by decreasing size within a rep, ties kept
    in the given order.

    The order is that of np.lexsort((-sizes, rep)), made by _radix_order on
    the one key rep (top + 1) + top - size with top the largest size: one
    radix pass while reps (top + 1) < 2**16, more only past that.
    """
    top = int(sizes.max(initial=0))
    order = _radix_order(rep * (top + 1) + (top - sizes))
    return rep[order], sizes[order], extra[order]


def _grid_levels(n: int, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """The distinct levels p_lambda over `lambdas`, increasing, and each
    lambda's index among them; an empty grid is refused before any draw."""
    ps = [p_lambda(n, lam) for lam in lambdas]
    if not ps:
        raise ValueError("lambdas is empty: a route needs at least one lambda")
    return np.unique(ps, return_inverse=True)


def walk_route(n: int, lambdas, rng, reps: int = 1):
    """Component sizes and surpluses of the walk route on a coupled grid.

    One sparse field at the largest p_lambda serves every lambda in
    `lambdas`, and each lambda gives (rep, sizes, surplus) over `reps`
    independent walks, in graph_route's order; ties in size keep
    exploration order.  The field is walked once at each distinct level,
    in increasing p, and equal lambdas share their result.  As in
    graph_route, only the components with more than one vertex are ordered
    (_level); the singletons, size 1 and surplus 0, go last in their rep,
    placed by position (_singletons_last).  Any n, O(n reps) memory.
    """
    levels, back = _grid_levels(n, lambdas)
    field = SparseField.sample(n, float(levels[-1]), rng, reps)
    found = []
    for p in levels:
        z, _, s = field.walk(p)
        # step k + 1 opens a component where Z(k) = 0
        opened, sizes, surplus = _interval_blocks(z[:-1] == 0, s[1:])
        big = sizes > 1
        level = _level(opened[big] // n, sizes[big], surplus[big].astype(np.int64))
        found.append(_singletons_last(n, reps, *level))
    return [found[k] for k in back]


def gamma_times(n: int, sizes) -> MassVector:
    """Component sizes rescaled by n^{2/3}, sorted, under the l2 norm."""
    return MassVector(np.asarray(sizes, dtype=float) / n ** (2.0 / 3.0))


def augmented_state(n: int, sizes, surpluses) -> AugmentedState:
    """Rescaled (mass, surplus) state from aligned component sizes and
    surpluses, ordered by decreasing size, then increasing surplus."""
    sizes, surpluses = np.asarray(sizes), np.asarray(surpluses)
    order = np.lexsort((surpluses, -sizes))
    return AugmentedState(MassVector(sizes[order] / n ** (2.0 / 3.0)), surpluses[order])


# ---------------------------------------------------------------------------
# Sparse graph route


def _decode_edge_indices(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices into the strict lower triangle to 0-based (u, v).

    Index idx enumerates pairs (u, v) with 0 <= v < u by rows: pair (u, v)
    has index u(u-1)/2 + v.  Inverts the quadratic with a float sqrt, then
    mends the root, off by at most one at large n, where v falls outside
    [0, u): one triangular number, not one per correction.
    """
    # (1 + sqrt(1 + 8 idx)) / 2, each operation in place and in that order
    root = 8.0 * idx
    root += 1.0
    np.sqrt(root, out=root)
    root += 1.0
    root /= 2.0
    u = root.astype(np.int64)
    del root
    v = u - 1
    v *= u
    v >>= 1
    np.subtract(idx, v, out=v)
    over = np.flatnonzero(v < 0)
    u[over] -= 1
    v[over] += u[over]
    under = np.flatnonzero(v >= u)
    v[under] -= u[under]
    u[under] += 1
    return u, v


def sample_edge_weights(n: int, p_max: float, rng, reps: int = 1):
    """Edges of `reps` copies of G(n, p_max) with i.i.d. uniform [0, p_max) marks.

    Copy r sits on the 0-based vertices r n .. r n + n - 1.  Returns endpoint
    arrays (u, v) with u > v, sorted by u, then v (so grouped by copy), and
    the weights aligned to them; the level set {w <= p} is G(n, p) for any
    p <= p_max, coupled monotonically across p.  The edges come from
    geometric skips over the pairs, exact in law up to double rounding, as
    the weights are.  Memory stays O(#edges), never O(n^2).
    """
    rep, idx = _triangle_cells(n, p_max, rng, reps)
    u, v = _decode_edge_indices(idx)
    offset = rep * n
    return u + offset, v + offset, rng.random(len(idx)) * p_max


def _flatten(r: np.ndarray, h: np.ndarray) -> None:
    """Pointer-jump the vertices h of the forest r until each points at a
    root, in place; a chain from h must pass only through h and roots."""
    while len(h):
        p = r[h]
        q = r[p]
        up = np.flatnonzero(q != p)
        h = h[up]
        r[h] = q[up]


def _roots(r: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The roots (lo, hi), lo < hi, of the edges (a, b) of the forest r
    whose ends lie in two trees; r must be flat on a and b."""
    a, b = r[a], r[b]
    live = np.flatnonzero(a != b)
    a, b = a[live], b[live]
    return np.minimum(a, b), np.maximum(a, b)


def _merge(r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Union the edges between the roots lo < hi into the flat forest r, in
    place, and leave r flat: every r[x] is the root of x.

    Every r[x] <= x, so a root is its tree's lowest vertex.  Each round
    hooks every hi under the least of its lo and flattens the hooked roots,
    so the edges can move to their new roots; the edges whose ends then
    share a root leave.  A root hooked in one round points at a root of
    that round, which is final or was hooked later, so one jump per round,
    last round first, brings every hooked root to its final root, and one
    more brings every vertex.
    """
    hooked = []
    while len(hi):
        np.minimum.at(r, hi, lo)
        _flatten(r, hi)
        hooked.append(hi)
        lo, hi = _roots(r, lo, hi)
    for h in reversed(hooked):
        r[h] = r[r[h]]
    r[:] = r[r]


def _singletons_last(n: int, reps: int, rep, sizes, extra):
    """Complete a level (rep, sizes, extra) of the components with more
    than one vertex of `reps` graphs on n vertices with their singletons:
    size 1 and extra 0, after the other components of their rep.  A
    singleton carries nothing of its own, so a rep's singletons are only
    counted, as n less the vertices of its other components; they are
    placed by position and never sorted."""
    if reps == 1:  # a concatenation: no index arrays, and no scatter
        k = n - int(sizes.sum())
        return (
            np.zeros(len(rep) + k, rep.dtype),
            np.concatenate([sizes, np.ones(k, sizes.dtype)]),
            np.concatenate([extra, np.zeros(k, extra.dtype)]),
        )
    ones = n - np.bincount(rep, weights=sizes, minlength=reps).astype(np.int64)
    # a component moves down by the singletons of the reps before its own
    at = np.arange(len(rep)) + (np.cumsum(ones) - ones)[rep]
    total = len(rep) + int(ones.sum())
    out = (
        np.repeat(np.arange(reps), np.bincount(rep, minlength=reps) + ones),
        np.ones(total, sizes.dtype),
        np.zeros(total, extra.dtype),
    )
    out[1][at] = sizes
    out[2][at] = extra
    return out


def _level_forests(n: int, levels, rng, reps: int):
    """For each of the distinct levels p, in increasing order, the flat
    union-find forest r of `reps` copies of G(n, p) on one coupled draw,
    and the lower ends u of the edges kept so far.

    The edges are drawn once, up to the highest level, and each is merged
    once, at the first level that keeps it, into one forest whose roots are
    their components' lowest vertices.  The edges are put in order of the
    index of their first level by a stable radix sort (_radix_order), so
    each level keeps the sampler's (u, v) order (one level needs no sort).
    The forest is flat: every r[x] is the root of x's component.  It is the
    generator's own, and the next level merges into it in place, so a
    reader takes what it needs before asking for the next level.
    """
    u, v, w = sample_edge_weights(n, max(levels), rng, reps)
    stops = [len(w)]  # one level keeps every edge, in the sampler's order
    if len(levels) > 1:
        # edges grouped by the first level that keeps them
        first = np.searchsorted(levels, w)
        by_level = _radix_order(first)
        u, v = u[by_level], v[by_level]
        stops = np.cumsum(np.bincount(first, minlength=len(levels)))
    r = np.arange(reps * n)
    start = 0
    for stop in stops:
        a, b = u[start:stop], v[start:stop]
        # until an edge is merged every vertex is its own root, and u > v
        _merge(r, *(_roots(r, a, b) if start else (b, a)))
        yield r, u[:stop]
        start = stop


def _read_level(n: int, reps: int, r: np.ndarray, kept: np.ndarray):
    """One level (rep, sizes, excess) of the flat forest r of `reps` graphs
    on n vertices, whose kept edges have lower ends `kept`.

    One count of the vertices under each root gives the sizes: the roots are
    the vertices of nonzero count.  Only the components with more than one
    vertex gather their excess and are ordered, by rep, then decreasing
    size, as _level makes them, so size ties keep root order.  The
    singletons, size 1 and excess 0, go last in their rep, placed by
    position (_singletons_last), never sorted.
    """
    size = np.bincount(r, minlength=len(r))
    big = np.flatnonzero(size > 1)
    sizes = size[big]
    excess = np.bincount(r[kept], minlength=len(r))[big] - sizes + 1
    return _singletons_last(n, reps, *_level(big // n, sizes, excess))


def graph_route(n: int, lambdas, rng, reps: int = 1):
    """Component sizes and excesses of G(n, p_lambda) on a coupled grid.

    `reps` independent edge-weight realisations run as one block-diagonal
    graph, and each serves every lambda in `lambdas` (monotone coupling:
    the level graphs are nested).  For each lambda returns (rep, sizes,
    excess) over the components of all of them, grouped by increasing rep,
    with sizes sorted non-increasing within a rep and excess = edges - size
    + 1 aligned to it; ties in size break by the component's lowest vertex,
    so reruns are deterministic.

    Each distinct level is a union-find forest (_level_forests), visited in
    increasing p, and read by one readout (_read_level); equal lambdas share
    their result.  This union-find is the route's own: it never reads the
    walk route's intervals, so each route checks the other.
    """
    levels, back = _grid_levels(n, lambdas)
    found = [_read_level(n, reps, r, kept) for r, kept in _level_forests(n, levels, rng, reps)]
    return [found[k] for k in back]


def largest_component(n: int, lam: float, rng) -> int:
    """Size of the largest component of G(n, p_lambda): graph_route(n, [lam],
    rng)[0][1][0], from the same draws, with rng left in the same state.

    The one level's forest is read by one count of the vertices under each
    root; no other component is built.
    """
    ((r, _),) = _level_forests(n, [p_lambda(n, lam)], rng, 1)
    return int(np.bincount(r).max())


def replicate_rows(rep: np.ndarray, values: np.ndarray, reps: int, width: int) -> np.ndarray:
    """Rows (reps, width, ...) holding replicate r's values, grouped by
    increasing rep, in order from rows[r, 0]; the rest is 0."""
    pos = np.arange(len(rep)) - np.searchsorted(rep, rep)
    rows = np.zeros((reps, width) + values.shape[1:], dtype=values.dtype)
    rows[rep, pos] = values
    return rows


def sparse_z_trace(n: int, lam: float, rng) -> np.ndarray:
    """Walk-route Z(0..n) of a sparse field at p_lambda: O(n) memory, one
    geometric skip per hit, and a few whole-array rounds of the fixed point.
    """
    p = p_lambda(n, lam)
    return SparseField.sample(n, p, rng).walk(p)[0]

