"""Statistical verdicts and exact enumeration oracles.

Two-sample Kolmogorov-Smirnov and total-variation comparisons with recorded
thresholds and seeds, plus brute-force rational enumerations (weight
orders of a small graph, all labelled trees on few vertices, the exact law
of the conditioned walk) used to pin down small-case distributions without
Monte Carlo error.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .additive import bfs_outdegrees, prufer_decode
from .graphs import ProperlyWeightedGraph


@dataclass(frozen=True)
class TestVerdict:
    __test__ = False  # not a pytest class despite the name

    statistic: float
    threshold: float
    passed: bool
    description: str
    seeds: tuple[int, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "statistic": float(self.statistic),
                "threshold": float(self.threshold),
                "passed": bool(self.passed),
                "description": self.description,
                "seeds": [int(s) for s in self.seeds],
            }
        )


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


# the two-sample KS critical value's constant at the 0.1% level
KS_C = 1.95


def ks_threshold(n1: int, n2: int) -> float:
    """KS_C * sqrt((n1 + n2) / (n1 n2)), the 0.1% level."""
    return KS_C * np.sqrt((n1 + n2) / (n1 * n2))


def ks_two_sample(a, b, description: str, seeds=()) -> TestVerdict:
    stat = ks_statistic(a, b)
    thr = float(ks_threshold(len(a), len(b)))
    return TestVerdict(stat, thr, bool(stat < thr), description, tuple(seeds))


def tv_distance(counts_a: dict, counts_b: dict) -> float:
    """Total variation between two empirical laws given as count dicts."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / na - counts_b.get(k, 0) / nb) for k in keys
    )


# same-law TV of two N-sized samples of a small-support law is near sqrt(2 / N)
TV_C = 2.0


def tv_threshold(n1: int, n2: int) -> float:
    """TV_C * sqrt((n1 + n2) / (n1 n2)); 0.02 at 20000 a side."""
    return TV_C * math.sqrt((n1 + n2) / (n1 * n2))


def tv_two_sample(counts_a: dict, counts_b: dict, description: str, seeds=()) -> TestVerdict:
    stat = tv_distance(counts_a, counts_b)
    thr = tv_threshold(sum(counts_a.values()), sum(counts_b.values()))
    return TestVerdict(stat, thr, stat < thr, description, tuple(seeds))


# ---------------------------------------------------------------------------
# Exact enumeration oracles


def enumerate_weight_orders(g: ProperlyWeightedGraph, predicate) -> Fraction:
    """P{predicate(g')} over all |E|! relative orders of i.i.d. edge weights.

    Each permutation is realised by assigning ranks 1..m as the weights, so
    predicates that depend only on the relative order are evaluated exactly.
    Refuses graphs with more than 10 edges.
    """
    m = g.m
    if m > 10:
        raise ValueError("weight-order enumeration limited to 10 edges")
    pairs = [(u, v) for u, v, _ in g.edges]
    hits = 0
    total = 0
    for perm in itertools.permutations(range(1, m + 1)):
        gp = ProperlyWeightedGraph(
            g.n, [(u, v, float(w)) for (u, v), w in zip(pairs, perm)]
        )
        total += 1
        if predicate(gp):
            hits += 1
    return Fraction(hits, total)


def label_order_probability(g: ProperlyWeightedGraph, target) -> Fraction:
    """P{label-order exploration of g from target[0] visits target} over the
    uniform relabellings of the other vertices.

    The exploration visits the smallest label among the discovered vertices
    and never reads the weights; target is a visit order in g's own labels.
    """
    root = target[0]
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b, _ in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    others = [v for v in adj if v != root]
    hits = total = 0
    for perm in itertools.permutations(others):
        relabel = {root: root, **dict(zip(others, perm))}
        nbrs = {relabel[v]: {relabel[x] for x in nb} for v, nb in adj.items()}
        order, seen, found = [root], {root}, set(nbrs[root])
        while found:
            v = min(found)
            found.remove(v)
            seen.add(v)
            order.append(v)
            found |= nbrs[v] - seen
        hits += order == [relabel[v] for v in target]
        total += 1
    return Fraction(hits, total)


def all_cayley_trees(n: int):
    """All n^{n-2} labelled trees on 1..n as edge lists (n <= 5)."""
    if n > 5:
        raise ValueError("tree enumeration limited to n <= 5")
    if n <= 2:
        yield prufer_decode([], n)
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(list(seq), n)


def cayley_outdegree_law(n: int) -> dict[tuple, Fraction]:
    """Exact law of the BFS out-degree sequence of a uniform Cayley tree."""
    counts: dict[tuple, int] = {}
    total = 0
    for edges in all_cayley_trees(n):
        seq = bfs_outdegrees(edges, n)
        counts[seq] = counts.get(seq, 0) + 1
        total += 1
    return {k: Fraction(v, total) for k, v in counts.items()}


def conditioned_walk_law(n: int) -> dict[tuple, Fraction]:
    """Exact law of the conditioned Poisson walk increments for small n.

    P(X = x) is proportional to prod 1/x_i! over first-passage increment
    vectors summing to n - 1; enumerated over all weak compositions.
    """
    if n > 8:
        raise ValueError("exact walk law limited to n <= 8")
    weights: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for x in _compositions(n - 1, n):
        y = 0
        ok = True
        for i, xi in enumerate(x):
            y += xi - 1
            if i < n - 1 and y < 0:
                ok = False
                break
        if not ok or y != -1:
            continue
        w = Fraction(1)
        for xi in x:
            w /= math.factorial(xi)
        weights[x] = w
        total += w
    return {k: v / total for k, v in weights.items()}


def _compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` ordered non-negative ints."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def row_counts(rows) -> dict:
    """Count dict of the distinct rows of a 2-d array, keyed by row tuples
    in lexicographic order."""
    rows = np.asarray(rows)
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(rows))
    return dict(zip(map(tuple, rows[starts].tolist()), counts.tolist()))
