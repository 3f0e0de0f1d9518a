"""Independent oracles that more than one test file reads.

An oracle that one test file uses lives in that file; the ones here serve
several.  None of them is part of the package: the library's own code never
calls them, so each stays an independent check of it.
"""

import numpy as np

from primcoal.multiplicative import graph_route, replicate_rows, walk_route
from primcoal.oracles import row_counts
from primcoal.walks import LatticePath


def excursions_above_zero(f: LatticePath) -> tuple[np.ndarray, np.ndarray]:
    """Maximal intervals between successive zeros of a non-negative path, as
    (starts, ends) int arrays, the form `excursions_above_min` returns.

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
    return starts, ends


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
    return _outcome_counts(*walk_route(n, [lam], rng, reps=reps)[0], reps, n)


def sample_graph_outcomes(n: int, lam: float, reps: int, rng) -> dict[tuple, int]:
    """Empirical law of the multiset {(size, excess)} of the components of
    G(n, p_lambda), keyed as in _outcome_counts, from the batched graph route."""
    return _outcome_counts(*graph_route(n, [lam], rng, reps=reps)[0], reps, n)
