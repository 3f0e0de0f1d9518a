import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from primcoal.additive import (
    ConditionedWalk,
    ParkingConfiguration,
    ThinnedWalkFamily,
    bfs_outdegrees,
    gamma_plus,
    park,
    percolate_cayley,
    pitman_forest,
    prim_thinned_outdegrees,
    prufer_decode,
    retention_level,
    rooted_children,
    sample_conditioned_walk,
    uniform_cayley_tree,
    weighted_cayley_tree,
)
from primcoal.graphs import GraphError, ProperlyWeightedGraph, level_components, prim_order
from primcoal.oracles import (
    cayley_outdegree_law,
    conditioned_walk_law,
    tv_distance,
)
from primcoal.walks import excursions_above_min


# proposals the rejection sampler draws before it gives up
REJECTION_TRIES = 10**7


def rejection_sample_conditioned_walk(n: int, rng) -> ConditionedWalk:
    """Literal rejection sampler (test oracle, practical only for small n)."""
    for _ in range(REJECTION_TRIES):
        x = rng.poisson(1.0, size=n)
        if x.sum() != n - 1:
            continue
        y = np.cumsum(x - 1)
        if (y[:-1] >= 0).all() and y[-1] == -1:
            return ConditionedWalk(n, x)
    raise RuntimeError(f"rejection sampler found no walk in {REJECTION_TRIES} tries")


class TestConditionedWalk:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConditionedWalk(3, [1, 1, 1])  # sums to 3, not 2
        with pytest.raises(ValueError):
            ConditionedWalk(3, [0, 1, 1])  # dips below 0 before the end
        ConditionedWalk(3, [2, 0, 0])
        ConditionedWalk(3, [1, 1, 0])

    @pytest.mark.parametrize(
        "increments",
        [[2.7, 0.2, 0.0], [True, True, False], [2.0, 0.0, 0.0]],
        ids=["fraction", "bool", "whole-float"],
    )
    def test_non_integer_increments_refused(self, increments):
        with pytest.raises(ValueError, match="increments must be integers"):
            ConditionedWalk(3, increments)

    def test_sampler_is_parking_count_walk(self, rng):
        # the sampler's draws are those of n - 1 parked cars: its walk is
        # their count walk, rotated past the first minimum (cycle lemma)
        for n in [1, 2] + rng.integers(3, 400, size=60).tolist():
            seed = int(rng.integers(2**32))
            cfg = park(n, n - 1, np.random.default_rng(seed))
            c = np.bincount(np.asarray(cfg.choices, dtype=np.int64) - 1, minlength=n)
            shift = int(np.argmin(np.cumsum(c - 1))) + 1
            walk = sample_conditioned_walk(n, np.random.default_rng(seed))
            assert walk.increments.tolist() == np.roll(c, -shift).tolist()

    @pytest.mark.parametrize("n, increments", [(0, []), (3, [2, 0])], ids=["no-steps", "too-few"])
    def test_size_refused(self, n, increments):
        with pytest.raises(ValueError, match="need n >= 1 increments"):
            ConditionedWalk(n, increments)

    def test_sampler_refuses_no_steps(self, rng):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_conditioned_walk(0, rng)

    def test_rejection_sampler_gives_up(self, rng, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "REJECTION_TRIES", 0)
        with pytest.raises(RuntimeError, match="rejection sampler found no walk in 0 tries"):
            rejection_sample_conditioned_walk(3, rng)

    def test_cycle_sampler_always_valid(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 40))
            walk = sample_conditioned_walk(n, rng)
            assert walk.increments.dtype == np.int64
            ConditionedWalk(n, walk.increments)  # the public constructor checks the cycle lemma

    def test_exact_law_n3(self, rng):
        # the only first-passage walks on 3 steps are (2,0,0) and (1,1,0),
        # with probabilities 1/3 and 2/3
        law = conditioned_walk_law(3)
        assert law == {(2, 0, 0): Fraction(1, 3), (1, 1, 0): Fraction(2, 3)}
        counts = Counter(
            tuple(sample_conditioned_walk(3, rng).increments) for _ in range(20000)
        )
        emp = {k: v / 20000 for k, v in counts.items()}
        assert abs(emp[(2, 0, 0)] - 1 / 3) < 0.02
        assert abs(emp[(1, 1, 0)] - 2 / 3) < 0.02

    def test_cycle_sampler_matches_rejection_oracle(self, rng):
        n, reps = 5, 20000
        fast = Counter(
            tuple(sample_conditioned_walk(n, rng).increments) for _ in range(reps)
        )
        slow = Counter(
            tuple(rejection_sample_conditioned_walk(n, rng).increments)
            for _ in range(reps)
        )
        assert tv_distance(fast, slow) < 0.03

    def test_cycle_sampler_matches_exact_law(self, rng):
        n, reps = 4, 50000
        law = conditioned_walk_law(n)
        counts = Counter(
            tuple(sample_conditioned_walk(n, rng).increments) for _ in range(reps)
        )
        exact = {k: float(v) for k, v in law.items()}
        emp = {k: v / reps for k, v in counts.items()}
        assert set(emp) <= set(exact)
        assert max(abs(emp.get(k, 0.0) - p) for k, p in exact.items()) < 0.01


class TestThinning:
    def test_endpoints(self, rng):
        w = sample_conditioned_walk(10, rng)
        fam = ThinnedWalkFamily(w, rng)
        assert fam.thinned_increments(0.0).sum() == 0
        assert np.array_equal(fam.thinned_increments(1.0), w.increments)

    def test_monotone_in_t(self, rng):
        w = sample_conditioned_walk(30, rng)
        fam = ThinnedWalkFamily(w, rng)
        prev = fam.thinned_increments(0.0)
        for t in np.linspace(0.1, 1.0, 10):
            cur = fam.thinned_increments(float(t))
            assert (cur >= prev).all()
            prev = cur

    @pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
    def test_level_outside_unit_interval_refused(self, rng, t):
        fam = ThinnedWalkFamily(sample_conditioned_walk(10, rng), rng)
        with pytest.raises(ValueError, match=r"retention t must lie in \[0, 1\]"):
            fam.thinned_increments(t)

    def test_retention_level_bounds(self):
        assert retention_level(100, 0.0) == 1.0
        assert retention_level(100, 10.0) == 0.0
        with pytest.raises(ValueError):
            retention_level(100, 10.5)
        with pytest.raises(ValueError):
            retention_level(100, -0.1)


class TestGammaPlus:
    def test_lambda_zero_single_block(self, rng):
        w = sample_conditioned_walk(50, rng)
        fam = ThinnedWalkFamily(w, rng)
        gam = gamma_plus(fam, 0.0)
        assert gam.values.tolist() == [1.0]

    def test_t_zero_all_singletons(self, rng):
        n = 16
        w = sample_conditioned_walk(n, rng)
        fam = ThinnedWalkFamily(w, rng)
        gam = gamma_plus(fam, float(np.sqrt(n)))  # t = 0
        assert gam.values.tolist() == [1.0 / n] * n

    def test_masses_sum_to_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            fam = ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
            lam = float(rng.random()) * np.sqrt(n)
            assert gamma_plus(fam, lam).values.sum() == pytest.approx(1.0)


def _probe_occupied(n: int, choices) -> list[bool]:
    """Literal oracle for park: each car probes rightward from its choice
    around the circle until it finds an empty place."""
    occupied = [False] * (n + 1)  # slot 0 unused
    for spot in choices:
        while occupied[spot]:
            spot = spot % n + 1
        occupied[spot] = True
    return occupied[1:]


class TestParking:
    def test_requires_free_place(self, rng):
        with pytest.raises(ValueError):
            park(5, 5, rng)

    def test_negative_car_count_refused(self, rng):
        with pytest.raises(ValueError, match="m must be >= 0, got m = -1"):
            park(5, -1, rng)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_choices_are_a_read_only_copy(self, rng, dtype):
        given = np.array([2, 2, 5], dtype=dtype)
        cfg = park(6, 3, choices=given)
        given[0] = 1  # the caller's array stays writeable, and apart
        assert cfg.choices.tolist() == [2, 2, 5]
        for choices, m in ((cfg.choices, 3), (park(50, 30, rng).choices, 30)):
            assert choices.dtype == np.int64 and choices.shape == (m,)
            assert not choices.flags.writeable

    def test_block_sizes_sum_to_n(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, n))
            cfg = park(n, m, rng)
            sizes = cfg.block_sizes()
            assert sum(sizes) == n
            assert cfg.occupied.sum() == m

    def test_deterministic_example(self):
        # cars at 2, 2, 5 on 6 places: 2 parks, next probes to 3, 5 parks;
        # blocks {2,3}+4 and {5}+6, place 1 alone
        cfg = park(6, 3, choices=[2, 2, 5])
        assert cfg.occupied.tolist() == [False, True, True, False, True, False]
        assert cfg.block_sizes() == [3, 2, 1]

    @pytest.mark.parametrize("choice", [0, 5, -1], ids=["zero", "n-plus-one", "negative"])
    def test_choice_outside_the_lot_refused(self, choice):
        with pytest.raises(ValueError, match=r"choices must lie in 1\.\.4"):
            park(4, 1, choices=[choice])

    def test_wrong_choice_count_refused(self):
        with pytest.raises(ValueError, match="need exactly m choices"):
            park(5, 2, choices=[1])

    def test_needs_rng_or_choices(self):
        with pytest.raises(ValueError, match="need rng or choices"):
            park(4, 1)

    @pytest.mark.parametrize("choices", [[1.5], [True], (2.0,)], ids=["fraction", "bool", "whole-float"])
    def test_non_integer_choices_refused(self, choices):
        with pytest.raises(ValueError, match="choices must be integers"):
            park(4, 1, choices=choices)

    def test_matches_the_probe_loop(self, rng):
        # the count-walk reading against the literal probing of each car in turn
        for _ in range(5000):
            n = int(rng.integers(1, 60))
            cfg = park(n, int(rng.integers(0, n)), rng)
            assert cfg.occupied.tolist() == _probe_occupied(n, cfg.choices)

    def test_empty_and_full_lots(self):
        # every empty place is its own block; park refuses m = n, so a full
        # lot can only be built directly, and it has no blocks
        assert park(4, 0, choices=[]).block_sizes() == [1] * 4
        full = ParkingConfiguration(3, (1, 2, 3), np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="full"):
            full.block_sizes()

    def test_blocks_match_thinned_walk_ladder(self, rng):
        # coupling: X(i) = number of cars whose first choice is place i,
        # conditioned on place n staying empty; block sizes (rotated so the
        # final place closes the last block) equal ladder lengths of the walk
        for _ in range(200):
            n = int(rng.integers(2, 12))
            walk = sample_conditioned_walk(n, rng)
            choices = []
            for place, count in enumerate(walk.increments, start=1):
                choices.extend([place] * int(count))
            cfg = park(n, n - 1, choices=choices)
            # place n is empty: the walk's first-passage property says cars
            # choosing 1..k never overflow past place k onto n
            assert not cfg.occupied[n - 1]
            starts, ends = excursions_above_min(walk.path())
            assert cfg.block_sizes() == sorted((ends - starts).tolist(), reverse=True)

    def test_thinned_walk_is_parking_of_kept_units(self, rng):
        # unit j of the base walk is a car choosing place _owner[j] + 1; at
        # every t the level-t ladder lengths are the blocks of the kept cars
        for _ in range(150):
            n = int(rng.integers(1, 120))
            fam = ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
            for t in [0.0, 1.0, *rng.random(3).tolist()]:
                kept = fam._uniforms <= t
                cfg = park(n, int(kept.sum()), choices=fam._owner[kept] + 1)
                starts, ends = excursions_above_min(fam.path(t))
                assert sorted((ends - starts).tolist(), reverse=True) == cfg.block_sizes()


# (times, i, j) of pitman_forest(n, default_rng(7), reps) at key (n, reps).
# Recorded with the batch held as (reps, slots) rows, before the rounds went
# slot-major.
_FOREST_DRAWS = {
    (2, 1): (
        [[0.7075292557919215]],
        [[0]],
        [[1]],
    ),
    (2, 3): (
        [
            [0.7075292557919215],
            [1.025203348294905],
            [0.5685486573832514],
        ],
        [[0], [0], [0]],
        [[1], [1], [1]],
    ),
    (6, 1): (
        [[0.1415058511583843, 0.365283317057175, 1.4931624342025929, 1.7808288123775247, 2.321964706565736]],
        [[2, 1, 0, 0, 0]],
        [[5, 4, 2, 3, 1]],
    ),
    (6, 3): (
        [
            [0.1415058511583843, 0.2853390402458502, 0.35936279437335283, 0.7458156198898782, 1.0390943827100134],
            [0.205040669658981, 0.2801741727976946, 1.3283986121543299, 2.4263810132317714, 3.440639678470945],
            [0.11370973147665028, 0.2489937050237032, 0.4942794629061354, 0.7318564148377504, 1.366586793511392],
        ],
        [[1, 1, 0, 1, 0], [0, 0, 0, 0, 0], [2, 2, 0, 0, 0]],
        [[5, 4, 2, 3, 1], [1, 3, 2, 5, 4], [5, 3, 1, 2, 4]],
    ),
    (7, 1): (
        [
            [
                0.11792154263198691, 0.2969435153510195, 1.142852853210083,
                1.3346304386600376, 1.6051983857541434, 2.678899047468777,
            ],
        ],
        [[3, 2, 0, 1, 0, 0]],
        [[6, 4, 2, 5, 3, 1]],
    ),
    (7, 3): (
        [
            [
                0.11792154263198691, 0.23298809390195965, 0.2885059094975866,
                0.5461411265086036, 0.6927805079186713, 3.7676378040512652,
            ],
            [
                0.1708672247158175, 0.23097402722678836, 1.0171423567442648,
                1.7491306241292257, 2.2562599567488126, 3.660682249270199,
            ],
            [
                0.09475810956387525, 0.20298528840151758, 0.38694960681334173,
                0.5453342414344184, 0.8626994307712392, 4.658111915614054,
            ],
        ],
        [[1, 1, 1, 1, 1, 0], [0, 0, 0, 0, 0, 0], [2, 2, 0, 0, 4, 0]],
        [[6, 5, 2, 3, 4, 1], [2, 4, 3, 6, 1, 5], [6, 3, 1, 2, 5, 4]],
    ),
}


class TestForestProcess:
    def test_starts_as_singletons_ends_as_tree(self, rng):
        fp = pitman_forest(8, rng)
        assert fp.tree_sizes_at(0.0).tolist() == [[1] * 8]
        last = fp.merges[-1].time
        assert fp.tree_sizes_at(last).tolist() == [[8] + [0] * 7]
        assert len(fp.merges) == 7

    def test_sizes_always_partition_n(self, rng):
        fp = pitman_forest(10, rng)
        for s in np.linspace(0, fp.merges[-1].time, 7):
            assert sum(fp.tree_sizes_at(float(s))[0]) == 10

    def test_no_vertices_refused(self, rng):
        with pytest.raises(ValueError, match="n must be >= 1"):
            pitman_forest(0, rng)

    @pytest.mark.parametrize("key", list(_FOREST_DRAWS), ids=lambda key: "-".join(map(str, key)))
    def test_draws_are_stable(self, key):
        n, reps = key
        fp = pitman_forest(n, np.random.default_rng(7), reps=reps)
        times, i, j = _FOREST_DRAWS[key]
        assert fp.times.tolist() == times
        assert fp.i.tolist() == i
        assert fp.j.tolist() == j


def _aldous_broder_tree(n, rng):
    """Uniform labelled tree on 1..n by the Aldous-Broder random walk on K_n:
    the first entrance edge of each vertex but the start, an oracle that
    shares nothing with Prufer decoding."""
    visited = [False] * (n + 1)
    current = int(rng.integers(1, n + 1))
    visited[current] = True
    count = 1
    edges = []
    while count < n:
        nxt = int(rng.integers(1, n + 1))
        if nxt == current:
            continue
        if not visited[nxt]:
            visited[nxt] = True
            count += 1
            edges.append((current, nxt))
        current = nxt
    return edges


class TestCayleyTrees:
    def test_prufer_decode_small(self):
        assert prufer_decode([], 2) == [(1, 2)]
        # sequence (3,): leaves 1 and 2 attach to 3
        assert sorted(prufer_decode([3], 3)) == [(1, 3), (2, 3)]

    def test_no_vertices_refused(self, rng):
        with pytest.raises(ValueError, match="n must be >= 1"):
            uniform_cayley_tree(0, rng)

    def test_tree_edge_count(self, rng):
        for n in (1, 2, 3, 7, 20):
            edges = uniform_cayley_tree(n, rng)
            assert len(edges) == max(n - 1, 0)

    def test_aldous_broder_agrees_in_law(self, rng):
        reps = 6000
        a = Counter(
            tuple(sorted(tuple(sorted(e)) for e in uniform_cayley_tree(4, rng)))
            for _ in range(reps)
        )
        b = Counter(
            tuple(sorted(tuple(sorted(e)) for e in _aldous_broder_tree(4, rng)))
            for _ in range(reps)
        )
        assert tv_distance(a, b) < 0.05

    def test_bfs_outdegree_law_equals_conditioned_walk_exactly(self):
        # exact rational identity over all n^{n-2} labelled trees
        for n in (3, 4):
            assert cayley_outdegree_law(n) == conditioned_walk_law(n)

    def test_bfs_outdegrees_sum(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = uniform_cayley_tree(n, rng)
            degs = bfs_outdegrees(edges, n)
            assert sum(degs) == n - 1

    def test_percolate_cayley_sizes_partition(self, rng):
        _, _, sizes = percolate_cayley(20, 0.4, rng)
        assert sum(sizes) == 20

    def test_percolate_cayley_infinite_level_is_one_cluster(self):
        for n in (1, 2, 9):
            assert percolate_cayley(n, np.inf, np.random.default_rng(n))[2] == [n]

    def test_percolate_cayley_sizes_match_union_find(self):
        for seed in range(40):
            g, ordering, sizes = percolate_cayley(1 + seed, 0.6, np.random.default_rng(seed))
            comps = level_components(g, 0.6, ordering)
            assert sizes == sorted((len(c) for c, _ in comps), reverse=True)

    def test_prim_thinned_outdegrees_count_rooted_children(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 25))
            g = weighted_cayley_tree(n, rng)
            ordering = prim_order(g, root=int(rng.integers(1, n + 1)))
            t = float(rng.random())
            weight = {(u, v): w for u, v, w in g.edges}
            children = rooted_children([(u, v) for u, v, _ in g.edges], n, root=ordering.order[0])
            expected = tuple(
                sum(weight[min(v, c), max(v, c)] <= t for c in children[v]) for v in ordering.order
            )
            assert prim_thinned_outdegrees(g, ordering, t) == expected

    def test_prim_thinned_outdegrees_refuses_non_tree(self):
        g = ProperlyWeightedGraph(3, [(1, 2, 0.1), (2, 3, 0.2), (1, 3, 0.3)])
        with pytest.raises(GraphError, match="not a tree"):
            prim_thinned_outdegrees(g, prim_order(g), 0.5)

    def test_prim_thinned_outdegrees_full_retention(self, rng):
        g = weighted_cayley_tree(12, rng)
        ordering = prim_order(g, root=1)
        x = prim_thinned_outdegrees(g, ordering, 1.0)
        assert sum(x) == 11
        assert prim_thinned_outdegrees(g, ordering, 0.0) == (0,) * 12


def exact_thinned_law(n, t):
    """Exact law of the binomially thinned conditioned walk increments."""
    from math import comb

    out = {}
    for base, p_base in conditioned_walk_law(n).items():
        pb = float(p_base)
        # distribute over all componentwise-thinned vectors
        partial = {(): pb}
        for w in base:
            nxt = {}
            for prefix, prob in partial.items():
                for x in range(w + 1):
                    q = prob * comb(w, x) * t**x * (1 - t) ** (w - x)
                    key = prefix + (x,)
                    nxt[key] = nxt.get(key, 0.0) + q
            partial = nxt
        for vec, prob in partial.items():
            out[vec] = out.get(vec, 0.0) + prob
    return out


def tv_noise_bound(law, reps):
    """3x the expected TV between the exact law and an empirical copy."""
    ps = np.array(list(law.values()))
    return 3 * 0.5 * np.sqrt(2 / (np.pi * reps)) * np.sqrt(ps).sum() + 0.005


def tv_to_exact(counts, law):
    reps = sum(counts.values())
    keys = set(counts) | set(law)
    return 0.5 * sum(abs(counts.get(k, 0) / reps - law.get(k, 0.0)) for k in keys)


class TestPrimThinnedLaw:
    def test_walk_thinning_matches_exact_law(self, rng):
        n, t, reps = 5, 0.6, 30000
        law = exact_thinned_law(n, t)
        counts = Counter(
            tuple(
                ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
                .thinned_increments(t)
                .tolist()
            )
            for _ in range(reps)
        )
        assert tv_to_exact(counts, law) < tv_noise_bound(law, reps)

    def test_prim_outdegrees_match_exact_thinned_law(self, rng):
        # Prim-ordered thinned out-degrees of a weighted Cayley tree have
        # the law of the thinned conditioned walk
        n, t, reps = 6, 0.5, 30000
        law = exact_thinned_law(n, t)
        tree_side = []
        for _ in range(reps):
            g = weighted_cayley_tree(n, rng)
            ordering = prim_order(g, root=1)
            tree_side.append(prim_thinned_outdegrees(g, ordering, t))
        counts = Counter(tree_side)
        assert tv_to_exact(counts, law) < tv_noise_bound(law, reps)
