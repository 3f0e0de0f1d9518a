"""End-to-end acceptance suite.

Eleven checks covering the exact combinatorial identities, the two-route
law equivalences, the Brownian-limit marginal comparisons, and the
performance envelope.  Each test prints one PASS/FAIL line (run with -s to
see them) and then asserts.
"""

import time
from fractions import Fraction

import numpy as np

from primcoal.additive import (
    ThinnedWalkFamily,
    gamma_plus,
    pitman_forest,
    sample_conditioned_walk,
    weighted_cayley_tree,
)
from primcoal.graphs import (
    ProperlyWeightedGraph,
    component_filtration,
    level_components,
    prim_order,
    random_complete_graph,
)
from primcoal.limits import (
    limit_gamma,
    ml_additive_sizes,
    ml_multiplicative_sizes,
    simulate_excursion,
    simulate_parabolic,
)
from primcoal.multiplicative import (
    CriticalWindowParams,
    SparseField,
    component_surpluses,
    gamma_times,
    graph_route,
    p_lambda,
    reorder_field_from_graph,
    replicate_rows,
    sparse_z_trace,
    surplus_field,
    z_walk,
)
from primcoal.oracles import (
    cayley_outdegree_law,
    conditioned_walk_law,
    enumerate_weight_orders,
    ks_statistic,
    label_order_probability,
    row_counts,
    tv_distance,
)
from primcoal.walks import (
    LatticePath,
    excursions_above_min,
    explore,
    psi,
    walk_component_sizes,
)

from _oracles import excursions_above_zero, sample_graph_outcomes, sample_walk_outcomes

SEED = 987654321


def report(num, name, passed, detail):
    line = f"criterion {num:02d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_prim_interval_property():
    rng = np.random.default_rng(SEED)
    start = time.time()
    violations = 0
    for _ in range(10000):
        n = int(rng.integers(2, 65))
        g = random_complete_graph(n, rng)
        ordering = prim_order(g)
        try:
            level_components(g, float(rng.random()), ordering)
        except Exception:
            violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 30.0
    report(1, "prim-interval property", ok, f"violations={violations}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_02_excursion_component_identity():
    rng = np.random.default_rng(SEED + 1)
    mismatches = 0
    checked = 0
    sizes_pool = [3, 8, 17, 33, 64, 128, 256]
    for trial in range(80):
        n = sizes_pool[trial % len(sizes_pool)]
        if trial % 2 == 0:
            g = random_complete_graph(min(n, 256), rng)
        else:
            g = weighted_cayley_tree(n, rng)
        t = float(rng.random())
        expected = sorted((len(c) for c in level_components(g, t)), reverse=True)
        for order in ("labels", prim_order(g)):
            z = explore(g, t, order)
            got = sorted(walk_component_sizes(z), reverse=True)
            checked += 1
            if got != expected:
                mismatches += 1
    # second half of the criterion: above-minimum intervals of f equal the
    # above-zero intervals of psi f under the continuous-analogue convention
    for _ in range(2000):
        steps = rng.integers(-1, 3, size=int(rng.integers(1, 80)))
        f = LatticePath(np.concatenate([[0], np.cumsum(steps)]))
        lhs = excursions_above_min(f, weak=True).intervals
        rhs = excursions_above_zero(psi(f)).intervals
        checked += 1
        if lhs != rhs:
            mismatches += 1
    ok = mismatches == 0
    report(2, "excursion/component identity", ok, f"{checked} exact checks, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_03_exploration_order_probabilities():
    g = ProperlyWeightedGraph(4, [(1, 2, 0.1), (1, 3, 0.2), (1, 4, 0.3), (3, 4, 0.4)])
    prim_prob = enumerate_weight_orders(
        g, lambda gp: prim_order(gp, root=1).order.tolist() == [1, 3, 4, 2]
    )
    # label-order exploration depends only on the labelling: its probability
    # is over the relabellings of the three non-root vertices
    label_prob = label_order_probability(g, (1, 3, 4, 2))
    ok = prim_prob == Fraction(1, 4) and label_prob == Fraction(1, 6)
    report(3, "prim 1/4 vs label 1/6", ok, f"prim={prim_prob}, label={label_prob}")
    assert prim_prob == Fraction(1, 4)
    assert label_prob == Fraction(1, 6)


def test_criterion_04_cayley_walk_law_identity():
    results = {n: cayley_outdegree_law(n) == conditioned_walk_law(n) for n in (3, 4)}
    ok = all(results.values())
    report(4, "cayley/conditioned-walk exact law", ok, f"equal for n in {sorted(results)}")
    assert ok


def test_criterion_05_walk_vs_graph_route_tv():
    n, lam, reps = 6, 0.0, 100000
    rng = np.random.default_rng(SEED + 5)
    walk = sample_walk_outcomes(n, lam, reps, rng)
    graph = sample_graph_outcomes(n, lam, reps, rng)
    tv = tv_distance(walk, graph)
    ok = tv < 0.02
    report(5, "walk vs graph route law", ok, f"TV={tv:.4f} on {reps} reps/side")
    assert tv < 0.02


def test_criterion_06_surplus_field_identity():
    rng = np.random.default_rng(SEED + 6)
    mismatches = 0
    max_n = 0
    for trial in range(1000):
        if trial < 3:
            n = 512  # pin the top of the size range
        else:
            n = int(np.exp(rng.uniform(np.log(4), np.log(512))))
        max_n = max(max_n, n)
        lam = float(rng.choice([-1.0, 0.0, 1.0]))
        g = random_complete_graph(n, rng)
        ordering = prim_order(g)
        field = reorder_field_from_graph(g, ordering)
        params = CriticalWindowParams(n, lam)
        z, _ = z_walk(params, field)
        s = surplus_field(params, z, field)
        walk_pairs = component_surpluses(z, s)
        filt = component_filtration(g, ordering)
        graph_pairs = [(size, exc) for (_, size, exc) in filt.components_at(params.p)]
        if walk_pairs != graph_pairs:
            mismatches += 1
    ok = mismatches == 0
    report(6, "surplus field identity", ok, f"1000 realisations to n={max_n}, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_07_multiplicative_marginal_ks():
    n, lam, reps = 50000, 0.0, 1000
    threshold = 1.95 * np.sqrt(2.0 / reps)
    rng = np.random.default_rng(SEED + 7)
    start = time.time()
    discrete = np.empty(reps)
    for r in range(reps):
        _, sizes, _ = graph_route(n, [lam], rng)[0]
        discrete[r] = sizes[0] / n ** (2.0 / 3.0)
    brownian = np.empty(reps)
    for r in range(reps):
        path = simulate_parabolic(lam, rng, horizon=10.0, dx=1e-3)
        brownian[r] = limit_gamma(path)[0]
    stat = ks_statistic(discrete, brownian)
    elapsed = time.time() - start
    ok = stat < threshold and elapsed < 300.0
    report(7, "multiplicative marginal KS", ok, f"KS={stat:.4f} thr={threshold:.4f}, {elapsed:.0f}s")
    assert stat < threshold
    assert elapsed < 300.0


def test_criterion_08_additive_marginal_ks():
    n, lam, reps = 10000, 1.0, 1000
    threshold = 1.95 * np.sqrt(2.0 / reps)
    rng = np.random.default_rng(SEED + 8)
    discrete = np.empty(reps)
    for r in range(reps):
        fam = ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
        discrete[r] = gamma_plus(fam, lam)[0]
    brownian = np.empty(reps)
    for r in range(reps):
        path = simulate_excursion(lam, rng, dx=1e-3)
        brownian[r] = limit_gamma(path)[0]
    stat = ks_statistic(discrete, brownian)
    ok = stat < threshold
    report(8, "additive marginal KS", ok, f"KS={stat:.4f} thr={threshold:.4f}")
    assert stat < threshold


def test_criterion_09_kernel_oracles_tv():
    n, reps, lam = 6, 100000, 0.0
    rng = np.random.default_rng(SEED + 9)
    p = p_lambda(n, lam)
    ml_mult = row_counts(ml_multiplicative_sizes(n, p, rng, reps=reps))
    rep, sizes, _ = graph_route(n, [lam], rng, reps=reps)[0]
    graph = row_counts(replicate_rows(rep, sizes, reps, n))
    tv_mult = tv_distance(ml_mult, graph)
    s_obs = 0.5
    ml_add = row_counts(ml_additive_sizes(n, s_obs, rng, reps=reps))
    forest = row_counts(pitman_forest(n, rng, reps=reps).tree_sizes_at(s_obs))
    tv_add = tv_distance(ml_add, forest)
    ok = tv_mult < 0.02 and tv_add < 0.02
    report(9, "kernel oracles", ok, f"TV mult={tv_mult:.4f}, TV add={tv_add:.4f}")
    assert tv_mult < 0.02
    assert tv_add < 0.02


def test_criterion_10_monotone_coupling():
    rng = np.random.default_rng(SEED + 10)
    lambdas = np.linspace(-2.0, 2.0, 11).tolist()
    violations = 0
    for trial in range(200):
        n = int(rng.integers(100, 5000))
        prev = None
        for _, sizes, _ in graph_route(n, lambdas, rng):
            cur = gamma_times(n, sizes).partial_square_sums()
            if prev is not None:
                k = min(len(prev), len(cur))
                if (cur[:k] - prev[:k] < -1e-12).any():
                    violations += 1
                # beyond k the shorter vector is flat at its total
                if len(prev) > k and (cur[-1] < prev[k:] - 1e-12).any():
                    violations += 1
            prev = cur
    # the walk route on one sparse field: a slot holds one hit, so raising the
    # frontier from m to m' loses at most m' - m new vertices and Z only
    # grows; its zeros nest, so the partition at a larger lambda coarsens
    walk_violations = 0
    for _ in range(30):
        n = int(rng.integers(100, 1000))
        field = SparseField.sample(n, p_lambda(n, 2.0), rng, reps=100)
        prev = None
        for lam in lambdas:
            z = field.walk(p_lambda(n, lam))[0]
            if prev is not None:
                walk_violations += int((z < prev).any() or ((z == 0) & (prev != 0)).any())
            prev = z
    ok = violations == 0 and walk_violations == 0
    report(
        10,
        "monotone coupling in lambda",
        ok,
        f"graph route 200 realisations x 11 lambdas, {violations} violations; "
        f"walk route 3000 fields x 11 lambdas, {walk_violations} violations",
    )
    assert violations == 0
    assert walk_violations == 0


def test_criterion_11_performance():
    rng = np.random.default_rng(SEED + 11)
    start = time.time()
    sparse_z_trace(100000, 0.0, rng)
    trace_time = time.time() - start
    start = time.time()
    graph_route(100000, np.linspace(-2, 2, 10).tolist(), rng)
    grid_time = time.time() - start
    ok = trace_time < 1.0 and grid_time < 10.0
    report(11, "performance envelope", ok, f"trace={trace_time:.2f}s, 10-lambda grid={grid_time:.2f}s")
    assert trace_time < 1.0
    assert grid_time < 10.0
