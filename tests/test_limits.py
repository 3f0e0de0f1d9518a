import itertools
import re
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest

from primcoal.additive import pitman_forest
from primcoal.limits import (
    limit_gamma,
    limit_surplus,
    marcus_lushnikov,
    ml_additive_sizes,
    ml_multiplicative_sizes,
    simulate_excursion,
    simulate_parabolic,
)
from primcoal.multiplicative import graph_route, p_lambda, replicate_rows
from primcoal.oracles import row_counts, tv_distance
from primcoal.walks import LatticePath, excursions_above_min

from _oracles import sample_walk_outcomes


class TestParabolicPath:
    def test_grid_shape(self, rng):
        p = simulate_parabolic(0.5, rng, horizon=2.0, dx=0.01)
        assert len(p) == 201
        assert p.values[0] == 0.0
        assert p.x_step == pytest.approx(0.01)

    def test_default_horizon_tracks_lambda(self, rng):
        p = simulate_parabolic(5.0, rng, dx=0.1)
        assert (len(p) - 1) * p.x_step == pytest.approx(20.0)

    def test_mean_and_variance_at_fixed_x(self, rng):
        # drifted Brownian marginal: mean lam*x - x^2/2, variance x
        lam, x, dx, reps = 1.0, 2.0, 0.01, 10000
        k = int(x / dx)
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = simulate_parabolic(lam, rng, horizon=x, dx=dx).values[k]
        target_mean = lam * x - x**2 / 2
        se_mean = np.sqrt(x / reps)
        assert abs(vals.mean() - target_mean) < 3 * se_mean
        se_var = x * np.sqrt(2.0 / reps)
        assert abs(vals.var() - x) < 3 * se_var


class TestBrownianExcursion:
    def test_nonnegative_and_pinned(self, rng):
        for _ in range(30):
            e = simulate_excursion(0.0, rng, dx=0.01)
            assert e.values[0] == 0.0 and e.values[-1] == pytest.approx(0.0)
            assert (e.values >= -1e-12).all()

    def test_maximum_quantile_band(self, rng):
        # soft sanity band: the maximum of a normalised excursion follows a
        # theta-type law with median near 1.12 and almost no mass below 0.7
        maxima = np.array(
            [simulate_excursion(0.0, rng, dx=0.005).values.max() for _ in range(2000)]
        )
        med = np.median(maxima)
        assert 1.0 < med < 1.25
        assert (maxima < 0.7).mean() < 0.02

    def test_tilted_endpoint(self, rng):
        e = simulate_excursion(2.0, rng, dx=0.01)
        assert e.values[-1] == pytest.approx(-2.0)


class TestGridExcursions:
    def test_lengths_sum_bounded_by_domain(self, rng):
        p = simulate_parabolic(0.0, rng, horizon=5.0, dx=0.01)
        gam = limit_gamma(p)
        assert gam.values.sum() <= 5.0 + 1e-9
        assert (gam.values > 0).all()

    def test_known_path(self):
        vals = np.array([0.0, 1.0, 0.5, -1.0, -0.5, 0.5, -2.0])
        p = LatticePath(vals, x_step=0.5)
        # new running minima at indices 0, 3, 6
        assert excursions_above_min(p, weak=True).intervals == ((0, 3), (3, 6))
        assert limit_gamma(p).values.tolist() == [1.5, 1.5]


class TestPoissonSurplus:
    def test_straight_path_surplus_law(self, rng):
        # f(x) = x on [0, 2] is one trailing excursion; its surplus counts the
        # points under the grid path, which holds f(k dx) over the cell
        # [k dx, (k + 1) dx), so it is Poisson with mean sum_k f(k dx) dx
        dx, reps = 0.01, 2000
        p = LatticePath(np.arange(201) * dx, x_step=dx)
        mean = p.values[:-1].sum() * dx
        surplus = []
        for _ in range(reps):
            pairs = limit_surplus(p, rng)
            assert [x for x, _ in pairs] == [pytest.approx(2.0)]
            surplus.append(pairs[0][1])
        assert abs(np.mean(surplus) - mean) < 4 * np.sqrt(mean / reps)

    def test_surplus_entries_align_with_excursions(self, rng):
        p = simulate_parabolic(1.0, rng, horizon=6.0, dx=0.01)
        pairs = limit_surplus(p, rng)
        lengths = sorted(excursions_above_min(p, weak=True).lengths() * p.x_step)
        assert sorted(x for x, _ in pairs) == pytest.approx(lengths)
        assert all(s >= 0 for _, s in pairs)

    def test_zero_path_zero_surplus(self, rng):
        p = LatticePath(np.zeros(101), x_step=0.01)
        assert limit_surplus(p, rng) == []


# (times, i, j) of marcus_lushnikov(masses, kernel, default_rng(seed), t_max) at
# key (kernel, m0, reps, seed): masses 1/m0 and t_max 1.0 for the additive
# kernel, unit masses and t_max 0.4 for the multiplicative one.  Recorded with
# the batch held as (reps, pairs) rows, before the rounds went slot-major.
_ML_DRAWS = {
    ("additive", 2, 1, 0): (
        [[0.6799319039689096]],
        [[0]],
        [[1]],
    ),
    ("additive", 2, 1, 1): (
        [[inf]],
        [[0]],
        [[0]],
    ),
    ("additive", 2, 3, 0): (
        [
            [0.6799319039689096],
            [inf],
            [0.019806662589055352],
        ],
        [[0], [0], [0]],
        [[1], [0], [1]],
    ),
    ("additive", 2, 3, 1): (
        [
            [inf],
            [0.30845314412528435],
            [inf],
        ],
        [[0], [0], [0]],
        [[0], [1], [0]],
    ),
    ("additive", 6, 1, 0): (
        [[0.13598638079378195, 0.1409380464410458, 0.3243856706540619, 0.6611771469876778, inf]],
        [[0, 0, 3, 0, 0]],
        [[5, 1, 4, 3, 0]],
    ),
    ("additive", 6, 1, 1): (
        [[0.21460580527450782, 0.23295775581982636, 0.35510012678643704, inf, inf]],
        [[4, 3, 0, 0, 0]],
        [[5, 4, 3, 0, 0]],
    ),
    ("additive", 6, 3, 0): (
        [
            [0.13598638079378195, 0.30438211896058986, inf, inf, inf],
            [0.20391942029317298, 0.39274475974952083, 0.416910654722818, inf, inf],
            [0.0039613325178110715, 0.7081578272867425, inf, inf, inf],
        ],
        [[0, 4, 0, 0, 0], [3, 2, 0, 0, 0], [3, 0, 0, 0, 0]],
        [[1, 5, 0, 0, 0], [4, 5, 2, 0, 0], [5, 1, 0, 0, 0]],
    ),
    ("additive", 6, 3, 1): (
        [
            [0.21460580527450782, 0.6645550766884546, 0.919243919995671, inf, inf],
            [0.06169062882505688, 0.18635040328866914, 0.5335032080711708, 0.9266309675894209, inf],
            [inf, inf, inf, inf, inf],
        ],
        [[0, 1, 0, 0, 0], [1, 0, 2, 0, 0], [0, 0, 0, 0, 0]],
        [[5, 2, 3, 0, 0], [3, 1, 5, 2, 0], [0, 0, 0, 0, 0]],
    ),
    ("additive", 7, 1, 0): (
        [[0.1133219839948183, 0.11728331651262937, 0.25486903467239147, 0.4793966855614688, inf, inf]],
        [[0, 0, 3, 2, 0, 0]],
        [[6, 1, 5, 3, 0, 0]],
    ),
    ("additive", 7, 1, 1): (
        [[0.17883817106208985, 0.1935197314983447, 0.28512650972330267, 0.8850588716085652, inf, inf]],
        [[4, 4, 1, 0, 0, 0]],
        [[6, 5, 2, 4, 0, 0]],
    ),
    ("additive", 7, 3, 0): (
        [
            [0.1133219839948183, 0.2480385745282647, 0.815312240594992, 0.9176826204711074, inf, inf],
            [0.16993285024431082, 0.3209931218093891, 0.339117543039362, 0.8365240140813697, inf, inf],
            [0.0033011104315092262, 0.5666583062466545, 0.834008381788484, 0.8463431147170466, inf, inf],
        ],
        [[0, 4, 0, 0, 0, 0], [3, 3, 3, 1, 0, 0], [4, 0, 2, 2, 0, 0]],
        [[1, 6, 3, 2, 0, 0], [6, 4, 5, 3, 0, 0], [6, 1, 4, 3, 0, 0]],
    ),
    ("additive", 7, 3, 1): (
        [
            [0.17883817106208985, 0.27856599063297965, 0.6978696557619752, 0.8519909900298502, inf, inf],
            [0.05140885735421408, 0.16169313271895555, 0.2138472771423437, 0.44342732511361527, inf, inf],
            [0.895906145434688, 0.9018488338271432, inf, inf, inf, inf],
        ],
        [[1, 3, 0, 1, 0, 0], [1, 1, 1, 0, 0, 0], [3, 1, 0, 0, 0, 0]],
        [[2, 5, 3, 4, 0, 0], [4, 5, 2, 3, 0, 0], [6, 2, 0, 0, 0, 0]],
    ),
    ("multiplicative", 2, 1, 0): (
        [[inf]],
        [[0]],
        [[0]],
    ),
    ("multiplicative", 2, 1, 1): (
        [[inf]],
        [[0]],
        [[0]],
    ),
    ("multiplicative", 2, 3, 0): (
        [
            [inf],
            [inf],
            [0.019806662589055352],
        ],
        [[0], [0], [0]],
        [[0], [0], [1]],
    ),
    ("multiplicative", 2, 3, 1): (
        [
            [inf],
            [0.30845314412528435],
            [inf],
        ],
        [[0], [0], [0]],
        [[0], [1], [0]],
    ),
    ("multiplicative", 6, 1, 0): (
        [[0.045328793597927304, 0.04674355521143126, 0.09260546126468527, 0.15384027514352455, inf]],
        [[0, 0, 2, 0, 0]],
        [[5, 1, 4, 3, 0]],
    ),
    ("multiplicative", 6, 1, 1): (
        [
            [0.07153526842483592, 0.0767786828663555, 0.10731427560800816, 0.270932192485807, 0.33985986458877043],
        ],
        [[4, 3, 1, 0, 0]],
        [[5, 4, 2, 3, 1]],
    ),
    ("multiplicative", 6, 3, 0): (
        [
            [0.045328793597927304, 0.09344186164558672, 0.26798760505073355, 0.2959067995624014, inf],
            [0.06797314009772432, 0.12192323708525227, 0.12749998207909008, 0.29330213909309266, 0.3760361562600335],
            [0.00132044417260369, 0.20251944267801267, 0.284781004383191, 0.28814502245461715, 0.377787175124243],
        ],
        [[0, 4, 0, 0, 0], [3, 2, 2, 1, 0], [3, 0, 0, 0, 0]],
        [[1, 5, 3, 2, 0], [4, 5, 3, 2, 1], [5, 1, 4, 3, 2]],
    ),
    ("multiplicative", 6, 3, 1): (
        [
            [0.07153526842483592, 0.10715234684301084, 0.23616885919039407, 0.28754263727968576, inf],
            [0.020563542941685622, 0.059950784143379, 0.07733549895117506, 0.1399482393069764, inf],
            [0.35836245817387513, 0.3604848468854663, inf, inf, inf],
        ],
        [[0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [3, 0, 0, 0, 0]],
        [[5, 4, 1, 3, 0], [3, 4, 5, 1, 0], [4, 5, 0, 0, 0]],
    ),
    ("multiplicative", 7, 1, 0): (
        [
            [
                0.032377709712805215, 0.033368042842257986, 0.06394264687776066,
                0.10356517350524488, 0.29135090544362663, inf,
            ],
        ],
        [[0, 0, 3, 2, 2, 0]],
        [[6, 1, 5, 3, 4, 0]],
    ),
    ("multiplicative", 7, 1, 1): (
        [
            [
                0.05109662030345423, 0.05476701041251794, 0.07512407224028639,
                0.18099448904356802, 0.2177559141651485, 0.2814281249919526,
            ],
        ],
        [[4, 4, 1, 1, 0, 0]],
        [[6, 5, 3, 2, 1, 4]],
    ),
    ("multiplicative", 7, 3, 0): (
        [
            [
                0.032377709712805215, 0.06605685734616681, 0.18548289230758305,
                0.20354825346219166, 0.32766814703652397, 0.34874428912435307,
            ],
            [
                0.04855224292694594, 0.0863173108182155, 0.0903449599804317,
                0.18982625418883325, 0.22743262562835181, inf,
            ],
            [
                0.0009431744090026359, 0.1417824733627889, 0.19806669979264774,
                0.20012248861407483, 0.23213754313894122, 0.32185824368400506,
            ],
        ],
        [[0, 4, 0, 0, 0, 0], [3, 3, 3, 1, 1, 0], [4, 0, 2, 2, 0, 0]],
        [[1, 6, 3, 2, 5, 4], [6, 4, 5, 3, 2, 0], [6, 1, 3, 4, 2, 5]],
    ),
    ("multiplicative", 7, 3, 1): (
        [
            [
                0.05109662030345423, 0.07602857519617667, 0.1643030310128073,
                0.20481715712538462, 0.2880913000296939, 0.34432600189205126,
            ],
            [
                0.014688244958346874, 0.04225931379953224, 0.05384912367139627,
                0.23045074543321048, 0.2539228349084688, 0.2932464280527315,
            ],
            [0.2559731844099108, 0.2574588565080246, 0.29884072593099825, 0.364400393615691, inf, inf],
        ],
        [[1, 3, 0, 0, 0, 0], [1, 1, 1, 3, 1, 0], [3, 1, 0, 4, 0, 0]],
        [[2, 5, 3, 4, 1, 6], [4, 5, 2, 6, 3, 1], [6, 2, 3, 5, 0, 0]],
    ),
}


class TestMarcusLushnikov:
    def test_mass_conservation(self, rng):
        traj = marcus_lushnikov([[1.0, 2.0, 3.0]], "additive", rng, t_max=10.0)
        for s in (0.0, 0.5, 10.0):
            assert traj.masses_at(s).sum() == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "kernel", ["Additive", "kingman", lambda a, b: 1.0], ids=["capitalised", "kingman", "callable"]
    )
    def test_unknown_kernel_refused(self, rng, kernel):
        with pytest.raises(ValueError, match="kernel must be one of 'additive', 'multiplicative'"):
            marcus_lushnikov(np.ones((1, 4)), kernel, rng, t_max=100.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sizes_are_the_runs_block_sizes(self, seed):
        # the int64 sizes are the unit-mass run's masses, and the 1/n-mass
        # run's masses times n, on the same draws
        n, reps, p, s = 6, 300, 0.3, 0.5
        tau = -np.log1p(-p)
        mult = ml_multiplicative_sizes(n, p, np.random.default_rng(seed), reps=reps)
        traj = marcus_lushnikov(np.ones((reps, n)), "multiplicative", np.random.default_rng(seed), t_max=tau)
        assert mult.dtype == np.int64
        assert np.array_equal(mult, traj.values_at(tau).astype(np.int64))
        add = ml_additive_sizes(n, s, np.random.default_rng(seed), reps=reps)
        traj = marcus_lushnikov(np.full((reps, n), 1 / n), "additive", np.random.default_rng(seed), t_max=s)
        assert add.dtype == np.int64
        assert np.array_equal(add, np.rint(traj.values_at(s) * n))

    def test_multiplicative_matches_graph_components(self, rng):
        # ML with unit masses run to -ln(1-p) is G(n,p) in law
        n, reps, lam = 5, 20000, 0.5
        p = p_lambda(n, lam)
        ml = row_counts(ml_multiplicative_sizes(n, p, rng, reps=reps))
        rep, sizes, _ = graph_route(n, [lam], rng, reps=reps)[0]
        graph = row_counts(replicate_rows(rep, sizes, reps, n))
        assert tv_distance(ml, graph) < 0.025

    def test_additive_matches_forest_process(self, rng):
        n, reps, s_obs = 5, 20000, 0.7
        ml = row_counts(ml_additive_sizes(n, s_obs, rng, reps=reps))
        forest = row_counts(pitman_forest(n, rng, reps=reps).tree_sizes_at(s_obs))
        assert tv_distance(ml, forest) < 0.025

    def test_batch_rows_conserve_mass(self, rng):
        masses = rng.random((50, 6)) + 0.1
        traj = marcus_lushnikov(masses, "additive", rng, t_max=0.8)
        for s in (0.0, 0.3, 0.8):
            rows = traj.masses_at(s)
            assert rows.shape == (50, 6)
            assert rows.sum(axis=1) == pytest.approx(masses.sum(axis=1))
            assert (np.diff(rows, axis=1) <= 0).all()
        assert (traj.events.time <= 0.8).all()

    @pytest.mark.parametrize("key", list(_ML_DRAWS), ids=lambda key: "-".join(map(str, key)))
    def test_draws_are_stable(self, key):
        kernel, m0, reps, seed = key
        if kernel == "additive":
            masses, t_max = np.full((reps, m0), 1.0 / m0), 1.0
        else:
            masses, t_max = np.ones((reps, m0)), 0.4
        traj = marcus_lushnikov(masses, kernel, np.random.default_rng(seed), t_max)
        times, i, j = _ML_DRAWS[key]
        assert traj.times.tolist() == times
        assert traj.i.tolist() == i
        assert traj.j.tolist() == j

    def test_rejects_non_positive_masses(self, rng):
        with pytest.raises(ValueError):
            marcus_lushnikov([[1.0, 0.0, 2.0]], "additive", rng, t_max=1.0)

    def test_p_validation(self, rng):
        with pytest.raises(ValueError):
            ml_multiplicative_sizes(4, 1.0, rng)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda rng: marcus_lushnikov([[nan, 1, 1]], "additive", rng, 1.0),
                "masses must be a finite positive (reps, m0) array",
                id="nan-mass",
            ),
            pytest.param(
                lambda rng: marcus_lushnikov([[inf, 1, 1]], "multiplicative", rng, 1.0),
                "masses must be a finite positive (reps, m0) array",
                id="inf-mass",
            ),
            pytest.param(
                lambda rng: marcus_lushnikov([[1, -inf, 1]], "additive", rng, 1.0),
                "masses must be a finite positive (reps, m0) array",
                id="minus-inf-mass",
            ),
            pytest.param(
                lambda rng: marcus_lushnikov([[1, 1, 1]], "multiplicative", rng, nan),
                "t_max must be a number, got nan",
                id="nan-t_max",
            ),
            pytest.param(lambda rng: ml_additive_sizes(4, -1.0, rng), "s must be >= 0, got s = -1.0", id="negative-s"),
            pytest.param(lambda rng: ml_additive_sizes(4, nan, rng), "s must be >= 0, got s = nan", id="nan-s"),
            pytest.param(lambda rng: ml_multiplicative_sizes(4, nan, rng), "p must lie in [0, 1)", id="nan-p"),
        ],
    )
    def test_bad_input_refused_before_any_draw(self, call, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(message)):
            call(rng)
        assert rng.bit_generator.state == state

    def test_infinite_horizon_runs_to_one_block(self, rng):
        traj = marcus_lushnikov(np.ones((3, 4)), "multiplicative", rng, t_max=inf)
        assert np.isfinite(traj.times).all()
        assert traj.masses_at(inf).tolist() == [[4.0, 0.0, 0.0, 0.0]] * 3


def _exact_test(counts, law, reps):
    """Every observed outcome is in the support and every frequency lies
    within 5 standard errors of its exact probability."""
    assert set(counts) <= set(law)
    for key, prob in law.items():
        prob = float(prob)
        freq = counts.get(key, 0) / reps
        assert abs(freq - prob) <= 5 * np.sqrt(prob * (1 - prob) / reps) + 1e-12, key


def _gnp_laws(n, pf):
    """Exact laws of G(n, p) from all its edge subsets: the sorted component
    sizes, and the (size, excess) pairs keyed as sample_walk_outcomes keys
    them (by decreasing size, then excess, flat and padded to 2n)."""
    pairs = list(itertools.combinations(range(n), 2))
    size_law, pair_law = {}, {}
    for mask in range(1 << len(pairs)):
        kept = [e for e in range(len(pairs)) if mask >> e & 1]
        label = list(range(n))
        for e in kept:
            a, b = pairs[e]
            old, new = label[b], label[a]
            label = [new if x == old else x for x in label]
        comps = []
        for c in set(label):
            size = label.count(c)
            edges = sum(label[pairs[e][0]] == c for e in kept)
            comps.append((size, edges - size + 1))
        comps.sort(key=lambda sc: (-sc[0], sc[1]))
        prob = pf ** len(kept) * (1 - pf) ** (len(pairs) - len(kept))
        size_key = tuple([size for size, _ in comps] + [0] * (n - len(comps)))
        pair_key = tuple(itertools.chain(*comps)) + (0,) * (2 * (n - len(comps)))
        size_law[size_key] = size_law.get(size_key, 0) + prob
        pair_law[pair_key] = pair_law.get(pair_key, 0) + prob
    return size_law, pair_law


class TestExactSmallLaws:
    """The batched oracles against laws computed without sampling."""

    def test_multiplicative_n4_matches_enumerated_gnp(self, rng):
        # the law of the component sizes of G(4, p), from all 64 edge subsets
        n, lam, reps = 4, 0.5, 20000
        p = p_lambda(n, lam)
        law, _ = _gnp_laws(n, Fraction(p))
        assert sum(law.values()) == 1
        ml = ml_multiplicative_sizes(n, p, rng, reps=reps)
        _exact_test(row_counts(ml), law, reps)
        rep, sizes, _ = graph_route(n, [lam], rng, reps=reps)[0]
        _exact_test(row_counts(replicate_rows(rep, sizes, reps, n)), law, reps)

    def test_walk_route_n4_matches_enumerated_size_excess(self, rng):
        # the walk's per-component surplus has the law of the graph's excess
        n, lam, reps = 4, 0.5, 20000
        _, law = _gnp_laws(n, Fraction(p_lambda(n, lam)))
        assert sum(law.values()) == 1
        _exact_test(sample_walk_outcomes(n, lam, reps, rng), law, reps)

    def test_additive_n3_matches_closed_form(self, rng):
        n, s, reps = 3, 0.5, 20000
        e1, e2 = np.exp(-s), np.exp(-2 * s)
        law = {(1, 1, 1): e2, (2, 1, 0): 2 * e1 - 2 * e2, (3, 0, 0): 1 - 2 * e1 + e2}
        ml = ml_additive_sizes(n, s, rng, reps=reps)
        _exact_test(row_counts(ml), law, reps)
        _exact_test(row_counts(pitman_forest(n, rng, reps=reps).tree_sizes_at(s)), law, reps)
