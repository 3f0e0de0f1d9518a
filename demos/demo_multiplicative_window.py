"""The critical window of the random graph, two ways, plus its limit.

At p = 1/n + lambda/n^{4/3} the largest components live at scale n^{2/3}.
One realisation of edge weights serves a whole grid of lambda values
(the level graphs are nested), which makes the coalescence visible:
partial sums of squared rescaled masses only ever grow with lambda.
The rescaled largest mass is then compared, in distribution, with the
largest excursion of a reflected Brownian path with parabolic drift.
"""

import numpy as np

from primcoal import (
    gamma_times,
    graph_route,
    ks_two_sample,
    limit_gamma,
    simulate_parabolic,
)

rng = np.random.default_rng(123)
n = 50000
lambdas = [-2.0, -1.0, 0.0, 1.0, 2.0]

print(f"one coupled realisation at n={n}:")
states = graph_route(n, lambdas, rng)
for lam, (_, sizes, excess) in zip(lambdas, states):
    gam = gamma_times(n, sizes)
    top = ", ".join(f"{gam[i]:.3f}" for i in range(3))
    print(
        f"  lambda={lam:+.0f}: top masses ({top}), "
        f"sum gamma^2={gam.partial_square_sums()[-1]:.3f}, "
        f"largest excess={int(excess.max())}"
    )

print("\ndistributional check of the largest mass at lambda=0")
reps = 400
discrete = [
    graph_route(n, [0.0], rng)[0][1][0] / n ** (2 / 3) for _ in range(reps)
]
brownian = [
    limit_gamma(simulate_parabolic(0.0, rng, horizon=10.0, dx=1e-3))[0]
    for _ in range(reps)
]
verdict = ks_two_sample(discrete, brownian, "largest mass vs largest excursion")
print(f"  KS statistic {verdict.statistic:.4f}  (threshold {verdict.threshold:.4f})")
print(f"  {'consistent' if verdict.passed else 'NOT consistent'} at the 0.1% level")
