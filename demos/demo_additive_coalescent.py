"""Four faces of the additive coalescent at finite n.

The same block-size law shows up as: ladder intervals of a thinned
conditioned walk, parking blocks on a circular lot, trees of Pitman's
forest-valued merge process, and percolation clusters of a uniform Cayley
tree.  This script samples each representation and compares summary
statistics, then checks the walk's largest block against the tilted
Brownian excursion limit.
"""

import numpy as np

from primcoal import (
    ThinnedWalkFamily,
    gamma_plus,
    ks_two_sample,
    limit_gamma,
    park,
    percolate_cayley,
    pitman_forest,
    sample_conditioned_walk,
    simulate_excursion,
)

rng = np.random.default_rng(2024)
n, lam = 2000, 1.0
t = 1.0 - lam / np.sqrt(n)

walk = sample_conditioned_walk(n, rng)
family = ThinnedWalkFamily(walk, rng)
gam = gamma_plus(family, lam)
print(f"thinned walk, n={n}, lambda={lam} (t={t:.4f}):")
print("  top blocks:", np.round(gam.values[:5], 4))

m = int(n - lam * np.sqrt(n))
blocks = park(n, m, rng).block_sizes()
print(f"parking with m={m} cars: top blocks {np.round(np.array(blocks[:5]) / n, 4)}")

forest = pitman_forest(200, rng)
mid = forest.merges[len(forest.merges) // 2].time
print(f"forest process at its median merge time: {forest.tree_sizes_at(mid)[0, :8].tolist()} ...")

_, _, sizes = percolate_cayley(2000, t, rng)
print(f"percolated Cayley tree at t={t:.4f}: top clusters {np.round(np.array(sizes[:5]) / 2000, 4)}")

print("\nlargest block vs largest excursion of the tilted Brownian excursion")
reps = 300
discrete = []
for _ in range(reps):
    fam = ThinnedWalkFamily(sample_conditioned_walk(n, rng), rng)
    discrete.append(gamma_plus(fam, lam)[0])
brownian = [
    limit_gamma(simulate_excursion(lam, rng, dx=1e-3))[0] for _ in range(reps)
]
verdict = ks_two_sample(discrete, brownian, "largest additive block")
print(f"  KS statistic {verdict.statistic:.4f}  (threshold {verdict.threshold:.4f})")
print(f"  {'consistent' if verdict.passed else 'NOT consistent'} at the 0.1% level")
