"""Atom-search optimization on benchmark functions.

Atoms move under a Lennard-Jones-style force from the K best atoms
(repulsive when crowded, attractive at range) plus a decaying pull toward
the best-known position. K shrinks from the whole population to 2, so the
swarm explores first and exploits last.
"""

import numpy as np

from dosids.aso import AsoConfig, SearchSpace, optimize, random_search

print("== 2-D sphere, bounds [-5, 5]^2 ==")
space = SearchSpace([-5.0, -5.0], [5.0, 5.0])
sphere = lambda x: float((x ** 2).sum())

result = optimize(sphere, space, AsoConfig(population=20, iterations=200, seed=0))
print(f"best fitness {result.fitness:.3e} at {np.round(result.position, 6)} "
      f"after {result.evaluations} evaluations")
print("convergence (iteration, best, mean, K):")
for row in result.trace[::40] + [result.trace[-1]]:
    nt, best, mean, k = row
    print(f"  nt={nt:>3}  best={best:.3e}  population mean={mean:.3e}  K={k}")

_, rs_best = random_search(sphere, space, result.evaluations, seed=0)
print(f"uniform random search at the same budget: {rs_best:.3e} "
      f"({rs_best / max(result.fitness, 1e-300):.1e}x worse)")

print("\n== 1-D |x - 2| on [0, 5] ==")
line = SearchSpace([0.0], [5.0])
hits = []
for seed in range(10):
    r = optimize(lambda x: float(abs(x[0] - 2.0)), line,
                 AsoConfig(population=20, iterations=200, seed=seed))
    hits.append(r.position[0])
print("best positions over 10 seeds:", np.round(hits, 4))
