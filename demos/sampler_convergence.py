"""How close does the Markov chain sampler get to the exact measure?

On a 2x2 box every configuration can be enumerated, so the sampled
configuration frequencies have an exact reference.  The script prints the
total variation distance as the sample budget grows, for the one cluster
chain: Swendsen-Wang colours at integer q, Chayes-Machta activations at
fractional q.
"""
import numpy as np

from fkpoisson import Box, FKParams, enumerate_measure, sample_states

box = Box.cube(2, 2)

for params, label in ((FKParams(0.5, 2.0), "Swendsen-Wang, q=2"),
                      (FKParams(0.6, 1.5), "Chayes-Machta, q=1.5")):
    dist = enumerate_measure(box, params)
    print(f"\n{label} (p={params.p})")
    weights = 1 << np.arange(box.n_bonds)
    for budget in (1_000, 10_000, 100_000):
        states = sample_states(params, box, budget, thinning=10,
                               burn_in=1000, seed=1)
        freq = np.bincount(states @ weights, minlength=dist.n_configs) / budget
        tv = np.abs(freq - dist.probs).sum()
        print(f"  {budget:>7d} samples: tv = {tv:.4f}")
print("\ntv should fall like 1/sqrt(samples); the exact distribution is")
print("the 16-entry table from enumerate_measure.")
