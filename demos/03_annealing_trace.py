"""
Watching the annealer cool
==========================

A closer look at one condensation run: how the Metropolis chain behaves
while the temperature drops, and when the stop rules fire.
"""

import dataclasses

import numpy as np

from absim.condense import accept, kmeans_condense, qa_condense
from absim.scenario import ScenarioConfig, generate_candidates, rng_stream

cfg = ScenarioConfig()
nodes = generate_candidates(cfg)

graph = qa_condense(nodes, cfg)
tr = graph.trace
steps = len(tr["temperature"])
per_temp = cfg.proposals_per_temp or cfg.n_centroids
print(f"{steps} temperature steps x {per_temp} proposals each "
      f"({steps * per_temp} proposals total)")
print(f"distortion {graph.init_distortion:.3e} -> {graph.distortion:.3e}")

# acceptance thins out as the chain cools: early on almost any reshuffle
# is tolerated, late in the run only improvements get through
acc = np.diff(tr["accepted"], prepend=0)
print("\nphase-by-phase acceptance")
for lo in range(0, steps, max(steps // 8, 1)):
    hi = min(lo + max(steps // 8, 1), steps)
    frac = acc[lo:hi].sum() / ((hi - lo) * per_temp)
    t_mid = tr["temperature"][(lo + hi) // 2]
    print(f"steps {lo:3d}-{hi:3d}  T ~ {t_mid:9.3f}  accepted {frac:5.1%}  "
          + "#" * int(frac * 40))

# best-seen distortion only moves down; most of the drop happens early
best = tr["best"]
print("\nbest distortion descent (row = eighth of the run)")
lo_v, hi_v = best.min(), best.max()
for lo in range(0, steps, max(steps // 8, 1)):
    hi = min(lo + max(steps // 8, 1), steps)
    v = best[hi - 1]
    bar = "#" * int(1 + 50 * (v - lo_v) / (hi_v - lo_v))
    print(f"step {hi - 1:3d}  {v:.3e}  {bar}")

# the acceptance rule itself, in isolation: downhill always passes,
# uphill passes with probability exp(-delta / T)
rng = rng_stream(7, "condense")
print("\nMetropolis spot checks (10000 trials each)")
for delta, temp in ((-5.0, 1.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.25), (5.0, 1.0)):
    hits = sum(accept(delta, temp, rng) for _ in range(10000))
    want = 1.0 if delta <= 0 else float(np.exp(-delta / temp))
    print(f"delta {delta:+5.1f}  T {temp:4.2f}  accepted {hits / 10000:.3f}  "
          f"expected {want:.3f}")

# a fair quality yardstick: several random-restart Lloyd runs
best_km = min(
    kmeans_condense(nodes, dataclasses.replace(cfg, seed=s)).distortion
    for s in range(10)
)
print(f"\nbest of 10 kmeans restarts {best_km:.3e}; "
      f"annealer/best ratio {graph.distortion / best_km:.3f}")
