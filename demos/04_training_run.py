"""
One full training run, narrated
===============================

Condense, learn, evaluate, on the stock scenario. Takes about five
seconds on a 2-core Xeon; everything printed here also lands in the run
artifacts when the same thing is done through the command line.
"""

import numpy as np

from absim.scenario import ScenarioConfig
from absim.sim import train

cfg = ScenarioConfig()
result = train(cfg, method="qa")
rep = result.report

print(f"method {rep.method}, seed {rep.seed}, config {rep.config_hash}")
print(f"graph: {len(result.world.graph.centroids)} centroids, "
      f"{rep.n_edges} edges ({rep.n_virtual_edges} virtual), "
      f"distortion {rep.distortion:.3e}")
print(f"wall time: condensation {rep.condense_time_s:.2f} s, "
      f"learning {rep.rl_time_s:.2f} s")

# each UAV explores with probability eps, which decays per episode
curve = np.array(rep.reward_curve)
eps = np.array(rep.eps_curve)
print("\nlearning curve (episode-mean summed penalty, 50-episode bins)")
lo_v, hi_v = curve.min(), curve.max()
for lo in range(0, len(curve), 50):
    chunk = curve[lo:lo + 50]
    v = chunk.mean()
    # a flat curve (one episode, say) draws full-width bars
    bar = "#" * (int(1 + 44 * (v - lo_v) / (hi_v - lo_v)) if hi_v > lo_v else 45)
    print(f"ep {lo:3d}-{lo + len(chunk) - 1:3d}  eps {eps[lo]:.2f}  {v:8.1f}  {bar}")

gain = curve[-50:].mean() - curve[:50].mean()
print(f"\nlast-50 minus first-50 episode reward: {gain:+.1f}")

# greedy evaluation runs on its own random streams with eps pinned to 0
print("\ngreedy evaluation over fresh episodes")
for k, v in rep.eval_outage.items():
    print(f"  {k:>8} outage {v:.3f}")
print(f"  mean uplink rate {rep.eval_mean_rate_bps / 1e6:.3f} Mbit/s")

# the constraint audit must stay silent: every move on the graph, inside
# the area, under the speed and power caps
print("\nconstraint audit:", rep.audit)

# where the UAVs settled: final greedy episode, first and last waypoints
print("\ngreedy trajectory endpoints (uav: start -> end centroid)")
rows = np.array(rep.eval_trajectory)
for n in range(cfg.n_uav):
    mine = rows[rows[:, 0] == n]
    first, last = mine[0], mine[-1]
    print(f"  uav {n}: c{int(first[2]):02d} ({first[3]:6.0f},{first[4]:6.0f})"
          f" -> c{int(last[2]):02d} ({last[3]:6.0f},{last[4]:6.0f})")
