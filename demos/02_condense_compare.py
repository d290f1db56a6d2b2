"""
Three ways to condense the waypoint grid
========================================

The planner never works on the 400 raw candidate waypoints. It works on a
condensed vocabulary of 33 centroids. This script builds that vocabulary
with each of the three condensers and compares what comes out.
"""

import numpy as np

from absim.condense import kmeans_condense, qa_condense, snrp_condense, sq_dist
from absim.scenario import ScenarioConfig, drop_users, generate_candidates

cfg = ScenarioConfig()
nodes = generate_candidates(cfg)
users_xy, priority_mask = drop_users(cfg)
print(f"{len(nodes)} candidates on a {cfg.x_max:.0f} x {cfg.y_max:.0f} m area, "
      f"target {cfg.n_centroids} centroids, {len(users_xy)} users "
      f"({int(priority_mask.sum())} priority)")

graphs = {
    "qa": qa_condense(nodes, cfg),
    "kmeans": kmeans_condense(nodes, cfg),
    "snrp": snrp_condense(nodes, users_xy, priority_mask, cfg),
}

# distortion is what qa and kmeans optimize; snrp ignores it by design and
# chases user-weighted channel quality instead
print(f"\n{'method':>8} {'distortion':>12} {'vs kmeans':>10} "
      f"{'nn median m':>12} {'virtual edges':>14}")
km_dist = graphs["kmeans"].distortion
for name, g in graphs.items():
    d = np.sqrt(sq_dist(g.centroids, g.centroids))
    np.fill_diagonal(d, np.inf)
    nn_median = float(np.median(d.min(axis=1)))
    print(f"{name:>8} {g.distortion:12.0f} {g.distortion / km_dist:10.3f} "
          f"{nn_median:12.0f} {sum(v for _, _, v in g.edges):14d}")

if graphs["qa"].init_distortion is not None:
    g = graphs["qa"]
    print(f"\nannealing moved distortion {g.init_distortion:.0f} -> "
          f"{g.distortion:.0f} ({g.distortion / g.init_distortion:.2f}x the "
          f"random start)")

# coarse map: each panel marks centroid cells on a 28 x 14 character grid
cols, rows = 28, 14
for name, g in graphs.items():
    panel = [[" "] * cols for _ in range(rows)]
    for x, y in g.centroids:
        c = min(int(x / cfg.x_max * cols), cols - 1)
        r = min(int(y / cfg.y_max * rows), rows - 1)
        panel[rows - 1 - r][c] = "o"
    print(f"\n{name} centroid layout")
    print("+" + "-" * cols + "+")
    for line in panel:
        print("|" + "".join(line) + "|")
    print("+" + "-" * cols + "+")

# same objective, two optimizers: qa and kmeans land on interchangeable
# vocabularies; snrp trades spatial coverage for channel-weighted hot spots
ratio = graphs["snrp"].distortion / km_dist
print(f"\nsnrp accepts {ratio:.1f}x the kmeans distortion to sit closer to users")
