"""Independent per-UAV tabular Q-learning on the condensed waypoint graph.

State: the UAV's own centroid. Action: the next centroid, restricted to
graph neighbors reachable in one slot (hover included). Each UAV keeps its
own table and learns from its own reward; coordination is emergent, not
communicated.

Update rule per transition (s, a, r, s'):

    y       = r + zeta * max_{a' feasible at s'} Q[s'][a']
    Q[s][a] = (1 - alpha_q) * Q[s][a] + alpha_q * y
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import ScenarioConfig
from .condense import CondensedGraph, virtual_edge_set


class QTable:
    """One UAV's action values, stored per state in neighbor-list order."""

    def __init__(self, graph: CondensedGraph):
        self.values = [np.zeros(len(nb)) for nb in graph.neighbors]

    def lookup(self, s: int, a: int, graph: CondensedGraph) -> float:
        pos = int(np.searchsorted(graph.neighbors[s], a))
        return float(self.values[s][pos])


class ActionSpace:
    """Feasible move targets per state for one (graph, config) pair.

    A neighbor is feasible if it is the node itself (hover), lies within
    the one-slot move radius, or is joined by a virtual corridor edge
    (connectivity repair would be pointless if the corridor were barred).
    """

    def __init__(self, graph: CondensedGraph, cfg: ScenarioConfig):
        radius = cfg.move_radius_m()
        virt = virtual_edge_set(graph)
        self.graph = graph
        self.positions = []
        for s, nb in enumerate(graph.neighbors):
            d = np.linalg.norm(graph.centroids[nb] - graph.centroids[s], axis=1)
            ok = np.zeros(len(nb), dtype=bool)
            for k, a in enumerate(nb):
                pair = (min(s, int(a)), max(s, int(a)))
                ok[k] = a == s or d[k] <= radius or pair in virt
            self.positions.append(np.flatnonzero(ok))

    def actions(self, s: int) -> np.ndarray:
        """Feasible target centroid ids, ascending."""
        return self.graph.neighbors[s][self.positions[s]]


def feasible_actions(graph: CondensedGraph, s: int, cfg: ScenarioConfig) -> np.ndarray:
    """Never empty: the self-loop keeps hovering available everywhere."""
    return ActionSpace(graph, cfg).actions(s)


def select_action(q: QTable, s: int, eps: float, rng: np.random.Generator,
                  space: ActionSpace) -> int:
    """Epsilon-greedy over feasible actions; greedy ties break low-index."""
    pos = space.positions[s]
    if eps > 0.0 and rng.random() < eps:
        return int(space.graph.neighbors[s][pos[rng.integers(len(pos))]])
    vals = q.values[s][pos]
    return int(space.graph.neighbors[s][pos[int(np.argmax(vals))]])


def reward(counts: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Per-UAV priority-weighted penalty on outage counts and class fractions.

    counts is radio.outage_counts' table, users by [clear, outage]
    [regular, priority][ABS]. A fraction is over the class's users served by
    that ABS, 0 if it serves none. Every total is non-positive.
    """
    served = counts[0] + counts[1]
    out = counts[1]
    frac = np.divide(out, served, out=np.zeros(served.shape), where=served > 0)
    penalty = out + frac
    return -(cfg.mu_pr * penalty[1] + cfg.mu_nr * penalty[0])


def td_update(q: QTable, s: int, a: int, r: float, s_next: int,
              cfg: ScenarioConfig, space: ActionSpace) -> float:
    """One Q-learning backup; returns the new Q[s][a]."""
    nxt = q.values[s_next][space.positions[s_next]]
    y = r + cfg.zeta * float(nxt.max())
    pos = int(np.searchsorted(space.graph.neighbors[s], a))
    new = (1.0 - cfg.alpha_q) * q.values[s][pos] + cfg.alpha_q * y
    q.values[s][pos] = new
    return float(new)


def export_qtables(path, qtables: list, graph: CondensedGraph) -> None:
    """CSV snapshot, one row per (uav, state, action)."""
    with open(path, "w") as fh:
        fh.write("uav,state,action,value\n")
        for n, q in enumerate(qtables):
            for s, nb in enumerate(graph.neighbors):
                for k, a in enumerate(nb):
                    fh.write(f"{n},{s},{int(a)},{float(q.values[s][k])!r}\n")


def load_qtables(path, graph: CondensedGraph, n_uav: int) -> list:
    """Rebuild tables from export_qtables output; shape must match graph."""
    qtables = [QTable(graph) for _ in range(n_uav)]
    seen = [[np.zeros(len(nb), dtype=bool) for nb in graph.neighbors]
            for _ in range(n_uav)]
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "uav,state,action,value":
            raise ValueError(f"unexpected Q-table header: {header!r}")
        for line in fh:
            n_s, s_s, a_s, v_s = line.strip().split(",")
            n, s, a = int(n_s), int(s_s), int(a_s)
            if not (0 <= n < n_uav and 0 <= s < graph.n_centroids):
                raise ValueError(f"Q-table row out of range: {line.strip()}")
            pos = int(np.searchsorted(graph.neighbors[s], a))
            if pos >= len(graph.neighbors[s]) or graph.neighbors[s][pos] != a:
                raise ValueError(f"action {a} is not a neighbor of state {s}")
            value = float(v_s)
            if not math.isfinite(value):
                raise ValueError(f"non-finite Q-value: {line.strip()}")
            qtables[n].values[s][pos] = value
            seen[n][s][pos] = True
    for n in range(n_uav):
        for s in range(graph.n_centroids):
            if not seen[n][s].all():
                raise ValueError(f"Q-table misses entries for uav {n}, state {s}")
    return qtables
