"""Independent per-UAV tabular Q-learning on the condensed waypoint graph.

State: the UAV's own centroid. Action: the next centroid, one of the
graph's one-slot moves (hover included). Each UAV keeps its own table and
learns from its own reward; coordination is emergent, not communicated.

Update rule per transition (s, a, r, s'):

    y       = r + zeta * max_{a' feasible at s'} Q[s'][a']
    Q[s][a] = (1 - alpha_q) * Q[s][a] + alpha_q * y

A world's tables are one dense (n_uav, M, M) array Q[n, s, a]. The
feasible moves are the condensed graph's (M, M) adjacency `graph.adj`. The
learner's working copy holds -inf off it (see masked), so a greedy pick is
a plain argmax and a bootstrap a plain max; snapshots (export_qtables,
load_qtables) hold 0 there instead. Worlds stepped in lockstep stack these
along a leading world axis, so selection and backups take one call per
slot.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .scenario import ScenarioConfig
from .condense import CondensedGraph


def move_table(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets per state of an (M, M) adjacency, ascending and left-aligned
    in an (M, M) table padded with -1, and their count per state."""
    m = adj.shape[-1]
    n_moves = adj.sum(axis=-1)
    first = np.argsort(~adj, axis=-1, kind="stable")
    return np.where(np.arange(m) < n_moves[:, None], first, -1), n_moves


@lru_cache(maxsize=16)
def _index_arrays(n_worlds: int, n_uav: int):
    """Index arrays that pair each (world, UAV) entry of states with its table."""
    w, n = np.arange(n_worlds)[:, None], np.arange(n_uav)
    w.flags.writeable = n.flags.writeable = False   # shared between calls
    return w, n


def masked(q: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Q-tables with -inf off the graph's moves; adj broadcasts as an
    (..., M, M) table per world."""
    return np.where(adj[..., None, :, :], q, -np.inf)


def select_action(q: np.ndarray, states: np.ndarray, eps: float, rngs: list,
                  moves: list, n_moves: list) -> np.ndarray:
    """Epsilon-greedy next centroid for every UAV of every world.

    q is the masked (S, n_uav, M, M) tensor and states (S, n_uav); moves
    and n_moves are the worlds' move tables as nested lists. Greedy ties
    break to the lowest index. World w explores with its own stream
    rngs[w], UAV by UAV: random(), then, if below eps, integers() over the
    feasible targets. With eps = 0 nothing is drawn.
    """
    w, n = _index_arrays(*states.shape)
    actions = q[w, n, states].argmax(axis=-1)
    if eps > 0.0:
        for k, (rng, row) in enumerate(zip(rngs, states.tolist())):
            for u, s in enumerate(row):
                if rng.random() < eps:
                    actions[k, u] = moves[k][s][rng.integers(n_moves[k][s])]
    return actions


def reward(counts: np.ndarray, mu_pr, mu_nr) -> np.ndarray:
    """Per-UAV priority-weighted penalty on outage counts and class fractions.

    counts is radio.outage_counts' table, users by [clear, outage]
    [regular, priority][ABS], with optional leading world axes; mu_pr and
    mu_nr broadcast against the (..., n_uav) result, so lockstep worlds may
    weigh differently. A fraction is over the class's users served by that
    ABS, 0 if it serves none. Every total is non-positive.
    """
    out = counts[..., 1, :, :]
    served = counts[..., 0, :, :] + out
    penalty = out + out / np.maximum(served, 1)     # served == 0 implies out == 0
    return -(mu_pr * penalty[..., 1, :] + mu_nr * penalty[..., 0, :])


def td_update(q: np.ndarray, states: np.ndarray, actions: np.ndarray,
              rewards: np.ndarray, next_states: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """One Q-learning backup per UAV of every world; returns the new Q[s][a].

    Shapes as in select_action. Every bootstrap max is read before any
    entry is written, so a hover backup sees its own old value.
    """
    w, n = _index_arrays(*states.shape)
    nxt = np.maximum.reduce(q[w, n, next_states], axis=-1)
    y = rewards + cfg.zeta * nxt
    new = (1.0 - cfg.alpha_q) * q[w, n, states, actions] + cfg.alpha_q * y
    q[w, n, states, actions] = new
    return new


def export_qtables(path, qtables: np.ndarray, graph: CondensedGraph) -> None:
    """CSV snapshot of one world's (n_uav, M, M) tables, one row per
    (uav, state, action) graph move."""
    states, actions = np.nonzero(graph.adj)     # row-major: by state, then action
    with open(path, "w") as fh:
        fh.write("uav,state,action,value\n")
        for n, q in enumerate(qtables):
            for s, a, v in zip(states.tolist(), actions.tolist(), q[states, actions].tolist()):
                fh.write(f"{n},{s},{a},{v!r}\n")


def load_qtables(path, graph: CondensedGraph, n_uav: int) -> np.ndarray:
    """Rebuild the (n_uav, M, M) tables from export_qtables output; the
    rows must cover the graph's moves, each exactly once."""
    m = graph.n_centroids
    adj = graph.adj
    q = np.zeros((n_uav, m, m))
    seen = np.zeros((n_uav, m, m), dtype=bool)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "uav,state,action,value":
            raise ValueError(f"unexpected Q-table header: {header!r}")
        for line in fh:
            n_s, s_s, a_s, v_s = line.strip().split(",")
            n, s, a = int(n_s), int(s_s), int(a_s)
            if not (0 <= n < n_uav and 0 <= s < m):
                raise ValueError(f"Q-table row out of range: {line.strip()}")
            if not (0 <= a < m and adj[s, a]):
                raise ValueError(f"action {a} is not a neighbor of state {s}")
            value = float(v_s)
            if not math.isfinite(value):
                raise ValueError(f"non-finite Q-value: {line.strip()}")
            if seen[n, s, a]:
                raise ValueError(f"repeated Q-table row: {line.strip()}")
            q[n, s, a] = value
            seen[n, s, a] = True
    missing = adj & ~seen
    if missing.any():
        n, s, _ = np.argwhere(missing)[0]
        raise ValueError(f"Q-table misses entries for uav {n}, state {s}")
    return q
