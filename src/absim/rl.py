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
slot. Epsilon-greedy exploration is drawn once per episode, from the raw
words of each world's stream (draw_exploration), exactly as numpy 2.4.6's
Generator calls would draw it slot by slot (a test checks this against the
installed numpy's own calls); a one-centroid world draws none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scenario import ScenarioConfig
from .condense import CondensedGraph


def move_table(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets per state of (..., M, M) adjacencies, ascending and left-aligned
    in a table of that shape padded with -1, and their count per state."""
    m = adj.shape[-1]
    n_moves = adj.sum(axis=-1)
    first = np.argsort(~adj, axis=-1, kind="stable")
    return np.where(np.arange(m) < n_moves[..., None], first, -1), n_moves


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


# Generator.random() scales (word >> 11) by 2**-53
_UNIT = 1.0 / 9007199254740992.0


class Exploration(NamedTuple):
    """One episode's epsilon-greedy draws of every row, taken at its start.

    slots[t] is None if no UAV explores in slot t, else the (S, n_uav)
    arrays (explore, half): UAV u of row k explores where explore[k, u],
    with the 32-bit draw half[k, u]. Rows in per_call, whose draws Lemire's
    method could reject, draw from rngs[k] call by call, in select_action.
    moves[k] and n_moves[k] are row k's move table (rl.move_table).
    """

    eps: float
    rngs: list
    moves: np.ndarray             # (S, M, M)
    n_moves: np.ndarray           # (S, M)
    slots: list
    per_call: tuple


def _episode_halves(bitgen, eps: float, n_draws: int, m: int) -> np.ndarray | None:
    """The 32-bit draws of n_draws selections, each random() and, if that
    is below eps, integers(n) for the state's n >= 2 moves, read from raw
    words; -1 for a selection that does not explore.

    This emulates numpy 2.4.6's PCG64 Generator: random() is (w >> 11) *
    2**-53 of one fresh word w; integers(n) is Lemire's method on a 32-bit
    half, the low half of a fresh word first, its high half kept in the
    generator (has_uint32, uinteger) for the next call, across episodes.
    bitgen is left where those calls would leave it. None, with bitgen
    untouched, if Lemire could reject a half for some n in [2, m]
    (leftover < n, about n / 2**32 per half): the caller then draws call
    by call.
    """
    saved = bitgen.state
    # every other exploration takes a fresh word, so this many always do
    words = bitgen.random_raw(n_draws + (n_draws + 1) // 2)
    explores = ((words >> 11) * _UNIT < eps).tolist()
    words = words.tolist()
    has, buf = saved["has_uint32"], saved["uinteger"]
    drawn, pos = [], 0
    for _ in range(n_draws):
        pos += 1
        if not explores[pos - 1]:
            drawn.append(-1)
        elif has:
            drawn.append(buf)
            has = 0
        else:
            drawn.append(words[pos] & 0xFFFFFFFF)
            has, buf, pos = 1, words[pos] >> 32, pos + 1
    drawn = np.array(drawn)
    bitgen.state = saved
    n = np.arange(2, m + 1)         # a -1 leaves 2**32 - n: never below n
    if np.any((drawn[:, None] * n) & 0xFFFFFFFF < n):
        return None
    bitgen.advance(pos)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, buf
    bitgen.state = state
    return drawn


def draw_exploration(rngs: list, eps: float, n_slots: int, n_uav: int,
                     moves: np.ndarray, n_moves: np.ndarray) -> Exploration:
    """Every row's exploration draws for an episode of n_slots, row k from
    its own stream rngs[k]; see _episode_halves.

    moves and n_moves are the rows' (S, M, M) and (S, M) move tables.
    Whether a UAV explores does not depend on Q, and neither does how much
    of the stream it takes, given that every state has two moves or more:
    build_adjacency graphs are connected, so that holds for M >= 2. With
    one centroid, the hover only, nothing is drawn, as at eps = 0.
    """
    if eps <= 0.0 or moves.shape[-1] == 1:
        return Exploration(eps, rngs, moves, n_moves, [None] * n_slots, ())
    half = np.full((len(rngs), n_slots * n_uav), -1, dtype=np.int64)
    per_call = []
    for k, rng in enumerate(rngs):
        drawn = _episode_halves(rng.bit_generator, eps, n_slots * n_uav, moves.shape[-1])
        if drawn is None:
            per_call.append(k)
        else:
            half[k] = drawn
    half = half.reshape(len(rngs), n_slots, n_uav).transpose(1, 0, 2)
    explore = half >= 0
    slots = [(e, h) if active else None
             for e, h, active in zip(explore, half, explore.any(axis=(1, 2)).tolist())]
    return Exploration(eps, rngs, moves, n_moves, slots, tuple(per_call))


def select_action(q: np.ndarray, states: np.ndarray, draws: Exploration, t: int) -> np.ndarray:
    """Epsilon-greedy next centroid for every UAV of every row in slot t.

    q is the masked (S, n_uav, M, M) tensor and states (S, n_uav). Greedy
    ties break to the lowest index. An exploring UAV then takes target
    (half * n) >> 32 of its state's n moves, as integers(n) does from that
    half. A row in draws.per_call calls its stream UAV by UAV instead:
    random(), then, if below eps, integers() over the state's moves. With
    eps = 0 or one centroid nothing is drawn.
    """
    w, n = _index_arrays(*states.shape)
    actions = q[w, n, states].argmax(axis=-1)
    if draws.slots[t] is not None:
        explore, half = draws.slots[t]
        # half < 2**32 and n <= M, so the product fits in int64
        pick = (half * draws.n_moves[w, states]) >> 32
        np.copyto(actions, draws.moves[w, states, pick], where=explore)
    for k in draws.per_call:
        rng = draws.rngs[k]
        for u, s in enumerate(states[k].tolist()):
            if rng.random() < draws.eps:
                actions[k, u] = draws.moves[k, s, rng.integers(draws.n_moves[k, s])]
    return actions


def reward(counts: np.ndarray, mu_pr, mu_nr) -> np.ndarray:
    """Per-UAV priority-weighted penalty on outage counts and class fractions.

    counts is radio.outage_stats' table, users by [clear, outage]
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
              rewards: np.ndarray, next_states: np.ndarray, cfg: ScenarioConfig) -> None:
    """One Q-learning backup per UAV of every world, in place.

    Shapes as in select_action. Every bootstrap max is read before any
    entry is written, so a hover backup sees its own old value.
    """
    w, n = _index_arrays(*states.shape)
    nxt = np.maximum.reduce(q[w, n, next_states], axis=-1)
    y = rewards + cfg.zeta * nxt
    q[w, n, states, actions] = (1.0 - cfg.alpha_q) * q[w, n, states, actions] + cfg.alpha_q * y


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
