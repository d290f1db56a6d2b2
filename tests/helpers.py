"""Shared test scaffolding: shrunk configs and independent reference paths."""

import builtins
import contextlib
import dataclasses
import inspect
import math
import os
import signal

import numpy as np
from scipy.spatial.distance import cdist

from absim import sim
from absim.channel import link_matrix
from absim.condense import KMEANS_MAX_ITER, _draw_move, snr_proxy, sq_dist
from absim.radio import LinkState, dbm_to_watt, db_to_linear
from absim.rl import masked, td_update
from absim.scenario import ScenarioConfig, rng_stream


# the condense-wide benchmark workload's size: N = 3600, M = 120, K = 100
WIDE = dict(x_max=2800.0, y_max=2800.0, n_users=100, n_candidates=3600, n_centroids=120)


def mk_cfg(**overrides) -> ScenarioConfig:
    """Reference defaults shrunk to unit-test size; overrides win."""
    small = dict(n_users=24, n_candidates=100, n_centroids=10,
                 episodes=6, slots_per_episode=12, eval_episodes=4,
                 anneal_i_max=80)
    small.update(overrides)
    cfg = dataclasses.replace(ScenarioConfig(), **small)
    cfg.validate()
    return cfg


def py312_sum(items, start=0):
    """CPython 3.12's built-in sum() of floats (Python/bltinmodule.c): a
    Neumaier-compensated running total, whose compensation is added at the
    end when it is non-zero and finite. All-int items (counts) are summed
    exactly, by the builtin. It equals the real sum() of Python 3.12.1 and
    3.13.0 on all 9,000 slot rows of a reference qa run (seed 3, 40 training
    episodes and 50 evaluation episodes), signs of zero included; 1,247 of
    those rows total differently left to right, as Python 3.10 and 3.11 add."""
    items = list(items)
    if all(isinstance(x, int) for x in items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def record_training_paths(monkeypatch) -> list:
    """Wrap sim.run_episode so that every training episode's (n_slots + 1,
    S, n_uav) trajectory is appended to the returned list; training keeps
    none of them."""
    paths, run_episode = [], sim.run_episode
    signature = inspect.signature(run_episode)

    def recording(*args, **kwargs):
        table, traj = run_episode(*args, **kwargs)
        if signature.bind(*args, **kwargs).arguments["learn"]:
            paths.append(traj)
        return table, traj

    monkeypatch.setattr(sim, "run_episode", recording)
    return paths


def usable_cores(monkeypatch, n: int) -> None:
    """Make sim see n usable cores (os.sched_getaffinity). At n = 1
    train_lockstep runs every batch in this process, so wrappers patched
    into sim see every call; at n > 1 it splits any batch of several seeds
    into forked children, whatever the machine has."""
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(n)))


@contextlib.contextmanager
def in_parent_only(seconds: int = 60):
    """Run the block, failing with TimeoutError after `seconds` (SIGALRM,
    which a forked child does not inherit), so a hung wait fails the test
    instead of blocking it. A forked child that ever returns into the block
    exits there with status 70, so it runs none of the caller's code."""
    pid = os.getpid()

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        if os.getpid() != pid:
            os._exit(70)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def brute_force_slot(large_scale_db, fading, prev_assoc, cfg):
    """Slot radio chain as explicit per-user loops; the pipeline's oracle.

    Returns (tx_power_w, assoc, interference_w, sinr, outage) with no
    vectorized shortcuts shared with the implementation under test.
    """
    n_users, n_uav = large_scale_db.shape
    if prev_assoc is None:
        serving = [min(range(n_uav), key=lambda n: large_scale_db[k][n])
                   for k in range(n_users)]
    else:
        serving = [int(prev_assoc[k]) for k in range(n_users)]

    p_w = []
    for k in range(n_users):
        pl = large_scale_db[k][serving[k]]
        p_dbm = min(cfg.p_max_dbm,
                    cfg.p0_dbm + cfg.alpha_ol * pl + 10.0 * np.log10(cfg.n_rb))
        p_w.append(float(dbm_to_watt(p_dbm)))

    gains = [[float(db_to_linear(-large_scale_db[k][n]) * fading[k][n])
              for n in range(n_uav)] for k in range(n_users)]
    assoc = []
    for k in range(n_users):
        rx = [p_w[k] * gains[k][n] for n in range(n_uav)]
        best = 0
        for n in range(1, n_uav):
            if rx[n] > rx[best]:
                best = n
        assoc.append(best)

    noise_w = float(dbm_to_watt(cfg.noise_dbm))
    gamma_lin = float(db_to_linear(cfg.gamma_th_db))
    interf, sinr, outage = [], [], []
    for i in range(n_users):
        n = assoc[i]
        acc = 0.0
        for j in range(n_users):
            if j != i and assoc[j] != n:
                acc += p_w[j] * gains[j][n]
        sig = p_w[i] * gains[i][n]
        g = sig / (noise_w + acc)
        interf.append(acc)
        sinr.append(g)
        outage.append(g < gamma_lin)
    return (np.array(p_w), np.array(assoc), np.array(interf),
            np.array(sinr), np.array(outage))


def brute_force_reward(n, assoc, outage, priority_mask, cfg):
    """One UAV's penalty from per-user loops, in the reward's operation order."""
    pr_out = pr_n = nr_out = nr_n = 0
    for k in range(len(assoc)):
        if assoc[k] != n:
            continue
        if priority_mask[k]:
            pr_n += 1
            pr_out += bool(outage[k])
        else:
            nr_n += 1
            nr_out += bool(outage[k])
    pr_frac = pr_out / pr_n if pr_n else 0.0
    nr_frac = nr_out / nr_n if nr_n else 0.0
    return -(cfg.mu_pr * (pr_out + pr_frac) + cfg.mu_nr * (nr_out + nr_frac))


def td_step(q, s, a, r, cfg, feasible):
    """rl.td_update on one world's single-UAV (M, M) table q, read through
    the feasible mask (rl.masked), moving s -> a; writes and returns the new
    Q[s][a]."""
    work = masked(q, feasible)[None]
    td_update(work, np.array([[s]]), np.array([[a]]), np.array([[r]]), cfg)
    q[s, a] = work[0, 0, s, a]
    return float(q[s, a])


def gathered_loss_slot(large_scale_db, fading, prev_assoc, cfg):
    """The slot chain on one world's gathered (n_users, n_uav) losses, with
    gains and transmit powers converted in the slot: the formula the link
    tables must reproduce bit for bit. Returns (tx_power_w, gains, assoc,
    interference_w, sinr, outage)."""
    users = np.arange(large_scale_db.shape[0])
    serving = np.argmin(large_scale_db, axis=1) if prev_assoc is None else prev_assoc
    p_w = dbm_to_watt(np.minimum(cfg.p_max_dbm, cfg.p0_dbm + cfg.alpha_ol
                                 * large_scale_db[users, serving] + 10.0 * np.log10(cfg.n_rb)))
    gains = db_to_linear(-large_scale_db) * fading
    rx = p_w[:, None] * gains
    assoc = rx.argmax(axis=1)
    in_cell = np.zeros(rx.shape, dtype=bool)
    in_cell[users, assoc] = True
    interf = np.where(in_cell, 0.0, rx).sum(axis=0)[assoc]
    snr = rx[users, assoc] / (dbm_to_watt(cfg.noise_dbm) + interf)
    return p_w, gains, assoc, interf, snr, snr < db_to_linear(cfg.gamma_th_db)


def evaluate_slot_broadcast(tables, fleet, fading, prev_assoc):
    """radio.evaluate_slot as it stood before its index-array form: offsets
    broadcast over the UAV axis, and interference as a masked sum over the
    users axis, which numpy adds one users row at a time. The byte-for-byte
    oracle of the slot chain; returns a radio.LinkState."""
    *lead, n_uav = fleet.shape
    n_users, m = tables.gain.shape[-2:]
    size = math.prod(lead) * n_users
    table_rows = np.arange(0, size * m, m).reshape(tuple(lead) + (n_users, 1))
    rows = np.arange(0, size * n_uav, n_uav).reshape(tuple(lead) + (n_users,))
    cells = np.arange(0, size // n_users * n_uav, n_uav).reshape(tuple(lead) + (1,))
    links = table_rows + fleet[..., None, :]
    if prev_assoc is None:
        serving_prev = np.argmin(tables.loss_db.reshape(-1)[links], axis=-1)
    else:
        serving_prev = prev_assoc
    serving = fleet.reshape(-1)[cells + serving_prev]
    p_w = tables.power_w.reshape(-1)[table_rows[..., 0] + serving]
    gains = tables.gain.reshape(-1)[links] * fading
    rx = p_w[..., None] * gains
    assoc = rx.argmax(axis=-1)
    own = rows + assoc
    sig = rx.reshape(-1)[own]
    in_cell = np.zeros(rx.shape, dtype=bool)
    in_cell.reshape(-1)[own] = True
    interf = np.where(in_cell, 0.0, rx).sum(axis=-2).reshape(-1)[cells + assoc]
    snr = sig / (tables.noise_w + interf)
    return LinkState(gains=gains, tx_power_w=p_w, serving_prev=serving_prev, assoc=assoc,
                     interference_w=interf, sinr=snr, outage=snr < tables.gamma_lin)


# -- reference paths the pipeline no longer uses ----------------------------


@dataclasses.dataclass(frozen=True)
class LinkGeometry:
    """3-D distance [m] and elevation angle [deg] of one UAV-user link."""

    distance_m: float
    theta_deg: float


def link_geometry(uav_pos, user_pos) -> LinkGeometry:
    """Geometry between a UAV at (x, y, h) and a ground user at (x, y, 0),
    in scalar math: the oracle for channel.link_matrix."""
    ux, uy, uh = float(uav_pos[0]), float(uav_pos[1]), float(uav_pos[2])
    gx, gy = float(user_pos[0]), float(user_pos[1])
    if uh <= 0.0:
        raise ValueError("UAV altitude must be positive")
    d = math.sqrt((ux - gx) ** 2 + (uy - gy) ** 2 + uh ** 2)
    theta = math.degrees(math.asin(uh / d))
    return LinkGeometry(distance_m=d, theta_deg=theta)


def los_probability_out_of_place(theta_deg, cfg):
    """channel.los_probability with a fresh array per step, as first written."""
    base = cfg.plos_b1 * (np.asarray(theta_deg, dtype=float) - cfg.plos_xi_deg)
    prob = np.where(base > 0.0, np.power(np.maximum(base, 0.0), cfg.plos_b2), 0.0)
    return np.clip(prob, 0.0, 1.0)


def path_loss_db_out_of_place(distance_m, theta_deg, cfg):
    """channel.effective_path_loss_db with a fresh array per step, as first
    written."""
    d = np.asarray(distance_m, dtype=float)
    plos = los_probability_out_of_place(theta_deg, cfg)
    excess = (plos * 10.0 ** (cfg.kappa_los_db / 10.0)
              + (1.0 - plos) * 10.0 ** (cfg.kappa_nlos_db / 10.0))
    return (10.0 * np.log10(cfg.ref_loss_k0_value()) + 10.0 * cfg.path_alpha * np.log10(d)
            + 10.0 * np.log10(excess))


def link_matrix_broadcast(uav_xy, users_xy, cfg):
    """channel.link_matrix with its distances from one (n_users, n_uav, 2)
    difference array, (diff ** 2).sum(axis=2): the broadcast form of sq_dist,
    and a fresh array per step of the elevation and the loss."""
    diff = users_xy[:, None, :] - uav_xy[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2) + cfg.altitude_m ** 2)
    theta = np.degrees(np.arcsin(cfg.altitude_m / d))
    return d, path_loss_db_out_of_place(d, theta, cfg)


def flight_distances_norm(centroids):
    """(S, M, M) distances between each row's (M, 2) centroids, np.linalg.norm
    of one (S, M, M, 2) difference array: the broadcast form of sim.Lockstep's."""
    return np.linalg.norm(centroids[:, :, None, :] - centroids[:, None, :, :], axis=-1)


def channel_gain(loss_db, fading):
    """Linear power gain 10^(-L/10) scaled by a fading draw."""
    g = np.power(10.0, -np.asarray(loss_db, dtype=float) / 10.0) * fading
    if np.isscalar(loss_db) and np.isscalar(fading):
        return float(g)
    return g


def interference(i: int, state) -> float:
    """Inter-cell interference seen by user i at its serving ABS [W]."""
    n = state.assoc[i]
    others = state.assoc != n
    return float((state.tx_power_w[others] * state.gains[others, n]).sum())


def sinr(i: int, state, noise_w: float) -> float:
    n = state.assoc[i]
    sig = state.tx_power_w[i] * state.gains[i, n]
    return float(sig / (noise_w + state.interference_w[i]))


def propose(centroids, nodes, rng, cfg):
    """Annealing proposal as a full centroid set (one row differs)."""
    m, new = _draw_move(centroids, nodes, rng, cfg)
    out = centroids.copy()
    out[m] = new
    return out


def distortion_one_shot(nodes, centroids) -> float:
    """condense.distortion from one (N, M) distance matrix, no blocks."""
    return float(sq_dist(nodes, centroids).min(axis=1).sum())


def kmeans_centroids_loop(nodes, cfg) -> np.ndarray:
    """condense.kmeans_condense's final centroids by the original loop: the
    labels and nearest distances from one (N, M) matrix by argmin and a
    second min pass, then each cluster's mean by nodes[sel].mean, one
    cluster at a time, an empty one seizing the worst-quantized point."""
    rng = rng_stream(cfg.seed, "condense")
    m_cent = cfg.n_centroids
    centroids = nodes[rng.choice(len(nodes), size=m_cent, replace=False)].copy()
    labels = np.full(len(nodes), -1)
    for _ in range(KMEANS_MAX_ITER):
        dist2 = sq_dist(nodes, centroids)
        new_labels, d_own = dist2.argmin(axis=1), dist2.min(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(m_cent):
            sel = labels == j
            if sel.any():
                centroids[j] = nodes[sel].mean(axis=0)
            else:
                far = int(d_own.argmax())
                centroids[j] = nodes[far]
                labels[far] = j
                d_own[far] = 0.0
    return centroids


def candidates_by_unique(cfg) -> tuple:
    """scenario.generate_candidates with its duplicates found by np.unique,
    as first written; returns the candidates and the number of redraw
    rounds."""
    nodes = np.empty((0, 2))
    rng = rng_stream(cfg.seed, "candidates")
    n0 = cfg.n_candidates
    if cfg.candidate_rule == "grid":
        s = math.isqrt(n0)
        xs = cfg.x_min + (cfg.x_max - cfg.x_min) / s * (0.5 + np.arange(s))
        ys = cfg.y_min + (cfg.y_max - cfg.y_min) / s * (0.5 + np.arange(s))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
    extra = n0 - len(nodes)
    if extra:
        nodes = np.vstack([nodes, np.column_stack([rng.uniform(cfg.x_min, cfg.x_max, extra),
                                                   rng.uniform(cfg.y_min, cfg.y_max, extra)])])
    rounds = 0
    while len(np.unique(nodes, axis=0)) < n0:
        _, first = np.unique(nodes, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(n0), first)
        nodes[dup, 0] = rng.uniform(cfg.x_min, cfg.x_max, dup.size)
        nodes[dup, 1] = rng.uniform(cfg.y_min, cfg.y_max, dup.size)
        rounds += 1
    return nodes, rounds


def snr_proxy_one_shot(nodes, users_xy, priority_mask, cfg) -> np.ndarray:
    """condense.snr_proxy from one (K, N) loss matrix, no blocks: each
    candidate's weighted gains added user by user."""
    _, loss_db = link_matrix(nodes, users_xy, cfg)
    w = np.where(priority_mask, cfg.mu_pr, cfg.mu_nr)[:, None]
    return np.add.accumulate(w * db_to_linear(-loss_db), axis=0)[-1]


def snrp_picks(nodes, users_xy, priority_mask, cfg) -> list:
    """Candidate indices in snrp_condense's pick order, by the original
    loops: a pass in proxy order takes each candidate at least d_sep from
    every pick so far, the floor shrinks by 0.8x after each short pass, and
    once it falls below 1e-9 m the next candidates in proxy order fill up."""
    proxy = snr_proxy(nodes, users_xy, priority_mask, cfg)
    order = np.argsort(-proxy, kind="stable")
    chosen = []
    d_sep = cfg.d_sep_m
    while len(chosen) < cfg.n_centroids:
        for idx in order:
            if len(chosen) >= cfg.n_centroids:
                break
            if any(i == idx for i in chosen):
                continue
            if chosen:
                d2 = ((nodes[chosen] - nodes[idx]) ** 2).sum(axis=1)
                if d2.min() < d_sep ** 2:
                    continue
            chosen.append(int(idx))
        d_sep *= 0.8
        if d_sep < 1e-9:
            for idx in order:
                if len(chosen) >= cfg.n_centroids:
                    break
                if not any(i == idx for i in chosen):
                    chosen.append(int(idx))
    return chosen


def neighbors(graph) -> list:
    """Per state, the targets of graph.adj as an ascending index array."""
    return [np.flatnonzero(row) for row in graph.adj]


def feasible_actions(graph, s: int, cfg) -> np.ndarray:
    """Targets of state s, ascending, by a loop over every centroid: the
    hover, a move within the radius, or a virtual corridor. Reads neither
    graph.adj nor any neighbour list."""
    radius = cfg.move_radius_m()
    virt = {(i, j) for i, j, v in graph.edges if v}
    c = graph.centroids
    return np.array([a for a in range(len(c))
                     if a == s or np.linalg.norm(c[a] - c[s]) <= radius
                     or (min(s, a), max(s, a)) in virt], dtype=int)


def greedy_bridge_adjacency(centroids, cfg):
    """(edges, neighbors) of the motion graph by the original nested loops:
    radius edges, then while disconnected the shortest cross-component pair
    (first in row-major order on ties) becomes a virtual bridge."""
    m = len(centroids)
    radius = cfg.move_radius_m()
    d2 = cdist(centroids, centroids, "sqeuclidean")
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            if d2[i, j] <= radius ** 2:
                edges.append((i, j, False))

    comp = _components(m, edges)
    while len(set(comp)) > 1:
        best_pair = None
        best_d = math.inf
        for i in range(m):
            for j in range(i + 1, m):
                if comp[i] != comp[j] and d2[i, j] < best_d:
                    best_d = d2[i, j]
                    best_pair = (i, j)
        i, j = best_pair
        edges.append((i, j, True))
        old, new = comp[j], comp[i]
        comp = [new if c == old else c for c in comp]

    neighbors = [[i] for i in range(m)]
    for i, j, _ in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    return sorted(edges), [np.array(sorted(nb), dtype=int) for nb in neighbors]


def build_adjacency_one_pass(centroids, cfg):
    """(adj, virtual) of condense.build_adjacency as it was first written:
    one Kruskal pass over all sorted pairs, turned into Python ints at once."""
    m = len(centroids)
    d2 = sq_dist(centroids, centroids)
    adj = d2 <= cfg.move_radius_m() ** 2
    virtual = np.zeros_like(adj)
    iu, ju = np.triu_indices(m, 1)
    order = np.argsort(d2[iu, ju], kind="stable")
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    n_comp = m
    for i, j in zip(iu[order].tolist(), ju[order].tolist()):
        if n_comp == 1:
            break
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[rj] = ri
            n_comp -= 1
            if not adj[i, j]:
                adj[i, j] = adj[j, i] = virtual[i, j] = virtual[j, i] = True
    return adj, virtual


def _components(m: int, edges: list) -> list:
    comp = list(range(m))
    changed = True
    while changed:
        changed = False
        for i, j, _ in edges:
            lo = min(comp[i], comp[j])
            if comp[i] != lo or comp[j] != lo:
                comp[i] = comp[j] = lo
                changed = True
        # propagate until stable
        for k in range(m):
            root = k
            while comp[root] != root:
                root = comp[root]
            if comp[k] != root:
                comp[k] = root
                changed = True
    return comp


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit LCG multiplier


def pcg64_state_before(word: int, inc: int, steps: int = 1) -> dict:
    """A PCG64 state, with increment inc, whose steps-th raw 64-bit output
    is word: the XSL-RR output inverted, then the LCG stepped back."""
    mask64, mask128 = (1 << 64) - 1, (1 << 128) - 1
    hi = 0x5EED << 48                                   # any high half will do
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & mask64)
    state = (hi << 64) | lo                             # the state after stepping
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    for _ in range(steps):
        state = ((state - inc) * inverse) & mask128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
