"""Condense the candidate waypoint set to M centroids and build the motion graph.

Three interchangeable condensers:

 * qa_condense     simulated annealing on clustering distortion with
                   Metropolis acceptance and occasional non-local jump
                   proposals; keeps the best set ever seen
 * kmeans_condense Lloyd's algorithm seeded from random candidates
 * snrp_condense   greedy pick of candidates by a priority-weighted SNR
                   proxy, subject to a pairwise separation floor

All three optimize or heuristically cover the same candidate cloud; they are
compared by what the trajectory learner achieves on their graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .scenario import ScenarioConfig, rng_stream
from .channel import ChannelParams, link_matrix

# annealing stops once the best distortion moved less than STOP_TOL over the
# last STOP_WINDOW temperature steps
STOP_WINDOW = 50
STOP_TOL = 1e-6
KMEANS_MAX_ITER = 200


@dataclass
class CondensedGraph:
    """M waypoint centroids plus the slot-reachability graph over them."""

    centroids: np.ndarray        # (M, 2)
    adj: np.ndarray              # (M, M) bool, s -> a in one slot: the action set
    edges: list                  # (src, dst, virtual) with src < dst
    method: str
    distortion: float            # final clustering distortion vs candidates
    init_distortion: float | None = None
    trace: dict | None = None    # annealing diagnostics (qa only)

    @property
    def n_centroids(self) -> int:
        return len(self.centroids)


def distortion(nodes: np.ndarray, centroids: np.ndarray) -> float:
    """Sum over candidates of squared distance to the nearest centroid."""
    return float(cdist(nodes, centroids, "sqeuclidean").min(axis=1).sum())


def _draw_move(centroids, nodes, rng, cfg) -> tuple[int, np.ndarray]:
    """One proposal: relocate one centroid, locally or by a jump."""
    m = int(rng.integers(len(centroids)))
    if rng.random() < cfg.p_jump:
        new = nodes[int(rng.integers(len(nodes)))].copy()
    else:
        sigma = cfg.anneal_step_frac * cfg.area_width()
        new = centroids[m] + rng.normal(0.0, sigma, 2)
        new[0] = min(max(new[0], cfg.x_min), cfg.x_max)
        new[1] = min(max(new[1], cfg.y_min), cfg.y_max)
    return m, new


def accept(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: always downhill, uphill with prob exp(-delta/T)."""
    if delta <= 0.0:
        return True
    arg = -delta / temperature
    if arg < -745.0:  # exp underflow
        return False
    return rng.random() < math.exp(arg)


def _top2(dist2: np.ndarray):
    """Per row: the two smallest entries and their columns, nearest first."""
    n0, m = dist2.shape
    if m == 1:
        zeros = np.zeros(n0, dtype=np.intp)
        return dist2[:, 0].copy(), zeros, np.full(n0, np.inf), zeros.copy()
    idx = np.argpartition(dist2, 1, axis=1)[:, :2]
    vals = np.take_along_axis(dist2, idx, axis=1)
    swap = vals[:, 0] > vals[:, 1]
    d1 = np.where(swap, vals[:, 1], vals[:, 0])
    i1 = np.where(swap, idx[:, 1], idx[:, 0])
    d2 = np.where(swap, vals[:, 0], vals[:, 1])
    i2 = np.where(swap, idx[:, 0], idx[:, 1])
    return d1, i1, d2, i2


def _apply_move(dist2, d1, i1, d2, i2, m, col, served):
    """Commit an accepted move of centroid m, keeping the top-2 cache exact.

    Rows that held m in their top two must rescan; every other row can only
    gain m as a closer option, which is a pure vector update.
    """
    dist2[:, m] = col
    if dist2.shape[1] == 1:
        np.copyto(d1, col)
        return
    stale = served | (i2 == m)
    fresh = ~stale
    up1 = fresh & (col < d1)
    up2 = fresh & ~up1 & (col < d2)
    i2[up2] = m
    d2[up2] = col[up2]
    i2[up1] = i1[up1]
    d2[up1] = d1[up1]
    i1[up1] = m
    d1[up1] = col[up1]
    rows = np.flatnonzero(stale)
    if rows.size:
        d1[rows], i1[rows], d2[rows], i2[rows] = _top2(dist2[rows])


def qa_condense(nodes: np.ndarray, cfg: ScenarioConfig) -> CondensedGraph:
    """Anneal M centroids against clustering distortion; return best seen.

    Each temperature step runs cfg.proposals_per_temp single-centroid
    proposals (default: one sweep of M) and then cools T by anneal_rho.
    Distortion deltas are exact but evaluated incrementally: alongside the
    candidate-to-centroid distance matrix we cache each candidate's two
    nearest centroids, so a trial costs a handful of flat vector passes
    and per-row rescans happen only when a move is accepted. The graph's
    trace holds, per temperature step, the temperature after cooling, the
    current and best distortion and the running count of accepted moves.
    """
    rng = rng_stream(cfg.seed, "condense")
    m_cent = cfg.n_centroids
    n0 = len(nodes)
    centroids = nodes[rng.choice(n0, size=m_cent, replace=False)].copy()

    dist2 = cdist(nodes, centroids, "sqeuclidean")   # (n0, M), kept current
    d1, i1, d2, i2 = _top2(dist2)
    cur = float(d1.sum())
    best = cur
    best_c = centroids.copy()
    init = cur

    node_x = np.ascontiguousarray(nodes[:, 0])
    node_y = np.ascontiguousarray(nodes[:, 1])
    col = np.empty(n0)
    base = np.empty(n0)
    scratch = np.empty(n0)
    served = np.empty(n0, dtype=bool)

    temp = cfg.anneal_t0
    per_temp = cfg.proposals_per_temp or m_cent
    tr_temp, tr_cur, tr_best, tr_acc = [], [], [], []
    n_acc = 0

    steps = 0
    while temp >= cfg.anneal_t_min and steps < cfg.anneal_i_max:
        for _ in range(per_temp):
            m, new = _draw_move(centroids, nodes, rng, cfg)
            np.subtract(node_x, new[0], out=col)
            np.multiply(col, col, out=col)
            np.subtract(node_y, new[1], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.add(col, scratch, out=col)
            # rows served by m lose it; their floor is the runner-up distance
            np.equal(i1, m, out=served)
            np.copyto(base, d1)
            np.copyto(base, d2, where=served)
            np.minimum(base, col, out=base)
            trial = float(base.sum())
            if accept(trial - cur, temp, rng):
                _apply_move(dist2, d1, i1, d2, i2, m, col, served)
                cur = trial
                centroids[m] = new
                n_acc += 1
                if cur < best:
                    best = cur
                    best_c = centroids.copy()
        temp *= cfg.anneal_rho
        steps += 1
        tr_temp.append(temp)
        tr_cur.append(cur)
        tr_best.append(best)
        tr_acc.append(n_acc)
        if steps > STOP_WINDOW and tr_best[-1 - STOP_WINDOW] - best < STOP_TOL:
            break

    graph = build_adjacency(best_c, cfg, method="qa", dist=best)
    graph.init_distortion = init
    graph.trace = {
        "temperature": np.array(tr_temp),
        "current": np.array(tr_cur),
        "best": np.array(tr_best),
        "accepted": np.array(tr_acc),
    }
    return graph


def kmeans_condense(nodes: np.ndarray, cfg: ScenarioConfig) -> CondensedGraph:
    """Lloyd's k-means over the candidates, seeded from random candidates."""
    rng = rng_stream(cfg.seed, "condense")
    m_cent = cfg.n_centroids
    centroids = nodes[rng.choice(len(nodes), size=m_cent, replace=False)].copy()
    labels = np.full(len(nodes), -1)
    for _ in range(KMEANS_MAX_ITER):
        dist2 = cdist(nodes, centroids, "sqeuclidean")
        new_labels = dist2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        d_own = dist2[np.arange(len(nodes)), labels]
        for j in range(m_cent):
            sel = labels == j
            if sel.any():
                centroids[j] = nodes[sel].mean(axis=0)
            else:
                # empty cluster: seize the currently worst-quantized point
                far = int(d_own.argmax())
                centroids[j] = nodes[far]
                labels[far] = j
                d_own[far] = 0.0
    return build_adjacency(centroids, cfg, method="kmeans",
                           dist=distortion(nodes, centroids))


def snr_proxy(nodes: np.ndarray, users_xy: np.ndarray, priority_mask: np.ndarray,
              cfg: ScenarioConfig) -> np.ndarray:
    """Priority-weighted mean linear gain if a UAV hovered at each candidate.

    Fading is left out (set to its unit mean); weights are mu_pr / mu_nr.
    """
    p = ChannelParams.from_config(cfg)
    _, loss_db = link_matrix(nodes, cfg.altitude_m, users_xy, p)  # (K, N0)
    w = np.where(priority_mask, cfg.mu_pr, cfg.mu_nr)
    return w @ np.power(10.0, -loss_db / 10.0)


def snrp_condense(nodes: np.ndarray, users_xy: np.ndarray, priority_mask: np.ndarray,
                  cfg: ScenarioConfig) -> CondensedGraph:
    """Greedy top-proxy pick with a pairwise separation floor.

    If a full pass cannot reach M centroids the floor is relaxed by 0.8x
    and the pass repeats, so the pick always terminates with exactly M.
    """
    proxy = snr_proxy(nodes, users_xy, priority_mask, cfg)
    order = np.argsort(-proxy, kind="stable")
    chosen: list[int] = []
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
    centroids = nodes[chosen].copy()
    return build_adjacency(centroids, cfg, method="snrp",
                           dist=distortion(nodes, centroids))


def build_adjacency(centroids: np.ndarray, cfg: ScenarioConfig, method: str = "",
                    dist: float = float("nan")) -> CondensedGraph:
    """Radius graph over centroids: edge iff reachable in one slot.

    adj holds every move: the hover (d = 0), each pair with d^2 <= r^2 and
    the virtual bridges. If the graph is disconnected,
    minimum-length bridges join the closest component pair until one
    component remains; those edges are flagged virtual. That greedy rule is
    Kruskal's algorithm (Kruskal 1956) on the components: pairs are taken
    in order of (squared distance, row-major index) and one becomes a
    bridge when union-find still holds its ends apart.
    """
    m = len(centroids)
    d2 = cdist(centroids, centroids, "sqeuclidean")
    adj = d2 <= cfg.move_radius_m() ** 2
    iu, ju = np.triu_indices(m, 1)             # upper triangle, row-major
    pair_d2 = d2[iu, ju]
    near = adj[iu, ju]
    edges = [(i, j, False) for i, j in zip(iu[near].tolist(), ju[near].tolist())]

    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j) -> bool:
        ri, rj = root(i), root(j)
        parent[rj] = ri
        return ri != rj

    n_comp = m
    for i, j, _ in edges:
        n_comp -= union(i, j)
    if n_comp > 1:
        comp = np.array([root(i) for i in range(m)])
        cross = comp[iu] != comp[ju]
        order = np.argsort(pair_d2[cross], kind="stable")
        for i, j in zip(iu[cross][order].tolist(), ju[cross][order].tolist()):
            if union(i, j):
                edges.append((i, j, True))
                adj[i, j] = adj[j, i] = True
                n_comp -= 1
                if n_comp == 1:
                    break
    return CondensedGraph(centroids=centroids, adj=adj, edges=sorted(edges),
                          method=method, distortion=dist)
