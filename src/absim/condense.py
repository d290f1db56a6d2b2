"""Condense the candidate waypoint set to M centroids and build the motion graph.

Three interchangeable condensers:

 * qa_condense     simulated annealing on clustering distortion with
                   Metropolis acceptance and occasional non-local jump
                   proposals; keeps the best set ever seen
 * kmeans_condense Lloyd's algorithm seeded from random candidates
 * snrp_condense   greedy pick of candidates by a priority-weighted SNR
                   proxy, subject to a pairwise separation floor

All three optimize or heuristically cover the same candidate cloud; they are
compared by what the trajectory learner achieves on their graphs. Each takes
the candidates BLOCK rows at a time, measures them with channel.sq_dist and
holds no candidate x centroid matrix, only O(N + BLOCK*M) floats
(O(N + BLOCK*n_users) for snrp's proxy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig, rng_stream
from .channel import link_matrix, sq_dist
from .radio import db_to_linear

# annealing stops once the best distortion moved less than STOP_TOL over the
# last STOP_WINDOW temperature steps
STOP_WINDOW = 50
STOP_TOL = 1e-6
KMEANS_MAX_ITER = 200
BLOCK = 256  # candidate rows per distance block; no output depends on it


@dataclass
class CondensedGraph:
    """M waypoint centroids plus the slot-reachability graph over them:
    adj and its symmetric mask of virtual bridges; edges derives from both."""

    centroids: np.ndarray        # (M, 2)
    adj: np.ndarray              # (M, M) bool, s -> a in one slot: the action set
    virtual: np.ndarray          # (M, M) bool, symmetric: the bridges among adj
    method: str
    distortion: float            # final clustering distortion vs candidates
    init_distortion: float | None = None
    trace: dict | None = None    # annealing diagnostics (qa only)

    @property
    def n_centroids(self) -> int:
        return len(self.centroids)

    @property
    def edges(self) -> list:
        """(src, dst, virtual) per edge of adj with src < dst, row-major."""
        iu, ju = np.nonzero(np.triu(self.adj, 1))
        return list(zip(iu.tolist(), ju.tolist(), self.virtual[iu, ju].tolist()))


def _nearest(nodes: np.ndarray, centroids: np.ndarray):
    """Per candidate: squared distance to, and index of, the nearest centroid."""
    d_own, labels = np.empty(len(nodes)), np.empty(len(nodes), dtype=np.intp)
    for s in range(0, len(nodes), BLOCK):
        dist2 = sq_dist(nodes[s:s + BLOCK], centroids)
        labels[s:s + BLOCK] = near = dist2.argmin(axis=1)
        d_own[s:s + BLOCK] = np.take_along_axis(dist2, near[:, None], axis=1)[:, 0]
    return d_own, labels


def distortion(nodes: np.ndarray, centroids: np.ndarray) -> float:
    """Sum over candidates of squared distance to the nearest centroid."""
    return float(_nearest(nodes, centroids)[0].sum())


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


def _rescan(nodes, centroids, rows, d1, i1, d2, i2):
    """Recompute the top-2 cache of the given rows, BLOCK rows at a time: the
    two smallest squared distances and their centroids, nearest first."""
    for s in range(0, len(rows), BLOCK):
        r = rows[s:s + BLOCK]
        dist2 = sq_dist(nodes[r], centroids)
        k = np.arange(len(r))
        i1[r] = first = dist2.argmin(axis=1)
        d1[r] = dist2[k, first]
        dist2[k, first] = np.inf        # with one centroid: d2 = inf, i2 = 0
        i2[r] = second = dist2.argmin(axis=1)
        d2[r] = dist2[k, second]


def _apply_move(nodes, centroids, d1, i1, d2, i2, m, col, served):
    """Commit centroid m's accepted move to col, keeping the top-2 cache exact.

    Rows that held m in their top two rescan the moved centroids; every other
    row can only gain m as a closer option, which is a pure vector update.
    """
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
    _rescan(nodes, centroids, np.flatnonzero(stale), d1, i1, d2, i2)


def qa_condense(nodes: np.ndarray, cfg: ScenarioConfig) -> CondensedGraph:
    """Anneal M centroids against clustering distortion; return best seen.

    Each temperature step runs cfg.proposals_per_temp single-centroid
    proposals (default: one sweep of M) and then cools T by anneal_rho.
    Distortion deltas are exact but incremental: no distance matrix, only a
    cache of each candidate's two nearest centroids, so a trial costs a few
    flat vector passes and an accepted move recomputes the distances (the
    same floats) of just the rows it made stale. The graph's trace holds,
    per temperature step, the temperature after cooling, the current and
    best distortion and the running count of accepted moves.
    """
    rng = rng_stream(cfg.seed, "condense")
    m_cent = cfg.n_centroids
    n0 = len(nodes)
    centroids = nodes[rng.choice(n0, size=m_cent, replace=False)].copy()

    d1, i1, d2, i2 = (np.empty(n0, t) for t in (float, np.intp, float, np.intp))
    _rescan(nodes, centroids, np.arange(n0), d1, i1, d2, i2)
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
    trace = []
    n_acc = 0
    while temp >= cfg.anneal_t_min and len(trace) < cfg.anneal_i_max:
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
                centroids[m] = new
                _apply_move(nodes, centroids, d1, i1, d2, i2, m, col, served)
                cur = trial
                n_acc += 1
                if cur < best:
                    best = cur
                    best_c = centroids.copy()
        temp *= cfg.anneal_rho
        trace.append((temp, cur, best, n_acc))
        if len(trace) > STOP_WINDOW and trace[-1 - STOP_WINDOW][2] - best < STOP_TOL:
            break

    graph = build_adjacency(best_c, cfg, method="qa", dist=best)
    graph.init_distortion = init
    columns = zip(*trace) if trace else [()] * 4    # no step: four empty float64 columns
    graph.trace = dict(zip(("temperature", "current", "best", "accepted"), map(np.array, columns)))
    return graph


def kmeans_condense(nodes: np.ndarray, cfg: ScenarioConfig) -> CondensedGraph:
    """Lloyd's k-means over the candidates, seeded from random candidates.

    Each cluster before the first empty one moves to its members' mean, the
    members added in candidate order (bincount, as nodes[sel].mean does).
    From the first empty cluster on, clusters update one at a time, as an
    empty one seizes the worst-quantized candidate from its cluster.
    """
    rng = rng_stream(cfg.seed, "condense")
    m_cent = cfg.n_centroids
    centroids = nodes[rng.choice(len(nodes), size=m_cent, replace=False)].copy()
    labels = np.full(len(nodes), -1)
    for _ in range(KMEANS_MAX_ITER):
        d_own, new_labels = _nearest(nodes, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=m_cent)
        first_empty = int(np.argmin(counts)) if counts.min() == 0 else m_cent
        for c in range(2):
            sums = np.bincount(labels, weights=nodes[:, c], minlength=m_cent)
            centroids[:first_empty, c] = sums[:first_empty] / counts[:first_empty]
        for j in range(first_empty, m_cent):
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
    Each column adds its users in order (no BLAS; a one-column reduce is pairwise).
    """
    w = np.where(priority_mask, cfg.mu_pr, cfg.mu_nr)[:, None]
    proxy = np.empty(len(nodes))
    for s in range(0, len(nodes), BLOCK):
        _, loss_db = link_matrix(nodes[s:s + BLOCK], users_xy, cfg)
        proxy[s:s + BLOCK] = np.add.accumulate(w * db_to_linear(-loss_db))[-1]
    return proxy


def snrp_condense(nodes: np.ndarray, users_xy: np.ndarray, priority_mask: np.ndarray,
                  cfg: ScenarioConfig) -> CondensedGraph:
    """Greedy top-proxy pick with a pairwise separation floor.

    Each step takes the first candidate in proxy order whose distance to its
    nearest pick (kept in one vector, -inf once picked) clears the floor. If
    none does the floor is relaxed by 0.8x, to 0 once below 1e-9 m, where
    every unpicked candidate clears it; so the pick ends with exactly M.
    """
    proxy = snr_proxy(nodes, users_xy, priority_mask, cfg)
    ranked = nodes[np.argsort(-proxy, kind="stable")]
    near = np.full(len(ranked), np.inf)
    picks: list[int] = []
    d_sep = cfg.d_sep_m
    while len(picks) < cfg.n_centroids:
        i = int(np.argmax(near >= d_sep ** 2))
        if near[i] < d_sep ** 2:
            d_sep = d_sep * 0.8 if d_sep * 0.8 >= 1e-9 else 0.0
            continue
        np.minimum(near, sq_dist(ranked, ranked[i:i + 1])[:, 0], out=near)
        near[i] = -np.inf
        picks.append(i)
    centroids = ranked[picks]
    return build_adjacency(centroids, cfg, method="snrp",
                           dist=distortion(nodes, centroids))


def build_adjacency(centroids: np.ndarray, cfg: ScenarioConfig, method: str = "",
                    dist: float = float("nan")) -> CondensedGraph:
    """Radius graph over centroids: edge iff reachable in one slot.

    adj holds every move: the hover (d = 0), each pair with d^2 <= r^2 and
    the virtual bridges, which join a disconnected graph into one component.
    They come from Kruskal's algorithm (Kruskal 1956) over all pairs: pairs
    are taken in order of (squared distance, row-major index), each joins
    two components when union-find still holds its ends apart, and a
    joining pair beyond the radius is a bridge. Within-radius pairs all sort
    first, so each bridge is the shortest pair between two components. The
    sorted pairs become Python ints M at a time, until one component is left.
    """
    m = len(centroids)
    d2 = sq_dist(centroids, centroids)
    adj = d2 <= cfg.move_radius_m() ** 2
    virtual = np.zeros_like(adj)
    iu, ju = np.triu_indices(m, 1)             # upper triangle, row-major
    order = np.argsort(d2[iu, ju], kind="stable")
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    n_comp = m
    for s in range(0, len(order), m):
        if n_comp == 1:
            break
        for i, j in zip(iu[order[s:s + m]].tolist(), ju[order[s:s + m]].tolist()):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[rj] = ri
                n_comp -= 1
                if not adj[i, j]:
                    adj[i, j] = adj[j, i] = virtual[i, j] = virtual[j, i] = True
    return CondensedGraph(centroids=centroids, adj=adj, virtual=virtual,
                          method=method, distortion=dist)
