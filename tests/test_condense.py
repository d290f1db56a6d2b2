"""Condensers and the motion graph: oracles, Metropolis statistics, adjacency."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2, vq
from scipy.spatial.distance import cdist, pdist

from absim import condense
from absim.channel import link_matrix
from absim.condense import (BLOCK, accept, build_adjacency, distortion, kmeans_condense,
                            qa_condense, snr_proxy, snrp_condense, sq_dist)
from absim.scenario import ScenarioConfig, drop_users, generate_candidates, rng_stream
from absim.sim import METHODS, train_lockstep
from helpers import (WIDE, build_adjacency_one_pass, distortion_one_shot,
                     greedy_bridge_adjacency, kmeans_centroids_loop, mk_cfg, neighbors, propose,
                     snr_proxy_one_shot, snrp_picks)


def test_distortion_hand_values():
    v = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert distortion(v, np.array([[1.0, 0.0]])) == pytest.approx(2.0)
    assert distortion(v, v) == 0.0


POINTS = st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                  min_size=1, max_size=50)


@settings(max_examples=300, deadline=None)
@given(POINTS, POINTS, st.integers(0, 50))
@example([(0.0, 0.0)], [(0.0, 0.0)], 1)
@example([(1e4, -1e4)], [(0.1 * i, -9999.9) for i in range(50)], 0)
@example([(0.1 * i, 3.3) for i in range(50)], [(-1e4, 1e4)], 1)
def test_sq_dist_equals_cdist_bit_for_bit(a, b, n_repeat):
    # b's first points repeat a's: those entries must be an exact 0
    a, b = np.array(a), np.array(b)
    k = min(n_repeat, len(a), len(b))
    b[:k] = a[:k]
    ours = sq_dist(a, b)
    assert ours.shape == (len(a), len(b))
    np.testing.assert_array_equal(ours.view(np.int64),
                                  cdist(a, b, "sqeuclidean").view(np.int64))
    assert (ours[np.arange(k), np.arange(k)] == 0.0).all()


def test_distortion_empty_centroids_errors():
    with pytest.raises(ValueError):
        distortion(np.array([[0.0, 0.0]]), np.empty((0, 2)))


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3600])
def test_blocked_distortion_and_proxy_equal_one_shot_forms(n):
    cfg = mk_cfg(**WIDE)
    rng = np.random.default_rng(n)
    nodes = rng.uniform(0.0, 2800.0, (n, 2))
    centroids = rng.uniform(0.0, 2800.0, (cfg.n_centroids, 2))
    xy, mask = drop_users(cfg)
    assert distortion(nodes, centroids) == distortion_one_shot(nodes, centroids)
    if n:
        with pytest.raises(ValueError):
            distortion(nodes, centroids[:0])
    else:
        assert distortion(nodes, centroids) == 0.0
    got = snr_proxy(nodes, xy, mask, cfg)
    assert got.shape == (n,)
    assert got.tobytes() == snr_proxy_one_shot(nodes, xy, mask, cfg).tobytes()


def _graph_bytes(graph) -> list:
    trace = graph.trace or {}
    return [graph.centroids.tobytes(), graph.adj.tobytes(), graph.virtual.tobytes(),
            repr(graph.distortion), repr(graph.init_distortion),
            *(trace[k].tobytes() for k in sorted(trace))]


@pytest.mark.parametrize("block", [1, 7])
def test_condensers_do_not_depend_on_block(monkeypatch, block):
    cfg = mk_cfg(n_candidates=300, n_centroids=9, anneal_i_max=30)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    runs = [lambda: qa_condense(nodes, cfg), lambda: kmeans_condense(nodes, cfg),
            lambda: snrp_condense(nodes, xy, mask, cfg)]
    want = [_graph_bytes(run()) for run in runs]
    monkeypatch.setattr(condense, "BLOCK", block)
    assert [_graph_bytes(run()) for run in runs] == want


def _traced_peak(fn) -> int:
    """Peak bytes that fn allocates beyond what was live when it started."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_condensers_hold_no_candidate_by_centroid_matrix():
    # one full float64 matrix is 3.3 MiB (N x M) or 2.7 MiB (K x N); with
    # whole matrices the peaks were 6.8 (qa), 10.1 (kmeans), 6.7 (distortion)
    # and 22.0 MiB (snr_proxy), and 4.9 MiB with snr_proxy's one gain matrix
    cfg = mk_cfg(**WIDE, anneal_i_max=3)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    n_by_m = len(nodes) * cfg.n_centroids * 8
    gain = len(xy) * len(nodes) * 8
    centroids = nodes[:cfg.n_centroids].copy()
    assert _traced_peak(lambda: qa_condense(nodes, cfg)) < n_by_m
    assert _traced_peak(lambda: kmeans_condense(nodes, cfg)) < n_by_m
    assert _traced_peak(lambda: distortion(nodes, centroids)) < n_by_m
    assert _traced_peak(lambda: snr_proxy(nodes, xy, mask, cfg)) < gain
    assert _traced_peak(lambda: snrp_condense(nodes, xy, mask, cfg)) < gain


def test_link_matrix_block_holds_fewer_than_five_output_sized_arrays():
    # one BLOCK x 100-user block returns two 0.195 MiB arrays; with an
    # (N, K, 2) difference array and its square the peak was 9.0 of them,
    # 7.0 with a fresh array per sqrt, arcsin, degrees and LoS step, and
    # 4.0 with those steps in place
    cfg = mk_cfg(**WIDE)
    block = generate_candidates(cfg)[:BLOCK]
    xy, _ = drop_users(cfg)
    assert _traced_peak(lambda: link_matrix(block, xy, cfg)) < 5 * BLOCK * len(xy) * 8


def test_distortion_matches_nested_loop():
    rng = np.random.default_rng(0)
    v = rng.uniform(0, 100, (40, 2))
    c = rng.uniform(0, 100, (7, 2))
    want = sum(min(((vi - cj) ** 2).sum() for cj in c) for vi in v)
    assert distortion(v, c) == pytest.approx(want, rel=1e-12)


def test_propose_jump_branch_lands_on_candidates():
    cfg = mk_cfg(p_jump=1.0)
    nodes = generate_candidates(cfg)
    rng = rng_stream(0, "condense")
    cents = nodes[:5].copy()
    for _ in range(50):
        new = propose(cents, nodes, rng, cfg)
        moved = np.flatnonzero((new != cents).any(axis=1))
        assert len(moved) <= 1
        assert any((nodes == new[moved[0]]).all(axis=1)) if len(moved) else True


def test_propose_local_branch_stays_close_and_inside():
    cfg = mk_cfg(p_jump=0.0)
    nodes = generate_candidates(cfg)
    rng = rng_stream(1, "condense")
    cents = nodes[:5].copy()
    sigma = cfg.anneal_step_frac * cfg.area_width()
    for _ in range(200):
        new = propose(cents, nodes, rng, cfg)
        delta = np.linalg.norm(new - cents, axis=1)
        assert (delta > 0).sum() <= 1
        assert delta.max() <= 8 * sigma        # clipped gaussian tail
        assert (new[:, 0] >= cfg.x_min).all() and (new[:, 0] <= cfg.x_max).all()


def test_propose_jump_fraction_binomial():
    cfg = mk_cfg(p_jump=0.3)
    nodes = generate_candidates(cfg)
    rng = rng_stream(2, "condense")
    cents = np.array([[173.3, 912.1], [411.7, 243.9], [1000.2, 87.4]])
    jumps = 0
    trials = 10_000
    for _ in range(trials):
        new = propose(cents, nodes, rng, cfg)
        moved = np.flatnonzero((new != cents).any(axis=1))
        if len(moved) and any((nodes == new[moved[0]]).all(axis=1)):
            jumps += 1
    assert 0.27 <= jumps / trials <= 0.33


def test_accept_downhill_always():
    rng = rng_stream(3, "condense")
    assert all(accept(-5.0, t, rng) for t in (1e-6, 1.0, 100.0) for _ in range(100))
    assert accept(0.0, 1e-9, rng)


def test_accept_frozen_rejects():
    rng = rng_stream(4, "condense")
    assert not any(accept(50.0, 1e-3, rng) for _ in range(1000))


def test_accept_rate_at_delta_equals_temperature():
    rng = rng_stream(5, "condense")
    n = 100_000
    hits = sum(accept(2.5, 2.5, rng) for _ in range(n))
    assert abs(hits / n - math.exp(-1)) <= 0.01


def test_qa_gives_zero_distortion_when_m_equals_n0():
    cfg = mk_cfg(n_candidates=33, n_centroids=33, anneal_i_max=30)
    nodes = generate_candidates(cfg)
    graph = qa_condense(nodes, cfg)
    assert graph.distortion == 0.0
    assert sorted(map(tuple, graph.centroids)) == sorted(map(tuple, nodes))


def test_qa_desk_scale_quality():
    # 100-node grid, M=8: below own random init and near the k-means oracle
    cfg = mk_cfg(n_candidates=100, n_centroids=8)
    nodes = generate_candidates(cfg)
    graph = qa_condense(nodes, cfg)
    assert graph.distortion < graph.init_distortion
    best_km = min(
        kmeans_condense(nodes, dataclasses.replace(cfg, seed=s)).distortion
        for s in range(50))
    assert graph.distortion <= 1.2 * best_km


def test_qa_trace_best_is_monotone():
    cfg = mk_cfg(n_candidates=64, n_centroids=6)
    nodes = generate_candidates(cfg)
    graph = qa_condense(nodes, cfg)
    best = graph.trace["best"]
    assert (np.diff(best) <= 0).all()
    assert (graph.trace["current"] >= best - 1e-9).all()
    assert graph.trace["accepted"][-1] >= 1


@pytest.mark.parametrize("stop, overrides, rows", [
    ("i_max", dict(anneal_i_max=7), 7),
    ("t_min", dict(anneal_t_min=96.0), 1),     # T0 = 100 cools to 95 after one step
    ("reference", {}, None),                   # cools below anneal_t_min first
    ("window", dict(n_candidates=100, n_centroids=10), None),
    ("no_step", dict(anneal_t0=1e-4), 0),      # T0 < T_min: config_from_dict would refuse it
], ids=["i_max", "t_min", "reference", "window", "no_step"])
def test_qa_trace_has_one_row_per_step_whichever_rule_stops(stop, overrides, rows):
    cfg = dataclasses.replace(ScenarioConfig(), **overrides)     # unvalidated, for no_step
    trace = qa_condense(generate_candidates(cfg), cfg).trace
    assert list(trace) == ["temperature", "current", "best", "accepted"]
    lengths = {len(col) for col in trace.values()}
    assert len(lengths) == 1
    n = lengths.pop()
    temperature, best = trace["temperature"], trace["best"]
    if stop == "reference":
        assert temperature[-1] < cfg.anneal_t_min <= temperature[-2]
    elif stop == "window":  # the best distortion stalled over the last STOP_WINDOW steps
        assert condense.STOP_WINDOW < n < cfg.anneal_i_max
        assert temperature[-1] >= cfg.anneal_t_min
        assert best[-1 - condense.STOP_WINDOW] - best[-1] < condense.STOP_TOL
    else:
        assert n == rows
    accepted = np.float64 if n == 0 else np.int64      # np.array([]) is float64
    assert [col.dtype for col in trace.values()] == [np.float64] * 3 + [accepted]


@pytest.mark.parametrize("n_centroids,n_candidates", [(9, 100), (1, 100), (1, BLOCK + 44)],
                         ids=["9", "1", "1-two-blocks"])
def test_qa_incremental_distortion_bookkeeping_is_exact(n_centroids, n_candidates):
    # at M = 1 every candidate is served by the moved centroid, so every
    # accepted move rescans all rows, in two blocks at N = BLOCK + 44; the
    # rescanned distances must be the very floats the trials summed
    cfg = mk_cfg(n_candidates=n_candidates, n_centroids=n_centroids, n_uav=1)
    nodes = generate_candidates(cfg)
    graph = qa_condense(nodes, cfg)
    assert graph.distortion == distortion(nodes, graph.centroids)


GRID = math.isqrt(BLOCK) + 1      # GRID**2 candidates: rows in two blocks


@pytest.mark.parametrize("centroids", [
    [(8, 8)],
    [(4, 8), (12, 8)],
    [(x, y) for x in (4, 8, 12) for y in (4, 8, 12)],
], ids=["1", "2", "9"])
def test_rescan_top2_equals_sorted_brute_force(centroids):
    # integer points, so every squared distance is exact; centroids placed
    # symmetrically on the grid leave rows tied between two, three or four
    nodes = np.array([(x, y) for x in range(GRID) for y in range(GRID)], dtype=float)
    assert BLOCK < len(nodes) <= 2 * BLOCK
    cents = np.array(centroids, dtype=float)
    brute = ((nodes[:, None, :] - cents[None, :, :]) ** 2).sum(axis=-1)
    want = np.sort(brute, axis=1)
    rows = np.arange(len(nodes))
    d1, i1, d2, i2 = (np.empty(len(nodes), t) for t in (float, np.intp, float, np.intp))
    condense._rescan(nodes, cents, rows, d1, i1, d2, i2)
    assert (d1 == want[:, 0]).all() and (brute[rows, i1] == d1).all()
    if len(cents) == 1:
        assert (d2 == np.inf).all()
    else:
        assert (d2 == want[:, 1]).all() and (brute[rows, i2] == d2).all()
        assert (i1 != i2).all()
        assert (want[:, 0] == want[:, 1]).any()       # ties for the nearest
    if len(cents) > 2:
        assert (want[:, 1] == want[:, 2]).any()       # ties for the runner-up


def test_kmeans_two_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal((10.0, 10.0), 0.1, (10, 2))
    b = rng.normal((900.0, 900.0), 0.1, (10, 2))
    nodes = np.vstack([a, b])
    cfg = mk_cfg(n_candidates=20, n_centroids=2, n_uav=1, n_users=4)
    graph = kmeans_condense(nodes, cfg)
    got = sorted(map(tuple, graph.centroids))
    want = sorted([tuple(a.mean(axis=0)), tuple(b.mean(axis=0))])
    assert np.allclose(got, want, atol=0.2)


def test_kmeans_empty_cluster_seizes_the_worst_quantized_point():
    # with every candidate doubled, two starting centroids can share a spot;
    # the later one loses every tie, serves no candidate and must seize one
    cfg = mk_cfg(n_candidates=20, n_centroids=8)
    base = np.random.default_rng(0).uniform(0.0, 1000.0, (10, 2))
    nodes = np.concatenate([base, base])
    shared = 0
    for seed in range(20):
        starts = nodes[rng_stream(seed, "condense").choice(20, size=8, replace=False)]
        shared += len(np.unique(starts, axis=0)) < 8
        graph = kmeans_condense(nodes, dataclasses.replace(cfg, seed=seed))
        assert len(np.unique(vq(nodes, graph.centroids)[0])) == 8, seed
    assert shared == 18


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=2, max_size=90),
       st.integers(1, 12), st.integers(0, 1000))
def test_kmeans_equals_the_per_cluster_loop(points, m, seed):
    # an integer lattice with repeats: tied distances, shared starting
    # centroids and empty clusters that seize points
    nodes = np.array(points, dtype=float) * 37.5
    cfg = mk_cfg(n_candidates=len(nodes), n_centroids=min(m, len(nodes)), n_uav=1, seed=seed)
    got = kmeans_condense(nodes, cfg).centroids
    assert got.tobytes() == kmeans_centroids_loop(nodes, cfg).tobytes()


@pytest.mark.parametrize("overrides", [{}, WIDE], ids=["small", "wide"])
def test_kmeans_equals_the_per_cluster_loop_on_candidates(overrides):
    cfg = mk_cfg(**overrides)
    nodes = generate_candidates(cfg)
    for seed in range(3):
        c = dataclasses.replace(cfg, seed=seed)
        assert kmeans_condense(nodes, c).centroids.tobytes() == \
            kmeans_centroids_loop(nodes, c).tobytes()


def test_kmeans_single_centroid_is_global_mean():
    cfg = mk_cfg(n_candidates=30, n_centroids=1, n_uav=1)
    nodes = generate_candidates(mk_cfg(n_candidates=30))
    graph = kmeans_condense(nodes, cfg)
    assert np.allclose(graph.centroids[0], nodes.mean(axis=0), atol=1e-9)


def test_kmeans_quality_against_sklearn():
    sklearn = pytest.importorskip("sklearn.cluster")
    cfg = mk_cfg(n_candidates=200, n_centroids=12)
    nodes = generate_candidates(cfg)
    ours = min(kmeans_condense(nodes, dataclasses.replace(cfg, seed=s)).distortion
               for s in range(10))
    ref = sklearn.KMeans(n_clusters=12, n_init=10, random_state=0).fit(nodes)
    assert ours <= 1.15 * ref.inertia_
    assert ref.inertia_ <= 1.15 * ours


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_quality_against_scipy_kmeans2(seed):
    # the same band as the sklearn oracle, from scipy, which runs wherever
    # the test extra is installed
    cfg = mk_cfg(n_candidates=200, n_centroids=12, seed=seed)
    nodes = generate_candidates(cfg)
    ours = min(kmeans_condense(nodes, dataclasses.replace(cfg, seed=s)).distortion
               for s in range(10))

    def oracle(s):
        codebook, _ = kmeans2(nodes, 12, minit="++", seed=np.random.default_rng(s))
        return float((vq(nodes, codebook)[1] ** 2).sum())

    ref = min(oracle(s) for s in range(10))
    assert ours <= 1.15 * ref
    assert ref <= 1.15 * ours


def test_snrp_single_user_picks_nearest_candidates():
    cfg = mk_cfg(n_centroids=6, d_sep_m=0.0, n_users=1)
    nodes = generate_candidates(cfg)
    user = np.array([[703.1, 697.4]])        # slightly off-center: no ties
    mask = np.array([False])
    graph = snrp_condense(nodes, user, mask, cfg)
    d2 = ((nodes - user) ** 2).sum(axis=1)
    want = nodes[np.argsort(d2, kind="stable")[:6]]
    assert sorted(map(tuple, graph.centroids)) == sorted(map(tuple, want))


def test_snrp_respects_separation_floor():
    cfg = mk_cfg(n_centroids=8, d_sep_m=120.0)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    graph = snrp_condense(nodes, xy, mask, cfg)
    c = graph.centroids
    d = np.sqrt(((c[:, None] - c[None]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 120.0


def test_snrp_relaxes_when_overconstrained():
    cfg = mk_cfg(n_centroids=10, d_sep_m=50_000.0)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    graph = snrp_condense(nodes, xy, mask, cfg)
    assert graph.n_centroids == 10
    assert len(np.unique(graph.centroids, axis=0)) == 10


def test_snrp_first_pick_is_top_proxy():
    cfg = mk_cfg(n_centroids=5, d_sep_m=100.0)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    proxy = snr_proxy(nodes, xy, mask, cfg)
    graph = snrp_condense(nodes, xy, mask, cfg)
    assert tuple(graph.centroids[0]) == tuple(nodes[int(np.argmax(proxy))])


# two pairs that no floor of 1e-9 m or more separates: 4e-10 m apart, and an
# exact duplicate, whose proxies tie
NEAR_DUPLICATES = np.array([[0.0, 0.0], [0.0, 4e-10], [300.0, 0.0], [300.0, 300.0],
                            [0.0, 300.0], [150.0, 150.0], [300.0, 300.0]])


@pytest.mark.parametrize("overrides,nodes,fill", [
    (dict(d_sep_m=0.0), None, False),
    (dict(n_centroids=10, d_sep_m=50_000.0), None, False),     # 22 relaxations
    (WIDE, None, False),
    (dict(n_centroids=len(NEAR_DUPLICATES)), NEAR_DUPLICATES, True),
], ids=["no-floor", "relaxed-floor", "condense-wide", "sub-1e-9-fill"])
@pytest.mark.parametrize("seed", [0, 1])
def test_snrp_picks_follow_the_loop_oracle(overrides, nodes, fill, seed):
    cfg = mk_cfg(seed=seed, **overrides)
    if nodes is None:
        nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    got = snrp_condense(nodes, xy, mask, cfg).centroids
    assert got.tobytes() == nodes[snrp_picks(nodes, xy, mask, cfg)].tobytes()
    # only the fill at a floor below 1e-9 m can pick a pair closer than that
    assert (pdist(got).min() < 1e-9) == fill


def test_adjacency_threshold_inclusive_path():
    cfg = mk_cfg()
    r = cfg.move_radius_m()
    cents = np.array([[0.0, 0.0], [r, 0.0], [2 * r, 0.0]])
    graph = build_adjacency(cents, cfg)
    assert [(i, j) for i, j, v in graph.edges if not v] == [(0, 1), (1, 2)]
    assert not [e for e in graph.edges if e[2]]
    assert np.flatnonzero(graph.adj[0]).tolist() == [0, 1]
    assert np.flatnonzero(graph.adj[1]).tolist() == [0, 1, 2]


def test_adjacency_bridges_disconnected_pair():
    cfg = mk_cfg()
    cents = np.array([[0.0, 0.0], [5 * cfg.move_radius_m(), 0.0]])
    graph = build_adjacency(cents, cfg)
    assert graph.edges == [(0, 1, True)]
    assert [(i, j) for i, j, v in graph.edges if v] == [(0, 1)]


def test_adjacency_matches_pairwise_oracle():
    cfg = mk_cfg()
    rng = np.random.default_rng(8)
    cents = rng.uniform(0, cfg.x_max, (33, 2))
    graph = build_adjacency(cents, cfg)
    r = cfg.move_radius_m()
    want = {(i, j) for i in range(33) for j in range(i + 1, 33)
            if np.linalg.norm(cents[i] - cents[j]) <= r}
    got = {(i, j) for i, j, v in graph.edges if not v}
    assert got == want


def _assert_matches_greedy_reference(graph, cfg):
    edges, want = greedy_bridge_adjacency(graph.centroids, cfg)
    assert graph.edges == edges
    assert [nb.tolist() for nb in neighbors(graph)] == [nb.tolist() for nb in want]


@pytest.mark.parametrize("method", ["qa", "kmeans", "snrp"])
def test_adjacency_matches_greedy_bridging_over_seeds(method):
    # M = 10 on the reference area leaves most centroids out of one slot's
    # reach, so nearly every graph needs several virtual bridges
    bridged = 0
    for seed in range(50):
        cfg = mk_cfg(seed=seed)
        nodes = generate_candidates(cfg)
        if method == "qa":
            graph = qa_condense(nodes, cfg)
        elif method == "kmeans":
            graph = kmeans_condense(nodes, cfg)
        else:
            xy, mask = drop_users(cfg)
            graph = snrp_condense(nodes, xy, mask, cfg)
        _assert_matches_greedy_reference(graph, cfg)
        bridged += any(v for _, _, v in graph.edges)
    assert bridged >= 40


def test_virtual_mask_holds_exactly_the_bridges():
    # M = 33 on the reference area: radius edges and bridges in every graph
    cfg = mk_cfg(n_centroids=33, episodes=1, slots_per_episode=2, eval_episodes=1)
    jobs = [(dataclasses.replace(cfg, seed=seed), method)
            for method in METHODS for seed in range(6)]
    mixed = 0
    for res in train_lockstep(jobs):
        graph = res.world.graph
        virt = graph.virtual
        within = sq_dist(graph.centroids, graph.centroids) <= cfg.move_radius_m() ** 2
        assert (virt == virt.T).all() and not virt.diagonal().any()
        assert not (virt & ~graph.adj).any() and not (virt & within).any()
        assert (graph.adj == within | virt).all()
        assert np.triu(virt).sum() == res.report.n_virtual_edges
        mixed += bool(virt.any()) and bool((graph.adj & ~virt).sum() > len(virt))
    assert mixed >= 15


@pytest.mark.parametrize("spacing,shape", [(300.0, (3, 3)), (260.0, (4, 2)),
                                           (500.0, (5, 1)), (250.0, (3, 3))])
def test_adjacency_equidistant_ties_match_greedy_bridging(spacing, shape):
    # lattice points: many cross-component pairs share the exact same d^2
    cfg = mk_cfg()
    gx, gy = np.meshgrid(spacing * np.arange(shape[0]), spacing * np.arange(shape[1]))
    cents = np.column_stack([gx.ravel(), gy.ravel()])
    _assert_matches_greedy_reference(build_adjacency(cents, cfg), cfg)
    rng = np.random.default_rng(int(spacing))
    for _ in range(20):
        shuffled = cents[rng.permutation(len(cents))]
        _assert_matches_greedy_reference(build_adjacency(shuffled, cfg), cfg)


def test_adjacency_integer_clouds_match_greedy_bridging():
    # coordinates on a 100 m lattice give equal squared distances everywhere
    cfg = mk_cfg()
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        cents = 100.0 * rng.integers(0, 15, (n, 2))
        _assert_matches_greedy_reference(build_adjacency(cents, cfg), cfg)


def test_adjacency_equals_one_pass_oracle():
    # the sorted pairs are taken M at a time; random clouds and 100 m
    # lattices (equal and zero distances) with M from 1 to 200
    cfg = mk_cfg()
    rng = np.random.default_rng(16)
    sizes = [1, 2, 3, 200] + rng.integers(1, 201, 196).tolist()
    for case, m in enumerate(sizes):
        if case % 2:
            cents = 100.0 * rng.integers(0, 1 + int(rng.integers(1, 30)), (m, 2))
        else:
            cents = rng.uniform(0, cfg.x_max * rng.uniform(0.2, 4.0), (m, 2))
        graph = build_adjacency(cents, cfg)
        adj, virtual = build_adjacency_one_pass(cents, cfg)
        assert (graph.adj == adj).all() and (graph.virtual == virtual).all(), (case, m)


def test_adjacency_holds_no_list_of_all_pairs():
    # M = 480 (4x condense-wide) over a 5.6 km square: turning all 114,960
    # sorted pairs into Python ints at once peaked at 10.7 MiB
    cfg = mk_cfg()
    cents = np.random.default_rng(0).uniform(0, 5600.0, (480, 2))
    assert _traced_peak(lambda: build_adjacency(cents, cfg)) < 7 * 2 ** 20


def _connected(graph):
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for a in neighbors(graph)[s]:
            if int(a) not in seen:
                seen.add(int(a))
                frontier.append(int(a))
    return len(seen) == graph.n_centroids


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1400), st.floats(0, 1400)),
                min_size=3, max_size=12, unique=True))
def test_adjacency_invariants(points):
    cfg = mk_cfg()
    graph = build_adjacency(np.array(points), cfg)
    for s, nb in enumerate(neighbors(graph)):
        assert s in nb                          # hover always present
        for a in nb:
            assert s in neighbors(graph)[int(a)]  # symmetry
    assert _connected(graph)


@pytest.mark.parametrize("method", ["qa", "kmeans", "snrp"])
def test_all_condensers_return_m_in_bounds(method):
    cfg = mk_cfg(n_centroids=7)
    nodes = generate_candidates(cfg)
    xy, mask = drop_users(cfg)
    if method == "qa":
        graph = qa_condense(nodes, cfg)
    elif method == "kmeans":
        graph = kmeans_condense(nodes, cfg)
    else:
        graph = snrp_condense(nodes, xy, mask, cfg)
    assert graph.n_centroids == 7
    assert graph.method == method
    assert (graph.centroids[:, 0] >= cfg.x_min).all()
    assert (graph.centroids[:, 0] <= cfg.x_max).all()
    assert (graph.centroids[:, 1] >= cfg.y_min).all()
    assert (graph.centroids[:, 1] <= cfg.y_max).all()
    assert np.isfinite(graph.distortion)
