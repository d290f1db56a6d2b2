"""Condensers and the motion graph: oracles, Metropolis statistics, adjacency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2, vq

from absim.condense import (accept, build_adjacency, distortion, kmeans_condense,
                            qa_condense, snr_proxy, snrp_condense)
from absim.scenario import drop_users, generate_candidates, rng_stream
from helpers import greedy_bridge_adjacency, mk_cfg, neighbors, propose


def test_distortion_hand_values():
    v = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert distortion(v, np.array([[1.0, 0.0]])) == pytest.approx(2.0)
    assert distortion(v, v) == 0.0


def test_distortion_empty_centroids_errors():
    with pytest.raises(ValueError):
        distortion(np.array([[0.0, 0.0]]), np.empty((0, 2)))


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


def test_qa_incremental_distortion_bookkeeping_is_exact():
    cfg = mk_cfg(n_candidates=100, n_centroids=9)
    nodes = generate_candidates(cfg)
    graph = qa_condense(nodes, cfg)
    assert graph.distortion == pytest.approx(
        distortion(nodes, graph.centroids), rel=1e-9)


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
    # the same band as the sklearn oracle, from scipy, which is always there
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
