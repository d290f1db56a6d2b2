"""Q-learning pieces: action sets, selection, reward, TD backups, snapshots."""

import numpy as np
import pytest
from scipy import stats

from absim.condense import build_adjacency
from absim.radio import outage_counts
from absim.rl import (ActionSpace, QTable, export_qtables, feasible_actions,
                      load_qtables, reward, select_action, td_update)
from absim.scenario import rng_stream
from helpers import brute_force_reward, mk_cfg


def _chain(n, spacing=200.0):
    """Path graph 0-1-...-n-1; spacing below the move radius."""
    cfg = mk_cfg()
    cents = np.column_stack([spacing * np.arange(n), np.zeros(n)])
    graph = build_adjacency(cents, cfg)
    return cfg, graph, ActionSpace(graph, cfg)


def test_qtable_shapes_follow_adjacency():
    _, graph, _ = _chain(4)
    q = QTable(graph)
    assert [len(v) for v in q.values] == [len(nb) for nb in graph.neighbors]
    assert q.lookup(1, 2, graph) == 0.0


def test_feasible_actions_chain_interior():
    cfg, graph, _ = _chain(4)
    assert feasible_actions(graph, 1, cfg).tolist() == [0, 1, 2]
    assert feasible_actions(graph, 0, cfg).tolist() == [0, 1]


def test_feasible_actions_bridged_node():
    cfg = mk_cfg()
    cents = np.array([[0.0, 0.0], [4000.0, 0.0]])
    graph = build_adjacency(cents, cfg)
    # far pair joined only by the virtual corridor: still mutually reachable
    assert feasible_actions(graph, 0, cfg).tolist() == [0, 1]
    assert feasible_actions(graph, 1, cfg).tolist() == [0, 1]


def test_feasible_actions_shrunken_radius_leaves_hover():
    cfg, graph, _ = _chain(4)
    import dataclasses
    slow = dataclasses.replace(cfg, v_max_mps=1.0, delta_t_s=1.0)
    assert feasible_actions(graph, 1, slow).tolist() == [1]


def test_select_action_greedy_and_ties():
    cfg, graph, space = _chain(3)
    q = QTable(graph)
    rng = rng_stream(0, "egreedy")
    q.values[1][:] = [1.0, 5.0, 3.0]
    assert select_action(q, 1, 0.0, rng, space) == graph.neighbors[1][1]
    q.values[1][:] = 2.0
    assert select_action(q, 1, 0.0, rng, space) == graph.neighbors[1][0]


def test_select_action_greedy_invariant_to_q_offset():
    cfg, graph, space = _chain(3)
    q = QTable(graph)
    rng = rng_stream(1, "egreedy")
    q.values[1][:] = [-3.0, 0.5, -1.0]
    a = select_action(q, 1, 0.0, rng, space)
    q.values[1][:] += 100.0
    assert select_action(q, 1, 0.0, rng, space) == a


def test_select_action_explores_uniformly():
    cfg, graph, space = _chain(3)
    q = QTable(graph)
    rng = rng_stream(2, "egreedy")
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(3000):
        counts[select_action(q, 1, 1.0, rng, space)] += 1
    got = stats.chisquare(list(counts.values()))
    assert got.pvalue > 1e-3


def _rewards(assoc, outage, priority_mask, cfg, n_uav=3):
    counts = outage_counts(np.asarray(assoc), np.asarray(outage),
                           np.asarray(priority_mask), n_uav)
    return counts, reward(counts, cfg)


def test_reward_zero_without_outage():
    cfg = mk_cfg()
    _, r = _rewards([0, 0], [False, False], [True, False], cfg)
    assert r.tolist() == [0.0, 0.0, 0.0]


def test_reward_single_priority_outage():
    cfg = mk_cfg(mu_pr=40.0)
    counts, r = _rewards([0], [True], [True], cfg)
    assert r[0] == pytest.approx(-80.0)       # -40*(1 count + 1.0 fraction)
    assert counts[1, 1, 0] == 1 and counts[0, 1, 0] == 0   # 1 of 1 priority users


def test_reward_regular_fraction():
    cfg = mk_cfg(mu_nr=1.0)
    _, r = _rewards([0, 0], [True, False], [False, False], cfg)
    assert r[0] == pytest.approx(-1.5)        # -(1 count + 0.5 fraction)


def test_reward_only_counts_own_cell():
    cfg = mk_cfg(mu_pr=40.0)
    # the outaged priority user belongs to ABS 1, so ABS 0 is unaffected
    _, r = _rewards([1, 0], [True, False], [True, False], cfg)
    assert r[0] == 0.0
    assert r[1] == pytest.approx(-80.0)


def test_reward_never_positive():
    cfg = mk_cfg()
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        assoc, outage, pr = rng.integers(0, 3, k), rng.random(k) < 0.5, rng.random(k) < 0.3
        counts, r = _rewards(assoc, outage, pr, cfg)
        assert counts.sum() == k
        assert (r <= 0.0).all()
        # same float operations as the per-user loop, so equal bit for bit
        assert r.tolist() == [brute_force_reward(n, assoc, outage, pr, cfg)
                              for n in range(3)]


def test_td_update_hand_step():
    import dataclasses
    cfg, graph, space = _chain(3)
    cfg = dataclasses.replace(cfg, alpha_q=0.5, zeta=0.9)
    q = QTable(graph)
    q.values[2][:] = [0.0, 4.0]                # state 2 neighbors: [1, 2]
    new = td_update(q, 1, 2, -1.0, 2, cfg, space)
    assert new == pytest.approx(0.5 * (-1.0 + 0.9 * 4.0))
    assert q.lookup(1, 2, graph) == pytest.approx(new)


def test_td_update_degenerate_rates():
    import dataclasses
    cfg, graph, space = _chain(3)
    q = QTable(graph)
    myopic = dataclasses.replace(cfg, alpha_q=1.0, zeta=0.0)
    assert td_update(q, 0, 1, -7.0, 1, myopic, space) == -7.0
    frozen = dataclasses.replace(cfg, alpha_q=1e-300)   # effectively no step
    before = q.lookup(1, 0, graph)
    td_update(q, 1, 0, -5.0, 0, frozen, space)
    assert q.lookup(1, 0, graph) == pytest.approx(before)


def _value_iteration(graph, cfg, reward_of):
    v = np.zeros(graph.n_centroids)
    for _ in range(5000):
        nxt = np.array([max(reward_of(int(a)) + cfg.zeta * v[int(a)]
                            for a in graph.neighbors[s])
                        for s in range(graph.n_centroids)])
        if np.abs(nxt - v).max() < 1e-13:
            break
        v = nxt
    q_star = [np.array([reward_of(int(a)) + cfg.zeta * v[int(a)]
                        for a in nb]) for nb in graph.neighbors]
    return v, q_star


def test_chain_mdp_matches_value_iteration():
    import dataclasses
    cfg, graph, space = _chain(3)
    cfg = dataclasses.replace(cfg, alpha_q=0.5, zeta=0.9)
    goal = graph.n_centroids - 1
    reward_of = lambda a: 0.0 if a == goal else -1.0

    q = QTable(graph)
    for _ in range(300):
        for s in range(graph.n_centroids):
            for a in graph.neighbors[s]:
                td_update(q, s, int(a), reward_of(int(a)), int(a), cfg, space)

    _, q_star = _value_iteration(graph, cfg, reward_of)
    for s in range(graph.n_centroids):
        assert np.allclose(q.values[s], q_star[s], atol=1e-9)
        greedy = graph.neighbors[s][int(np.argmax(q.values[s]))]
        oracle = graph.neighbors[s][int(np.argmax(q_star[s]))]
        assert greedy == oracle
        assert np.abs(q.values[s]).max() <= 1.0 / (1.0 - cfg.zeta) + 1e-9


def test_qtable_export_import_roundtrip(tmp_path):
    cfg, graph, _ = _chain(4)
    rng = np.random.default_rng(1)
    tables = [QTable(graph) for _ in range(2)]
    for q in tables:
        for s in range(graph.n_centroids):
            q.values[s][:] = rng.normal(size=len(q.values[s]))
    path = tmp_path / "q.csv"
    export_qtables(path, tables, graph)
    loaded = load_qtables(path, graph, n_uav=2)
    for q, l in zip(tables, loaded):
        for vs, ls in zip(q.values, l.values):
            assert np.array_equal(vs, ls)      # repr round-trip is exact


@pytest.mark.parametrize("mutation,complaint", [
    (lambda lines: ["state,uav,action,value"] + lines[1:], "header"),
    (lambda lines: lines + ["1,0,3,0.5"], "not a neighbor"),   # 0-3 too far
    (lambda lines: lines + ["5,0,0,0.5"], "out of range"),
    (lambda lines: lines[:-1], "misses"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"],
                 "non-finite", id="nan"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",-inf"],
                 "non-finite", id="-inf"),
])
def test_qtable_import_rejects_corruption(tmp_path, mutation, complaint):
    cfg, graph, _ = _chain(4)
    path = tmp_path / "q.csv"
    export_qtables(path, [QTable(graph) for _ in range(2)], graph)
    lines = path.read_text().strip().split("\n")
    path.write_text("\n".join(mutation(lines)) + "\n")
    with pytest.raises(ValueError, match=complaint):
        load_qtables(path, graph, n_uav=2)
