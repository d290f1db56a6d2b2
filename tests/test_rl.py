"""Q-learning pieces: action sets, selection, reward, TD backups, snapshots."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import cdist

from absim.condense import build_adjacency
from absim.radio import outage_keys, outage_stats
from absim.rl import (draw_exploration, export_qtables, load_qtables, masked, move_table,
                      reward, select_action)
from absim.scenario import rng_stream
from absim.sim import build_world, train
from helpers import (brute_force_reward, feasible_actions, mk_cfg, neighbors,
                     pcg64_state_before, record_training_paths, td_step)


def _chain(n, spacing=200.0):
    """Path graph 0-1-...-n-1; spacing below the move radius."""
    cfg = mk_cfg()
    cents = np.column_stack([spacing * np.arange(n), np.zeros(n)])
    graph = build_adjacency(cents, cfg)
    return cfg, graph, graph.adj


def _select(q, s, eps, rng, feasible):
    """select_action for one UAV of one world, on its (M, M) table q."""
    moves, n_moves = move_table(feasible)
    draws = draw_exploration([rng], eps, 1, 1, moves[None], n_moves[None])
    return int(select_action(masked(q, feasible)[None], np.array([[s]]), draws, 0)[0, 0])


def test_qtable_shapes_follow_adjacency():
    cfg, graph, feasible = _chain(4)
    q = np.zeros((cfg.n_uav, graph.n_centroids, graph.n_centroids))
    # one hover plus one move per edge at s
    assert feasible.sum(axis=1).tolist() == [1 + sum(s in e[:2] for e in graph.edges)
                                             for s in range(4)]
    assert feasible.diagonal().all()
    assert q[0, 1, 2] == 0.0


def test_feasible_actions_chain_interior():
    cfg, graph, feasible = _chain(4)
    assert np.flatnonzero(feasible[1]).tolist() == [0, 1, 2]
    assert np.flatnonzero(feasible[0]).tolist() == [0, 1]


def test_feasible_actions_bridged_node():
    cfg = mk_cfg()
    cents = np.array([[0.0, 0.0], [4000.0, 0.0]])
    graph = build_adjacency(cents, cfg)
    feasible = graph.adj
    # far pair joined only by the virtual corridor: still mutually reachable
    assert np.flatnonzero(feasible[0]).tolist() == [0, 1]
    assert np.flatnonzero(feasible[1]).tolist() == [0, 1]


@pytest.mark.parametrize("radius_scale", [0.5, 1.0, 3.0])
def test_feasible_table_matches_per_state_loop(radius_scale):
    # graph.adj and its move table against a loop over every centroid pair;
    # the lattice clouds put many pairs exactly on the radius
    import dataclasses
    rng = np.random.default_rng(int(10 * radius_scale))
    cfg = mk_cfg()
    cfg = dataclasses.replace(cfg, v_max_mps=cfg.v_max_mps * radius_scale)
    step = cfg.move_radius_m() / 5           # offsets (5, 0), (3, 4), ... land on it
    clouds = [rng.uniform(0, cfg.x_max, (12, 2)) for _ in range(30)]
    clouds += [np.unique(step * rng.integers(0, 10, (12, 2)), axis=0) for _ in range(30)]
    on_radius = 0
    for cents in clouds:
        graph = build_adjacency(cents, cfg)
        on_radius += int((cdist(cents, cents) == cfg.move_radius_m()).sum())
        feasible = graph.adj
        moves, n_moves = move_table(feasible)
        for s in range(graph.n_centroids):
            want = feasible_actions(graph, s, cfg).tolist()
            assert np.flatnonzero(feasible[s]).tolist() == want
            assert moves[s].tolist() == want + [-1] * (graph.n_centroids - len(want))
            assert n_moves[s] == len(want)
    assert on_radius > 0


def test_select_action_greedy_and_ties():
    cfg, graph, feasible = _chain(3)
    q = np.zeros((3, 3))
    rng = rng_stream(0, "egreedy")
    q[1, neighbors(graph)[1]] = [1.0, 5.0, 3.0]
    assert _select(q, 1, 0.0, rng, feasible) == neighbors(graph)[1][1]
    q[1, neighbors(graph)[1]] = 2.0
    assert _select(q, 1, 0.0, rng, feasible) == neighbors(graph)[1][0]


def test_select_action_greedy_invariant_to_q_offset():
    cfg, graph, feasible = _chain(3)
    q = np.zeros((3, 3))
    rng = rng_stream(1, "egreedy")
    q[1, neighbors(graph)[1]] = [-3.0, 0.5, -1.0]
    a = _select(q, 1, 0.0, rng, feasible)
    q[1, neighbors(graph)[1]] += 100.0
    assert _select(q, 1, 0.0, rng, feasible) == a


def test_select_action_explores_uniformly():
    cfg, graph, feasible = _chain(3)
    q = np.zeros((3, 3))
    rng = rng_stream(2, "egreedy")
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(3000):
        counts[_select(q, 1, 1.0, rng, feasible)] += 1
    got = stats.chisquare(list(counts.values()))
    assert got.pvalue > 1e-3


def test_select_action_lockstep_matches_per_uav_loop():
    # every world explores with its own stream in UAV order; greedy picks the
    # first maximum among the feasible moves and ignores off-graph entries
    cfg = mk_cfg()
    rng = np.random.default_rng(3)
    n_worlds, n_uav, m = 3, 4, 9
    feasible, moves, n_moves = [], [], []
    for _ in range(n_worlds):
        f = build_adjacency(rng.uniform(0, 900, (m, 2)), cfg).adj
        mv, nm = move_table(f)
        feasible.append(f)
        moves.append(mv)
        n_moves.append(nm)
    feasible = np.stack(feasible)
    q = rng.integers(-3, 3, (n_worlds, n_uav, m, m)).astype(float)   # many ties
    for eps in (0.0, 0.5, 1.0):
        for step in range(20):
            states = rng.integers(0, m, (n_worlds, n_uav))
            streams = [rng_stream(100 * step + k, "egreedy") for k in range(n_worlds)]
            draws = draw_exploration(streams, eps, 1, n_uav, np.stack(moves), np.stack(n_moves))
            got = select_action(masked(q, feasible), states, draws, 0)
            for k in range(n_worlds):
                ref = rng_stream(100 * step + k, "egreedy")
                for u in range(n_uav):
                    s = states[k, u]
                    ok = np.flatnonzero(feasible[k, s])
                    if eps > 0.0 and ref.random() < eps:
                        want = ok[ref.integers(len(ok))]
                    else:
                        want = ok[int(np.argmax(q[k, u, s, ok]))]
                    assert got[k, u] == want
                assert ref.bit_generator.state == streams[k].bit_generator.state



def _per_call(rng, eps, states, greedy, moves, n_moves):
    """The reference selection: per UAV random(), then, if below eps,
    integers() over the state's moves, as Generator calls."""
    return [moves[s][rng.integers(n_moves[s])] if rng.random() < eps else a
            for s, a in zip(states, greedy)]


def _episodes_match_per_call(gen, ref, eps, adj, episodes, n_uav, rng, start=False):
    """Run episodes of the given slot counts on gen through draw_exploration
    and select_action, and on ref call by call; assert the same actions, and
    the same generator state after every episode. Returns the draws of the
    last episode."""
    m = adj.shape[0]
    moves, n_moves = move_table(adj)
    q = masked(rng.normal(size=(1, n_uav, m, m)), adj)
    for n_slots in episodes:
        if start:       # run_episode's draw of a random start
            assert gen.integers(m, size=n_uav).tolist() == ref.integers(m, size=n_uav).tolist()
        draws = draw_exploration([gen], eps, n_slots, n_uav, moves[None], n_moves[None])
        for t in range(n_slots):
            states = rng.integers(0, m, (1, n_uav))
            greedy = q[0, np.arange(n_uav), states[0]].argmax(axis=-1)
            got = select_action(q, states, draws, t)
            assert got[0].tolist() == _per_call(ref, eps, states[0].tolist(), greedy.tolist(),
                                                moves, n_moves)
        assert gen.bit_generator.state == ref.bit_generator.state
    return draws


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.0, 1.0, exclude_min=True),
       m=st.integers(2, 12), n_uav=st.integers(1, 4),
       episodes=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       start=st.booleans(), buffered=st.booleans())
@example(seed=1, eps=1.0, m=5, n_uav=3, episodes=[1, 3, 1], start=False, buffered=False)
@example(seed=2, eps=1.0, m=4, n_uav=3, episodes=[2, 1], start=True, buffered=True)
def test_exploration_draws_equal_generator_calls(seed, eps, m, n_uav, episodes, start,
                                                 buffered):
    # every state has 2 to m moves; at eps = 1 and an odd count of UAVs,
    # an odd number of exploration draws leaves a half-word buffered at the
    # next episode's start, as does run_episode's integers(m, size=n_uav)
    rng = np.random.default_rng(seed)
    adj = rng.random((m, m)) < rng.random()
    adj[np.arange(m), np.arange(m)] = adj[np.arange(m), (np.arange(m) + 1) % m] = True
    gen, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if buffered:
        assert gen.integers(5) == ref.integers(5)
    _episodes_match_per_call(gen, ref, eps, adj, episodes, n_uav, rng, start)


@pytest.mark.parametrize("half", ["low", "high"])
def test_exploration_falls_back_where_lemire_could_reject(half):
    # the second raw word of the episode holds a 32-bit half of 0, which
    # integers(3) rejects (leftover 0 < (2**32 - 3) % 3); the row then draws
    # call by call, and selections and the generator equal the calls'
    adj = np.ones((3, 3), dtype=bool)
    word = 0x1234567800000000 if half == "low" else 0x0000000087654321
    gen = np.random.default_rng(0)
    inc = gen.bit_generator.state["state"]["inc"]
    gen.bit_generator.state = pcg64_state_before(word, inc, steps=2)
    ref = np.random.default_rng(0)
    ref.bit_generator.state = gen.bit_generator.state
    draws = _episodes_match_per_call(gen, ref, 1.0, adj, [4], 2, np.random.default_rng(1))
    assert draws.per_call == (0,)


def test_exploration_of_a_hover_only_world_draws_nothing(monkeypatch):
    # one centroid: every action is the hover, so no exploration is drawn
    # and the stream stays where it was, as at eps = 0
    cfg = mk_cfg(n_centroids=1, n_uav=1)
    world, _ = build_world(cfg, "kmeans")
    assert world.graph.adj.tolist() == [[True]]
    gen = rng_stream(0, "egreedy")
    before = gen.bit_generator.state
    moves, n_moves = move_table(world.graph.adj)
    draws = draw_exploration([gen], 0.7, 5, 1, moves[None], n_moves[None])
    assert draws.slots == [None] * 5 and draws.per_call == ()
    assert gen.bit_generator.state == before
    paths = record_training_paths(monkeypatch)
    train(cfg, "kmeans")
    assert len(paths) == cfg.episodes
    assert all(traj.shape == (cfg.slots_per_episode + 1, 1, 1) and not traj.any()
               for traj in paths)


def test_greedy_selection_leaves_the_stream_untouched():
    _, graph, adj = _chain(4)
    gen = rng_stream(3, "egreedy")
    before = gen.bit_generator.state
    moves, n_moves = move_table(adj)
    draws = draw_exploration([gen], 0.0, 6, 2, moves[None], n_moves[None])
    q = masked(np.random.default_rng(0).normal(size=(1, 2, 4, 4)), adj)
    states = np.array([[0, 3]])
    assert select_action(q, states, draws, 5).tolist() == \
        q[0, [0, 1], [0, 3]].argmax(axis=-1)[None].tolist()
    assert gen.bit_generator.state == before


def _rewards(assoc, outage, priority_mask, cfg, n_uav=3):
    counts = outage_stats(np.asarray(assoc), np.asarray(outage),
                          outage_keys(np.asarray(priority_mask), n_uav), n_uav)
    return counts, reward(counts, cfg.mu_pr, cfg.mu_nr)


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
    cfg, graph, feasible = _chain(3)
    cfg = dataclasses.replace(cfg, alpha_q=0.5, zeta=0.9)
    q = np.zeros((3, 3))
    q[2, neighbors(graph)[2]] = [0.0, 4.0]      # state 2 neighbors: [1, 2]
    new = td_step(q, 1, 2, -1.0, cfg, feasible)
    assert new == pytest.approx(0.5 * (-1.0 + 0.9 * 4.0))
    assert q[1, 2] == pytest.approx(new)


def test_td_update_degenerate_rates():
    import dataclasses
    cfg, graph, feasible = _chain(3)
    q = np.zeros((3, 3))
    myopic = dataclasses.replace(cfg, alpha_q=1.0, zeta=0.0)
    assert td_step(q, 0, 1, -7.0, myopic, feasible) == -7.0
    frozen = dataclasses.replace(cfg, alpha_q=1e-300)   # effectively no step
    before = q[1, 0]
    td_step(q, 1, 0, -5.0, frozen, feasible)
    assert q[1, 0] == pytest.approx(before)


def test_td_update_hover_reads_old_value():
    # s' = s: the bootstrap max includes the entry being written, read first
    import dataclasses
    cfg, graph, feasible = _chain(3)
    cfg = dataclasses.replace(cfg, alpha_q=0.5, zeta=0.9)
    q = np.zeros((3, 3))
    q[1, 1] = 10.0
    assert td_step(q, 1, 1, 0.0, cfg, feasible) == 0.5 * 10.0 + 0.5 * (0.9 * 10.0)


def _value_iteration(graph, cfg, reward_of):
    v = np.zeros(graph.n_centroids)
    for _ in range(5000):
        nxt = np.array([max(reward_of(int(a)) + cfg.zeta * v[int(a)]
                            for a in neighbors(graph)[s])
                        for s in range(graph.n_centroids)])
        if np.abs(nxt - v).max() < 1e-13:
            break
        v = nxt
    q_star = [np.array([reward_of(int(a)) + cfg.zeta * v[int(a)]
                        for a in nb]) for nb in neighbors(graph)]
    return v, q_star


def test_chain_mdp_matches_value_iteration():
    import dataclasses
    cfg, graph, feasible = _chain(3)
    cfg = dataclasses.replace(cfg, alpha_q=0.5, zeta=0.9)
    goal = graph.n_centroids - 1
    reward_of = lambda a: 0.0 if a == goal else -1.0

    q = np.zeros((3, 3))
    for _ in range(300):
        for s in range(graph.n_centroids):
            for a in neighbors(graph)[s]:
                td_step(q, s, int(a), reward_of(int(a)), cfg, feasible)

    _, q_star = _value_iteration(graph, cfg, reward_of)
    for s in range(graph.n_centroids):
        vals = q[s, neighbors(graph)[s]]
        assert np.allclose(vals, q_star[s], atol=1e-9)
        greedy = neighbors(graph)[s][int(np.argmax(vals))]
        oracle = neighbors(graph)[s][int(np.argmax(q_star[s]))]
        assert greedy == oracle
        assert np.abs(vals).max() <= 1.0 / (1.0 - cfg.zeta) + 1e-9


def test_qtable_export_import_roundtrip(tmp_path):
    cfg, graph, _ = _chain(4)
    rng = np.random.default_rng(1)
    tables = np.zeros((2, 4, 4))
    for q in tables:
        for s, nb in enumerate(neighbors(graph)):
            q[s, nb] = rng.normal(size=len(nb))
    path = tmp_path / "q.csv"
    export_qtables(path, tables, graph)
    loaded = load_qtables(path, graph, n_uav=2)
    assert np.array_equal(tables, loaded)      # repr round-trip is exact


@pytest.mark.parametrize("mutation,complaint", [
    (lambda lines: ["state,uav,action,value"] + lines[1:], "header"),
    (lambda lines: lines + ["1,0,3,0.5"], "not a neighbor"),   # 0-3 too far
    (lambda lines: lines + ["5,0,0,0.5"], "out of range"),
    (lambda lines: lines[:-1], "misses"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"],
                 "non-finite", id="nan"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",-inf"],
                 "non-finite", id="-inf"),
    pytest.param(lambda lines: lines + [lines[1].rsplit(",", 1)[0] + ",123.0"],
                 "repeated", id="repeat"),
])
def test_qtable_import_rejects_corruption(tmp_path, mutation, complaint):
    cfg, graph, _ = _chain(4)
    path = tmp_path / "q.csv"
    export_qtables(path, np.zeros((2, 4, 4)), graph)
    lines = path.read_text().strip().split("\n")
    path.write_text("\n".join(mutation(lines)) + "\n")
    with pytest.raises(ValueError, match=complaint):
        load_qtables(path, graph, n_uav=2)


# sha256 of qtable.csv after train() at unit-test size, recorded from the
# per-UAV QTable implementation under numpy 2.4.6
QTABLE_DIGESTS = [
    ("qa", dict(seed=0), "5383a24e891d3268cbc9cb93d9d15ddba9923434aa1eefd5c695a4eb3fe2835f"),
    ("kmeans", dict(seed=1), "2698df299d8e970b2d58ee1ece372439f58c4979d167818ed9a168a61cf98c9b"),
    ("snrp", dict(seed=2, uav_start="random", n_uav=4),
     "03bf11ba637b25e36e3a17725384082d4e62d8fcad88a12bd76ad6733037160b"),
]


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason=f"digests recorded under numpy 2.4.6, running {np.__version__}")
@pytest.mark.parametrize("method,overrides,digest", QTABLE_DIGESTS,
                         ids=[m for m, _, _ in QTABLE_DIGESTS])
def test_qtable_export_bytes_match_golden(method, overrides, digest, tmp_path):
    res = train(mk_cfg(**overrides), method)
    export_qtables(tmp_path / "qtable.csv", res.qtables, res.world.graph)
    assert hashlib.sha256((tmp_path / "qtable.csv").read_bytes()).hexdigest() == digest
