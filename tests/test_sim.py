"""Simulation orchestration: slot order effects, determinism, artifacts."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.channel import link_matrix, sample_fading, sq_dist
from absim import sim
from absim.condense import BLOCK, CondensedGraph, build_adjacency
from absim.radio import dbm_to_watt
from absim.rl import masked
from absim.scenario import ScenarioConfig, config_hash
from absim.sim import (AUDIT_KEYS, METHODS, Lockstep, _audit_moves, build_world,
                       compare_methods, evaluate_policy, World, run_dir,
                       run_episode, sweep_mu, train, train_lockstep,
                       write_centroids_csv, write_compare_learning_curves_csv,
                       write_edges_csv, write_learning_curve_csv, write_outage_csv,
                       write_report_json, write_summary_md, write_sweep_csv,
                       write_timings_json, write_trajectory_csv)
from absim.scenario import rng_stream
from helpers import WIDE, flight_distances_norm, mk_cfg, record_training_paths, usable_cores


def test_build_world_wiring():
    cfg = mk_cfg()
    world, condense_time = build_world(cfg, "qa")
    assert world.graph.n_centroids == cfg.n_centroids
    assert world.users_xy.shape == (cfg.n_users, 2)
    assert world.priority_mask.sum() == cfg.n_priority()
    assert condense_time >= 0.0
    m = cfg.n_centroids
    for s in range(world.graph.n_centroids):
        assert world.graph.adj[s].sum() >= 1
    batch = Lockstep([world])
    assert batch.links.loss_db.shape == (1, cfg.n_users, m)
    assert world.graph.adj.shape == world.graph.virtual.shape == (m, m)
    assert batch.move_flags.shape == (1, m, m + 1)
    # hovering is always a legal move, and every target off the graph is flagged
    assert world.graph.adj.diagonal().all() and not batch.move_flags[0].diagonal().any()
    assert (batch.move_flags[0, :, m] == 4).all()


@pytest.fixture(scope="module")
def small_world():
    world = build_world(mk_cfg(), "kmeans")[0]
    return world, Lockstep([world]).links.loss_db[0]


@settings(max_examples=200, deadline=None)
@given(states=st.lists(st.integers(0, mk_cfg().n_centroids - 1), min_size=1, max_size=6))
def test_loss_table_gather_equals_link_matrix(small_world, states):
    # repeated centroids included: two UAVs may share a waypoint
    w, loss_db = small_world
    _, want = link_matrix(w.graph.centroids[states], w.users_xy, w.cfg)
    got = loss_db[:, states]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_episode_fading_draw_equals_per_slot_draws():
    cfg = mk_cfg()
    shape = (cfg.slots_per_episode, cfg.n_users, cfg.n_uav)
    bulk = sample_fading(rng_stream(7, "fading"), shape)
    rng = rng_stream(7, "fading")
    per_slot = [sample_fading(rng, (cfg.n_users, cfg.n_uav))
                for _ in range(cfg.slots_per_episode)]
    assert bulk.tobytes() == np.stack(per_slot).tobytes()
    # the buffer form of run_episode: 5-slot blocks drawn straight into one
    # row's contiguous part of a (rows, block, n_users, n_uav) buffer
    into = rng_stream(7, "fading")
    buffer = np.full((2, 5) + shape[1:], np.nan)
    blocks = []
    for t in range(0, cfg.slots_per_episode, 5):
        n = min(5, cfg.slots_per_episode - t)
        sample_fading(into, out=buffer[1, :n])
        blocks.append(buffer[1, :n].copy())
    assert np.concatenate(blocks).tobytes() == bulk.tobytes()
    assert np.isnan(buffer[0]).all()
    assert into.bit_generator.state == rng.bit_generator.state


def test_training_episode_draws_its_fading_in_slot_blocks(monkeypatch):
    # each row takes its fading from its own stream SLOT_BLOCK slots at a
    # time, the last block shorter at an episode length (13 slots) that is a
    # prime, and leaves the stream where one whole-episode draw leaves it
    cfg = mk_cfg(slots_per_episode=13)
    monkeypatch.setattr(sim, "SLOT_BLOCK", 5)
    world, _ = build_world(cfg, "kmeans")
    batch = Lockstep([world, dataclasses.replace(world, cfg=dataclasses.replace(cfg, seed=1))])
    m = world.graph.n_centroids
    calls = []
    monkeypatch.setattr(sim, "sample_fading",
                        lambda rng, out: calls.append(out.shape) or sample_fading(rng, out=out))
    rng_fading = [rng_stream(s, "fading") for s in (0, 1)]
    run_episode(batch, masked(np.zeros((2, cfg.n_uav, m, m)), batch.adj), cfg.eps0,
                rng_fading, [rng_stream(s, "egreedy") for s in (0, 1)], learn=True,
                audit=np.zeros((2, len(AUDIT_KEYS)), dtype=np.int64))
    assert calls == [(b, cfg.n_users, cfg.n_uav) for b in (5, 5, 5, 5, 3, 3)]
    shape = (cfg.slots_per_episode, cfg.n_users, cfg.n_uav)
    for s, rng in zip((0, 1), rng_fading):
        fresh = rng_stream(s, "fading")
        sample_fading(fresh, shape)
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_rows_sharing_a_fading_stream_are_rejected():
    # their blocks would interleave: the stream is rejected before any draw
    cfg = mk_cfg()
    world, _ = build_world(cfg, "kmeans")
    batch = Lockstep([world, world])
    m = world.graph.n_centroids
    rng = rng_stream(0, "fading")
    with pytest.raises(ValueError, match="must not share a fading stream"):
        run_episode(batch, masked(np.zeros((2, cfg.n_uav, m, m)), batch.adj), 0.0,
                    [rng, rng], [rng_stream(s, "egreedy") for s in (0, 1)], learn=False,
                    audit=np.zeros((2, len(AUDIT_KEYS)), dtype=np.int64))
    assert rng.bit_generator.state == rng_stream(0, "fading").bit_generator.state


def test_reference_size_episode_holds_no_whole_episode_fading():
    # 9 rows (compare's 3 methods x 3 seeds) of 100 slots, 100 users and 3
    # UAVs: one (n_slots, S, n_users, n_uav) float array is 2.06 MiB, and
    # with it and the episode's SINRs the peak was 3.11 MiB; in slot blocks
    # it is 0.66 MiB
    cfg = ScenarioConfig()
    world, _ = build_world(cfg, "kmeans")
    batch = Lockstep([world] * 9)
    m = world.graph.n_centroids
    q = masked(np.zeros((9, cfg.n_uav, m, m)), batch.adj)
    streams = ([rng_stream(s, "fading") for s in range(9)],
               [rng_stream(s, "egreedy") for s in range(9)])
    audit = np.zeros((9, len(AUDIT_KEYS)), dtype=np.int64)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        run_episode(batch, q, 0.5, *streams, learn=True, audit=audit)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < cfg.slots_per_episode * 9 * cfg.n_users * cfg.n_uav * 8


def _slot_block_outputs(tmp_path) -> list:
    """Report bytes of a compare (3 worlds, one evaluation row each), a
    sweep (2 worlds, 2 rows each) and an evaluate_policy (one world, 4
    rows), on 13-slot episodes with random starts; 5 evaluation episodes
    leave surplus rows in the last round of the last two."""
    cfg = mk_cfg(uav_start="random", slots_per_episode=13, eval_episodes=5, episodes=3)
    runs = compare_methods(cfg, n_seeds=1)
    out = [_report_bytes(res.report, tmp_path, m) for m in METHODS for res in runs[m]]
    out.append(json.dumps(sweep_mu(cfg, [1.0, 4.0])))
    res = runs["qa"][0]
    out.append(repr(evaluate_policy(res.world, res.qtables)))
    return out


@pytest.fixture(scope="module")
def slot_block_reference(tmp_path_factory):
    return _slot_block_outputs(tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("block", [1, 7, 13, 18])
def test_reports_do_not_depend_on_slot_block(block, slot_block_reference, monkeypatch,
                                             tmp_path):
    # 13 is the episode length, 18 exceeds it; the reference ran at 10
    monkeypatch.setattr(sim, "SLOT_BLOCK", block)
    assert _slot_block_outputs(tmp_path) == slot_block_reference


def _bridged_chain_world(cfg):
    """Hand-built graph: 0-1-2 chain, a virtual corridor 2-3, and a 3-4 edge
    that claims to be regular but is longer than one slot's flight."""
    assert cfg.move_radius_m() == 250.0
    cents = np.array([[0.0, 0.0], [120.0, 0.0], [240.0, 0.0],
                      [3000.0, 0.0], [3400.0, 0.0]])
    adj = np.eye(5, dtype=bool)
    virtual = np.zeros((5, 5), dtype=bool)
    for i, j, virt in [(0, 1, False), (1, 2, False), (2, 3, True), (3, 4, False)]:
        adj[i, j] = adj[j, i] = True
        virtual[i, j] = virtual[j, i] = virt
    graph = CondensedGraph(centroids=cents, adj=adj, virtual=virtual,
                           method="hand", distortion=0.0)
    users_xy = np.array([[10.0, 5.0], [3100.0, 20.0]])
    return World(cfg, users_xy, np.array([True, False]), graph)


def test_audit_moves_counts_each_violation():
    cfg = mk_cfg()
    world = _bridged_chain_world(cfg)
    moves = [(0, 5),                    # off the graph
             (0, 2),                    # 240 m, in reach, but no edge
             (0, 3),                    # no edge and far, not virtual
             (3, 4), (4, 3),            # edge longer than the move radius
             (2, 3), (3, 2),            # along the virtual corridor
             (1, 1), (1, 0), (1, 2)]    # hover and legal steps
    counts = np.zeros((1, len(AUDIT_KEYS)), dtype=int)
    _audit_moves(Lockstep([world]), np.array([[s for s, _ in moves]])[None],
                 np.array([[a for _, a in moves]])[None], counts)
    audit = dict(zip(AUDIT_KEYS, counts[0].tolist()))
    assert audit == {"waypoint_off_graph": 1, "move_not_neighbor": 2,
                     "move_too_fast": 3, "altitude_out_of_band": 0,
                     "power_above_cap": 0}

    # a negative target must not wrap around to the last centroid
    high = dataclasses.replace(world, cfg=dataclasses.replace(cfg, altitude_m=400.0))
    _audit_moves(Lockstep([high]), np.array([[1]])[None], np.array([[-1]])[None], counts)
    audit = dict(zip(AUDIT_KEYS, counts[0].tolist()))
    assert audit == {"waypoint_off_graph": 2, "move_not_neighbor": 2,
                     "move_too_fast": 3, "altitude_out_of_band": 1,
                     "power_above_cap": 0}


def test_audit_moves_counts_per_world():
    cfg = mk_cfg()
    world = _bridged_chain_world(cfg)
    counts = np.zeros((3, len(AUDIT_KEYS)), dtype=int)
    states = np.array([[0, 1], [3, 0], [1, 1]])
    actions = np.array([[1, 2], [4, 7], [1, -2]])   # legal | too fast, off | off
    _audit_moves(Lockstep([world] * 3), states[None], actions[None], counts)
    assert counts.tolist() == [[0, 0, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 0, 0]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(1, 8), n_worlds=st.integers(1, 3),
       high=st.booleans())
def test_episode_audit_equals_per_slot_calls(seed, n_slots, n_worlds, high):
    cfg = mk_cfg()
    world = _bridged_chain_world(cfg)
    if high:    # out of the altitude band: counts once per slot
        world = dataclasses.replace(world, cfg=dataclasses.replace(cfg, altitude_m=400.0))
    batch = Lockstep([world] * n_worlds)
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 5, (n_slots, n_worlds, cfg.n_uav))
    actions = rng.integers(-2, 8, (n_slots, n_worlds, cfg.n_uav))   # off the graph too
    per_slot = np.zeros((n_worlds, len(AUDIT_KEYS)), dtype=int)
    for s, a in zip(states, actions):
        _audit_moves(batch, s[None], a[None], per_slot)
    episode = np.zeros_like(per_slot)
    _audit_moves(batch, states, actions, episode)
    assert episode.tolist() == per_slot.tolist()
    assert episode[:, AUDIT_KEYS.index("altitude_out_of_band")].tolist() == \
        [n_slots * high] * n_worlds


def test_power_cap_audit_counts_slots_not_users():
    # one ABS, two users; both links to centroid 1 and user 0's link to
    # centroid 2 are raised above the cap, so a slot breaks the cap exactly
    # when the ABS sits on centroid 1 or 2
    cfg = mk_cfg(n_uav=1, n_users=2)
    batch = Lockstep([_bridged_chain_world(cfg)])
    batch.links.power_w[0, :, 1] = batch.links.power_w[0, 0, 2] = \
        2.0 * dbm_to_watt(cfg.p_max_dbm)
    audit = np.zeros((1, len(AUDIT_KEYS)), dtype=int)
    q = masked(np.zeros((1, 1, 5, 5)), batch.adj)
    _, traj = run_episode(batch, q, 1.0, [rng_stream(1, "fading")], [rng_stream(1, "egreedy")],
                          learn=False, audit=audit)
    path = traj[1:, 0, 0].tolist()
    at_one, at_two = path.count(1), path.count(2)
    assert at_one > 0 and at_two > 0 and at_one + at_two < cfg.slots_per_episode
    assert dict(zip(AUDIT_KEYS, audit[0].tolist()))["power_above_cap"] == at_one + at_two


def test_training_never_leaves_the_feasible_moves(monkeypatch):
    cfg = mk_cfg()
    paths = record_training_paths(monkeypatch)
    for method in METHODS:
        paths.clear()
        res = train(cfg, method)
        feasible = res.world.graph.adj
        assert not feasible.all()          # else nothing to leave
        assert len(paths) == cfg.episodes
        for traj in paths:
            assert feasible[traj[:-1], traj[1:]].all()
        assert not res.qtables[:, ~feasible].any()
        assert np.isfinite(res.qtables).all() and res.qtables[:, feasible].any()


def test_sweep_condenses_once_per_distinct_input(monkeypatch):
    # mu enters neither qa nor kmeans condensation, but snrp's proxy reads
    # it; one core, so no seed's condensations run in a child, unseen here
    cfg = mk_cfg(episodes=1, slots_per_episode=3, eval_episodes=1)
    usable_cores(monkeypatch, 1)
    for method, want in (("qa", 2), ("kmeans", 2), ("snrp", 6)):
        calls = []
        real = getattr(sim, f"{method}_condense")

        def counted(*args, real=real, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, f"{method}_condense", counted)
        sweep_mu(cfg, [15.0, 30.0, 60.0], n_seeds=2, method=method)
        assert len(calls) == want, method


def test_unknown_method_rejected(monkeypatch):
    def never(cfg):
        raise AssertionError("users drawn before the method was checked")

    monkeypatch.setattr(sim, "drop_users", never)
    with pytest.raises(ValueError, match="unknown condensation method: 'pca'"):
        build_world(mk_cfg(), "pca")


def _start(world, seed):
    """The fleet's start states: traj[0] of a one-slot episode."""
    batch = Lockstep([world])
    q = masked(np.zeros((1, world.cfg.n_uav) + world.graph.adj.shape), batch.adj)
    audit = np.zeros((1, len(AUDIT_KEYS)), dtype=int)
    _, traj = run_episode(batch, q, 0.0, [rng_stream(seed, "fading")],
                          [rng_stream(seed, "egreedy")], learn=False, audit=audit)
    return traj[0, 0].tolist()


def test_spread_starts_deterministic():
    cfg = mk_cfg(n_centroids=10, slots_per_episode=1)
    world, _ = build_world(cfg, "kmeans")
    assert _start(world, 0) == [0, 3, 6]


def test_random_starts_in_range():
    cfg = mk_cfg(uav_start="random", slots_per_episode=1)
    world, _ = build_world(cfg, "kmeans")
    a = _start(world, 4)
    b = _start(world, 4)
    assert a == b
    assert all(0 <= s < cfg.n_centroids for s in a)
    # the episode's first draw from the row's action stream
    assert a == rng_stream(4, "egreedy").integers(cfg.n_centroids, size=cfg.n_uav).tolist()


def test_train_report_structure():
    cfg = mk_cfg()
    res = train(cfg, "qa")
    rep = res.report
    assert rep.method == "qa"
    assert len(rep.reward_curve) == cfg.episodes
    assert len(rep.eps_curve) == cfg.episodes
    assert rep.eps_curve[0] == cfg.eps0
    # multiplicative decay with a floor
    want = max(cfg.eps_min, cfg.eps0 * cfg.eps_decay)
    assert rep.eps_curve[1] == pytest.approx(want)
    assert all(r <= 0.0 for r in rep.reward_curve)
    assert set(rep.eval_outage) == {"network", "priority", "regular"}
    assert all(0.0 <= v <= 1.0 for v in rep.eval_outage.values())
    assert rep.config_hash == config_hash(cfg)
    assert rep.distortion == res.world.graph.distortion


def test_no_outage_world_totals_to_positive_zero():
    # at a -300 dB threshold no user is in outage and every UAV penalty is
    # -0.0; each slot's total, and so the reward curve, is +0.0, as when
    # slots were totalled by Python's sum() from int 0
    rep = train(mk_cfg(gamma_th_db=-300.0), "qa").report
    assert rep.eval_outage == {"network": 0.0, "priority": 0.0, "regular": 0.0}
    assert all(r == 0.0 and math.copysign(1.0, r) == 1.0 for r in rep.reward_curve)


def test_train_audit_is_clean():
    res = train(mk_cfg(), "qa")
    assert set(res.report.audit) == set(AUDIT_KEYS)
    assert all(v == 0 for v in res.report.audit.values())


def test_trajectories_follow_the_graph(monkeypatch):
    cfg = mk_cfg()
    paths = record_training_paths(monkeypatch)
    res = train(cfg, "kmeans")
    assert len(paths) == cfg.episodes
    for traj in paths:
        assert traj.shape == (cfg.slots_per_episode + 1, 1, cfg.n_uav)
        assert res.world.graph.adj[traj[:-1], traj[1:]].all()
    rows = res.report.eval_trajectory
    assert len(rows) == cfg.n_uav * (cfg.slots_per_episode + 1)
    for n, t, c, x, y in rows:
        assert np.allclose(res.world.graph.centroids[c], [x, y])


def test_train_deterministic(tmp_path):
    cfg = mk_cfg()
    a = _report_bytes(train(cfg, "snrp").report, tmp_path, "a")
    b = _report_bytes(train(cfg, "snrp").report, tmp_path, "b")
    assert a == b


def test_embedded_eval_equals_standalone():
    cfg = mk_cfg()
    res = train(cfg, "qa")
    ev = evaluate_policy(res.world, res.qtables)
    assert ev.outage == res.report.eval_outage            # exact: same streams
    assert ev.mean_rate_bps == res.report.eval_mean_rate_bps
    assert ev.trajectory == res.report.eval_trajectory


def test_evaluate_policy_reports_its_audit(tiny_run):
    world, cfg = tiny_run.world, tiny_run.world.cfg
    assert evaluate_policy(world, tiny_run.qtables).audit == dict.fromkeys(AUDIT_KEYS, 0)
    # out of the altitude band: counts once per evaluated slot
    high = dataclasses.replace(world, cfg=dataclasses.replace(cfg, altitude_m=400.0))
    audit = evaluate_policy(high, tiny_run.qtables).audit
    assert audit == {**dict.fromkeys(AUDIT_KEYS, 0),
                     "altitude_out_of_band": cfg.eval_episodes * cfg.slots_per_episode}



@pytest.mark.parametrize("n_worlds", [1, 2])
def test_stacked_evaluation_equals_one_episode_at_a_time(n_worlds, monkeypatch, tmp_path):
    # 5 evaluation episodes: stacks of 4 and 1 for one world, of 2, 2 and 1
    # for two; random starts draw from the eval_egreedy stream the rows share
    cfg = mk_cfg(uav_start="random", eval_episodes=5, episodes=3)
    jobs = [(dataclasses.replace(cfg, seed=s), "qa") for s in range(n_worlds)]
    stacked = train_lockstep(jobs)
    monkeypatch.setattr(sim, "EVAL_ROWS", 1)
    serial = train_lockstep(jobs)
    for a, b in zip(stacked, serial):
        assert (_report_bytes(a.report, tmp_path, "stacked")
                == _report_bytes(b.report, tmp_path, "serial"))
    # an evaluation audit that counts: out of the altitude band every slot
    world = stacked[0].world
    high = dataclasses.replace(world, cfg=dataclasses.replace(world.cfg, altitude_m=400.0))
    want = evaluate_policy(high, stacked[0].qtables)
    monkeypatch.setattr(sim, "EVAL_ROWS", 4)
    got = evaluate_policy(high, stacked[0].qtables)
    assert got == want
    assert got.audit["altitude_out_of_band"] == cfg.eval_episodes * cfg.slots_per_episode


def test_evaluation_builds_one_stacked_batch(tiny_run, monkeypatch):
    # 6 episodes of one world in rounds of 4: the caller's batch, then one
    # stack of 4 rows for both rounds; the last round's 2 extra rows drop
    world = dataclasses.replace(tiny_run.world,
                                cfg=dataclasses.replace(tiny_run.world.cfg, eval_episodes=6))
    built = []

    def counted(worlds):
        built.append(len(worlds))
        return Lockstep(worlds)

    monkeypatch.setattr(sim, "Lockstep", counted)
    evaluate_policy(world, tiny_run.qtables)
    assert built == [1, 4]


def _report_bytes(report, tmp_path, name):
    path = tmp_path / f"{name}.json"
    write_report_json(path, report)
    return path.read_bytes()


@pytest.mark.parametrize("overrides", [{}, dict(uav_start="random", n_uav=4)],
                         ids=["spread", "random-start-4uav"])
def test_compare_methods_equals_solo_train(overrides, tmp_path, monkeypatch):
    # 3 methods x 3 seeds in one lockstep batch, each byte-equal to its solo
    # run; one core, so the recorded paths are the whole batch's
    cfg = mk_cfg(seed=2, **overrides)
    usable_cores(monkeypatch, 1)
    paths = record_training_paths(monkeypatch)
    results = compare_methods(cfg, n_seeds=3)
    batch_paths = np.stack(paths)           # (episodes, slots + 1, world, n_uav)
    for j, m in enumerate(METHODS):
        for i, res in enumerate(results[m]):
            paths.clear()
            solo = train(dataclasses.replace(cfg, seed=cfg.seed + i), m)
            assert (_report_bytes(res.report, tmp_path, "batch")
                    == _report_bytes(solo.report, tmp_path, "solo")), (m, i)
            assert np.array_equal(res.qtables, solo.qtables)
            assert np.array_equal(batch_paths[:, :, 3 * j + i], np.stack(paths)[:, :, 0])


def test_sweep_mu_equals_solo_train(tmp_path):
    cfg = mk_cfg()
    mus, seeds = [15.0, 60.0], 2
    rows = sweep_mu(cfg, mus, n_seeds=seeds)
    jobs = [(dataclasses.replace(cfg, mu_pr=mu, seed=cfg.seed + i), "qa")
            for mu in mus for i in range(seeds)]
    for row, (c, _), res in zip(rows, jobs, train_lockstep(jobs)):
        solo = train(c, "qa").report
        assert (_report_bytes(res.report, tmp_path, "batch")
                == _report_bytes(solo, tmp_path, "solo"))
        assert (row["mu_pr"], row["seed"]) == (c.mu_pr, c.seed)
        assert [row[k] for k in ("priority", "regular", "network")] == \
            [solo.eval_outage[k] for k in ("priority", "regular", "network")]


def test_lockstep_splits_wall_time_evenly(monkeypatch):
    # the jobs of a batch split its time evenly: on one core every job, and
    # with seeds split across cores each seed's jobs, which share a batch
    jobs = [(dataclasses.replace(mk_cfg(), seed=s), m) for s in range(3) for m in ("kmeans", "qa")]
    for cores, groups in ((1, [range(6)]), (2, [range(0, 2), range(2, 4), range(4, 6)])):
        usable_cores(monkeypatch, cores)
        results = train_lockstep(jobs)
        for rows in groups:
            assert len({results[i].report.rl_time_s for i in rows}) == 1
            assert len({results[i].report.eval_time_s for i in rows}) == 1
        assert results[0].report.rl_time_s > 0.0


def test_lockstep_rejects_worlds_of_different_shape():
    a, _ = build_world(mk_cfg(), "kmeans")
    b, _ = build_world(mk_cfg(n_users=20), "kmeans")
    with pytest.raises(ValueError, match="may differ only in"):
        Lockstep([a, b])
    # every row reads one mu_nr, so worlds may not differ in it either
    c, _ = build_world(mk_cfg(mu_nr=2.0), "kmeans")
    with pytest.raises(ValueError, match="may differ only in seed, mu_pr$"):
        Lockstep([a, c])


@pytest.mark.parametrize("case", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, "reference", "condense-wide"])
def test_lockstep_flight_table_equals_norm_form(case):
    if isinstance(case, int):       # two rows of `case` random centroids each
        cfg = mk_cfg()
        rng = np.random.default_rng(case)
        worlds = [World(cfg, rng.uniform(0.0, cfg.x_max, (cfg.n_users, 2)),
                        np.arange(cfg.n_users) < 5,
                        build_adjacency(rng.uniform(0.0, cfg.x_max, (case, 2)), cfg))
                  for _ in range(2)]
    else:
        cfg = dataclasses.replace(ScenarioConfig(), **({} if case == "reference" else WIDE))
        worlds = [build_world(cfg, "snrp")[0]]
    batch = Lockstep(worlds)
    cents = np.stack([w.graph.centroids for w in worlds])
    dist = flight_distances_norm(cents)
    assert np.sqrt(np.stack([sq_dist(c, c) for c in cents])).tobytes() == dist.tobytes()
    flight = (dist <= cfg.move_radius_m() + 1e-9) | np.stack([w.graph.virtual for w in worlds])
    want = np.full(batch.move_flags.shape, 4, dtype=np.uint8)
    want[:, :, :cents.shape[1]] = ~batch.adj + 2 * ~flight
    assert batch.move_flags.tobytes() == want.tobytes()



def test_compare_methods_seeds_offset():
    cfg = mk_cfg(episodes=2, slots_per_episode=6, eval_episodes=2, seed=5)
    results = compare_methods(cfg, n_seeds=2)
    assert set(results) == set(METHODS)
    for m in METHODS:
        assert [r.report.seed for r in results[m]] == [5, 6]


def test_sweep_single_value_consistent_with_train():
    cfg = mk_cfg()
    rows = sweep_mu(cfg, [cfg.mu_pr], n_seeds=1)
    direct = train(cfg, "qa").report
    assert len(rows) == 1
    assert rows[0]["network"] == direct.eval_outage["network"]
    assert rows[0]["priority"] == direct.eval_outage["priority"]


def test_sweep_row_counts():
    cfg = mk_cfg(episodes=2, slots_per_episode=5, eval_episodes=2)
    rows = sweep_mu(cfg, [10.0, 20.0], n_seeds=2)
    assert len(rows) == 4
    assert [r["mu_pr"] for r in rows] == [10.0, 10.0, 20.0, 20.0]
    assert [r["seed"] for r in rows] == [0, 1, 0, 1]


def test_run_dir_env_override(monkeypatch, tmp_path):
    cfg = mk_cfg()
    monkeypatch.setenv("ABSIM_OUT", str(tmp_path))
    d = run_dir(cfg)
    assert d.startswith(str(tmp_path))
    assert d.endswith(f"{config_hash(cfg)}-s{cfg.seed}")
    monkeypatch.delenv("ABSIM_OUT")
    assert run_dir(cfg).startswith("runs")


@pytest.fixture(scope="module")
def tiny_run():
    cfg = mk_cfg()
    return train(cfg, "qa")


def test_written_artifacts_parse_back(tiny_run, tmp_path):
    rep = tiny_run.report
    graph = tiny_run.world.graph
    write_centroids_csv(tmp_path / "c.csv", graph)
    write_edges_csv(tmp_path / "e.csv", graph)
    write_learning_curve_csv(tmp_path / "l.csv", rep)
    write_outage_csv(tmp_path / "o.csv", [rep])
    write_trajectory_csv(tmp_path / "t.csv", rep)

    c = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert c[0] == "id,x,y" and len(c) == graph.n_centroids + 1
    x = float(c[1].split(",")[1])
    assert x == graph.centroids[0][0]                      # repr round-trip

    e = (tmp_path / "e.csv").read_text().strip().split("\n")
    assert e[0] == "src,dst,virtual" and len(e) == len(graph.edges) + 1
    assert all(line.split(",")[2] in ("0", "1") for line in e[1:])

    l = (tmp_path / "l.csv").read_text().strip().split("\n")
    assert l[0] == "episode,reward,eps" and len(l) == len(rep.reward_curve) + 1

    o = (tmp_path / "o.csv").read_text().strip().split("\n")
    assert o[0] == "method,class,value,seed" and len(o) == 4
    assert {line.split(",")[1] for line in o[1:]} == {"priority", "regular", "network"}

    t = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert t[0] == "uav,t,centroid,x,y"
    assert len(t) == len(rep.eval_trajectory) + 1


def test_report_json_round_trip(tiny_run, tmp_path):
    rep = tiny_run.report
    write_report_json(tmp_path / "report.json", rep)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert "condense_time_s" not in loaded and "rl_time_s" not in loaded
    assert "eval_time_s" not in loaded
    assert loaded["eval_outage"] == rep.eval_outage        # exact floats
    assert loaded["config"]["n_users"] == tiny_run.world.cfg.n_users
    assert loaded["reward_curve"] == rep.reward_curve


def test_timings_and_summary_outputs(tiny_run, tmp_path):
    rep = tiny_run.report
    write_timings_json(tmp_path / "t.json",
                       {"condense_s": rep.condense_time_s, "rl_s": rep.rl_time_s})
    timings = json.loads((tmp_path / "t.json").read_text())
    assert timings["condense_s"] > 0.0 and timings["rl_s"] > 0.0

    write_summary_md(tmp_path / "s.md", [rep])
    text = (tmp_path / "s.md").read_text()
    assert "| qa | 1 |" in text

    write_compare_learning_curves_csv(tmp_path / "lc.csv", [rep])
    lc = (tmp_path / "lc.csv").read_text().strip().split("\n")
    assert lc[0] == "method,seed,episode,reward,eps"
    assert len(lc) == len(rep.reward_curve) + 1


def test_sweep_csv_format(tmp_path):
    rows = [{"mu_pr": 15.0, "seed": 0, "priority": 0.25, "regular": 0.5,
             "network": 0.45}]
    write_sweep_csv(tmp_path / "sw.csv", rows)
    got = (tmp_path / "sw.csv").read_text().strip().split("\n")
    assert got[0] == "mu_pr,seed,priority,regular,network"
    assert got[1] == "15.0,0,0.25,0.5,0.45"
