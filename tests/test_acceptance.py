"""Acceptance gate: one test per shipped behavioral guarantee.

The first block shares two heavy fixtures (15 full reference-size training
runs for the method comparison, 25 for the priority-weight sweep, each set
trained in lockstep), so this module takes about a minute. Each criterion is a single test and prints as
a single pass/fail line under pytest -v.

Three sub-assertions encode target outcomes the implemented physics does
not produce (the ordering gap between the two distortion-driven condensers
and the strength of the priority-weight response); they are kept as honest
assertions rather than weakened, and are expected to fail. The analysis
lives in the project decision notes, outside this package.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from absim.cli import main
from absim.condense import accept, kmeans_condense, qa_condense
from absim.radio import evaluate_slot, link_tables
from absim.scenario import ScenarioConfig, generate_candidates, rng_stream
from absim.sim import METHODS, compare_methods, sweep_mu, train
from absim.channel import ChannelParams, link_matrix, sample_fading
from helpers import brute_force_slot, mk_cfg, neighbors, td_step

SEEDS = 5
MU_VALUES = (15.0, 30.0, 45.0, 60.0, 80.0)


@pytest.fixture(scope="module")
def method_runs():
    """Reference configuration, all methods x 5 seeds in lockstep; reports only."""
    results = compare_methods(ScenarioConfig(), SEEDS)
    return {m: [res.report for res in results[m]] for m in METHODS}


@pytest.fixture(scope="module")
def sweep_runs():
    """Priority-weight sweep, 5 seeds per value, annealed condenser, in lockstep."""
    out = {mu: [] for mu in MU_VALUES}
    for row in sweep_mu(ScenarioConfig(), MU_VALUES, SEEDS, "qa"):
        out[row["mu_pr"]].append(row["priority"])
    return out


def _net_means(method_runs):
    return {m: float(np.mean([r.eval_outage["network"] for r in method_runs[m]]))
            for m in METHODS}


def test_criterion_01_method_ordering_and_gap(method_runs):
    means = _net_means(method_runs)
    msg = (f"mean network outage over {SEEDS} seeds: "
           f"qa={means['qa']:.4f} snrp={means['snrp']:.4f} "
           f"kmeans={means['kmeans']:.4f}")
    assert means["qa"] < means["snrp"] < means["kmeans"], msg
    assert means["qa"] <= means["kmeans"] - 0.10, msg


def test_criterion_02_priority_protection(method_runs):
    pr = float(np.mean([r.eval_outage["priority"] for r in method_runs["qa"]]))
    nr = float(np.mean([r.eval_outage["regular"] for r in method_runs["qa"]]))
    assert pr < nr, f"priority {pr:.4f} vs regular {nr:.4f} over {SEEDS} seeds"


def test_criterion_03_priority_weight_sweep(sweep_runs):
    means = np.array([float(np.mean(sweep_runs[mu])) for mu in MU_VALUES])
    msg = "seed-mean priority outage " + ", ".join(
        f"mu={mu:g}: {m:.4f}" for mu, m in zip(MU_VALUES, means))
    assert (np.diff(means) <= 1e-12).all(), f"not monotone non-increasing; {msg}"
    per_seed = np.array([sweep_runs[mu] for mu in MU_VALUES])   # (mu, seed)
    diffs = np.diff(per_seed, axis=0).ravel()
    dec, inc = int((diffs < 0).sum()), int((diffs > 0).sum())
    sign = stats.binomtest(dec, dec + inc, alternative="greater")
    assert sign.pvalue < 0.05, f"sign test p={sign.pvalue:.3f} ({dec} dec / {inc} inc); {msg}"
    assert means[3] < 0.5 * means[0], f"no halving from mu=15 to mu=60; {msg}"


def test_criterion_04_learning_signal(method_runs):
    deltas = []
    for rep in method_runs["qa"]:
        curve = np.array(rep.reward_curve)
        deltas.append(float(curve[-50:].mean() - curve[:50].mean()))
    test = stats.wilcoxon(deltas, alternative="greater")
    msg = f"last50-first50 deltas per seed: {[f'{d:.1f}' for d in deltas]}"
    assert test.pvalue < 0.05, f"no significant improvement, p={test.pvalue:.4f}; {msg}"

    qa_last = float(np.mean([np.mean(r.reward_curve[-50:])
                             for r in method_runs["qa"]]))
    km_last = float(np.mean([np.mean(r.reward_curve[-50:])
                             for r in method_runs["kmeans"]]))
    assert qa_last > km_last, (f"final reward qa={qa_last:.1f} "
                               f"vs kmeans={km_last:.1f}")


def test_criterion_05_metropolis_statistics():
    n = 100_000
    rng = rng_stream(0, "condense")
    for delta, temp in ((0.0, 1.0), (1.0, 1.0), (5.0, 1.0), (1.0, 0.1), (-3.0, 2.0)):
        p = min(1.0, math.exp(-delta / temp))
        hits = sum(accept(delta, temp, rng) for _ in range(n))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) <= 3.0 * sigma + 1e-12, \
            f"accept({delta},{temp}): {hits / n:.5f} vs {p:.5f}"


def test_criterion_06_condensation_quality():
    cfg = ScenarioConfig()                      # 400-node grid, M=33
    nodes = generate_candidates(cfg)
    best_km = min(
        kmeans_condense(nodes, dataclasses.replace(cfg, seed=s)).distortion
        for s in range(50))
    for seed in range(SEEDS):
        graph = qa_condense(nodes, dataclasses.replace(cfg, seed=seed))
        assert graph.distortion < graph.init_distortion, f"seed {seed}"
        assert graph.distortion <= 1.2 * best_km, \
            f"seed {seed}: {graph.distortion:.1f} vs 1.2x{best_km:.1f}"


def test_criterion_07_radio_matches_brute_force():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(123)
    chan = ChannelParams.from_config(cfg)
    for trial in range(20):
        n_users = int(rng.integers(2, 11))
        n_uav = int(rng.integers(1, 4))
        uav_xy = rng.uniform(0, cfg.x_max, (n_uav, 2))
        users_xy = rng.uniform(0, cfg.x_max, (n_users, 2))
        _, loss = link_matrix(uav_xy, cfg.altitude_m, users_xy, chan)
        fading = sample_fading(rng, (n_users, n_uav))
        prev = rng.integers(0, n_uav, n_users) if trial % 2 else None
        state = evaluate_slot(link_tables(loss, cfg), np.arange(n_uav), fading, prev, cfg)
        _, assoc, interf, snr, out = brute_force_slot(loss, fading, prev, cfg)
        assert np.array_equal(state.assoc, assoc)
        assert np.allclose(state.interference_w, interf, rtol=1e-12, atol=1e-300)
        assert np.allclose(state.sinr, snr, rtol=1e-12, atol=0.0)
        assert np.array_equal(state.outage, out)


def test_criterion_08_q_learning_chain_oracle():
    from absim.condense import build_adjacency
    cfg = dataclasses.replace(mk_cfg(), alpha_q=0.5, zeta=0.9)
    cents = np.column_stack([200.0 * np.arange(5), np.zeros(5)])
    graph = build_adjacency(cents, cfg)
    feasible = graph.adj
    goal = 4
    reward_of = lambda a: 0.0 if a == goal else -1.0

    q = np.zeros((5, 5))
    pairs = [(s, int(a)) for s in range(5) for a in neighbors(graph)[s]]
    for k in range(10_000):
        s, a = pairs[k % len(pairs)]
        td_step(q, s, a, reward_of(a), a, cfg, feasible)

    v = np.zeros(5)
    for _ in range(5000):
        nxt = np.array([max(reward_of(int(a)) + cfg.zeta * v[int(a)]
                            for a in neighbors(graph)[s]) for s in range(5)])
        if np.abs(nxt - v).max() < 1e-14:
            break
        v = nxt
    for s in range(5):
        q_star = np.array([reward_of(int(a)) + cfg.zeta * v[int(a)]
                           for a in neighbors(graph)[s]])
        vals = q[s, neighbors(graph)[s]]
        assert np.abs(vals - q_star).max() <= 1e-6, f"state {s}"
        assert int(np.argmax(vals)) == int(np.argmax(q_star)), f"state {s}"


def test_criterion_09_constraint_audit_clean(method_runs):
    audit = method_runs["qa"][0].audit
    assert all(v == 0 for v in audit.values()), audit


def test_criterion_10_report_bytes_deterministic(tmp_path):
    cfg = mk_cfg(episodes=20, slots_per_episode=16, eval_episodes=6)
    from absim.sim import write_report_json
    write_report_json(tmp_path / "a.json", train(cfg, "qa").report)
    write_report_json(tmp_path / "b.json", train(cfg, "qa").report)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_criterion_11_timing_report(tmp_path, capsys):
    # compare must emit per-method condensation, learning and evaluation wall-times
    cfg_file = tmp_path / "tiny.json"
    cfg_file.write_text(json.dumps({
        "n_users": 20, "n_candidates": 64, "n_centroids": 8,
        "episodes": 3, "slots_per_episode": 6, "eval_episodes": 2,
        "anneal_i_max": 40}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg_file), "--seeds", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    timings = json.loads((out / "timings.json").read_text())
    for m in METHODS:
        assert set(timings[m]["0"]) == {"condense_s", "rl_s", "eval_s"}

    # annealing cost per iteration must not track the candidate count: a
    # full rescan per proposal would time at slope ~1 on a log-log fit of
    # cost vs N0, the incremental update path measures well under half
    # that. A fixed step budget (below the stabilization window) pins the
    # proposal count so wall time divides into per-proposal cost directly.
    def per_proposal_s(n0):
        cfg = dataclasses.replace(
            ScenarioConfig(), n_candidates=n0, anneal_i_max=50,
            proposals_per_temp=33)
        nodes = generate_candidates(cfg)
        best = math.inf
        for rep in range(3):
            t0 = time.perf_counter()
            qa_condense(nodes, dataclasses.replace(cfg, seed=rep))
            best = min(best, time.perf_counter() - t0)
        return best / (50 * 33)

    sizes = (100, 400, 1600)
    times = [per_proposal_s(n0) for n0 in sizes]
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    detail = ", ".join(f"N0={n}: {t * 1e6:.1f}us" for n, t in zip(sizes, times))
    assert slope < 0.4, f"per-proposal cost slope {slope:.2f} vs N0 ({detail})"
