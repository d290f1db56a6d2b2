"""Shared test scaffolding: shrunk configs and independent reference paths."""

import dataclasses

import numpy as np

from absim.scenario import ScenarioConfig
from absim.radio import dbm_to_watt, db_to_linear


def mk_cfg(**overrides) -> ScenarioConfig:
    """Reference defaults shrunk to unit-test size; overrides win."""
    small = dict(n_users=24, n_candidates=100, n_centroids=10,
                 episodes=6, slots_per_episode=12, eval_episodes=4,
                 anneal_i_max=80)
    small.update(overrides)
    cfg = dataclasses.replace(ScenarioConfig(), **small)
    cfg.validate()
    return cfg


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
