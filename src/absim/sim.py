"""Slotted deployment simulator: condensation, training, evaluation, reports.

One slot = every UAV picks and flies to a neighbor centroid, users run
power control against last slot's serving ABS, the uplink is evaluated at
the new geometry, and each UAV receives its outage penalty and updates its
Q-table. Episodes restart the fleet at its initial placement over the same
frozen user drop.

File outputs are deterministic for a given (config, seed): floats are
written in shortest round-trip form and wall-clock timings live in a
separate timings.json.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .scenario import (ScenarioConfig, config_hash, drop_users, generate_candidates,
                       rng_stream, user_arrays)
from .channel import ChannelParams, link_matrix, sample_fading
from .radio import LinkState, OutageStats, evaluate_slot, outage_stats, radio_constants
from .condense import CondensedGraph, kmeans_condense, qa_condense, snrp_condense
from .rl import ActionSpace, QTable, reward, select_action, td_update

METHODS = ("qa", "kmeans", "snrp")

AUDIT_KEYS = ("waypoint_off_graph", "move_not_neighbor", "move_too_fast",
              "altitude_out_of_band", "power_above_cap")


@dataclass
class World:
    """Static scenario plus the condensed graph one run operates on.

    Users never move and UAVs only ever sit on centroids, so the large-scale
    loss of every link a slot can use, and the legality of every move, are
    tables built once here; a slot only gathers from them.
    """

    cfg: ScenarioConfig
    users_xy: np.ndarray
    priority_mask: np.ndarray
    graph: CondensedGraph
    space: ActionSpace
    loss_db: np.ndarray       # (n_users, M) large-scale loss to every centroid
    is_neighbor: np.ndarray   # (M, M) bool, graph adjacency incl. self-loops
    move_ok: np.ndarray       # (M, M) bool, within one slot's flight or virtual


def condense_graph(method: str, nodes: np.ndarray, users_xy: np.ndarray,
                   priority_mask: np.ndarray, cfg: ScenarioConfig,
                   rng: np.random.Generator | None = None) -> CondensedGraph:
    if method == "qa":
        return qa_condense(nodes, cfg, rng)
    if method == "kmeans":
        return kmeans_condense(nodes, cfg, rng)
    if method == "snrp":
        return snrp_condense(nodes, users_xy, priority_mask, cfg)
    raise ValueError(f"unknown condensation method: {method!r}")


def make_world(cfg: ScenarioConfig, users_xy: np.ndarray, priority_mask: np.ndarray,
               graph: CondensedGraph) -> World:
    """Precompute action sets, the loss table and the move-audit tables.

    move_ok comes from raw centroid distances and the virtual edges, not
    from the ActionSpace, so the audit stays an independent check.
    """
    m = graph.n_centroids
    _, loss_db = link_matrix(graph.centroids, cfg.altitude_m, users_xy,
                             ChannelParams.from_config(cfg))
    is_neighbor = np.zeros((m, m), dtype=bool)
    for s, nb in enumerate(graph.neighbors):
        is_neighbor[s, nb] = True
    dist = np.linalg.norm(graph.centroids[:, None, :] - graph.centroids[None, :, :], axis=2)
    move_ok = dist <= cfg.move_radius_m() + 1e-9
    for i, j, virt in graph.edges:
        if virt:
            move_ok[i, j] = move_ok[j, i] = True
    return World(cfg=cfg, users_xy=users_xy, priority_mask=priority_mask, graph=graph,
                 space=ActionSpace(graph, cfg), loss_db=loss_db,
                 is_neighbor=is_neighbor, move_ok=move_ok)


def build_world(cfg: ScenarioConfig, method: str) -> tuple[World, float]:
    """Drop users, condense the candidate set, precompute the world's tables."""
    users_xy, priority_mask = user_arrays(drop_users(cfg))
    nodes = generate_candidates(cfg).nodes
    t0 = time.perf_counter()
    graph = condense_graph(method, nodes, users_xy, priority_mask, cfg)
    condense_time = time.perf_counter() - t0
    return make_world(cfg, users_xy, priority_mask, graph), condense_time


def start_states(world: World, rng_act: np.random.Generator) -> list[int]:
    cfg = world.cfg
    m = world.graph.n_centroids
    if cfg.uav_start == "random":
        return [int(s) for s in rng_act.integers(m, size=cfg.n_uav)]
    stride = m // cfg.n_uav
    return [i * stride for i in range(cfg.n_uav)]


@dataclass
class SlotResult:
    states: list              # centroid index per UAV after the move
    link: LinkState
    stats: OutageStats
    rewards: list             # penalty per UAV


def run_slot(world: World, qtables: list, states: list,
             prev_assoc: np.ndarray | None, eps: float, fading: np.ndarray,
             rng_act: np.random.Generator, learn: bool, audit: dict) -> SlotResult:
    """Advance one slot: move, radio at the new positions, rewards, TD backups.

    fading is this slot's (n_users, n_uav) draw.
    """
    cfg = world.cfg
    actions = [select_action(qtables[n], states[n], eps, rng_act, world.space)
               for n in range(cfg.n_uav)]
    _audit_moves(world, states, actions, audit)

    link = evaluate_slot(world.loss_db[:, actions], fading, prev_assoc, cfg)
    if link.tx_power_w.max() > radio_constants(cfg).p_max_w * (1.0 + 1e-12):
        audit["power_above_cap"] += 1

    stats = outage_stats(link, world.priority_mask, cfg.n_uav)
    rewards = reward(stats.counts, cfg).tolist()
    if learn:
        for n in range(cfg.n_uav):
            td_update(qtables[n], states[n], actions[n], rewards[n], actions[n],
                      cfg, world.space)
    return SlotResult(states=actions, link=link, stats=stats, rewards=rewards)


def _audit_moves(world: World, states: list, actions: list, audit: dict) -> None:
    """Count violations of the waypoint / adjacency / speed / altitude caps."""
    cfg = world.cfg
    if not (cfg.alt_min_m <= cfg.altitude_m <= cfg.alt_max_m):
        audit["altitude_out_of_band"] += 1
    m = len(world.move_ok)
    for s, a in zip(states, actions):
        if not 0 <= a < m:
            audit["waypoint_off_graph"] += 1
            continue
        if not world.is_neighbor[s, a]:
            audit["move_not_neighbor"] += 1
        if not world.move_ok[s, a]:
            audit["move_too_fast"] += 1


@dataclass
class EpisodeRecord:
    index: int
    eps: float
    mean_reward: float            # mean over slots of the summed UAV penalty
    outage_network: float
    outage_priority: float
    outage_regular: float
    mean_rate_bps: float          # user-mean uplink rate, averaged over slots
    trajectory: list              # per UAV: centroid sequence, length slots+1


def run_episode(world: World, qtables: list, eps: float,
                rng_fading: np.random.Generator, rng_act: np.random.Generator,
                learn: bool, audit: dict, index: int = 0) -> EpisodeRecord:
    cfg = world.cfg
    states = start_states(world, rng_act)
    traj = [[s] for s in states]
    prev_assoc = None
    slot_rewards = []
    out_net, out_pr, out_nr, rates = [], [], [], []
    fading = sample_fading(rng_fading, (cfg.slots_per_episode, cfg.n_users, cfg.n_uav))
    for fading_t in fading:
        res = run_slot(world, qtables, states, prev_assoc, eps,
                       fading_t, rng_act, learn, audit)
        states = res.states
        prev_assoc = res.link.assoc
        for n, s in enumerate(states):
            traj[n].append(s)
        # built-in sum from int 0, left to right: np.sum would keep an
        # all -0.0 slot at -0.0 and change the report's bytes
        slot_rewards.append(sum(res.rewards))
        out_net.append(res.stats.network)
        out_pr.append(res.stats.priority)
        out_nr.append(res.stats.regular)
        rates.append(float(res.link.rate_bps.mean()))
    return EpisodeRecord(
        index=index, eps=eps,
        mean_reward=float(np.mean(slot_rewards)),
        outage_network=float(np.mean(out_net)),
        outage_priority=float(np.mean(out_pr)),
        outage_regular=float(np.mean(out_nr)),
        mean_rate_bps=float(np.mean(rates)),
        trajectory=traj,
    )


@dataclass
class RunReport:
    """Everything a run reports; serialized (minus wall-times) to report.json."""

    method: str
    seed: int
    config_hash: str
    config: dict
    distortion: float
    init_distortion: float | None
    n_edges: int
    n_virtual_edges: int
    reward_curve: list
    eps_curve: list
    train_outage_network: list
    train_outage_priority: list
    train_outage_regular: list
    eval_outage: dict
    eval_mean_rate_bps: float
    eval_trajectory: list
    audit: dict
    condense_time_s: float = field(default=0.0)
    rl_time_s: float = field(default=0.0)
    eval_time_s: float = field(default=0.0)


@dataclass
class TrainResult:
    report: RunReport
    world: World
    qtables: list
    episodes: list            # EpisodeRecord per training episode


@dataclass
class EvalResult:
    outage: dict              # mean outage {"network", "priority", "regular"}
    mean_rate_bps: float
    trajectory: list          # last episode, rows [uav, t, centroid, x, y]
    episodes: list


def evaluate_policy(world: World, qtables: list, audit: dict | None = None) -> EvalResult:
    """Greedy rollout (eps = 0) over cfg.eval_episodes fresh episodes.

    Uses dedicated eval RNG streams, so evaluating inside train() and
    re-evaluating a loaded snapshot later give identical numbers.
    """
    cfg = world.cfg
    if audit is None:
        audit = dict.fromkeys(AUDIT_KEYS, 0)
    rng_fading = rng_stream(cfg.seed, "eval_fading")
    rng_act = rng_stream(cfg.seed, "eval_egreedy")
    records = []
    for e in range(cfg.eval_episodes):
        rec = run_episode(world, qtables, 0.0, rng_fading, rng_act,
                          learn=False, audit=audit, index=e)
        records.append(rec)

    outage = {
        "network": float(np.mean([r.outage_network for r in records])),
        "priority": float(np.mean([r.outage_priority for r in records])),
        "regular": float(np.mean([r.outage_regular for r in records])),
    }
    last = records[-1]
    rows = []
    for n, seq in enumerate(last.trajectory):
        for t, c in enumerate(seq):
            x, y = world.graph.centroids[c]
            rows.append([n, t, int(c), float(x), float(y)])
    return EvalResult(outage=outage,
                      mean_rate_bps=float(np.mean([r.mean_rate_bps for r in records])),
                      trajectory=rows, episodes=records)


def train(cfg: ScenarioConfig, method: str = "qa") -> TrainResult:
    """Condense once, learn for cfg.episodes, then evaluate greedily."""
    world, condense_time = build_world(cfg, method)
    qtables = [QTable(world.graph) for _ in range(cfg.n_uav)]
    audit = dict.fromkeys(AUDIT_KEYS, 0)
    rng_fading = rng_stream(cfg.seed, "fading")
    rng_act = rng_stream(cfg.seed, "egreedy")

    t0 = time.perf_counter()
    eps = cfg.eps0
    episodes = []
    for e in range(cfg.episodes):
        rec = run_episode(world, qtables, eps, rng_fading, rng_act,
                          learn=True, audit=audit, index=e)
        episodes.append(rec)
        eps = max(cfg.eps_min, eps * cfg.eps_decay)
    rl_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    ev = evaluate_policy(world, qtables, audit)
    eval_time = time.perf_counter() - t0
    n_virtual = sum(1 for _, _, v in world.graph.edges if v)
    report = RunReport(
        method=method,
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        config=cfg.to_dict(),
        distortion=world.graph.distortion,
        init_distortion=world.graph.init_distortion,
        n_edges=len(world.graph.edges),
        n_virtual_edges=n_virtual,
        reward_curve=[r.mean_reward for r in episodes],
        eps_curve=[r.eps for r in episodes],
        train_outage_network=[r.outage_network for r in episodes],
        train_outage_priority=[r.outage_priority for r in episodes],
        train_outage_regular=[r.outage_regular for r in episodes],
        eval_outage=ev.outage,
        eval_mean_rate_bps=ev.mean_rate_bps,
        eval_trajectory=ev.trajectory,
        audit=dict(audit),
        condense_time_s=condense_time,
        rl_time_s=rl_time,
        eval_time_s=eval_time,
    )
    return TrainResult(report=report, world=world, qtables=qtables, episodes=episodes)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    import dataclasses
    return dataclasses.replace(cfg, seed=seed)


def compare_methods(cfg: ScenarioConfig, n_seeds: int,
                    methods: tuple = METHODS) -> dict:
    """Full train+evaluate per (method, seed); seeds are cfg.seed + i."""
    results: dict = {m: [] for m in methods}
    for m in methods:
        for i in range(n_seeds):
            results[m].append(train(with_seed(cfg, cfg.seed + i), m))
    return results


def sweep_mu(cfg: ScenarioConfig, mu_values: list, n_seeds: int = 1,
             method: str = "qa") -> list:
    """Re-train per priority weight; rows of (mu_pr, seed, outage triple)."""
    import dataclasses
    rows = []
    for mu in mu_values:
        for i in range(n_seeds):
            c = dataclasses.replace(cfg, mu_pr=float(mu), seed=cfg.seed + i)
            res = train(c, method)
            rows.append({
                "mu_pr": float(mu),
                "seed": c.seed,
                "priority": res.report.eval_outage["priority"],
                "regular": res.report.eval_outage["regular"],
                "network": res.report.eval_outage["network"],
            })
    return rows


# -- deterministic file output ---------------------------------------------


def _f(x) -> str:
    """Shortest round-trip float formatting (bit-exact on re-read)."""
    return repr(float(x))


def run_dir(cfg: ScenarioConfig, root: str | None = None) -> str:
    """runs-root/<config-hash>-s<seed>; root from $ABSIM_OUT or ./runs."""
    if root is None:
        root = os.environ.get("ABSIM_OUT", "runs")
    return os.path.join(root, f"{config_hash(cfg)}-s{cfg.seed}")


def write_centroids_csv(path, graph: CondensedGraph) -> None:
    with open(path, "w") as fh:
        fh.write("id,x,y\n")
        for i, (x, y) in enumerate(graph.centroids):
            fh.write(f"{i},{_f(x)},{_f(y)}\n")


def write_edges_csv(path, graph: CondensedGraph) -> None:
    with open(path, "w") as fh:
        fh.write("src,dst,virtual\n")
        for i, j, virt in graph.edges:
            fh.write(f"{i},{j},{int(virt)}\n")


def write_learning_curve_csv(path, report: RunReport) -> None:
    with open(path, "w") as fh:
        fh.write("episode,reward,eps\n")
        for e, (r, eps) in enumerate(zip(report.reward_curve, report.eps_curve)):
            fh.write(f"{e},{_f(r)},{_f(eps)}\n")


def write_outage_csv(path, reports: list) -> None:
    """One row per (method, class, seed); class covers network too."""
    with open(path, "w") as fh:
        fh.write("method,class,value,seed\n")
        for rep in reports:
            for cls in ("priority", "regular", "network"):
                fh.write(f"{rep.method},{cls},{_f(rep.eval_outage[cls])},{rep.seed}\n")


def write_trajectory_csv(path, report: RunReport) -> None:
    with open(path, "w") as fh:
        fh.write("uav,t,centroid,x,y\n")
        for n, t, c, x, y in report.eval_trajectory:
            fh.write(f"{n},{t},{c},{_f(x)},{_f(y)}\n")


def write_sweep_csv(path, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write("mu_pr,seed,priority,regular,network\n")
        for r in rows:
            fh.write(f"{_f(r['mu_pr'])},{r['seed']},{_f(r['priority'])},"
                     f"{_f(r['regular'])},{_f(r['network'])}\n")


def write_timings_json(path, timings: dict) -> None:
    with open(path, "w") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_to_dict(report: RunReport) -> dict:
    """report.json payload; wall-times stay out so bytes are reproducible."""
    d = dict(report.__dict__)
    d.pop("condense_time_s")
    d.pop("rl_time_s")
    d.pop("eval_time_s")
    return d


def write_report_json(path, report: RunReport) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_compare_learning_curves_csv(path, reports: list) -> None:
    with open(path, "w") as fh:
        fh.write("method,seed,episode,reward,eps\n")
        for rep in reports:
            for e, (r, eps) in enumerate(zip(rep.reward_curve, rep.eps_curve)):
                fh.write(f"{rep.method},{rep.seed},{e},{_f(r)},{_f(eps)}\n")


def write_summary_md(path, reports: list) -> None:
    """Per-method mean and spread of evaluation outage, as a small table."""
    by_method: dict = {}
    for rep in reports:
        by_method.setdefault(rep.method, []).append(rep)
    lines = ["# Method comparison", "",
             "| method | seeds | priority | regular | network |",
             "|--------|-------|----------|---------|---------|"]
    for m, reps in by_method.items():
        cells = []
        for cls in ("priority", "regular", "network"):
            vals = np.array([r.eval_outage[cls] for r in reps])
            cells.append(f"{vals.mean():.4f} +- {vals.std():.4f}")
        lines.append(f"| {m} | {len(reps)} | " + " | ".join(cells) + " |")
    lines += ["", "Outage fractions from the greedy evaluation pass; "
              "spread is the population std over seeds.", ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
