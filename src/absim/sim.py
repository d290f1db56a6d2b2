"""Slotted deployment simulator: condensation, training, evaluation, reports.

One slot = every UAV picks and flies to a neighbor centroid, users run
power control against last slot's serving ABS, the uplink is evaluated at
the new geometry, and each UAV receives its outage penalty and updates its
Q-table. Episodes restart the fleet at its initial placement over the same
frozen user drop.

Training runs any number of worlds (a seed, condenser or reward weight
each) in lockstep: one slot step advances all of them through tables
stacked once per row, while each world draws from its own RNG streams,
so a world's results do not depend on which others it was batched with.
So a batch of several seeds is split by seed across the usable cores.
Every row draws its fading SLOT_BLOCK slots at a time, so no array sized to
a whole episode's fading or SINRs exists. Greedy evaluation also stacks
several episodes of a world as lockstep rows, each on its own copy of the
world's fading stream, placed at its episode.

An episode's results are two arrays: each row's slot means (reward,
outage by class, rate) and the fleet's trajectory. Training keeps only
the means, as the report's curves; evaluation keeps the means and each
world's last trajectory.

File outputs, one writer per command (write_condense_run, write_train_run,
write_compare_run), are deterministic for a given (config, seed): floats are
in shortest round-trip form and wall-clock timings live in timings.json.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from .scenario import ScenarioConfig, config_hash, drop_users, generate_candidates, rng_stream
from .channel import link_matrix, sample_fading, sq_dist
from .radio import (dbm_to_watt, evaluate_slot, link_tables, outage_fractions, outage_keys,
                    outage_stats, rate_bps)
from .condense import CondensedGraph, kmeans_condense, qa_condense, snrp_condense
from .rl import (Exploration, draw_exploration, export_qtables, masked, move_table, reward,
                 select_action, td_update)

METHODS = ("qa", "kmeans", "snrp")

AUDIT_KEYS = ("waypoint_off_graph", "move_not_neighbor", "move_too_fast",
              "altitude_out_of_band", "power_above_cap")

_OFF_GRAPH, _NOT_NEIGHBOR, _TOO_FAST, _ALTITUDE, _POWER = range(len(AUDIT_KEYS))
# violation bits of Lockstep.move_flags, with the audit column each counts in
_MOVE_BITS = ((4, _OFF_GRAPH), (1, _NOT_NEIGHBOR), (2, _TOO_FAST))

# config fields in which worlds stepped in lockstep may differ
WORLD_FIELDS = ("seed", "mu_pr")

# lockstep rows of greedy evaluation: each world stacks up to
# EVAL_ROWS // worlds of its episodes, every row with its own tables. No
# output depends on it; a larger stack moves evaluation timings
EVAL_ROWS = 4

# slots of fading a row draws at a time, and of SINRs reduced to rates at a
# time; no output depends on it
SLOT_BLOCK = 10


@dataclass
class World:
    """Static scenario plus the condensed graph one run operates on.

    Users never move and UAVs only ever sit on centroids, so the tables a
    slot reads, the large-scale loss of every link it can use and the
    legality of every move, are built once, by Lockstep. The learner's
    moves are graph.adj.
    """

    cfg: ScenarioConfig
    users_xy: np.ndarray
    priority_mask: np.ndarray
    graph: CondensedGraph


def build_world(cfg: ScenarioConfig, method: str) -> tuple[World, float]:
    """Drop users and condense the candidate set."""
    if method not in METHODS:
        raise ValueError(f"unknown condensation method: {method!r}")
    users_xy, priority_mask = drop_users(cfg)
    nodes = generate_candidates(cfg)
    t0 = time.perf_counter()
    if method == "snrp":
        graph = snrp_condense(nodes, users_xy, priority_mask, cfg)
    else:
        graph = (qa_condense if method == "qa" else kmeans_condense)(nodes, cfg)
    condense_time = time.perf_counter() - t0
    return World(cfg, users_xy, priority_mask, graph), condense_time


class Lockstep:
    """Worlds stepped slot by slot together, one row each.

    It builds every table a slot and the move audit read (each row's loss
    to every centroid, the link, move and audit tables), stacked along a
    leading row axis, one copy per row even where rows hold the same world
    (jobs sharing a condensation, stacked evaluation episodes). Every slot
    stage is one call for all rows. The worlds must agree on every config
    field but WORLD_FIELDS, the seed and mu_pr, so they share array shapes,
    the epsilon schedule and mu_nr. Each row keeps its own RNG streams, so
    its results are those of running it alone.
    """

    def __init__(self, worlds: list):
        cfg = worlds[0].cfg
        if any(dataclasses.replace(w.cfg, **{f: getattr(cfg, f) for f in WORLD_FIELDS}) != cfg
               for w in worlds[1:]):
            raise ValueError("lockstep worlds may differ only in " + ", ".join(WORLD_FIELDS))
        m = worlds[0].graph.n_centroids
        self.worlds = worlds
        self.cfg = cfg
        self.links = link_tables(np.stack([
            link_matrix(w.graph.centroids, w.users_xy, cfg)[1] for w in worlds]), cfg)
        self.outage_keys = outage_keys(np.stack([w.priority_mask for w in worlds]), cfg.n_uav)
        self.adj = np.stack([w.graph.adj for w in worlds])
        self.moves, self.n_moves = move_table(self.adj)
        # [row, s, a] audit bits of a move: 1 no edge, 2 beyond one slot's
        # flight by raw distance and no virtual bridge, decided apart from
        # adj; column M stands for every target off the graph (bit 4)
        dist = np.sqrt(np.stack([sq_dist(w.graph.centroids, w.graph.centroids) for w in worlds]))
        flight = (dist <= cfg.move_radius_m() + 1e-9) | np.stack([w.graph.virtual for w in worlds])
        self.move_flags = np.full((len(worlds), m, m + 1), 4, dtype=np.uint8)
        self.move_flags[:, :, :m] = ~self.adj + 2 * ~flight
        self.p_cap_w = dbm_to_watt(cfg.p_max_dbm) * (1.0 + 1e-12)
        self.mu_pr = np.array([[w.cfg.mu_pr] for w in worlds])

    def __len__(self) -> int:
        return len(self.worlds)


def run_slot(batch: Lockstep, q: np.ndarray, states: np.ndarray,
             prev_assoc: np.ndarray | None, draws: Exploration, t: int,
             fading: np.ndarray, learn: bool) -> tuple:
    """Advance slot t of every row: move, radio at the new positions,
    rewards, TD backups. Returns (moves, link, counts, rewards): the
    (S, n_uav) centroids moved to, the radio.LinkState, the
    radio.outage_stats table and the (S, n_uav) penalties.

    q is the masked (S, n_uav, M, M) tensor (rl.masked), states (S, n_uav),
    draws the episode's exploration and fading this slot's (S, n_users,
    n_uav) draw. The moves and transmit powers are audited once per
    episode, by run_episode.
    """
    cfg = batch.cfg
    actions = select_action(q, states, draws, t)
    link = evaluate_slot(batch.links, actions, fading, prev_assoc)
    counts = outage_stats(link.assoc, link.outage, batch.outage_keys, cfg.n_uav)
    rewards = reward(counts, batch.mu_pr, cfg.mu_nr)
    if learn:
        td_update(q, states, actions, rewards, cfg)
    return actions, link, counts, rewards


def _audit_moves(batch: Lockstep, states: np.ndarray, actions: np.ndarray,
                 audit: np.ndarray) -> None:
    """Count an episode's violations of the waypoint / adjacency / speed /
    altitude caps; states and actions are (slots, S, n_uav), and the
    altitude counts once per slot.
    """
    cfg = batch.cfg
    if not (cfg.alt_min_m <= cfg.altitude_m <= cfg.alt_max_m):
        audit[:, _ALTITUDE] += len(states)
    m = batch.move_flags.shape[1]
    target = np.minimum(np.maximum(actions, -1), m)     # -1 wraps to column M
    flags = batch.move_flags[np.arange(len(batch))[:, None], states, target]
    if np.count_nonzero(flags):     # healthy runs flag none; the counts cost ~17 µs
        for bit, col in _MOVE_BITS:
            audit[:, col] += np.count_nonzero(flags & bit, axis=(0, 2))


# columns of run_episode's table of slot means
EPISODE_COLUMNS = ("reward", "network", "priority", "regular", "rate_bps")


def _slot_blocks(n_slots: int) -> list:
    """An episode's slots as ranges of SLOT_BLOCK, the last one shorter."""
    return [range(t, min(t + SLOT_BLOCK, n_slots)) for t in range(0, n_slots, SLOT_BLOCK)]


def run_episode(batch: Lockstep, q: np.ndarray, eps: float, rng_fading: list,
                rng_act: list, learn: bool, audit: np.ndarray) -> tuple:
    """One episode of every row, with row k drawing from rng_fading[k]
    and rng_act[k]. Returns the (S, 5) slot means of EPISODE_COLUMNS per
    row (the summed UAV penalty, the three outage fractions and the
    user-mean uplink rate) and the (n_slots + 1, S, n_uav) trajectory.

    Row by row, the start states and the whole episode's exploration
    (rl.draw_exploration) are taken first. Fading is drawn SLOT_BLOCK slots
    at a time, row by row, into the row's part of one (S, SLOT_BLOCK,
    n_users, n_uav) buffer: the same floats, and final stream state, as one
    whole-episode draw per row. Rows must not share a fading stream, as
    their blocks would interleave (ValueError). A block's SINRs reduce to
    per-slot rate sums, each a row reduction, and its powers to peaks. What
    no later slot reads is reduced once at the end: the outage fractions,
    the move audit, the power-cap count and each slot's penalty total, its
    UAVs added left to right from +0.0 (np.add.accumulate; np.sum's order
    is numpy's to choose), so an all -0.0 slot totals +0.0.
    """
    if len({id(rng) for rng in rng_fading}) < len(rng_fading):
        raise ValueError("lockstep rows must not share a fading stream")
    cfg = batch.cfg
    n_slots = cfg.slots_per_episode
    traj = np.empty((n_slots + 1, len(batch), cfg.n_uav), dtype=int)
    m = batch.adj.shape[-1]
    if cfg.uav_start == "random":
        traj[0] = [rng.integers(m, size=cfg.n_uav) for rng in rng_act]
    else:
        traj[0] = np.arange(cfg.n_uav) * (m // cfg.n_uav)
    draws = draw_exploration(rng_act, eps, n_slots, cfg.n_uav, batch.moves, batch.n_moves)
    fading = np.empty((len(batch), SLOT_BLOCK, cfg.n_users, cfg.n_uav))
    powers, sinrs = np.empty((2, len(batch), SLOT_BLOCK, cfg.n_users))
    # (S, slots, n_uav), so the slot totals come out in slots[:, 0]'s (S, slots) order
    rewards = np.empty((len(batch), n_slots, cfg.n_uav))
    counts = np.empty((len(batch), n_slots, 2, 2, cfg.n_uav), dtype=int)
    peak_power, rate_sum = np.empty((2, len(batch), n_slots))     # over each slot's users
    prev_assoc = None
    for block in _slot_blocks(n_slots):
        for k, rng in enumerate(rng_fading):
            sample_fading(rng, out=fading[k, :len(block)])
        for b, t in enumerate(block):
            traj[t + 1], link, counts[:, t], rewards[:, t] = run_slot(
                batch, q, traj[t], prev_assoc, draws, t, fading[:, b], learn)
            prev_assoc = link.assoc
            powers[:, b] = link.tx_power_w
            sinrs[:, b] = link.sinr
        span = slice(block.start, block.stop)
        np.maximum.reduce(powers[:, :len(block)], axis=-1, out=peak_power[:, span])
        rate_sum[:, span] = rate_bps(sinrs[:, :len(block)], cfg.bandwidth_hz).sum(axis=-1)

    _audit_moves(batch, traj[:-1], traj[1:], audit)
    # slots in which any user transmits above the cap
    audit[:, _POWER] += np.count_nonzero(peak_power > batch.p_cap_w, axis=-1)
    # (S, columns, slots), so each mean reduces a contiguous row
    slots = np.empty((len(batch), len(EPISODE_COLUMNS), n_slots))
    slots[:, 0] = np.add.accumulate(rewards, axis=-1)[..., -1] + 0.0
    slots[:, 1:4] = outage_fractions(counts).transpose(0, 2, 1)
    slots[:, 4] = rate_sum / cfg.n_users
    return slots.mean(axis=-1), traj


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
    qtables: np.ndarray       # (n_uav, M, M), 0 off graph.adj


@dataclass
class EvalResult:
    outage: dict              # mean outage {"network", "priority", "regular"}
    mean_rate_bps: float
    trajectory: list          # last episode, rows [uav, t, centroid, x, y]
    audit: dict               # violations counted over the rollout, by AUDIT_KEYS


def _evaluate(batch: Lockstep, q: np.ndarray) -> list:
    """Greedy rollout (eps = 0) of every world over cfg.eval_episodes fresh
    episodes; an EvalResult per world.

    Uses dedicated eval RNG streams, so evaluating inside training and
    re-evaluating a loaded snapshot later give identical numbers. Each
    world runs k (EVAL_ROWS // len(batch), at least 1) of its episodes at
    once, as rows of one lockstep batch built once per call. Row j of a
    round runs the round's j-th episode. Its fading comes from a generator
    of its own: row 0 takes the world's stream, and row j a copy of row
    j - 1's, advanced by drawing and dropping one episode of fading (k - 1
    dropped episodes per round); after the round the world's stream takes
    the last row's state. Random starts come from the world's shared
    eval_egreedy stream in row order, so each episode equals its run alone.
    The last round's rows past eval_episodes run after the real ones and
    are dropped.
    """
    cfg, worlds = batch.cfg, batch.worlds
    n, episodes = len(worlds), cfg.eval_episodes
    k = max(1, min(episodes, EVAL_ROWS // n))
    rows = np.repeat(np.arange(n), k)       # world by world, k episodes each
    if k > 1:
        batch, q = Lockstep([worlds[r] for r in rows]), q[rows]
    rng_fading = [rng_stream(w.cfg.seed, "eval_fading") for w in worlds]
    rng_act = [rng_stream(w.cfg.seed, "eval_egreedy") for w in worlds]
    audit = np.zeros((n, len(AUDIT_KEYS)), dtype=np.int64)
    # (world, columns, episodes), so each mean reduces a contiguous row
    means = np.empty((n, len(EPISODE_COLUMNS), episodes))
    dropped = np.empty((SLOT_BLOCK, cfg.n_users, cfg.n_uav))   # takes the dropped draws
    for e in range(0, episodes, k):
        streams = []
        for rng in rng_fading:
            streams.append(rng)
            for _ in range(k - 1):
                streams.append(copy.deepcopy(streams[-1]))
                for block in _slot_blocks(cfg.slots_per_episode):
                    sample_fading(streams[-1], out=dropped[:len(block)])
        rng_fading = streams[k - 1::k]
        audit_rows = np.zeros((n * k, len(AUDIT_KEYS)), dtype=np.int64)
        table, traj = run_episode(batch, q, 0.0, streams, [rng_act[r] for r in rows],
                                  learn=False, audit=audit_rows)
        audit += audit_rows.reshape(n, k, -1)[:, :episodes - e].sum(axis=1)
        means[:, :, e:e + k] = table.reshape(n, k, -1).transpose(0, 2, 1)[..., :episodes - e]
    # each world's last episode is row (episodes - 1) % k of the final round
    paths = traj[:, (episodes - 1) % k::k].transpose(1, 2, 0).tolist()     # [world][uav][t]
    results = []
    for world, (_, net, pr, nr, rate), path, counts in zip(
            worlds, means.mean(axis=-1).tolist(), paths, audit.tolist()):
        xy = world.graph.centroids.tolist()
        results.append(EvalResult(
            outage={"network": net, "priority": pr, "regular": nr},
            mean_rate_bps=rate,
            trajectory=[[u, t, c, *xy[c]] for u, seq in enumerate(path)
                        for t, c in enumerate(seq)],
            audit=dict(zip(AUDIT_KEYS, counts))))
    return results


def evaluate_policy(world: World, qtables: np.ndarray) -> EvalResult:
    """Greedy rollout of one world's (n_uav, M, M) tables; see _evaluate."""
    return _evaluate(Lockstep([world]), masked(qtables, world.graph.adj)[None])[0]


def train_lockstep(jobs: list) -> list:
    """Condense a world per (cfg, method) job, then learn for cfg.episodes
    and evaluate greedily, all worlds in lockstep; a TrainResult per job.

    Jobs that differ only in weights the condenser does not read share one
    condensation, so only jobs of one seed can. Given two or more seeds and
    usable cores, the jobs split by seed into at most one batch per core,
    each seed (most jobs first) joining the batch of fewest rows; the first
    batch runs here, each other one in a forked child (_fork_batch). Each
    result equals that of training its world alone, except for the wall
    times: every world reports 1/S of its own batch's learning and
    evaluation time, and a shared condensation's time in full.
    """
    seeds = [cfg.seed for cfg, _ in jobs]
    bins = [[] for _ in range(min(len(set(seeds)), len(os.sched_getaffinity(0))))]
    for seed in sorted(dict.fromkeys(seeds), key=seeds.count, reverse=True):
        min(bins, key=len).extend(i for i, s in enumerate(seeds) if s == seed)
    if len(bins) < 2:
        return _train_batch(jobs)
    children, replies = [], []
    try:
        for rows in bins[1:]:
            children.append((rows, *_fork_batch([jobs[i] for i in rows])))
        results = dict(zip(bins[0], _train_batch([jobs[i] for i in bins[0]])))
    finally:    # every pipe read to its end before its child is reaped
        for rows, pid, fd in children:
            with open(fd, "rb") as fh:
                replies.append((rows, fh.read(), os.waitpid(pid, 0)[1]))
    for rows, reply, status in replies:
        value = pickle.loads(reply) if reply else RuntimeError(
            f"lockstep worker sent no results (exit status {os.waitstatus_to_exitcode(status)})")
        if isinstance(value, Exception):
            raise value
        results.update((i, dataclasses.replace(res, world=dataclasses.replace(
            res.world, cfg=jobs[i][0]))) for i, res in zip(rows, value))
    return [results[i] for i in range(len(jobs))]


def _fork_batch(jobs: list) -> tuple:
    """Fork a child that pipes back _train_batch(jobs), configs left out, or
    its exception, pickled; (its pid, the pipe's read end)."""
    fd, wfd = os.pipe()
    if pid := os.fork():
        os.close(wfd)
        return pid, fd
    try:
        os.close(fd)    # so that with no reader left, the write fails and does not block
        try:
            reply = pickle.dumps([dataclasses.replace(res, world=dataclasses.replace(
                res.world, cfg=None)) for res in _train_batch(jobs)])
        except Exception as exc:
            reply = pickle.dumps(exc)
        with open(wfd, "wb") as fh:
            fh.write(reply)
        os._exit(0)
    finally:    # a child never returns into the caller's stack
        os._exit(1)


def _train_batch(jobs: list) -> list:
    """train_lockstep's jobs as one lockstep batch, in this process."""
    if not jobs:
        return []
    for cfg, _ in jobs:     # derived configs (sweep, compare) skip config_from_dict
        cfg.validate()
    condensed, worlds, condense_times = {}, [], []
    for cfg, method in jobs:
        # a world's users and graph do not depend on the reward weights,
        # except under snrp, whose proxy weighs users by them
        key = (cfg if method == "snrp" else dataclasses.replace(cfg, mu_pr=1.0, mu_nr=1.0),
               method)
        if key not in condensed:
            condensed[key] = build_world(cfg, method)
        world, condense_time = condensed[key]
        worlds.append(dataclasses.replace(world, cfg=cfg))
        condense_times.append(condense_time)
    batch = Lockstep(worlds)
    cfg = batch.cfg
    n = len(batch)
    q = masked(np.zeros((n, cfg.n_uav) + batch.adj.shape[1:]), batch.adj)
    audit = np.zeros((n, len(AUDIT_KEYS)), dtype=np.int64)
    rng_fading = [rng_stream(w.cfg.seed, "fading") for w in batch.worlds]
    rng_act = [rng_stream(w.cfg.seed, "egreedy") for w in batch.worlds]

    t0 = time.perf_counter()
    eps = cfg.eps0
    eps_curve = []
    curves = np.empty((cfg.episodes, n, len(EPISODE_COLUMNS)))   # slot means per episode
    for e in range(cfg.episodes):
        curves[e], _ = run_episode(batch, q, eps, rng_fading, rng_act, learn=True, audit=audit)
        eps_curve.append(eps)
        eps = max(cfg.eps_min, eps * cfg.eps_decay)
    rl_time = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    evals = _evaluate(batch, q)
    eval_time = (time.perf_counter() - t0) / n

    results = []
    for k, (world, condense_time, (_, method), ev, (rewards, net, pr, nr, _)) in enumerate(
            zip(worlds, condense_times, jobs, evals, curves.transpose(1, 2, 0).tolist())):
        graph = world.graph
        report = RunReport(
            method=method,
            seed=world.cfg.seed,
            config_hash=config_hash(world.cfg),
            config=world.cfg.to_dict(),
            distortion=graph.distortion,
            init_distortion=graph.init_distortion,
            n_edges=int(np.count_nonzero(np.triu(graph.adj, 1))),
            n_virtual_edges=int(np.count_nonzero(np.triu(graph.virtual, 1))),
            reward_curve=rewards,
            eps_curve=list(eps_curve),
            train_outage_network=net,
            train_outage_priority=pr,
            train_outage_regular=nr,
            eval_outage=ev.outage,
            eval_mean_rate_bps=ev.mean_rate_bps,
            eval_trajectory=ev.trajectory,
            audit={key: c + ev.audit[key] for key, c in zip(AUDIT_KEYS, audit[k].tolist())},
            condense_time_s=condense_time,
            rl_time_s=rl_time,
            eval_time_s=eval_time,
        )
        results.append(TrainResult(report=report, world=world,
                                   qtables=np.where(world.graph.adj, q[k], 0.0)))
    return results


def train(cfg: ScenarioConfig, method: str = "qa") -> TrainResult:
    """Condense once, learn for cfg.episodes, then evaluate greedily."""
    return train_lockstep([(cfg, method)])[0]


def compare_methods(cfg: ScenarioConfig, n_seeds: int) -> dict:
    """Full train+evaluate per (method, seed), all in lockstep; seeds are
    cfg.seed + i."""
    runs = iter(train_lockstep([(dataclasses.replace(cfg, seed=cfg.seed + i), m)
                                for m in METHODS for i in range(n_seeds)]))
    return {m: [next(runs) for _ in range(n_seeds)] for m in METHODS}


def sweep_mu(cfg: ScenarioConfig, mu_values: list, n_seeds: int = 1,
             method: str = "qa") -> list:
    """Train per priority weight and seed, all in lockstep; rows of
    (mu_pr, seed, outage triple)."""
    cfgs = [dataclasses.replace(cfg, mu_pr=float(mu), seed=cfg.seed + i)
            for mu in mu_values for i in range(n_seeds)]
    return [{
        "mu_pr": c.mu_pr,
        "seed": c.seed,
        "priority": res.report.eval_outage["priority"],
        "regular": res.report.eval_outage["regular"],
        "network": res.report.eval_outage["network"],
    } for c, res in zip(cfgs, train_lockstep([(c, method) for c in cfgs]))]


# -- deterministic file output ---------------------------------------------


def run_dir(cfg: ScenarioConfig) -> str:
    """runs-root/<config-hash>-s<seed>; runs-root is $ABSIM_OUT or ./runs."""
    return os.path.join(os.environ.get("ABSIM_OUT", "runs"), f"{config_hash(cfg)}-s{cfg.seed}")


def _write_csv(path, header: str, rows) -> None:
    """header, then one line per row; floats in shortest round-trip form
    (np.float64's own repr names its type), other cells as str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_centroids_csv(path, graph: CondensedGraph) -> None:
    _write_csv(path, "id,x,y", ((i, float(x), float(y))
                                for i, (x, y) in enumerate(graph.centroids)))


def write_edges_csv(path, graph: CondensedGraph) -> None:
    _write_csv(path, "src,dst,virtual", ((i, j, int(virt)) for i, j, virt in graph.edges))


def write_learning_curve_csv(path, report: RunReport) -> None:
    _write_csv(path, "episode,reward,eps", (
        (e, r, float(eps)) for e, (r, eps) in enumerate(zip(report.reward_curve,
                                                            report.eps_curve))))


def write_outage_csv(path, reports: list) -> None:
    """One row per (method, class, seed); class covers network too."""
    _write_csv(path, "method,class,value,seed", (
        (rep.method, cls, rep.eval_outage[cls], rep.seed)
        for rep in reports for cls in ("priority", "regular", "network")))


def write_trajectory_csv(path, report: RunReport) -> None:
    _write_csv(path, "uav,t,centroid,x,y", report.eval_trajectory)


def write_sweep_csv(path, rows: list) -> None:
    _write_csv(path, "mu_pr,seed,priority,regular,network", (
        (r["mu_pr"], r["seed"], r["priority"], r["regular"], r["network"]) for r in rows))


def write_timings_json(path, timings: dict) -> None:
    write_json(path, timings)


def write_report_json(path, report: RunReport) -> None:
    """report.json; wall-times stay out so bytes are reproducible."""
    write_json(path, {k: v for k, v in report.__dict__.items()
                      if k not in ("condense_time_s", "rl_time_s", "eval_time_s")})


def write_compare_learning_curves_csv(path, reports: list) -> None:
    _write_csv(path, "method,seed,episode,reward,eps", (
        (rep.method, rep.seed, e, r, float(eps)) for rep in reports
        for e, (r, eps) in enumerate(zip(rep.reward_curve, rep.eps_curve))))


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


def _timings(rep: RunReport) -> dict:
    return {"condense_s": rep.condense_time_s, "rl_s": rep.rl_time_s, "eval_s": rep.eval_time_s}


def write_condense_run(out, graph: CondensedGraph, condense_s: float, total_s: float) -> None:
    """The files of `absim condense` in out; the annealing trace for qa only."""
    write_centroids_csv(os.path.join(out, "centroids.csv"), graph)
    write_edges_csv(os.path.join(out, "edges.csv"), graph)
    if graph.trace is not None:
        cols = (graph.trace[k].tolist() for k in ("temperature", "current", "best", "accepted"))
        _write_csv(os.path.join(out, "anneal_trace.csv"), "step,temperature,current,best,accepted",
                   ((step,) + row for step, row in enumerate(zip(*cols))))
    write_json(os.path.join(out, "timings.json"), {"condense_s": condense_s, "total_s": total_s})


def write_train_run(out, res: TrainResult) -> None:
    """The files of `absim train` in out."""
    rep, graph = res.report, res.world.graph
    write_centroids_csv(os.path.join(out, "centroids.csv"), graph)
    write_edges_csv(os.path.join(out, "edges.csv"), graph)
    write_learning_curve_csv(os.path.join(out, "learning_curve.csv"), rep)
    write_outage_csv(os.path.join(out, "outage.csv"), [rep])
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), rep)
    export_qtables(os.path.join(out, "qtable.csv"), res.qtables, graph)
    write_json(os.path.join(out, "timings.json"), _timings(rep))
    write_report_json(os.path.join(out, "report.json"), rep)


def write_compare_run(out, results: dict) -> list:
    """The files of `absim compare` in out, from compare_methods' results; their names."""
    reports = [res.report for m in METHODS for res in results[m]]
    names = ["outage.csv", "learning_curves.csv", "timings.json", "summary.md"]
    outage, curves, timings, summary = (os.path.join(out, name) for name in names)
    write_outage_csv(outage, reports)
    write_compare_learning_curves_csv(curves, reports)
    write_json(timings, {m: {str(res.report.seed): _timings(res.report) for res in results[m]}
                         for m in METHODS})
    write_summary_md(summary, reports)
    return names
