"""Scenario configuration, seeded RNG streams, and static scenario generation.

Everything random in a run is drawn from named sub-streams derived from one
master seed, so enabling or reseeding one component never perturbs the draws
of another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# Fixed per-purpose salts: (master_seed, salt) seeds an independent PCG64
# stream. Changing these would silently change every seeded result.
_STREAM_SALTS = {
    "users": 101,        # user drop + priority shuffle
    "candidates": 211,   # off-grid remainder of the candidate set
    "condense": 307,     # annealing proposals / k-means init
    "fading": 401,       # per-slot small-scale fading (training)
    "egreedy": 503,      # exploration draws + random starts (training)
    "eval_fading": 601,  # fading during greedy evaluation
    "eval_egreedy": 701, # random starts during greedy evaluation
}


class ConfigError(ValueError):
    """A configuration value violates its documented range."""


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one purpose, derived from the master seed."""
    if label not in _STREAM_SALTS:
        raise KeyError(f"unknown RNG stream label: {label!r}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_SALTS[label]]))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full run configuration. Defaults reproduce the reference scenario."""

    # service area [m]
    x_min: float = 0.0
    x_max: float = 1400.0
    y_min: float = 0.0
    y_max: float = 1400.0

    # fleet
    n_uav: int = 3
    altitude_m: float = 100.0          # fixed flight altitude
    alt_min_m: float = 50.0
    alt_max_m: float = 300.0

    # users
    n_users: int = 100
    priority_fraction: float = 0.2

    # candidate waypoints and condensation target
    n_candidates: int = 400
    candidate_rule: str = "grid"       # "grid" | "uniform"
    n_centroids: int = 33              # M

    # air-to-ground channel
    plos_b1: float = 0.1               # LoS probability slope [1/deg]
    plos_b2: float = 1.0               # LoS probability exponent
    plos_xi_deg: float = 5.0           # LoS probability angle offset [deg]
    path_alpha: float = 2.0            # path loss exponent
    kappa_los_db: float = 1.0          # excess loss under LoS [dB]
    kappa_nlos_db: float = 20.0        # excess loss under NLoS [dB]
    carrier_hz: float = 2.0e9
    ref_loss_k0: float | None = None   # K0; None -> free-space (4*pi*f_c/c)^2

    # uplink radio
    noise_dbm: float = -90.0           # receiver noise power over the band
    bandwidth_hz: float = 1.0e6
    gamma_th_db: float = 5.0           # SINR outage threshold
    p_max_dbm: float = 23.0            # UE power cap
    p0_dbm: float = -45.0              # open-loop power control target
    alpha_ol: float = 0.8              # open-loop path loss compensation factor
    n_rb: int = 1                      # granted resource blocks

    # outage penalty weights
    mu_pr: float = 40.0
    mu_nr: float = 1.0

    # annealing schedule
    anneal_t0: float = 100.0
    anneal_t_min: float = 1.0e-3
    anneal_rho: float = 0.95
    anneal_i_max: int = 1000
    p_jump: float = 0.2                # non-local relocation probability
    anneal_step_frac: float = 0.02     # local step sigma / area width
    proposals_per_temp: int = 0        # 0 -> one sweep of M proposals

    # SNR-proxy greedy picker
    d_sep_m: float = 250.0             # pairwise centroid separation floor

    # kinematics
    v_max_mps: float = 25.0
    delta_t_s: float = 10.0

    # learning
    episodes: int = 400
    slots_per_episode: int = 100
    alpha_q: float = 0.1
    zeta: float = 0.9                  # discount
    eps0: float = 1.0
    eps_min: float = 0.05
    eps_decay: float = 0.995           # multiplicative, per episode
    eval_episodes: int = 50
    uav_start: str = "spread"          # "spread" | "random"

    seed: int = 0

    # -- derived helpers ---------------------------------------------------

    def area_width(self) -> float:
        return self.x_max - self.x_min

    def move_radius_m(self) -> float:
        """Max distance a UAV can cover in one slot."""
        return self.v_max_mps * self.delta_t_s

    def ref_loss_k0_value(self) -> float:
        """K0, falling back to the free-space reference (4*pi*f_c/c)^2."""
        if self.ref_loss_k0 is not None:
            return self.ref_loss_k0
        c = 299792458.0
        return (4.0 * math.pi * self.carrier_hz / c) ** 2

    def n_priority(self) -> int:
        return int(round(self.priority_fraction * self.n_users))

    def validate(self) -> None:
        """Raise ConfigError naming the offending field."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite")
        c = self
        checks = [
            (c.x_max > c.x_min, "x_max", "x_max must exceed x_min"),
            (c.y_max > c.y_min, "y_max", "y_max must exceed y_min"),
            (c.n_uav >= 1, "n_uav", "need at least one UAV"),
            (c.altitude_m > 0, "altitude_m", "altitude must be positive"),
            (c.alt_min_m <= c.altitude_m <= c.alt_max_m, "altitude_m",
             "altitude must lie within [alt_min_m, alt_max_m]"),
            (c.n_users >= 1, "n_users", "need at least one user"),
            (0.0 <= c.priority_fraction <= 1.0, "priority_fraction", "must be in [0, 1]"),
            (c.n_candidates >= 1, "n_candidates", "need at least one candidate"),
            (c.candidate_rule in ("grid", "uniform"), "candidate_rule",
             "must be 'grid' or 'uniform'"),
            (c.n_uav <= c.n_centroids <= c.n_candidates, "n_centroids",
             "need n_uav <= n_centroids <= n_candidates"),
            (c.plos_b1 > 0, "plos_b1", "must be positive"),
            (c.plos_b2 > 0, "plos_b2", "must be positive"),
            (c.path_alpha > 0, "path_alpha", "must be positive"),
            (c.kappa_los_db >= 0, "kappa_los_db", "excess loss cannot be a gain"),
            (c.kappa_nlos_db >= c.kappa_los_db, "kappa_nlos_db",
             "NLoS excess must be at least the LoS excess"),
            (c.carrier_hz > 0, "carrier_hz", "must be positive"),
            (c.ref_loss_k0 is None or c.ref_loss_k0 > 0, "ref_loss_k0", "must be positive"),
            (c.bandwidth_hz > 0, "bandwidth_hz", "must be positive"),
            (c.n_rb >= 1, "n_rb", "need at least one resource block"),
            (0.0 <= c.alpha_ol <= 1.0, "alpha_ol", "must be in [0, 1]"),
            (c.mu_pr > 0, "mu_pr", "must be positive"),
            (c.mu_nr > 0, "mu_nr", "must be positive"),
            (c.anneal_t0 > c.anneal_t_min > 0, "anneal_t0",
             "need anneal_t0 > anneal_t_min > 0"),
            (0.0 < c.anneal_rho < 1.0, "anneal_rho", "must be in (0, 1)"),
            (c.anneal_i_max >= 1, "anneal_i_max", "need at least one iteration"),
            (0.0 <= c.p_jump <= 1.0, "p_jump", "must be in [0, 1]"),
            (c.anneal_step_frac > 0, "anneal_step_frac", "must be positive"),
            (c.proposals_per_temp >= 0, "proposals_per_temp", "must be >= 0"),
            (c.d_sep_m >= 0, "d_sep_m", "must be non-negative"),
            (c.v_max_mps > 0, "v_max_mps", "must be positive"),
            (c.delta_t_s > 0, "delta_t_s", "must be positive"),
            (c.episodes >= 1, "episodes", "need at least one episode"),
            (c.slots_per_episode >= 1, "slots_per_episode", "need at least one slot"),
            (0.0 < c.alpha_q <= 1.0, "alpha_q", "must be in (0, 1]"),
            (0.0 <= c.zeta < 1.0, "zeta", "must be in [0, 1)"),
            (0.0 <= c.eps0 <= 1.0, "eps0", "must be in [0, 1]"),
            (0.0 <= c.eps_min <= c.eps0, "eps_min", "need 0 <= eps_min <= eps0"),
            (0.0 < c.eps_decay <= 1.0, "eps_decay", "must be in (0, 1]"),
            (c.eval_episodes >= 1, "eval_episodes", "need at least one episode"),
            (c.uav_start in ("spread", "random"), "uav_start",
             "must be 'spread' or 'random'"),
            (c.seed >= 0, "seed", "must be non-negative"),
        ]
        for ok, field, msg in checks:
            if not ok:
                raise ConfigError(f"{field}: {msg}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(overrides: dict) -> ScenarioConfig:
    """Build a validated config from default values plus JSON overrides,
    each checked against the kind its field is annotated with."""
    kinds = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(overrides) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    coerced = {}
    for key, val in overrides.items():
        if kinds[key] == "str":
            if not isinstance(val, str):
                raise ConfigError(f"{key}: expected string, got {type(val).__name__}")
            coerced[key] = val
        elif kinds[key] == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{key}: expected integer, got {val!r}")
            coerced[key] = val
        elif kinds[key] == "float | None" and val is None:
            coerced[key] = None
        else:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"{key}: expected number, got {val!r}")
            try:
                coerced[key] = float(val)
            except OverflowError:       # an integer literal beyond float range
                raise ConfigError(f"{key}: must be finite") from None
    cfg = ScenarioConfig(**coerced)
    cfg.validate()
    return cfg


def load_config(path: str | None = None, seed: int | None = None) -> ScenarioConfig:
    """Read a JSON config file (missing keys fall back to defaults)."""
    overrides: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
    if seed is not None:
        overrides["seed"] = seed
    return config_from_dict(overrides)


def config_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest of the full config, used to name run directories."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# -- static scenario -------------------------------------------------------


def drop_users(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Drop n_users uniformly; a seeded shuffle picks the priority subset.

    Returns the (n_users, 2) positions and the (n_users,) boolean priority
    mask, both in user order.
    """
    rng = rng_stream(cfg.seed, "users")
    xs = rng.uniform(cfg.x_min, cfg.x_max, cfg.n_users)
    ys = rng.uniform(cfg.y_min, cfg.y_max, cfg.n_users)
    order = rng.permutation(cfg.n_users)
    pr = np.zeros(cfg.n_users, dtype=bool)
    pr[order[: cfg.n_priority()]] = True
    return np.column_stack([xs, ys]), pr


def generate_candidates(cfg: ScenarioConfig) -> np.ndarray:
    """The (n_candidates, 2) candidate waypoints per cfg.candidate_rule.

    "grid": the largest s x s lattice with s = floor(sqrt(n_candidates)),
    cell-centered (half-cell margin); any remainder is filled uniformly at
    random. "uniform": all candidates drawn uniformly.
    """
    rng = rng_stream(cfg.seed, "candidates")
    n0 = cfg.n_candidates
    if cfg.candidate_rule == "grid":
        s = math.isqrt(n0)
        dx = (cfg.x_max - cfg.x_min) / s
        dy = (cfg.y_max - cfg.y_min) / s
        xs = cfg.x_min + dx * (0.5 + np.arange(s))
        ys = cfg.y_min + dy * (0.5 + np.arange(s))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        extra = n0 - s * s
    else:
        nodes = np.empty((0, 2))
        extra = n0
    if extra:
        rand = np.column_stack([
            rng.uniform(cfg.x_min, cfg.x_max, extra),
            rng.uniform(cfg.y_min, cfg.y_max, extra),
        ])
        nodes = np.vstack([nodes, rand])
    # exact duplicates would break nearest-centroid bookkeeping downstream.
    # Sorted stably by (x, y), each copy follows the first occurrence of its
    # point, so dup holds every later occurrence, ascending
    while True:
        order = np.lexsort((nodes[:, 1], nodes[:, 0]))
        ranked = nodes[order]
        dup = np.sort(order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)])
        if not dup.size:
            return nodes
        nodes[dup, 0] = rng.uniform(cfg.x_min, cfg.x_max, dup.size)
        nodes[dup, 1] = rng.uniform(cfg.y_min, cfg.y_max, dup.size)
