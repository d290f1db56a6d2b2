"""Probabilistic LoS air-to-ground channel.

Large-scale loss on a UAV-user link blends LoS and NLoS excess attenuation
by the elevation-dependent LoS probability:

    theta   = (180/pi) * arcsin(h / d)
    P_LoS   = clamp([b1 * (theta - xi)]^b2, 0, 1)
    L_eff   = 10*log10(K0) + 10*alpha*log10(d)
              + 10*log10(P_LoS * kappa_LoS + (1 - P_LoS) * kappa_NLoS)

with kappa_* the linear excess-loss factors and K0 the reference loss at
1 m (free-space by default). The parameters are read from ScenarioConfig:
kappa_* from its dB fields kappa_los_db and kappa_nlos_db, K0 from
ref_loss_k0_value() and h from altitude_m. Small-scale fading is unit-mean
exponential power fading applied multiplicatively to the linear gain
10^(-L_eff/10). The planar part of d comes from sq_dist, absim's one
distance kernel, which condense and sim.Lockstep also use.
"""

from __future__ import annotations

import numpy as np

from .scenario import ScenarioConfig


def sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between 2-D points, dx*dx + dy*dy."""
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def los_probability(theta_deg, cfg: ScenarioConfig):
    """P_LoS(theta); an array of theta's shape."""
    base = cfg.plos_b1 * (np.asarray(theta_deg, dtype=float) - cfg.plos_xi_deg)
    prob = np.where(base > 0.0, np.power(np.maximum(base, 0.0), cfg.plos_b2), 0.0)
    return np.clip(prob, 0.0, 1.0)


def effective_path_loss_db(distance_m, theta_deg, cfg: ScenarioConfig):
    """LoS/NLoS-blended large-scale loss in dB; vectorized."""
    d = np.asarray(distance_m, dtype=float)
    plos = los_probability(theta_deg, cfg)
    excess = (plos * 10.0 ** (cfg.kappa_los_db / 10.0)
              + (1.0 - plos) * 10.0 ** (cfg.kappa_nlos_db / 10.0))
    return (10.0 * np.log10(cfg.ref_loss_k0_value()) + 10.0 * cfg.path_alpha * np.log10(d)
            + 10.0 * np.log10(excess))


def sample_fading(rng: np.random.Generator, size=None):
    """Unit-mean exponential power fading |f|^2."""
    return rng.exponential(1.0, size)


def link_matrix(uav_xy: np.ndarray, users_xy: np.ndarray,
                cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n_users, n_uav) distances and large-scale losses for a whole slot."""
    d = np.sqrt(sq_dist(users_xy, uav_xy) + cfg.altitude_m ** 2)
    theta = np.degrees(np.arcsin(cfg.altitude_m / d))
    return d, effective_path_loss_db(d, theta, cfg)
