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
    """P_LoS(theta); an array of theta's shape. One float array is
    allocated, and each step after the first writes into it."""
    base = np.array(theta_deg, dtype=float)
    base -= cfg.plos_xi_deg
    base *= cfg.plos_b1
    lit = base > 0.0
    np.maximum(base, 0.0, out=base)
    np.power(base, cfg.plos_b2, out=base)
    np.copyto(base, 0.0, where=~lit)
    return np.clip(base, 0.0, 1.0, out=base)[()]      # a scalar for a scalar theta


def effective_path_loss_db(distance_m, theta_deg, cfg: ScenarioConfig):
    """LoS/NLoS-blended large-scale loss in dB; vectorized. It holds at most
    two arrays of the inputs' size at once, its output included."""
    excess = np.asarray(los_probability(theta_deg, cfg))
    nlos = 1.0 - excess
    excess *= 10.0 ** (cfg.kappa_los_db / 10.0)
    nlos *= 10.0 ** (cfg.kappa_nlos_db / 10.0)
    excess += nlos
    del nlos
    loss = np.array(distance_m, dtype=float)
    np.log10(loss, out=loss)
    loss *= 10.0 * cfg.path_alpha
    loss += 10.0 * np.log10(cfg.ref_loss_k0_value())
    np.log10(excess, out=excess)
    excess *= 10.0
    loss += excess
    return loss[()]


def sample_fading(rng: np.random.Generator, size=None, out=None):
    """Unit-mean exponential power fading |f|^2, into a C-contiguous out if
    given; the floats and final stream state of rng.exponential(1.0, size)."""
    return rng.standard_exponential(size, out=out)


def link_matrix(uav_xy: np.ndarray, users_xy: np.ndarray,
                cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n_users, n_uav) distances and large-scale losses for a whole slot."""
    d = sq_dist(users_xy, uav_xy)
    d += cfg.altitude_m ** 2
    np.sqrt(d, out=d)
    theta = np.divide(cfg.altitude_m, d)
    np.arcsin(theta, out=theta)
    np.degrees(theta, out=theta)
    return d, effective_path_loss_db(d, theta, cfg)
