"""Uplink radio layer: power control, association, interference, outage.

Per slot, each user sets its transmit power open-loop against the path loss
of the ABS it was associated with in the previous slot, then associates to
the ABS with the strongest received power this slot. Interference at an ABS
is the total received power of users served elsewhere (single shared
channel, intra-cell users are orthogonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scenario import ScenarioConfig


def dbm_to_watt(p_dbm):
    return np.power(10.0, (np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


def watt_to_dbm(p_w):
    return 10.0 * np.log10(np.asarray(p_w, dtype=float)) + 30.0


def db_to_linear(x_db):
    return np.power(10.0, np.asarray(x_db, dtype=float) / 10.0)


@dataclass
class LinkState:
    """All per-slot radio quantities, user-indexed arrays."""

    gains: np.ndarray        # (n_users, n_uav) linear gain incl. fading
    tx_power_w: np.ndarray   # (n_users,)
    serving_prev: np.ndarray  # (n_users,) ABS used for power control
    assoc: np.ndarray        # (n_users,) ABS serving this slot
    interference_w: np.ndarray  # (n_users,) inter-cell power at the serving ABS
    sinr: np.ndarray         # (n_users,) linear
    rate_bps: np.ndarray     # (n_users,)
    outage: np.ndarray       # (n_users,) bool, sinr below threshold


class RadioConstants(NamedTuple):
    """Scalars of the slot chain that depend on the configuration only."""

    noise_w: float
    gamma_lin: float
    rb_offset_db: float     # 10 log10(n_rb), the power-control bandwidth term
    p_max_w: float


@lru_cache(maxsize=64)
def _radio_constants(noise_dbm, gamma_th_db, n_rb, p_max_dbm) -> RadioConstants:
    return RadioConstants(noise_w=float(dbm_to_watt(noise_dbm)),
                          gamma_lin=float(db_to_linear(gamma_th_db)),
                          rb_offset_db=10.0 * np.log10(n_rb),
                          p_max_w=float(dbm_to_watt(p_max_dbm)))


def radio_constants(cfg: ScenarioConfig) -> RadioConstants:
    """Computed once per distinct value set, not once per slot."""
    return _radio_constants(cfg.noise_dbm, cfg.gamma_th_db, cfg.n_rb, cfg.p_max_dbm)


def _open_loop_dbm(pl: np.ndarray, cfg: ScenarioConfig, rb_offset_db) -> np.ndarray:
    return np.minimum(cfg.p_max_dbm, cfg.p0_dbm + cfg.alpha_ol * pl + rb_offset_db)


def tx_power_dbm(pl_serving_db, cfg: ScenarioConfig):
    """Open-loop power control, capped at p_max_dbm; vectorized."""
    p = _open_loop_dbm(np.asarray(pl_serving_db, dtype=float), cfg,
                       radio_constants(cfg).rb_offset_db)
    if np.isscalar(pl_serving_db):
        return float(p)
    return p


def associate(rx_power_w: np.ndarray) -> np.ndarray:
    """Strongest-received-power association; ties go to the lowest index."""
    return np.argmax(rx_power_w, axis=1)


def interference(i: int, state: LinkState) -> float:
    """Inter-cell interference seen by user i at its serving ABS [W]."""
    n = state.assoc[i]
    others = state.assoc != n
    return float((state.tx_power_w[others] * state.gains[others, n]).sum())


def sinr(i: int, state: LinkState, noise_w: float) -> float:
    n = state.assoc[i]
    sig = state.tx_power_w[i] * state.gains[i, n]
    return float(sig / (noise_w + state.interference_w[i]))


def rate_bps(sinr_lin, bandwidth_hz: float):
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr_lin, dtype=float))


def evaluate_slot(large_scale_db: np.ndarray, fading: np.ndarray,
                  prev_assoc: np.ndarray | None, cfg: ScenarioConfig) -> LinkState:
    """Run the slot pipeline for all users at once.

    prev_assoc is last slot's association; None (first slot) falls back to
    the strongest large-scale link, fading excluded.
    """
    const = radio_constants(cfg)
    n_users, n_uav = large_scale_db.shape
    rows = np.arange(n_users)
    if prev_assoc is None:
        serving_prev = np.argmin(large_scale_db, axis=1)
    else:
        serving_prev = prev_assoc
    p_w = dbm_to_watt(_open_loop_dbm(large_scale_db[rows, serving_prev], cfg,
                                     const.rb_offset_db))

    gains = db_to_linear(-large_scale_db) * fading
    rx = p_w[:, None] * gains                      # (n_users, n_uav)
    assoc = associate(rx)

    # inter-cell interference at ABS n: power arriving at n from users served
    # elsewhere; user-independent per ABS, so each user reads their column.
    # Masked sum, not colsum-minus-own: the subtraction leaves cancellation
    # residue that breaks the exact I = 0 case of an interference-free cell.
    sig = rx[rows, assoc]
    out_of_cell = assoc[:, None] != np.arange(n_uav)
    interf = np.where(out_of_cell, rx, 0.0).sum(axis=0)[assoc]

    snr = sig / (const.noise_w + interf)
    return LinkState(
        gains=gains,
        tx_power_w=p_w,
        serving_prev=serving_prev,
        assoc=assoc,
        interference_w=interf,
        sinr=snr,
        rate_bps=rate_bps(snr, cfg.bandwidth_hz),
        outage=snr < const.gamma_lin,
    )


@dataclass(frozen=True)
class OutageStats:
    """Outage fractions of one slot (or averaged over many)."""

    network: float        # fraction over all users
    priority: float       # fraction among priority users
    regular: float        # fraction among non-priority users
    counts: np.ndarray    # (2, 2, n_uav), see outage_counts

    @property
    def per_abs(self) -> np.ndarray:
        """(n_uav,) outage fraction among users served there; 0 if none."""
        served = self.counts.sum(axis=(0, 1))
        return np.divide(self.counts[1].sum(axis=0), served,
                         out=np.zeros(len(served)), where=served > 0)


def outage_counts(assoc: np.ndarray, outage: np.ndarray, priority_mask: np.ndarray,
                  n_uav: int) -> np.ndarray:
    """(2, 2, n_uav) user counts by [clear, outage][regular, priority][ABS].

    One bincount over an (outcome, class, ABS) key; outage_stats and the
    per-UAV rewards both read this table.
    """
    key = assoc + n_uav * (priority_mask + 2 * outage)
    return np.bincount(key, minlength=4 * n_uav).reshape(2, 2, n_uav)


def outage_stats(state: LinkState, priority_mask: np.ndarray, n_uav: int) -> OutageStats:
    """Class outage fractions; an empty class counts as 0."""
    counts = outage_counts(state.assoc, state.outage, priority_mask, n_uav)
    (nr_clear, pr_clear), (nr_out, pr_out) = counts.sum(axis=2).tolist()
    n_pr = pr_clear + pr_out
    n_nr = nr_clear + nr_out
    return OutageStats(
        network=(nr_out + pr_out) / (n_pr + n_nr),
        priority=pr_out / n_pr if n_pr else 0.0,
        regular=nr_out / n_nr if n_nr else 0.0,
        counts=counts,
    )
