"""Uplink radio layer: power control, association, interference, outage.

Per slot, each user sets its transmit power open-loop against the path loss
of the ABS it was associated with in the previous slot, then associates to
the ABS with the strongest received power this slot. Interference at an ABS
is the total received power of users served elsewhere (single shared
channel, intra-cell users are orthogonal).
"""

from __future__ import annotations

import math
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
    """All per-slot radio quantities, user-indexed arrays (leading world
    axes under lockstep)."""

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
    return rx_power_w.argmax(axis=-1)


def rate_bps(sinr_lin, bandwidth_hz: float):
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr_lin, dtype=float))


@lru_cache(maxsize=16)
def _flat_offsets(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets of every user's row and every world's per-ABS row of a
    C-contiguous (..., n_users, n_uav) array: a gather at offset + index
    picks one entry per row at any batch shape. Read-only, as they are
    shared between calls."""
    n_users, n_uav = shape[-2:]
    size = math.prod(shape)
    rows = np.arange(0, size, n_uav).reshape(shape[:-1])
    cells = np.arange(0, size // n_users, n_uav).reshape(shape[:-2] + (1,))
    rows.flags.writeable = cells.flags.writeable = False
    return rows, cells


def evaluate_slot(large_scale_db: np.ndarray, fading: np.ndarray,
                  prev_assoc: np.ndarray | None, cfg: ScenarioConfig) -> LinkState:
    """Run the slot pipeline for all users at once.

    Arrays are (n_users, n_uav), or (S, n_users, n_uav) for S worlds in
    lockstep, with every world's float operations in the same order as a
    2-D call on its slice. prev_assoc is last slot's association; None
    (first slot) falls back to the strongest large-scale link, fading
    excluded.
    """
    const = radio_constants(cfg)
    n_uav = large_scale_db.shape[-1]
    rows, cells = _flat_offsets(large_scale_db.shape)
    if prev_assoc is None:
        serving_prev = np.argmin(large_scale_db, axis=-1)
    else:
        serving_prev = prev_assoc
    p_w = dbm_to_watt(_open_loop_dbm(large_scale_db.reshape(-1)[rows + serving_prev],
                                     cfg, const.rb_offset_db))

    gains = db_to_linear(-large_scale_db) * fading
    rx = p_w[..., None] * gains                     # (..., n_users, n_uav)
    assoc = associate(rx)

    # inter-cell interference at ABS n: power arriving at n from users served
    # elsewhere; user-independent per ABS, so each user reads their column.
    # Masked sum, not colsum-minus-own: the subtraction leaves cancellation
    # residue that breaks the exact I = 0 case of an interference-free cell.
    # The masked array takes in_cell's C layout whatever the inputs' layout,
    # so the users axis is summed one row at a time, as in a 2-D call; summing
    # a users-contiguous layout would switch numpy to pairwise sums.
    own = rows + assoc
    sig = rx.reshape(-1)[own]
    in_cell = np.zeros(rx.shape, dtype=bool)
    in_cell.reshape(-1)[own] = True
    interf = np.where(in_cell, 0.0, rx).sum(axis=-2).reshape(-1)[cells + assoc]

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
    """Outage of one slot as user counts; fractions are computed on access.

    An empty class counts as 0. With leading axes on counts (worlds, or the
    slots of an episode) every fraction carries them too, so an episode
    reads the fractions of all its slots in one pass.
    """

    counts: np.ndarray    # (..., 2, 2, n_uav), see outage_counts

    def _by_class(self):
        """(outages, users, outage fraction) per class, [regular, priority]."""
        by_class = self.counts.sum(axis=-1)             # (..., outcome, class)
        out = by_class[..., 1, :]
        users = by_class[..., 0, :] + out
        return out, users, np.divide(out, users, out=np.zeros(users.shape),
                                     where=users > 0)

    @property
    def network(self):
        """Fraction over all users."""
        out, users, _ = self._by_class()
        return out.sum(axis=-1) / users.sum(axis=-1)

    @property
    def priority(self):
        """Fraction among priority users."""
        return self._by_class()[2][..., 1]

    @property
    def regular(self):
        """Fraction among non-priority users."""
        return self._by_class()[2][..., 0]

    @property
    def per_abs(self) -> np.ndarray:
        """(..., n_uav) outage fraction among users served there; 0 if none."""
        served = self.counts.sum(axis=(-3, -2))
        return np.divide(self.counts[..., 1, :, :].sum(axis=-2), served,
                         out=np.zeros(served.shape), where=served > 0)


def outage_counts(assoc: np.ndarray, outage: np.ndarray, priority_mask: np.ndarray,
                  n_uav: int) -> np.ndarray:
    """(..., 2, 2, n_uav) user counts by [clear, outage][regular, priority][ABS].

    One bincount over an (outcome, class, ABS) key, offset per world when
    assoc has leading world axes; outage_stats and the per-UAV rewards both
    read this table.
    """
    lead = assoc.shape[:-1]
    n_keys = 4 * n_uav * math.prod(lead)
    key = assoc + n_uav * (priority_mask + 2 * outage)
    if lead:
        key = key + np.arange(0, n_keys, 4 * n_uav).reshape(lead + (1,))
    return np.bincount(key.ravel(), minlength=n_keys).reshape(lead + (2, 2, n_uav))


def outage_stats(state: LinkState, priority_mask: np.ndarray, n_uav: int) -> OutageStats:
    """Outage counts of a slot's users by class and serving ABS."""
    return OutageStats(outage_counts(state.assoc, state.outage, priority_mask, n_uav))
