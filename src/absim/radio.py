"""Uplink radio layer: power control, association, interference, outage.

Per slot, each user sets its transmit power open-loop against the path loss
of the ABS it was associated with in the previous slot, then associates to
the ABS with the strongest received power this slot. Interference at an ABS
is the total received power of users served elsewhere (single shared
channel, intra-cell users are orthogonal).

A slot's outage is one count table, users by outcome, class and serving
ABS (outage_stats); outage_fractions reads [network, priority, regular]
off any stack of such tables, so an episode reduces all its slots at once.
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
    outage: np.ndarray       # (n_users,) bool, sinr below threshold


class LinkTables(NamedTuple):
    """Per-world tables of every user-to-centroid link, (..., n_users, M)."""

    loss_db: np.ndarray      # large-scale loss
    gain: np.ndarray         # linear gain 10^(-L/10), fading excluded
    power_w: np.ndarray      # capped open-loop transmit power toward the centroid


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


def tx_power_dbm(pl_serving_db, cfg: ScenarioConfig):
    """Open-loop power control, capped at p_max_dbm; vectorized."""
    pl = np.asarray(pl_serving_db, dtype=float)
    return np.minimum(cfg.p_max_dbm,
                      cfg.p0_dbm + cfg.alpha_ol * pl + radio_constants(cfg).rb_offset_db)


def link_tables(loss_db: np.ndarray, cfg: ScenarioConfig) -> LinkTables:
    """Gain and open-loop power of every link in a loss table, built once per
    world: a slot gathers its fleet's columns, elementwise the same floats as
    converting the gathered losses."""
    loss = np.ascontiguousarray(loss_db, dtype=float)
    return LinkTables(loss_db=loss, gain=db_to_linear(-loss),
                      power_w=dbm_to_watt(tx_power_dbm(loss, cfg)))


def associate(rx_power_w: np.ndarray) -> np.ndarray:
    """Strongest-received-power association; ties go to the lowest index."""
    return rx_power_w.argmax(axis=-1)


def rate_bps(sinr_lin, bandwidth_hz: float, out=None):
    """Shannon rate; with out, which may be sinr_lin itself, computed there."""
    log2 = np.log2(np.add(1.0, sinr_lin, out=out), out=out)
    return np.multiply(bandwidth_hz, log2, out=out)


@lru_cache(maxsize=16)
def _flat_offsets(lead: tuple, n_users: int, m: int, n_uav: int):
    """Flat offsets that turn per-row indices into gathers from C-contiguous
    arrays, at any leading (world) shape: each (world, user) row of an
    (..., n_users, M) table, of an (..., n_users, n_uav) link array, and
    each world's row of an (..., n_uav) array. Read-only, as they are
    shared between calls."""
    size = math.prod(lead) * n_users
    table_rows = np.arange(0, size * m, m).reshape(lead + (n_users, 1))
    rows = np.arange(0, size * n_uav, n_uav).reshape(lead + (n_users,))
    cells = np.arange(0, size // n_users * n_uav, n_uav).reshape(lead + (1,))
    for a in (table_rows, rows, cells):
        a.flags.writeable = False
    return table_rows, rows, cells


def evaluate_slot(tables: LinkTables, fleet: np.ndarray, fading: np.ndarray,
                  prev_assoc: np.ndarray | None, cfg: ScenarioConfig) -> LinkState:
    """Run the slot pipeline for all users at once.

    tables holds link_tables of shape (n_users, M) and fleet the (n_uav,)
    centroid of every ABS, or (S, n_users, M) and (S, n_uav) for S worlds
    in lockstep, with every world's float operations in the same order as a
    2-D call on its slice. fading is (..., n_users, n_uav). prev_assoc is
    last slot's association; None (first slot) falls back to the strongest
    large-scale link, fading excluded.
    """
    const = radio_constants(cfg)
    *lead, n_uav = fleet.shape
    n_users, m = tables.gain.shape[-2:]
    table_rows, rows, cells = _flat_offsets(tuple(lead), n_users, m, n_uav)
    links = table_rows + fleet[..., None, :]        # flat (..., n_users, n_uav) columns
    if prev_assoc is None:
        serving_prev = np.argmin(tables.loss_db.reshape(-1)[links], axis=-1)
    else:
        serving_prev = prev_assoc
    serving = fleet.reshape(-1)[cells + serving_prev]   # that ABS's centroid now
    p_w = tables.power_w.reshape(-1)[table_rows[..., 0] + serving]

    gains = tables.gain.reshape(-1)[links] * fading
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
        outage=snr < const.gamma_lin,
    )


def outage_keys(priority_mask: np.ndarray, n_uav: int) -> np.ndarray:
    """The static part of outage_stats' key per user: the class, plus a
    per-world offset when priority_mask has leading world axes."""
    lead = priority_mask.shape[:-1]
    worlds = np.arange(0, 4 * n_uav * math.prod(lead), 4 * n_uav).reshape(lead + (1,))
    return n_uav * priority_mask + worlds


def outage_stats(assoc: np.ndarray, outage: np.ndarray, keys: np.ndarray,
                 n_uav: int) -> np.ndarray:
    """(..., 2, 2, n_uav) user counts by [clear, outage][regular, priority][ABS].

    One bincount over an (outcome, class, ABS) key, whose class and world
    part is outage_keys(priority_mask, n_uav); outage_fractions and the
    per-UAV rewards both read this table.
    """
    lead = assoc.shape[:-1]
    n_keys = 4 * n_uav * math.prod(lead)
    key = assoc + 2 * n_uav * outage + keys
    return np.bincount(key.ravel(), minlength=n_keys).reshape(lead + (2, 2, n_uav))


def outage_fractions(counts: np.ndarray) -> np.ndarray:
    """(..., 3) outage fractions [network, priority, regular] of an
    outage_stats table, leading axes kept; an empty class counts as 0."""
    by_class = counts.sum(axis=-1)                  # (..., outcome, class)
    out = by_class[..., 1, :]
    users = by_class[..., 0, :] + out
    frac = np.divide(out, users, out=np.zeros(users.shape), where=users > 0)
    return np.stack([out.sum(axis=-1) / users.sum(axis=-1), frac[..., 1], frac[..., 0]],
                    axis=-1)
