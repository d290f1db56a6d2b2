"""Uplink radio layer: power control, association, interference, outage.

Per slot, each user sets its transmit power open-loop against the path loss
of the ABS it was associated with in the previous slot, then associates to
the ABS with the strongest received power this slot. Interference at an ABS
is the total received power of users served elsewhere (single shared
channel, intra-cell users are orthogonal). Everything a slot reads is in
its link_tables, built once per world: each link's gain and capped power,
the noise power and the SINR threshold.

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
    return np.power(10.0, (p_dbm - 30.0) / 10.0)


def db_to_linear(x_db):
    return np.power(10.0, x_db / 10.0)


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
    """Per-world tables of every user-to-centroid link, (..., n_users, M),
    and the slot chain's two scalars."""

    loss_db: np.ndarray      # large-scale loss
    gain: np.ndarray         # linear gain 10^(-L/10), fading excluded
    power_w: np.ndarray      # capped open-loop transmit power toward the centroid
    noise_w: float
    gamma_lin: float         # linear SINR threshold of an outage


def link_tables(loss_db: np.ndarray, cfg: ScenarioConfig) -> LinkTables:
    """Gain and capped open-loop power, P0 + alpha L + 10 log10(n_rb) dBm, of
    every link in a loss table, built once per world: a slot gathers its fleet's
    columns, elementwise the same floats as converting the gathered losses."""
    loss = np.ascontiguousarray(loss_db, dtype=float)
    p_dbm = np.minimum(cfg.p_max_dbm, cfg.p0_dbm + cfg.alpha_ol * loss + 10.0 * np.log10(cfg.n_rb))
    return LinkTables(loss_db=loss, gain=db_to_linear(-loss), power_w=dbm_to_watt(p_dbm),
                      noise_w=dbm_to_watt(cfg.noise_dbm), gamma_lin=db_to_linear(cfg.gamma_th_db))


def rate_bps(sinr_lin, bandwidth_hz: float):
    """Shannon rate B log2(1 + SINR) in bit/s."""
    return bandwidth_hz * np.log2(1.0 + sinr_lin)


@lru_cache(maxsize=16)
def _flat_offsets(lead: tuple, n_users: int, m: int, n_uav: int):
    """Flat indices for np.take from C-contiguous arrays, at any leading
    (world) shape: per link, (..., n_users, n_uav), its row of an (...,
    n_users, M) table, its cell of an (..., n_uav) fleet and its (world,
    user); per user, its row of a link array. Read-only, as calls share them."""
    size = math.prod(lead) * n_users
    users = np.repeat(np.arange(size), n_uav).reshape(lead + (n_users, n_uav))
    rows = np.arange(0, size * n_uav, n_uav).reshape(lead + (n_users,))
    offsets = users * m, users // n_users * n_uav + np.arange(n_uav), users, rows
    for a in offsets:
        a.flags.writeable = False
    return offsets


def evaluate_slot(tables: LinkTables, fleet: np.ndarray, fading: np.ndarray,
                  prev_assoc: np.ndarray | None) -> LinkState:
    """Run the slot pipeline for all users at once.

    tables holds link_tables of shape (n_users, M) and fleet the (n_uav,)
    centroid of every ABS, or (S, n_users, M) and (S, n_uav) for S worlds
    in lockstep, with every world's float operations in the same order as a
    2-D call on its slice. The noise power and the SINR threshold come with
    the tables, so a slot reads no config. fading is (..., n_users, n_uav).
    prev_assoc is last slot's association; None (first slot) falls back to
    the strongest large-scale link, fading excluded. No step broadcasts over UAVs.
    """
    *lead, n_uav = fleet.shape
    n_users, m = tables.gain.shape[-2:]
    table_rows, fleet_cells, users, rows = _flat_offsets(tuple(lead), n_users, m, n_uav)
    links = table_rows + fleet.take(fleet_cells)    # each link's flat table entry
    if prev_assoc is None:
        serving_prev = np.argmin(tables.loss_db.take(links), axis=-1)
    else:
        serving_prev = prev_assoc
    p_w = tables.power_w.take(links.take(rows + serving_prev))   # toward that ABS's centroid now
    gains = tables.gain.take(links)
    gains *= fading
    rx = p_w.take(users)        # p_w[..., None] * gains, without the broadcast
    rx *= gains
    assoc = rx.argmax(axis=-1)    # strongest received power; ties go to the lowest index

    # inter-cell interference at ABS n: power arriving at n from users served
    # elsewhere; user-independent per ABS, so each user reads their cell.
    # rx (the call's own C-contiguous array) has its in-cell entries zeroed,
    # and bincount adds each (world, ABS) bin's users in order from +0.0, the
    # left-to-right sum of a 2-D call whatever the inputs' layout. Not
    # colsum-minus-own: its cancellation residue breaks an interference-free
    # cell's exact I = +0.0.
    own = rows + assoc
    sig = rx.take(own)
    rx.put(own, 0.0)
    interf = np.bincount(fleet_cells.ravel(), weights=rx.ravel()).take(fleet_cells.take(own))

    snr = sig / (tables.noise_w + interf)
    return LinkState(
        gains=gains,
        tx_power_w=p_w,
        serving_prev=serving_prev,
        assoc=assoc,
        interference_w=interf,
        sinr=snr,
        outage=snr < tables.gamma_lin,
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
