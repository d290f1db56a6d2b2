"""Uplink radio chain against hand values and a loop-level brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.channel import ChannelParams, link_matrix, sample_fading
from absim.radio import (LinkState, associate, db_to_linear, dbm_to_watt,
                         evaluate_slot, link_tables, outage_fractions, outage_keys, outage_stats,
                         rate_bps, tx_power_dbm)
from helpers import brute_force_slot, gathered_loss_slot, interference, mk_cfg, sinr


def test_dbm_watt_conversions():
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)


def test_open_loop_power_reference_point():
    cfg = mk_cfg(p0_dbm=-85.0, alpha_ol=0.8)
    assert tx_power_dbm(100.0, cfg) == pytest.approx(-5.0)
    assert tx_power_dbm(200.0, cfg) == pytest.approx(23.0)   # capped
    flat = mk_cfg(alpha_ol=0.0, p0_dbm=-20.0)
    assert tx_power_dbm(60.0, flat) == tx_power_dbm(160.0, flat) == -20.0


def test_open_loop_power_rb_offset_and_vector():
    cfg = mk_cfg(p0_dbm=-85.0, alpha_ol=0.8, n_rb=4)
    assert tx_power_dbm(100.0, cfg) == pytest.approx(-5.0 + 10 * np.log10(4))
    got = tx_power_dbm(np.array([100.0, 200.0]), mk_cfg(p0_dbm=-85.0, alpha_ol=0.8))
    assert np.allclose(got, [-5.0, 23.0])


def test_association_argmax_and_ties():
    rx = np.array([[1e-9, 3e-9, 2e-9],
                   [5e-9, 5e-9, 5e-9]])
    assert associate(rx).tolist() == [1, 0]   # ties to lowest index


def _state_2x2():
    # two users cross-assigned to two ABSs, per the hand example
    gains = np.array([[2e-9, 1e-12],
                      [1e-9, 4e-9]])
    return LinkState(gains=gains, tx_power_w=np.array([0.1, 0.1]),
                     serving_prev=np.array([0, 1]), assoc=np.array([0, 1]),
                     interference_w=np.zeros(2), sinr=np.zeros(2),
                     outage=np.zeros(2, dtype=bool))


def test_interference_hand_example():
    st = _state_2x2()
    assert interference(0, st) == pytest.approx(0.1 * 1e-9)   # 1e-10 W
    assert interference(1, st) == pytest.approx(0.1 * 1e-12)


def test_interference_single_cell_is_zero():
    st = _state_2x2()
    st.assoc[:] = 0
    assert interference(0, st) == 0.0
    assert interference(1, st) == 0.0


def test_sinr_reference_point():
    st = _state_2x2()
    st.tx_power_w[:] = [1e-11 / st.gains[0, 0], 0.0]
    st.interference_w[:] = 0.0
    assert sinr(0, st, noise_w=1e-12) == pytest.approx(10.0)


def test_rate_reference_points():
    assert rate_bps(1.0, 1e6) == pytest.approx(1e6)
    assert rate_bps(0.0, 1e6) == 0.0
    assert rate_bps(db_to_linear(5.0), 1e6) == pytest.approx(2.057e6, rel=1e-3)


def _random_instance(rng, cfg, n_users, n_uav):
    p = ChannelParams.from_config(cfg)
    uav_xy = rng.uniform(0, cfg.x_max, (n_uav, 2))
    users_xy = rng.uniform(0, cfg.x_max, (n_users, 2))
    _, loss = link_matrix(uav_xy, cfg.altitude_m, users_xy, p)
    fading = sample_fading(rng, (n_users, n_uav))
    return loss, fading


def test_slot_pipeline_equals_brute_force():
    cfg = mk_cfg()
    rng = np.random.default_rng(11)
    for trial in range(5):
        n_users = int(rng.integers(2, 11))
        n_uav = int(rng.integers(1, 4))
        loss, fading = _random_instance(rng, cfg, n_users, n_uav)
        prev = rng.integers(0, n_uav, n_users) if trial % 2 else None
        state = evaluate_slot(link_tables(loss, cfg), np.arange(n_uav), fading, prev, cfg)
        p_w, assoc, interf, snr, out = brute_force_slot(loss, fading, prev, cfg)
        assert np.array_equal(state.assoc, assoc)
        assert np.allclose(state.tx_power_w, p_w, rtol=1e-12, atol=0)
        assert np.allclose(state.interference_w, interf, rtol=1e-12, atol=1e-300)
        assert np.allclose(state.sinr, snr, rtol=1e-12, atol=0)
        assert np.array_equal(state.outage, out)


@settings(max_examples=100, deadline=None)
@given(n_worlds=st.integers(1, 4), n_users=st.integers(1, 40), n_uav=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), with_prev=st.booleans())
def test_batched_slot_equals_per_world_calls(n_worlds, n_users, n_uav, seed, with_prev):
    cfg = mk_cfg()
    rng = np.random.default_rng(seed)
    pairs = [_random_instance(rng, cfg, n_users, n_uav) for _ in range(n_worlds)]
    loss = np.stack([lo for lo, _ in pairs])
    fading = np.stack([fa for _, fa in pairs])
    prev = rng.integers(0, n_uav, (n_worlds, n_users)) if with_prev else None
    fleet = np.tile(np.arange(n_uav), (n_worlds, 1))
    # a users-contiguous layout too: summing users along a contiguous axis
    # would switch numpy to pairwise sums and change the interference bits
    swapped = [np.ascontiguousarray(a.swapaxes(1, 2)).swapaxes(1, 2) for a in (loss, fading)]
    for batched in (evaluate_slot(link_tables(loss, cfg), fleet, fading, prev, cfg),
                    evaluate_slot(link_tables(swapped[0], cfg), fleet, swapped[1], prev, cfg)):
        for k in range(n_worlds):
            solo = evaluate_slot(link_tables(loss[k], cfg), np.arange(n_uav), fading[k],
                                 None if prev is None else prev[k], cfg)
            for name in ("gains", "tx_power_w", "serving_prev", "assoc", "interference_w",
                         "sinr", "outage"):
                got, want = getattr(batched, name)[k], getattr(solo, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # and that order is user by user: each ABS's interference equals a
    # left-to-right sum over the users served elsewhere, bit for bit
    for k in range(n_worlds):
        p_w, gains, assoc = (batched.tx_power_w[k].tolist(), batched.gains[k].tolist(),
                             batched.assoc[k].tolist())
        for i, n in enumerate(assoc):
            want = sum(p_w[j] * gains[j][n] for j in range(n_users) if assoc[j] != n)
            assert batched.interference_w[k, i] == want


@settings(max_examples=100, deadline=None)
@given(n_worlds=st.sampled_from([1, 3]), n_users=st.integers(1, 30), m=st.integers(1, 8),
       n_uav=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), with_prev=st.booleans())
def test_table_gather_equals_loss_formula_and_brute_force(n_worlds, n_users, m, n_uav,
                                                          seed, with_prev):
    # fleets over M centroids, repeats included: two ABSs may share a waypoint
    cfg = mk_cfg()
    rng = np.random.default_rng(seed)
    loss = np.stack([_random_instance(rng, cfg, n_users, m)[0] for _ in range(n_worlds)])
    fleet = rng.integers(0, m, (n_worlds, n_uav))
    fading = sample_fading(rng, (n_worlds, n_users, n_uav))
    prev = rng.integers(0, n_uav, (n_worlds, n_users)) if with_prev else None
    state = evaluate_slot(link_tables(loss, cfg), fleet, fading, prev, cfg)
    for k in range(n_worlds):
        gathered = loss[k][:, fleet[k]]
        prev_k = None if prev is None else prev[k]
        got = (state.tx_power_w[k], state.gains[k], state.assoc[k],
               state.interference_w[k], state.sinr[k], state.outage[k])
        for name, g, want in zip(("tx_power_w", "gains", "assoc", "interference_w", "sinr",
                                  "outage"), got, gathered_loss_slot(gathered, fading[k],
                                                                     prev_k, cfg)):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), name
        p_w, assoc, interf, snr, out = brute_force_slot(gathered, fading[k], prev_k, cfg)
        assert np.array_equal(state.assoc[k], assoc)
        assert np.array_equal(state.outage[k], out)
        assert np.allclose(state.tx_power_w[k], p_w, rtol=1e-12, atol=0)
        assert np.allclose(state.interference_w[k], interf, rtol=1e-12, atol=1e-300)
        assert np.allclose(state.sinr[k], snr, rtol=1e-12, atol=0)


def test_first_slot_serves_strongest_large_scale():
    cfg = mk_cfg()
    loss = np.array([[90.0, 70.0]])          # ABS 1 is the stronger link
    fading = np.array([[50.0, 0.01]])        # fading would say otherwise
    state = evaluate_slot(link_tables(loss, cfg), np.arange(2), fading, None, cfg)
    assert state.serving_prev.tolist() == [1]


def test_power_cap_never_exceeded():
    cfg = mk_cfg()
    rng = np.random.default_rng(2)
    loss, fading = _random_instance(rng, cfg, 12, 3)
    state = evaluate_slot(link_tables(loss, cfg), np.arange(3), fading, None, cfg)
    assert state.tx_power_w.max() <= dbm_to_watt(cfg.p_max_dbm) * (1 + 1e-12)
    assert (state.sinr >= 0).all()
    assert np.array_equal(state.outage, state.sinr < db_to_linear(cfg.gamma_th_db))


def test_single_abs_is_noise_limited():
    cfg = mk_cfg()
    rng = np.random.default_rng(3)
    loss, fading = _random_instance(rng, cfg, 10, 1)
    state = evaluate_slot(link_tables(loss, cfg), np.arange(1), fading, None, cfg)
    assert np.all(state.interference_w == 0.0)
    noise_w = float(dbm_to_watt(cfg.noise_dbm))
    want = state.tx_power_w * state.gains[:, 0] / noise_w
    assert np.allclose(state.sinr, want, rtol=1e-12)


def test_sinr_invariant_under_joint_scaling():
    st = _state_2x2()
    st.interference_w[:] = [3e-13, 5e-13]
    base = sinr(0, st, noise_w=1e-12)
    st.tx_power_w *= 7.0
    st.interference_w *= 7.0
    assert sinr(0, st, noise_w=7e-12) == pytest.approx(base, rel=1e-12)


def test_association_partitions_users():
    cfg = mk_cfg()
    rng = np.random.default_rng(4)
    loss, fading = _random_instance(rng, cfg, 30, 3)
    state = evaluate_slot(link_tables(loss, cfg), np.arange(3), fading, None, cfg)
    assert np.bincount(state.assoc, minlength=3).sum() == 30


def test_outage_stats_hand_case():
    state = _state_2x2()
    state.outage[:] = [True, False]
    pr = np.array([True, True])
    counts = outage_stats(state.assoc, state.outage, outage_keys(pr, 3), n_uav=3)
    network, priority, regular = outage_fractions(counts)
    assert priority == pytest.approx(0.5)
    assert regular == 0.0                     # empty class counts as 0
    assert network == pytest.approx(0.5)


def test_outage_stats_all_clear():
    state = _state_2x2()
    counts = outage_stats(state.assoc, state.outage,
                          outage_keys(np.array([True, False]), 2), n_uav=2)
    assert outage_fractions(counts).tolist() == [0.0, 0.0, 0.0]


def test_outage_fractions_keep_leading_axes():
    # a stack of slots reads the same fractions as each slot alone
    state = _state_2x2()
    keys = outage_keys(np.array([True, False]), 2)
    slots = []
    for outage in ([False, False], [True, False], [True, True]):
        state.outage[:] = outage
        slots.append(outage_stats(state.assoc, state.outage, keys, n_uav=2))
    stacked = outage_fractions(np.stack(slots))
    assert stacked.shape == (3, 3)
    assert stacked.tolist() == [outage_fractions(c).tolist() for c in slots]
    assert stacked[2].tolist() == [1.0, 1.0, 1.0]
