"""Air-to-ground channel: geometry, LoS probability, blended loss, fading."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.channel import effective_path_loss_db, link_matrix, los_probability, sample_fading
from absim.condense import BLOCK
from absim.scenario import ScenarioConfig, drop_users, generate_candidates, rng_stream
from helpers import (WIDE, channel_gain, link_geometry, link_matrix_broadcast,
                     los_probability_out_of_place, mk_cfg, path_loss_db_out_of_place)

P = mk_cfg()


def test_geometry_overhead():
    g = link_geometry((0.0, 0.0, 100.0), (0.0, 0.0))
    assert g.distance_m == pytest.approx(100.0)
    assert g.theta_deg == pytest.approx(90.0)


def test_geometry_worked_example():
    g = link_geometry((500.0, 500.0, 100.0), (525.0, 525.0))
    want_d = math.sqrt(25 ** 2 + 25 ** 2 + 100 ** 2)
    assert g.distance_m == pytest.approx(want_d)
    assert g.distance_m == pytest.approx(106.066, abs=0.001)
    assert g.theta_deg == pytest.approx(math.degrees(math.asin(100 / want_d)))
    assert g.theta_deg == pytest.approx(70.53, abs=0.01)


def test_geometry_requires_positive_altitude():
    with pytest.raises(ValueError):
        link_geometry((0.0, 0.0, 0.0), (1.0, 1.0))


def test_los_probability_reference_points():
    assert los_probability(90.0, P) == 1.0          # raw 8.5, clamped
    assert los_probability(5.0, P) == 0.0           # zero base
    assert los_probability(7.0, P) == pytest.approx(0.2)
    assert los_probability(4.0, P) == 0.0           # negative base maps to 0


def test_los_probability_fractional_exponent():
    p2 = mk_cfg(plos_b2=2.0, kappa_los_db=0.0)
    assert los_probability(10.0, p2) == pytest.approx(0.25)
    assert los_probability(3.0, p2) == 0.0


def test_los_probability_vectorized():
    thetas = np.array([4.0, 7.0, 90.0])
    got = los_probability(thetas, P)
    assert got.shape == (3,)
    assert np.allclose(got, [0.0, 0.2, 1.0])


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.01, 90.0), b1=st.floats(0.001, 2.0),
       b2=st.floats(0.1, 5.0), xi=st.floats(0.0, 20.0))
def test_los_probability_stays_in_unit_interval(theta, b1, b2, xi):
    p = dataclasses.replace(P, plos_b1=b1, plos_b2=b2, plos_xi_deg=xi)
    prob = los_probability(theta, p)
    assert 0.0 <= prob <= 1.0


@settings(max_examples=200, deadline=None)
@given(theta=st.lists(st.floats(-10.0, 90.0), min_size=1, max_size=20),
       d=st.floats(1.0, 1e5), b1=st.floats(0.001, 2.0), b2=st.floats(0.0, 5.0),
       xi=st.floats(0.0, 20.0))
def test_in_place_los_and_loss_equal_the_out_of_place_forms(theta, d, b1, b2, xi):
    # b2 = 0 included: a zero base must still map to 0, not to 0 ** 0 = 1
    p = dataclasses.replace(P, plos_b1=b1, plos_b2=b2, plos_xi_deg=xi)
    theta = np.array(theta)
    before = theta.tobytes()
    got = (los_probability(theta, p), effective_path_loss_db(np.full(theta.shape, d), theta, p))
    want = (los_probability_out_of_place(theta, p),
            path_loss_db_out_of_place(np.full(theta.shape, d), theta, p))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert theta.tobytes() == before
    # scalars in, scalars out, as the out-of-place forms give
    scalars = (los_probability(theta[0], p), effective_path_loss_db(d, theta[0], p))
    assert all(isinstance(x, float) for x in scalars)
    assert scalars == (want[0][0], want[1][0])


def test_path_loss_pure_los_reference():
    # 100 m overhead-ish link with P_LoS = 1: reference + 40 dB + 1 dB excess
    loss = effective_path_loss_db(100.0, 90.0, P)
    assert loss == pytest.approx(10 * math.log10(P.ref_loss_k0_value()) + 40.0 + 1.0, abs=1e-9)
    assert loss == pytest.approx(79.46, abs=0.02)


def test_path_loss_pure_nlos_adds_20db():
    loss_los = effective_path_loss_db(100.0, 90.0, P)
    loss_nlos = effective_path_loss_db(100.0, 4.0, P)
    assert loss_nlos - loss_los == pytest.approx(19.0, abs=1e-6)  # 20 vs 1 dB excess


def test_path_loss_blend_excess():
    # theta = 7 deg: P_LoS = 0.2, excess = 10log10(0.2*10^0.1 + 0.8*100)
    loss = effective_path_loss_db(100.0, 7.0, P)
    excess = loss - 10 * math.log10(P.ref_loss_k0_value()) - 40.0
    assert excess == pytest.approx(19.05, abs=0.01)


def test_path_loss_monotone_in_distance_fixed_theta():
    d = np.linspace(50.0, 2000.0, 64)
    loss = effective_path_loss_db(d, 45.0, P)
    assert (np.diff(loss) > 0).all()


def test_path_loss_monotone_along_ground_range():
    # full link: distance grows and LoS decays together, loss keeps rising
    h = 100.0
    ground = np.linspace(1.0, 2500.0, 200)
    d = np.hypot(ground, h)
    theta = np.degrees(np.arcsin(h / d))
    loss = effective_path_loss_db(d, theta, P)
    assert (np.diff(loss) > 0).all()


def test_channel_gain_values():
    assert channel_gain(80.0, 1.0) == pytest.approx(1e-8)
    assert channel_gain(80.0, 0.0) == 0.0
    assert channel_gain(79.46, 2.0) == pytest.approx(2.266e-8, rel=1e-3)
    # linear in fading
    assert channel_gain(66.0, 3.0) == pytest.approx(3 * channel_gain(66.0, 1.0))


def test_fading_is_unit_mean_exponential():
    draws = sample_fading(rng_stream(0, "fading"), 1_000_000)
    assert draws.min() >= 0.0
    assert abs(draws.mean() - 1.0) <= 0.005
    assert abs((draws > math.log(2)).mean() - 0.5) <= 0.002   # exp(1) median


def test_fading_reproducible():
    a = sample_fading(rng_stream(3, "fading"), 10)
    b = sample_fading(rng_stream(3, "fading"), 10)
    assert np.array_equal(a, b)


def test_mean_gain_matches_large_scale():
    draws = sample_fading(rng_stream(1, "fading"), 1_000_000)
    mean_gain = channel_gain(92.0, draws).mean()
    assert mean_gain == pytest.approx(10 ** (-9.2), rel=0.01)


# each channel field moved off its default, and every value valid beside
# mk_cfg's others; users span pure LoS, the blend and pure NLoS at h = 100 m
CHANNEL_FIELDS = [("plos_b1", 0.05), ("plos_b2", 2.0), ("plos_xi_deg", 8.0),
                  ("path_alpha", 2.5), ("kappa_los_db", 3.0), ("kappa_nlos_db", 30.0),
                  ("carrier_hz", 5.8e9), ("ref_loss_k0", 1234.5)]


def scalar_loss_db(cfg, uav_xy, user_xy) -> float:
    """The module docstring's L_eff for one link, in scalar math."""
    g = link_geometry((*uav_xy, cfg.altitude_m), user_xy)
    base = cfg.plos_b1 * (g.theta_deg - cfg.plos_xi_deg)
    plos = min(base ** cfg.plos_b2, 1.0) if base > 0.0 else 0.0
    k0 = cfg.ref_loss_k0
    if k0 is None:
        k0 = (4.0 * math.pi * cfg.carrier_hz / 299792458.0) ** 2
    excess = plos * 10 ** (cfg.kappa_los_db / 10) + (1 - plos) * 10 ** (cfg.kappa_nlos_db / 10)
    return (10 * math.log10(k0) + 10 * cfg.path_alpha * math.log10(g.distance_m)
            + 10 * math.log10(excess))


@pytest.mark.parametrize("field, value", CHANNEL_FIELDS, ids=[f for f, _ in CHANNEL_FIELDS])
def test_link_matrix_follows_each_channel_field(field, value):
    uav_xy = np.array([[700.0, 700.0], [100.0, 1300.0]])
    ground = np.array([0.0, 150.0, 400.0, 600.0, 900.0, 1300.0])
    users_xy = np.column_stack([700.0 + ground, np.full(ground.size, 700.0)])
    cfg = mk_cfg(**{field: value})  # the rest as mk_cfg: ref_loss_k0=None
    _, loss = link_matrix(uav_xy, users_xy, cfg)
    _, base_loss = link_matrix(uav_xy, users_xy, mk_cfg())
    assert not np.allclose(loss, base_loss, rtol=1e-9, atol=0.0)
    for k, user in enumerate(users_xy):
        for n, uav in enumerate(uav_xy):
            assert loss[k, n] == pytest.approx(scalar_loss_db(cfg, uav, user), rel=1e-12)


def test_link_matrix_matches_scalar_path():
    cfg = mk_cfg()
    rng = np.random.default_rng(5)
    uav_xy = rng.uniform(0, cfg.x_max, (3, 2))
    users_xy = rng.uniform(0, cfg.x_max, (7, 2))
    d, loss = link_matrix(uav_xy, users_xy, cfg)
    assert d.shape == loss.shape == (7, 3)
    for k in range(7):
        for n in range(3):
            g = link_geometry((*uav_xy[n], cfg.altitude_m), users_xy[k])
            assert d[k, n] == pytest.approx(g.distance_m, rel=1e-12)
            want = effective_path_loss_db(g.distance_m, g.theta_deg, cfg)
            assert loss[k, n] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
def test_link_matrix_equals_broadcast_form_bit_for_bit(n):
    cfg = mk_cfg()
    rng = np.random.default_rng(n)
    uav_xy = rng.uniform(-cfg.x_max, 2 * cfg.x_max, (n, 2))
    users_xy = rng.uniform(0.0, cfg.x_max, (n, 2))
    users_xy[:1] = uav_xy[:1]       # one link straight overhead: planar distance 0
    for got, want in zip(link_matrix(uav_xy, users_xy, cfg),
                         link_matrix_broadcast(uav_xy, users_xy, cfg)):
        assert got.shape == (n, n)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [{}, WIDE], ids=["reference", "condense-wide"])
def test_link_matrix_equals_broadcast_form_on_the_benchmark_configs(size):
    cfg = dataclasses.replace(ScenarioConfig(), **size)
    nodes = generate_candidates(cfg)
    users_xy, _ = drop_users(cfg)
    for got, want in zip(link_matrix(nodes, users_xy, cfg),
                         link_matrix_broadcast(nodes, users_xy, cfg)):
        assert got.tobytes() == want.tobytes()
