"""Config validation, RNG stream discipline, and static scenario generation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.scenario import (ConfigError, ScenarioConfig, config_from_dict, config_hash,
                            drop_users, generate_candidates, load_config, rng_stream)
from helpers import mk_cfg


def test_rng_stream_reproducible():
    a = rng_stream(7, "fading").random(16)
    b = rng_stream(7, "fading").random(16)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_label_and_seed():
    base = rng_stream(7, "fading").random(16)
    assert not np.array_equal(base, rng_stream(7, "users").random(16))
    assert not np.array_equal(base, rng_stream(8, "fading").random(16))


def test_rng_stream_unknown_label():
    with pytest.raises(KeyError):
        rng_stream(0, "weather")


def test_default_config_is_valid():
    ScenarioConfig().validate()


@pytest.mark.parametrize("field,value", [
    ("n_uav", 0),
    ("n_users", 0),
    ("priority_fraction", 1.2),
    ("n_centroids", 2),            # below n_uav
    ("altitude_m", 10.0),          # below alt_min_m
    ("anneal_rho", 1.5),
    ("alpha_q", 0.0),
    ("zeta", 1.0),
    ("eps_decay", 0.0),
    ("alpha_ol", 1.5),
    ("candidate_rule", "hex"),
    ("uav_start", "corner"),
    ("seed", -1),
])
def test_validate_names_offending_field(field, value):
    cfg = dataclasses.replace(ScenarioConfig(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"n_uavs": 3})


@pytest.mark.parametrize("key,value", [
    ("episodes", True),
    ("episodes", 10.0),
    ("episodes", "10"),
    ("mu_pr", "forty"),
    ("mu_pr", True),
    ("candidate_rule", 3),
])
def test_config_from_dict_rejects_bad_types(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})


FIELD_KINDS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def test_every_field_has_a_kind_the_parser_knows():
    # config_from_dict reads each field's kind from its annotation string;
    # any other annotation (or a class, without postponed annotations) would
    # fall through to the number branch
    odd = {k: v for k, v in FIELD_KINDS.items()
           if v not in ("int", "float", "str", "float | None")}
    assert not odd


def _wrong_kind_cases():
    for key, kind in FIELD_KINDS.items():
        if kind == "str":
            yield key, 3, "expected string, got int"
            yield key, None, "expected string, got NoneType"
        elif kind == "int":
            yield key, True, "expected integer, got True"
            yield key, 1.5, "expected integer, got 1.5"
            yield key, None, "expected integer, got None"
        else:
            yield key, True, "expected number, got True"
            if kind == "float":
                yield key, None, "expected number, got None"


@pytest.mark.parametrize("key,value,message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]!r}") for case in _wrong_kind_cases()])
def test_config_from_dict_rejects_wrong_kind_by_annotation(key, value, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict({key: value})
    assert str(err.value) == f"{key}: {message}"


def test_config_from_dict_accepts_null_k0():
    assert config_from_dict({"ref_loss_k0": None}).ref_loss_k0 is None


def test_config_from_dict_coerces_ints_to_float_fields():
    cfg = config_from_dict({"mu_pr": 60})
    assert cfg.mu_pr == 60.0 and isinstance(cfg.mu_pr, float)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_users": 42, "gamma_th_db": 3.0}))
    cfg = load_config(str(path), seed=9)
    assert cfg.n_users == 42
    assert cfg.gamma_th_db == 3.0
    assert cfg.seed == 9
    # untouched keys keep their defaults
    assert cfg.n_uav == ScenarioConfig().n_uav


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="read"):
        load_config("/nonexistent/cfg.json")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path))


def test_config_hash_tracks_values():
    cfg = ScenarioConfig()
    assert config_hash(cfg) == config_hash(ScenarioConfig())
    import dataclasses
    assert config_hash(cfg) != config_hash(dataclasses.replace(cfg, seed=1))
    assert len(config_hash(cfg)) == 12


def test_n_priority_rounds():
    assert ScenarioConfig().n_priority() == 20
    assert mk_cfg(n_users=24).n_priority() == 5   # round(4.8)


def test_drop_users_counts_and_bounds():
    cfg = mk_cfg()
    xy, pr = drop_users(cfg)
    assert xy.shape == (cfg.n_users, 2) and pr.shape == (cfg.n_users,)
    assert pr.dtype == bool and pr.sum() == cfg.n_priority()
    assert ((cfg.x_min <= xy[:, 0]) & (xy[:, 0] <= cfg.x_max)).all()
    assert ((cfg.y_min <= xy[:, 1]) & (xy[:, 1] <= cfg.y_max)).all()


def test_drop_users_seeded():
    cfg = mk_cfg()
    a_xy, a_pr = drop_users(cfg)
    b_xy, b_pr = drop_users(cfg)
    c_xy, _ = drop_users(mk_cfg(seed=1))
    assert np.array_equal(a_xy, b_xy) and np.array_equal(a_pr, b_pr)
    assert not np.array_equal(a_xy, c_xy)


def test_grid_candidates_exact_square():
    cfg = mk_cfg(n_candidates=100)
    nodes = generate_candidates(cfg)
    assert nodes.shape == (100, 2)
    xs = np.unique(nodes[:, 0])
    assert len(xs) == 10
    dx = (cfg.x_max - cfg.x_min) / 10
    assert xs[0] == pytest.approx(cfg.x_min + dx / 2)   # cell-centered
    assert np.allclose(np.diff(xs), dx)


def test_grid_candidates_remainder_filled_randomly():
    cfg = mk_cfg(n_candidates=150)
    nodes = generate_candidates(cfg)
    assert nodes.shape == (150, 2)
    assert len(np.unique(nodes, axis=0)) == 150
    # 12x12 lattice plus 6 fill-ins
    xs = np.unique(np.round(nodes[:, 0], 9))
    assert len(xs) >= 12


def test_uniform_candidates():
    cfg = mk_cfg(candidate_rule="uniform", n_candidates=64)
    got = generate_candidates(cfg)
    assert got.shape == (64, 2)
    assert np.array_equal(got, generate_candidates(cfg))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n0=st.integers(5, 40),
       rule=st.sampled_from(["grid", "uniform"]))
def test_candidates_always_in_bounds_and_distinct(seed, n0, rule):
    cfg = mk_cfg(seed=seed, n_candidates=n0, n_centroids=3, candidate_rule=rule)
    nodes = generate_candidates(cfg)
    assert nodes.shape == (n0, 2)
    assert len(np.unique(nodes, axis=0)) == n0
    assert (nodes[:, 0] >= cfg.x_min).all() and (nodes[:, 0] <= cfg.x_max).all()
    assert (nodes[:, 1] >= cfg.y_min).all() and (nodes[:, 1] <= cfg.y_max).all()


def test_helpers_areas():
    cfg = mk_cfg()
    assert cfg.area_width() == cfg.x_max - cfg.x_min
    assert cfg.move_radius_m() == cfg.v_max_mps * cfg.delta_t_s
    k0 = cfg.ref_loss_k0_value()
    assert 10 * math.log10(k0) == pytest.approx(38.46, abs=0.02)
