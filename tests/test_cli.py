"""Command line surface: artifacts, exit codes, determinism."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from absim import sim
from absim.cli import build_parser, main
from absim.scenario import ScenarioConfig


@pytest.fixture()
def tiny_config(tmp_path):
    """Config file shrunk far below defaults so CLI runs take milliseconds."""
    overrides = {
        "n_users": 20, "n_candidates": 64, "n_centroids": 8,
        "episodes": 4, "slots_per_episode": 8, "eval_episodes": 3,
        "anneal_i_max": 60,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def test_config_dump_defaults(capsys):
    # without --config, config prints the built-in defaults
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(ScenarioConfig().to_dict(), indent=2, sort_keys=True) + "\n"
    got = json.loads(out)
    assert got["n_uav"] == 3
    assert got["n_users"] == 100
    assert got["n_centroids"] == 33
    assert got["gamma_th_db"] == 5.0
    assert set(got) == {f.name for f in dataclasses.fields(ScenarioConfig)}


def test_config_resolves_file_and_seed(tiny_config, capsys):
    assert main(["config", "--config", tiny_config, "--seed", "9"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["n_users"] == 20 and got["seed"] == 9


def test_missing_config_file_is_usage_error(capsys):
    assert main(["config", "--config", "/does/not/exist.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_uavs": 3}')
    assert main(["train", "--config", str(bad)]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("field,literal", [
    ("p0_dbm", "NaN"), ("mu_pr", "Infinity"), ("x_max", "-Infinity"),
    ("gamma_th_db", "NaN"), ("v_max_mps", "Infinity"), ("alpha_q", "-Infinity"),
    pytest.param("p_max_dbm", "1" + "0" * 400, id="p_max_dbm-int-1e400"),
])
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, field, literal):
    # json reads NaN and +-Infinity, and an integer past float range would
    # become one; a non-finite value must not reach training
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"{field}": {literal}}}')
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert f"{field}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invalid_method_is_argparse_error(tiny_config):
    with pytest.raises(SystemExit) as exc:
        main(["condense", "--config", tiny_config, "--method", "pca"])
    assert exc.value.code == 2


def test_config_takes_no_out(tmp_path):
    # config writes nothing, so an --out would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["config", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_readme_usage_lines_list_each_subcommands_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    usage = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
             for line in block.splitlines() if line.startswith("absim ")}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(usage) == set(sub.choices)
    for name, parser in sub.choices.items():
        flags = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert usage[name] == flags - {"--help"}, name


def test_missing_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_condense_writes_graph_files(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["condense", "--config", tiny_config, "--method", "qa",
                 "--out", str(out)]) == 0
    assert "distortion=" in capsys.readouterr().out
    rows = (out / "centroids.csv").read_text().strip().split("\n")
    assert len(rows) == 8 + 1
    assert (out / "edges.csv").exists()
    timings = json.loads((out / "timings.json").read_text())
    assert timings["condense_s"] >= 0.0


def test_condense_qa_writes_anneal_trace(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["condense", "--config", tiny_config, "--method", "qa",
                 "--out", str(out)]) == 0
    lines = (out / "anneal_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,temperature,current,best,accepted"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows))) and rows
    best = [float(r[3]) for r in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert all(float(r[2]) >= float(r[3]) for r in rows)
    accepted = [int(r[4]) for r in rows]
    assert all(b >= a for a, b in zip(accepted, accepted[1:]))
    assert main(["condense", "--config", tiny_config, "--method", "kmeans",
                 "--out", str(tmp_path / "km")]) == 0
    assert not (tmp_path / "km" / "anneal_trace.csv").exists()


def test_condense_deterministic_across_invocations(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["condense", "--config", tiny_config, "--out", str(a)]) == 0
    assert main(["condense", "--config", tiny_config, "--out", str(b)]) == 0
    assert (a / "centroids.csv").read_bytes() == (b / "centroids.csv").read_bytes()
    assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()


def test_train_writes_full_artifact_set(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--method", "kmeans",
                 "--out", str(out)]) == 0
    assert "network=" in capsys.readouterr().out
    for name in ("centroids.csv", "edges.csv", "learning_curve.csv",
                 "outage.csv", "trajectory.csv", "qtable.csv",
                 "timings.json", "report.json"):
        assert (out / name).exists(), name
    rep = json.loads((out / "report.json").read_text())
    assert rep["method"] == "kmeans"
    assert len(rep["reward_curve"]) == 4
    assert "eval_time_s" not in rep
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"condense_s", "rl_s", "eval_s"}
    assert timings["eval_s"] > 0.0


def test_evaluate_requires_existing_snapshot(tiny_config, tmp_path, capsys):
    assert main(["evaluate", "--config", tiny_config, "--qtable",
                 str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_evaluate_rejects_directory_snapshot(tiny_config, tmp_path, capsys):
    assert main(["evaluate", "--config", tiny_config, "--qtable", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not a file" in capsys.readouterr().err


def test_evaluate_matches_training_eval(tiny_config, tmp_path, capsys):
    out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    out2 = tmp_path / "eval"
    assert main(["evaluate", "--config", tiny_config,
                 "--qtable", str(out / "qtable.csv"), "--out", str(out2)]) == 0
    ev = json.loads((out2 / "evaluation.json").read_text())
    assert ev["outage"] == rep["eval_outage"]              # byte-equal floats
    assert set(ev["audit"]) == set(rep["audit"])
    capsys.readouterr()



def test_stacked_evaluation_artifacts_equal_one_episode_at_a_time(tmp_path, monkeypatch,
                                                                  capsys):
    # random starts, and 7 evaluation episodes: one stack of 4, then one of 3
    cfg = tmp_path / "random.json"
    cfg.write_text(json.dumps({"n_users": 20, "n_candidates": 64, "n_centroids": 8,
                               "n_uav": 4, "uav_start": "random", "episodes": 3,
                               "slots_per_episode": 8, "eval_episodes": 7,
                               "anneal_i_max": 60}))

    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--out", str(out / "train")]) == 0
        assert main(["evaluate", "--config", str(cfg), "--qtable",
                     str(out / "train" / "qtable.csv"), "--out", str(out / "eval")]) == 0
        return [(out / d / f).read_bytes()
                for d, f in (("train", "report.json"), ("eval", "evaluation.json"))]

    stacked = run("stacked")
    monkeypatch.setattr(sim, "EVAL_ROWS", 1)
    assert run("serial") == stacked
    rep, ev = map(json.loads, stacked)
    assert ev["outage"] == rep["eval_outage"]
    assert ev["mean_rate_bps"] == rep["eval_mean_rate_bps"]
    capsys.readouterr()


def test_evaluate_rejects_mismatched_snapshot(tiny_config, tmp_path, capsys):
    out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"n_users": 20, "n_candidates": 64,
                                 "n_centroids": 6, "episodes": 2,
                                 "slots_per_episode": 4, "eval_episodes": 2,
                                 "anneal_i_max": 40}))
    assert main(["evaluate", "--config", str(other),
                 "--qtable", str(out / "qtable.csv"),
                 "--out", str(tmp_path / "o2")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


def test_evaluate_rejects_non_finite_snapshot(tiny_config, tmp_path, capsys):
    out = tmp_path / "train"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
    qtable = out / "qtable.csv"
    lines = qtable.read_text().strip().split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    qtable.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--config", tiny_config, "--qtable", str(qtable),
                 "--out", str(tmp_path / "o")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_row_count(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--mu", "20,40",
                 "--seeds", "1", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "mu_pr,seed,priority,regular,network"
    assert len(rows) == 3
    capsys.readouterr()


def test_sweep_rejects_bad_mu_list(tiny_config, capsys):
    for mu, why in [("a,b", "bad mu list"), (",", "mu list is empty")]:
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", tiny_config, "--mu", mu])
        assert exc.value.code == 2
        assert why in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["-5", "0", "nan", "inf", "20,-inf"])
def test_sweep_rejects_invalid_mu_value(tiny_config, tmp_path, capsys, mu):
    # each value becomes a config's mu_pr, which must be finite and positive
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, f"--mu={mu}", "--out", str(out)]) == 2
    assert "mu_pr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,seeds", [("compare", "0"), ("sweep", "-1"),
                                           ("compare", "two")])
def test_seeds_must_be_a_positive_integer(tiny_config, tmp_path, command, seeds):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", tiny_config, "--seeds", seeds,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_compare_writes_comparison_artifacts(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", tiny_config, "--seeds", "1",
                 "--out", str(out)]) == 0
    rows = (out / "outage.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 3 * 3              # 3 methods x 3 classes
    timings = json.loads((out / "timings.json").read_text())
    for m in ("qa", "kmeans", "snrp"):
        assert timings[m]["0"]["condense_s"] >= 0.0
        assert timings[m]["0"]["rl_s"] > 0.0
        assert timings[m]["0"]["eval_s"] > 0.0
    assert (out / "summary.md").exists()
    lc = (out / "learning_curves.csv").read_text().strip().split("\n")
    assert lc[0] == "method,seed,episode,reward,eps"
    assert len(lc) == 1 + 3 * 4                # 3 methods x 4 episodes
    capsys.readouterr()


def test_runtime_failure_exits_one(tiny_config, tmp_path, capsys):
    # the output directory is fine, but one artifact's path is a directory
    (tmp_path / "out" / "centroids.csv").mkdir(parents=True)
    assert main(["condense", "--config", tiny_config, "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"], ids=["file", "sub", "sub-deeper"])
def test_out_path_at_or_below_a_file_is_usage_error(tiny_config, tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["train", "--config", tiny_config, "--out", str(blocker / below)]) == 2
    assert "config error: output path" in capsys.readouterr().err
    assert blocker.read_text() == "x"
