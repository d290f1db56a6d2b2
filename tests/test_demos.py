"""The narrated demos, run end to end.

A demo that calls a name the package no longer binds, or passes an
argument it no longer takes, fails here. Demo 04 (a reference training
run) and demo 05 (every method over several seeds) run on a tiny
scenario: ScenarioConfig's defaults are swapped for small ones.
"""

import functools
import runpy
from pathlib import Path

import pytest

from absim import scenario

DEMOS = Path(__file__).resolve().parent.parent / "demos"

TINY = dict(n_users=20, n_candidates=64, n_centroids=8, episodes=3,
            slots_per_episode=5, eval_episodes=2)


@pytest.mark.parametrize("name", ["01_channel_basics", "02_condense_compare",
                                  "03_annealing_trace"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["04_training_run", "05_method_comparison"])
def test_slow_demo_runs_at_tiny_size(name, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "ScenarioConfig",
                        functools.partial(scenario.ScenarioConfig, **TINY))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_training_demo_runs_on_a_flat_learning_curve(capsys, monkeypatch):
    # one episode: every learning-curve bin has the same reward
    monkeypatch.setattr(scenario, "ScenarioConfig",
                        functools.partial(scenario.ScenarioConfig, **{**TINY, "episodes": 1}))
    runpy.run_path(str(DEMOS / "04_training_run.py"), run_name="__main__")
    assert "#" * 45 in capsys.readouterr().out
