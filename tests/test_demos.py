"""The quick narrated demos, run end to end.

A demo that calls a name the package no longer binds, or passes an
argument it no longer takes, fails here. Demo 04 (a reference training
run) and demo 05 (every method over several seeds) are too slow for
this suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_channel_basics", "02_condense_compare",
                                  "03_annealing_trace"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
