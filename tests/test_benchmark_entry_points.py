"""The benchmark's view of the package, checked inside the tier-1 suite.

perfbench/run.py and perfbench/tracing.py are loaded by path, unedited. A
name the benchmark calls or traces that the package no longer binds shows
up here as an absent tracer target or a failed tiny operation.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def perfbench(monkeypatch):
    """(tracing, run, absim); run.py pins the BLAS variables on import, so
    they are put back afterwards, as is sys.path."""
    environ = dict(os.environ)
    monkeypatch.setattr(sys, "path", list(sys.path))
    tracing = _load(monkeypatch, "tracing")   # run.py imports it by this name
    run = _load(monkeypatch, "run")
    try:
        yield tracing, run, run.import_absim()
    finally:
        for var in run.BLAS_ENV:
            if var in environ:
                os.environ[var] = environ[var]
            else:
                os.environ.pop(var, None)


def test_every_traced_name_is_bound(perfbench):
    tracing, _, absim = perfbench
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(tracer, absim)):
        pass
    assert tracer.absent == []


def test_every_workload_runs_clean_at_tiny_size(perfbench, tmp_path):
    _, run, absim = perfbench
    for name, wl in run.WORKLOADS.items():
        cfg = run.make_config(absim, wl, 0, run.TINY)
        assert run.run_op(absim, wl, cfg, tmp_path / name).problems == [], name
