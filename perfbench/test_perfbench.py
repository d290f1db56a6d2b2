"""The benchmark's own checks, at a tiny config.

    python3 -m pytest -q perfbench
"""

import json

import numpy
import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {m["name"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, scale=run.TINY)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == names("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["train-ref", "compare-short"])
def test_tracing_leaves_report_bytes_unchanged(workload):
    done = run.run(workload, seed=5, seconds=0, trace=True, scale=run.TINY)
    ops = done["manifest"]["ops"]
    assert len({op["digest"] for op in ops}) == 1
    assert done["result"]["correct"]
    assert set(done["result"]["metrics"]) == names("per_layer")
    assert done["manifest"]["absent"] == []


def test_tracer_restores_wrapped_functions():
    absim = run.import_absim()
    before = absim.sim.run_slot, absim.condense.accept
    tracer = run.Tracer()
    with tracer.installed(run.targets(tracer, absim)):
        assert absim.sim.run_slot is not before[0]
    assert (absim.sim.run_slot, absim.condense.accept) == before


def test_missing_function_is_reported_absent():
    absim = run.import_absim()
    tracer = run.Tracer()
    gone = [(absim.sim, "no_such_stage", "sim.no_such_stage", None)]
    with tracer.installed(run.targets(tracer, absim) + gone):
        pass
    assert tracer.absent == ["sim.no_such_stage"]
    assert not hasattr(absim.sim, "no_such_stage")


def test_self_time_excludes_children():
    tracer = run.Tracer()

    def inner():
        with tracer.span("inner"):
            sum(range(200_000))

    with tracer.span("outer"):
        inner()
        inner()
    calls, incl, self_s = tracer.stats["outer"]
    assert calls == 1 and tracer.stats["inner"][0] == 2
    assert self_s == pytest.approx(incl - tracer.stats["inner"][1])
    assert tracer.stack == []


def test_golden_mismatch_fails_every_operation(tmp_path, monkeypatch):
    absim = run.import_absim()
    cfg = run.make_config(absim, run.WORKLOADS["condense-wide"], 4, run.TINY)
    wrong = {absim.scenario.config_hash(cfg): {"seed": 4, "sha256": "0" * 64}}
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps({"numpy": numpy.__version__,
                                "digests": {"condense-wide": wrong}}))
    monkeypatch.setattr(run, "GOLDENS", path)
    done = run.run("condense-wide", seed=4, seconds=0, trace=False, scale=run.TINY)
    assert done["manifest"]["golden"] == "mismatch"
    result = done["result"]
    assert not result["correct"] and result["failed"] == result["attempted"]
