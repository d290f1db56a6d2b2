"""A lockstep batch split by seed across forked processes: the split's
bytes equal one process's, seeds are balanced by rows, one seed never
forks, and a worker that fails or dies is an error in the caller, with no
process left behind and no caller code run twice."""

import dataclasses
import json
import os
import pickle
import signal
import time

import pytest

from absim import sim
from absim.cli import main
from absim.sim import METHODS, compare_methods, sweep_mu, train, train_lockstep, write_report_json
from helpers import in_parent_only, mk_cfg, usable_cores

# a compare at this size pipes back more than one pipe buffer (64 KiB) per child
LARGE = dict(slots_per_episode=120, n_centroids=20, episodes=3, eval_episodes=2)

# (seed, method, mu_pr) in shuffled order: seeds 5, 6 and 7 have 3, 2 and 1 rows
UNEVEN = [(6, "snrp", 60.0), (5, "qa", 15.0), (7, "kmeans", 30.0), (5, "snrp", 15.0),
          (6, "kmeans", 15.0), (5, "qa", 60.0)]


def _uneven_jobs(cfg):
    return [(dataclasses.replace(cfg, seed=s, mu_pr=mu), m) for s, m, mu in UNEVEN]


def _bytes(results, tmp_path) -> list:
    """Each result's report.json and Q-table bytes, in order."""
    out = []
    for k, res in enumerate(results):
        path = tmp_path / f"{k}.json"
        write_report_json(path, res.report)
        out.append((path.read_bytes(), res.qtables.tobytes()))
    return out


def _compare(cfg, tmp_path) -> list:
    runs = compare_methods(cfg, 3)
    return _bytes([res for m in METHODS for res in runs[m]], tmp_path)


def _sweep(cfg, tmp_path) -> list:
    jobs = [(dataclasses.replace(cfg, mu_pr=mu, seed=cfg.seed + i), "qa")
            for mu in (15.0, 60.0) for i in range(3)]
    return ([json.dumps(sweep_mu(cfg, [15.0, 60.0], n_seeds=3))]
            + _bytes(train_lockstep(jobs), tmp_path))


def _uneven(cfg, tmp_path) -> list:
    jobs = _uneven_jobs(cfg)
    results = train_lockstep(jobs)
    # results in job order, each holding its job's own config object again
    assert all(res.world.cfg is c for res, (c, _) in zip(results, jobs))
    return _bytes(results, tmp_path)


def _run(monkeypatch, tmp_path, cores: int, case) -> tuple:
    """case's bytes with `cores` usable cores, and the forks it made."""
    usable_cores(monkeypatch, cores)
    forks, fork = [], os.fork
    monkeypatch.setattr(sim.os, "fork", lambda: forks.append(1) or fork())
    with in_parent_only():
        got = case(mk_cfg(uav_start="random", seed=3, **LARGE), tmp_path)
    return got, len(forks)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("case", [_compare, _sweep, _uneven], ids=["compare", "sweep", "uneven"])
def test_split_equals_one_process(case, cores, monkeypatch, tmp_path):
    serial, forks = _run(monkeypatch, tmp_path, 1, case)
    assert forks == 0
    split, forks = _run(monkeypatch, tmp_path, cores, case)
    assert forks == (cores - 1) * (2 if case is _sweep else 1)     # sweep_mu, then its jobs
    assert split == serial


def test_children_pipe_back_more_than_a_pipe_buffer():
    # what _bytes' compare case sends from each child: one seed's 3 worlds
    cfg = mk_cfg(uav_start="random", seed=3, **LARGE)
    results = sim._train_batch([(cfg, m) for m in METHODS])
    payload = pickle.dumps([dataclasses.replace(res, world=dataclasses.replace(res.world, cfg=None))
                            for res in results])
    assert len(payload) > 2 ** 16


def test_child_with_no_reader_left_exits():
    # the child holds no read end of its own pipe: once the parent's is
    # closed, its write fails (EPIPE) and it exits 1; holding one, it would
    # block for good on this reply, larger than the pipe buffer
    cfg = mk_cfg(uav_start="random", seed=3, **LARGE)
    pid, fd = sim._fork_batch([(cfg, m) for m in METHODS])
    os.close(fd)
    with in_parent_only(30):
        status = os.waitpid(pid, 0)[1]
    assert os.waitstatus_to_exitcode(status) == 1


@pytest.mark.parametrize("cores,batches", [
    (2, [[[5, "qa", 15.0], [5, "snrp", 15.0], [5, "qa", 60.0]],
         [[6, "snrp", 60.0], [6, "kmeans", 15.0], [7, "kmeans", 30.0]]]),
    (3, [[[5, "qa", 15.0], [5, "snrp", 15.0], [5, "qa", 60.0]],
         [[6, "snrp", 60.0], [6, "kmeans", 15.0]], [[7, "kmeans", 30.0]]]),
    (8, [[[5, "qa", 15.0], [5, "snrp", 15.0], [5, "qa", 60.0]],
         [[6, "snrp", 60.0], [6, "kmeans", 15.0]], [[7, "kmeans", 30.0]]]),
])
def test_seeds_go_most_rows_first_to_the_batch_with_fewest(cores, batches, monkeypatch,
                                                           tmp_path):
    # every process records the batch it trains; this one trains the first
    usable_cores(monkeypatch, cores)
    real = sim._train_batch

    def recording(jobs):
        (tmp_path / f"{os.getpid()}.json").write_text(
            json.dumps([[c.seed, m, c.mu_pr] for c, m in jobs]))
        return real(jobs)

    monkeypatch.setattr(sim, "_train_batch", recording)
    with in_parent_only():
        train_lockstep(_uneven_jobs(mk_cfg(episodes=2, eval_episodes=1)))
    mine = json.loads((tmp_path / f"{os.getpid()}.json").read_text())
    others = sorted(json.loads(p.read_text()) for p in tmp_path.glob("*.json")
                    if p.stem != str(os.getpid()))
    assert [mine] + others == batches


def test_one_seed_or_one_row_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    usable_cores(monkeypatch, 4)
    monkeypatch.setattr(sim.os, "fork", no_fork)
    cfg = mk_cfg(episodes=2, eval_episodes=1)
    train(cfg, "qa")
    train_lockstep([(cfg, m) for m in METHODS])
    compare_methods(cfg, 1)
    sweep_mu(cfg, [15.0, 60.0])
    assert train_lockstep([]) == []


def _fail_in_children(monkeypatch, fail) -> None:
    """Make every forked child call fail() before it trains; this process
    trains as usual. A child inherits the patched sim._train_batch."""
    parent, real = os.getpid(), sim._train_batch

    def batch(jobs):
        if os.getpid() != parent:
            fail()
        return real(jobs)

    monkeypatch.setattr(sim, "_train_batch", batch)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_error_reaches_the_cli(monkeypatch, tmp_path, capsys):
    def boom():
        raise ValueError("boom")

    usable_cores(monkeypatch, 2)
    _fail_in_children(monkeypatch, boom)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(dict(n_users=20, n_candidates=64, n_centroids=8, episodes=2,
                                      slots_per_episode=5, eval_episodes=1)))
    with in_parent_only():
        code = main(["compare", "--config", str(config), "--seeds", "2",
                     "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, "error: boom\n")
    _no_child_left()


def _sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


def _system_exit():
    raise SystemExit(0)     # not an Exception: the child must still end itself


def _unpicklable_error():
    raise ValueError(x for x in ())     # the error itself cannot be sent


@pytest.mark.parametrize("fail,status", [(_sigkill, -signal.SIGKILL), (_system_exit, 1),
                                         (_unpicklable_error, 1)],
                         ids=["sigkill", "system-exit", "unpicklable-error"])
def test_worker_that_sends_nothing_raises_its_exit_status(fail, status, monkeypatch):
    usable_cores(monkeypatch, 2)
    _fail_in_children(monkeypatch, fail)
    t0 = time.perf_counter()
    with in_parent_only(), pytest.raises(
            RuntimeError, match=rf"^lockstep worker sent no results \(exit status {status}\)$"):
        compare_methods(mk_cfg(episodes=2, eval_episodes=1), 2)
    assert time.perf_counter() - t0 < 10.0
    _no_child_left()


def test_unpicklable_results_raise_the_pickling_error(monkeypatch):
    parent, real = os.getpid(), sim._train_batch

    def batch(jobs):
        results = real(jobs)
        if os.getpid() != parent:
            results[0].report.audit = (x for x in ())
        return results

    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(sim, "_train_batch", batch)
    with in_parent_only(), pytest.raises(TypeError, match="cannot pickle 'generator' object"):
        compare_methods(mk_cfg(episodes=2, eval_episodes=1), 2)
    _no_child_left()


def test_error_in_this_process_reaps_every_child_first(monkeypatch):
    parent, real = os.getpid(), sim._train_batch

    def batch(jobs):
        if os.getpid() == parent:
            raise ValueError("first batch")
        return real(jobs)

    usable_cores(monkeypatch, 3)
    monkeypatch.setattr(sim, "_train_batch", batch)
    with in_parent_only(), pytest.raises(ValueError, match="first batch"):
        compare_methods(mk_cfg(episodes=2, eval_episodes=1), 3)
    _no_child_left()
