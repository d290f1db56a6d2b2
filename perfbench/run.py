#!/usr/bin/env python3
"""absim benchmark: one workload per invocation, run as a closed loop.

    python3 perfbench/run.py --workload train-ref --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from ./src; there
is nothing to build. One caller runs the workload's operation back to back
(the next starts when the previous returns) for --seconds: an operation
starts only if it is expected to end within the window, and at least two
run so repeats can be compared byte for byte. With --trace 1 the second of
them is a traced operation, and the per-layer metrics are reported instead
of the end-to-end ones. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric that applies to the workload, and a manifest with machine,
versions, config hash and per-operation records is written to
.perfbench_out/<workload>/manifest.json. See perfbench/NOTES.md.
"""

import os

# BLAS pinned to one thread, before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_metrics, targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

MIN_OPS = 2            # repeats of one seed must give identical bytes;
                       # with --trace 1 the traced operation is the repeat
SETUP_PROBES = 5       # fresh processes timed per run; setup_s is their median
COMPARE_SEEDS = 3

# Small enough that the warm-up takes well under a second, large enough
# that every layer (all three condensers, the slot loop, the writers) runs.
TINY = dict(n_users=20, n_candidates=64, n_centroids=8, episodes=2,
            slots_per_episode=5, eval_episodes=1)

clock = time.perf_counter


def import_absim():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "absim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no absim package under {src}")
    sys.path.insert(0, str(src))
    import absim
    import absim.condense
    import absim.rl
    import absim.scenario
    import absim.sim
    if Path(absim.__file__).resolve().parent != src / "absim":
        raise SystemExit(f"perfbench: absim imported from {absim.__file__}, not {src}")
    return absim


def no_span(_name):
    return nullcontext()


@dataclasses.dataclass
class Op:
    """Timings and output checks of one workload operation."""

    digest: str                  # sha256 of the deterministic output bytes
    problems: list               # failed output checks
    n_train: int = 0             # train() calls in the operation
    slots: int = 0               # simulated slots, training and evaluation
    eval_and_setup_s: list = dataclasses.field(default_factory=list)
    condense_s: dict = dataclasses.field(default_factory=dict)   # method -> [s]
    outage: dict = dataclasses.field(default_factory=dict)
    wall_s: float = 0.0          # compute plus one writer pass
    compute_s: float = 0.0       # the calls into the package
    io_s: float = 0.0            # the writer pass


def report_problems(rep) -> list:
    """Audit counters must be 0 and every outage fraction in [0, 1]."""
    problems = [f"audit {k}={v}" for k, v in sorted(rep.audit.items()) if v]
    fracs = (list(rep.eval_outage.values()) + rep.train_outage_network
             + rep.train_outage_priority + rep.train_outage_regular)
    if not all(0.0 <= f <= 1.0 for f in fracs):
        problems.append(f"{rep.method} seed {rep.seed}: outage fraction outside [0, 1]")
    return problems


def graph_problems(graph, cfg) -> list:
    """M centroids, joined by the edges into one connected component."""
    m = len(graph.centroids)
    problems = [] if m == cfg.n_centroids else [
        f"{graph.method}: {m} centroids, expected {cfg.n_centroids}"]
    adjacent = [[] for _ in range(m)]
    for i, j, _ in graph.edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen, todo = {0}, [0]
    while todo:
        for j in adjacent[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    if len(seen) != m:
        problems.append(f"{graph.method}: graph has more than one component")
    return problems


def slots_per_run(cfg) -> int:
    return (cfg.episodes + cfg.eval_episodes) * cfg.slots_per_episode


def train_ref(absim, cfg):
    return absim.sim.train(cfg, "qa")


def write_train(absim, res, out: Path) -> None:
    """What `absim train` writes."""
    sim, rep, graph = absim.sim, res.report, res.world.graph
    sim.write_centroids_csv(out / "centroids.csv", graph)
    sim.write_edges_csv(out / "edges.csv", graph)
    sim.write_learning_curve_csv(out / "learning_curve.csv", rep)
    sim.write_outage_csv(out / "outage.csv", [rep])
    sim.write_trajectory_csv(out / "trajectory.csv", rep)
    absim.rl.export_qtables(out / "qtable.csv", res.qtables, graph)
    sim.write_timings_json(out / "timings.json",
                           {"condense_s": rep.condense_time_s, "rl_s": rep.rl_time_s})
    sim.write_report_json(out / "report.json", rep)


def check_train(absim, res, cfg, out: Path, compute_s: float) -> Op:
    rep = res.report
    return Op(digest=hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
              problems=report_problems(rep), n_train=1, slots=slots_per_run(cfg),
              eval_and_setup_s=[compute_s - rep.condense_time_s - rep.rl_time_s],
              condense_s={"qa": [rep.condense_time_s]}, outage=dict(rep.eval_outage))


def condense_wide(absim, cfg):
    """build_world per method, timed as `absim condense` times it."""
    built = {}
    for method in absim.sim.METHODS:
        t0 = clock()
        world, condense_time = absim.sim.build_world(cfg, method)
        built[method] = (world.graph, condense_time, clock() - t0)
    return built


def write_condense(absim, built, out: Path) -> None:
    """What `absim condense` writes, once per method."""
    sim = absim.sim
    for method, (graph, condense_time, total) in built.items():
        sim.write_centroids_csv(out / method / "centroids.csv", graph)
        sim.write_edges_csv(out / method / "edges.csv", graph)
        sim.write_timings_json(out / method / "timings.json",
                               {"condense_s": condense_time, "total_s": total})


def check_condense(absim, built, cfg, out: Path, compute_s: float) -> Op:
    h = hashlib.sha256()
    problems = []
    for method, (graph, _, _) in built.items():
        h.update((out / method / "centroids.csv").read_bytes())
        h.update((out / method / "edges.csv").read_bytes())
        problems += graph_problems(graph, cfg)
    return Op(digest=h.hexdigest(), problems=problems,
              condense_s={m: [b[1]] for m, b in built.items()})


def compare_short(absim, cfg):
    return absim.sim.compare_methods(cfg, n_seeds=COMPARE_SEEDS)


def write_compare(absim, results, out: Path) -> None:
    """What `absim compare` writes."""
    sim = absim.sim
    reports = [res.report for m in sim.METHODS for res in results[m]]
    sim.write_outage_csv(out / "outage.csv", reports)
    sim.write_compare_learning_curves_csv(out / "learning_curves.csv", reports)
    timings = {m: {str(res.report.seed): {"condense_s": res.report.condense_time_s,
                                          "rl_s": res.report.rl_time_s}
                   for res in results[m]} for m in sim.METHODS}
    sim.write_timings_json(out / "timings.json", timings)
    sim.write_summary_md(out / "summary.md", reports)


def check_compare(absim, results, cfg, out: Path, compute_s: float) -> Op:
    # `absim compare` writes no report.json; each run's is written here to check it
    sim = absim.sim
    reports = [res.report for m in sim.METHODS for res in results[m]]
    h = hashlib.sha256()
    problems, condense_s = [], {}
    for rep in reports:
        path = out / "reports" / f"{rep.method}-{rep.seed}.json"
        sim.write_report_json(path, rep)
        h.update(path.read_bytes())
        problems += report_problems(rep)
        condense_s.setdefault(rep.method, []).append(rep.condense_time_s)
    n = len(reports)
    return Op(digest=h.hexdigest(), problems=problems, n_train=n,
              slots=n * slots_per_run(cfg), condense_s=condense_s,
              outage={cls: sum(r.eval_outage[cls] for r in reports) / n
                      for cls in ("network", "priority")})


@dataclasses.dataclass(frozen=True)
class Workload:
    """A config plus the package calls, writers and checks of one operation."""

    name: str
    overrides: dict        # ScenarioConfig fields on top of the defaults
    compute: object        # (absim, cfg) -> state; the timed calls into absim
    write: object          # (absim, state, out) -> None; the CLI's writers
    check: object          # (absim, state, cfg, out, compute_s) -> Op
    subdirs: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("train-ref", {}, train_ref, write_train, check_train),
    Workload("condense-wide",
             dict(x_max=2800.0, y_max=2800.0, n_candidates=3600, n_centroids=120),
             condense_wide, write_condense, check_condense,
             subdirs=("qa", "kmeans", "snrp")),
    Workload("compare-short", dict(episodes=30, eval_episodes=10),
             compare_short, write_compare, check_compare, subdirs=("reports",)),
)}


def make_config(absim, wl: Workload, seed: int, scale: dict | None = None):
    """The workload's validated ScenarioConfig for this seed."""
    return absim.scenario.config_from_dict({**wl.overrides, **(scale or {}), "seed": seed})


def out_dir(*parts) -> Path:
    d = OUT.joinpath(*parts)
    d.mkdir(parents=True, exist_ok=True)
    return d


def run_op(absim, wl: Workload, cfg, out: Path, span=no_span) -> Op:
    """Compute, write, check; only the first two are timed."""
    for sub in ("",) + wl.subdirs:
        (out / sub).mkdir(parents=True, exist_ok=True)
    t0 = clock()
    state = wl.compute(absim, cfg)
    t1 = clock()
    with span("sim.writers"):
        wl.write(absim, state, out)
    t2 = clock()
    op = wl.check(absim, state, cfg, out, t1 - t0)
    op.wall_s, op.compute_s, op.io_s = t2 - t0, t1 - t0, t2 - t1
    return op


def warm_up(absim, seed: int, out: Path, span=no_span) -> None:
    """Every workload's operation once at a tiny config."""
    for wl in WORKLOADS.values():
        run_op(absim, wl, make_config(absim, wl, seed, TINY), out / wl.name, span)


def setup_probe_s(workload: str, seed: int) -> float:
    """Fresh process start to ready: imports, config validation, warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = clock() - t0
        proc.stdout.read()
        code = proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def calibration_s() -> float:
    """A fixed pure-Python loop: a diagnostic of machine speed, not a metric."""
    t0 = clock()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return clock() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
    }


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def golden_status(workload: str, cfg_hash: str, digest: str, numpy_version: str) -> str:
    """'match', 'mismatch', 'unverified (...)' or 'no golden for this config'.

    Goldens are keyed by config hash, which covers the seed. Transcendental
    ufuncs may change between numpy releases, so a golden only binds under
    the numpy version it was recorded with.
    """
    goldens = load_goldens()
    known = goldens.get("digests", {}).get(workload, {})
    if cfg_hash not in known:
        return "no golden for this config"
    if goldens.get("numpy") != numpy_version:
        return f"unverified (goldens from numpy {goldens.get('numpy')})"
    return "match" if known[cfg_hash]["sha256"] == digest else "mismatch"


def median_of(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def end_to_end(ops: list, setup: list) -> dict:
    """Metrics every workload has; the JSON line reports these with --trace 0.

    A traced run times no set-up probes, so it has no setup_s.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": (median_of(o.wall_s for o in ops), "s")}
    if setup:
        out["setup_s"] = (median_of(setup), "s")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


def more_metrics(ops: list, failed_frac: float) -> dict:
    """Printed and kept in the manifest, not in the JSON line: io_s swings
    too much here to gate, and the rest apply to some workloads only."""
    out = {"io_s": (median_of(o.io_s for o in ops), "s")}
    if ops[0].n_train:
        out["train_s"] = (median_of(o.compute_s / o.n_train for o in ops), "s")
        out["slots_per_s"] = (median_of(o.slots / o.compute_s for o in ops), "1/s")
    # train() time outside condensation and learning: greedy evaluation plus
    # building the users, candidates, action spaces and the report
    evals = [t for o in ops for t in o.eval_and_setup_s]
    if evals:
        out["eval_and_setup_s"] = (median_of(evals), "s")
    for method in ("qa", "kmeans", "snrp"):
        samples = [t for o in ops for t in o.condense_s.get(method, [])]
        if samples:
            out[f"condense_{method}_s"] = (median_of(samples), "s")
    out["failed_frac"] = (failed_frac, "ratio")
    if ops[0].outage:
        out["eval_outage_network"] = (ops[0].outage["network"], "fraction")
        out["eval_outage_priority"] = (ops[0].outage["priority"], "fraction")
    return out


def closed_loop(absim, wl: Workload, cfg, out: Path, seconds: float, reserve: int) -> list:
    """Operations back to back while the next is expected to end in the window.

    The next operation is expected to take as long as the last one, and
    `reserve` more of that length are kept free at the end of the window.
    """
    ops = []
    t_start = clock()
    while (len(ops) < MIN_OPS - reserve
           or clock() - t_start + (1 + reserve) * ops[-1].wall_s <= seconds):
        ops.append(run_op(absim, wl, cfg, out))
    return ops


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: dict | None = None) -> dict:
    """One benchmark run; returns the result object and the manifest."""
    absim = import_absim()
    wl = WORKLOADS[workload]
    cfg = make_config(absim, wl, seed, scale)
    env = environment()
    warm_up(absim, seed, out_dir(workload, "warmup"))
    setup = [] if trace else [setup_probe_s(workload, seed) for _ in range(SETUP_PROBES)]

    out = out_dir(workload, "run")
    calibration = [calibration_s()]
    ops = closed_loop(absim, wl, cfg, out, seconds, reserve=int(trace))
    calibration.append(calibration_s())

    layers, traced, absent = {}, None, []
    if trace:
        tracer = Tracer()
        with tracer.installed(targets(tracer, absim)):
            warm_up(absim, seed, out_dir(workload, "warmup-traced"), tracer.span)
            traced = run_op(absim, wl, cfg, out_dir(workload, "traced"), tracer.span)
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = (traced.wall_s - median_of(o.wall_s for o in ops), "s")
        absent = tracer.absent

    cfg_hash = absim.scenario.config_hash(cfg)
    golden = golden_status(workload, cfg_hash, ops[0].digest, env["numpy"])
    all_ops = ops + ([traced] if traced else [])
    failed = 0
    for op in all_ops:
        if op.digest != ops[0].digest:
            op.problems.append("output bytes differ from the first repeat")
        if golden == "mismatch":
            op.problems.append("output bytes differ from the committed golden")
        failed += bool(op.problems)

    e2e = end_to_end(ops, setup)
    extra = more_metrics(ops, failed / len(all_ops))
    reported = layers if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "config_hash": cfg_hash, "config": cfg.to_dict(),
        **env,
        "calibration_s": calibration,
        "golden": golden,
        "absent": absent,
        "ops": [dataclasses.asdict(o) for o in all_ops],
        "end_to_end": e2e, "workload_metrics": extra, "per_layer": layers,
        "result": result,
    }
    return {"result": result, "manifest": manifest}


def print_report(manifest: dict) -> None:
    m = manifest
    print(f"perfbench {m['workload']} seed={m['seed']} ops={len(m['ops'])} "
          f"golden={m['golden']} config={m['config_hash']} numpy={m['numpy']} "
          f"calibration_s={m['calibration_s'][0]:.4f},{m['calibration_s'][1]:.4f}")
    for section in ("end_to_end", "workload_metrics", "per_layer"):
        for name, (value, unit) in m[section].items():
            mark = "  (absent)" if name.rsplit(".", 1)[0] in m["absent"] else ""
            print(f"  {name:<34} {value:>16.6g} {unit}{mark}")
    for i, op in enumerate(m["ops"]):
        for problem in op["problems"]:
            print(f"  op {i}: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_probe:
        absim = import_absim()
        make_config(absim, WORKLOADS[args.workload], args.seed)
        warm_up(absim, args.seed, out_dir(args.workload, "probe"))
        print("ready", flush=True)
        return 0

    done = run(args.workload, args.seed, args.seconds, bool(args.trace))
    manifest = done["manifest"]
    path = out_dir(args.workload) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    print_report(manifest)
    print(f"  manifest: {path.relative_to(ROOT)}")
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
