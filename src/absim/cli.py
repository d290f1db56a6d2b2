"""Command line front end.

Subcommands: condense, train, evaluate, sweep and compare, which take --out
DIR, and config, which writes nothing and takes no --out.
Exit codes: 0 success, 2 usage or configuration errors (argparse failures,
bad or non-finite config values, a --qtable that is not a file or does not
match the config, an output path that is a file or lies below one), 1
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .scenario import ConfigError, load_config
from .sim import (METHODS, build_world, compare_methods, evaluate_policy, run_dir, sweep_mu,
                  train, write_compare_run, write_condense_run, write_json, write_sweep_csv,
                  write_train_run)
from .rl import load_qtables


def _mu_list(text: str) -> list:
    try:
        vals = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mu list: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("mu list is empty")
    return vals


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="absim",
        description="Condensed-graph trajectory learning for UAV base stations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, method=True, out=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if out:
            p.add_argument("--out", default=None, help="output directory")
        if method:
            p.add_argument("--method", choices=METHODS, default="qa")

    p = sub.add_parser("condense", help="condense candidates and export the graph")
    common(p)
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("train", help="condense, learn, evaluate, write reports")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="greedy evaluation of a saved Q-table")
    common(p)
    p.add_argument("--qtable", required=True, help="qtable.csv from a train run")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="re-train over priority weight values")
    common(p)
    p.add_argument("--mu", type=_mu_list, default=[15.0, 30.0, 45.0, 60.0, 80.0],
                   help="comma-separated mu_pr values")
    p.add_argument("--seeds", type=_positive_int, default=1, help="seeds per value")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="train all methods over several seeds")
    common(p, method=False)
    p.add_argument("--seeds", type=_positive_int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("config", help="print the resolved configuration")
    common(p, method=False, out=False)
    p.set_defaults(func=cmd_config)
    return ap


def _outdir(args, cfg) -> str:
    out = args.out if args.out is not None else run_dir(cfg)
    try:
        os.makedirs(out, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output path is or lies below a file: {out}")
    return out


def cmd_config(args, cfg) -> int:
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_condense(args, cfg) -> int:
    out = _outdir(args, cfg)
    t0 = time.perf_counter()
    world, condense_time = build_world(cfg, args.method)
    graph = world.graph
    write_condense_run(out, graph, condense_time, time.perf_counter() - t0)
    print(f"method={args.method} n_centroids={graph.n_centroids} "
          f"distortion={graph.distortion:.6g} edges={np.count_nonzero(np.triu(graph.adj, 1))} "
          f"virtual={np.count_nonzero(np.triu(graph.virtual, 1))} out={out}")
    return 0


def cmd_train(args, cfg) -> int:
    out = _outdir(args, cfg)
    res = train(cfg, args.method)
    write_train_run(out, res)
    rep = res.report
    print(f"method={args.method} seed={cfg.seed} "
          f"outage: network={rep.eval_outage['network']:.4f} "
          f"priority={rep.eval_outage['priority']:.4f} "
          f"regular={rep.eval_outage['regular']:.4f} out={out}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    if not os.path.isfile(args.qtable):
        raise ConfigError(f"Q-table snapshot missing or not a file: {args.qtable}")
    world, _ = build_world(cfg, args.method)
    try:
        qtables = load_qtables(args.qtable, world.graph, cfg.n_uav)
    except ValueError as exc:
        raise ConfigError(f"Q-table snapshot does not match this config: {exc}")
    out = _outdir(args, cfg)
    ev = evaluate_policy(world, qtables)
    write_json(os.path.join(out, "evaluation.json"),
               {"outage": ev.outage, "mean_rate_bps": ev.mean_rate_bps, "audit": ev.audit})
    print(f"outage: network={ev.outage['network']:.4f} "
          f"priority={ev.outage['priority']:.4f} regular={ev.outage['regular']:.4f}")
    return 0


def cmd_sweep(args, cfg) -> int:
    for mu in args.mu:      # each value's config, checked before --out is made
        dataclasses.replace(cfg, mu_pr=mu).validate()
    out = _outdir(args, cfg)
    rows = sweep_mu(cfg, args.mu, n_seeds=args.seeds, method=args.method)
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    for r in rows:
        print(f"mu_pr={r['mu_pr']:g} seed={r['seed']} priority={r['priority']:.4f} "
              f"regular={r['regular']:.4f} network={r['network']:.4f}")
    return 0


def cmd_compare(args, cfg) -> int:
    out = _outdir(args, cfg)
    results = compare_methods(cfg, n_seeds=args.seeds)
    names = write_compare_run(out, results)
    for m in METHODS:
        net = np.mean([r.report.eval_outage["network"] for r in results[m]])
        print(f"{m}: mean network outage over {args.seeds} seed(s) = {net:.4f}")
    print(f"wrote {out}/" + ", ".join(names))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config, seed=args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
