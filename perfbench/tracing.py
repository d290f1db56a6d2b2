"""Outside-in tracer for the absim benchmark.

Wraps package functions at the module attribute where their callers look
them up (``absim.sim.link_matrix``, ``absim.condense.accept``, ...), times
each call with a span stack so a function's self time excludes the wrapped
calls it makes, and aggregates in memory: per name a call count, inclusive
and self seconds. Slot durations are kept as one flat float array, not as
span objects. Everything is restored on exit.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Per-name call counts and self time, plus a few layer counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, incl_s, self_s]
        self.stack: list[float] = []         # child time of each open span
        self.slot_s = array("d")             # inclusive time of every run_slot
        self.accepted = 0                    # Metropolis proposals accepted
        self.virtual_edges = 0               # virtual edges over built graphs
        self.absent: list[str] = []          # wrapped names that do not exist

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _close(self, stat: list, t0: float) -> float:
        dt = time.perf_counter() - t0
        child = self.stack.pop()
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - child
        if self.stack:
            self.stack[-1] += dt
        return dt

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recorded under ``name``; ``on_exit(result, seconds)`` after."""
        stat = self._stat(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._close(stat, t0)
            if on_exit is not None:
                on_exit(out, dt)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stat = self._stat(name)
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stat, t0)

    @contextmanager
    def installed(self, targets):
        """Patch ``(module, attr, name, on_exit)`` targets; restore on exit.

        A name none of whose targets exist is listed in ``absent``.
        """
        patched = []
        try:
            for module, attr, name, on_exit in targets:
                self._stat(name)
                orig = getattr(module, attr, None)
                if orig is not None:
                    setattr(module, attr, self.wrap(name, orig, on_exit))
                    patched.append((module, attr, orig, name))
            self.absent = sorted({t[2] for t in targets} - {p[3] for p in patched})
            yield self
        finally:
            for module, attr, orig, _ in reversed(patched):
                setattr(module, attr, orig)

    def count_accept(self, accepted, _dt) -> None:
        self.accepted += bool(accepted)

    def record_slot(self, _result, dt: float) -> None:
        self.slot_s.append(dt)

    def count_virtual(self, graph, _dt) -> None:
        self.virtual_edges += sum(1 for _, _, virt in graph.edges if virt)


def targets(tracer: Tracer, absim) -> list:
    """The wrapped functions, by the module that looks each one up."""
    sim, condense, rl = absim.sim, absim.condense, absim.rl
    plain = [
        (sim, "link_matrix", "channel.link_matrix"),
        (condense, "link_matrix", "channel.link_matrix"),
        (sim, "sample_fading", "channel.sample_fading"),
        (sim, "evaluate_slot", "radio.evaluate_slot"),
        (sim, "outage_stats", "radio.outage_stats"),
        (sim, "select_action", "rl.select_action"),
        (sim, "reward", "rl.reward"),
        (sim, "td_update", "rl.td_update"),
        (rl, "export_qtables", "rl.export_qtables"),
        (sim, "_audit_moves", "sim._audit_moves"),
        (sim, "run_episode", "sim.run_episode"),
        (sim, "build_world", "sim.build_world"),
        (sim, "qa_condense", "condense.qa_condense"),
        (sim, "kmeans_condense", "condense.kmeans_condense"),
        (sim, "snrp_condense", "condense.snrp_condense"),
        (condense, "snr_proxy", "condense.snr_proxy"),
        (sim, "drop_users", "scenario.drop_users"),
        (sim, "generate_candidates", "scenario.generate_candidates"),
    ]
    hooked = [
        (sim, "run_slot", "sim.run_slot", tracer.record_slot),
        (condense, "accept", "condense.accept", tracer.count_accept),
        (condense, "build_adjacency", "condense.build_adjacency", tracer.count_virtual),
    ]
    return [(m, a, n, None) for m, a, n in plain] + hooked


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values named ``<module>.<function>.<stat>``."""
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (tracer.stats[name][0], "count")

    def self_s(name):
        out[f"{name}.self_s"] = (tracer.stats[name][2], "s")

    for name in ("channel.link_matrix", "channel.sample_fading", "radio.evaluate_slot",
                 "radio.outage_stats", "rl.select_action", "rl.reward", "rl.td_update"):
        calls(name)
        self_s(name)
    for name in ("rl.export_qtables", "sim.run_slot", "sim._audit_moves",
                 "sim.run_episode", "sim.build_world", "sim.writers",
                 "condense.qa_condense", "condense.kmeans_condense",
                 "condense.snrp_condense", "condense.snr_proxy",
                 "condense.build_adjacency", "scenario.drop_users",
                 "scenario.generate_candidates"):
        self_s(name)
    calls("condense.build_adjacency")
    calls("condense.accept")
    proposals = tracer.stats["condense.accept"][0]
    out["condense.accept_ratio"] = (tracer.accepted / proposals if proposals else 0.0,
                                    "ratio")
    out["condense.virtual_edges"] = (tracer.virtual_edges, "count")
    slot_us = [s * 1e6 for s in tracer.slot_s]
    out["sim.slot_us.p50"] = (percentile(slot_us, 50), "us")
    out["sim.slot_us.p99"] = (percentile(slot_us, 99), "us")
    return out
