"""The traced run: per-layer numbers from the benchmark's side of each call.

A :class:`Probe` collects one traced iteration. It hands each simulated
scenario a ``Tracer`` whose sink keeps counts instead of events, and the
iteration runs inside ``obs.profile.profiling()`` so the profiling sites
that already exist in the checker and the explorer record their wall time.
Layer times the library does not record (build, sim run, history) are
timed by the iteration around its calls into those layers.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from typing import Any, Callable

from repro.checker.cache import invalidate
from repro.checker.causal import causal_order, check_causal
from repro.obs import MetricsRegistry, TraceEvent, Tracer, TraceSink
from repro.obs.metrics import Histogram
from repro.workloads.scenarios import ScenarioResult, run_until_quiescent


class LayerSink(TraceSink):
    """Counts trace events by kind and tracks each replica's hold-back:
    updates it has received but not yet applied."""

    def __init__(self) -> None:
        self.kinds: Counter[str] = Counter()
        self.held: dict[str, int] = {}
        self.holdback_max = 0

    def watch(self, replicas: list[str]) -> None:
        self.held = {name: 0 for name in replicas}

    def write(self, event: TraceEvent) -> None:
        kind = event.kind
        self.kinds[kind] += 1
        if kind == "msg.recv":
            # Channel names end in "->destination"; only MCS-replica
            # destinations (not IS-processes) hold updates back.
            destination = event.component.rpartition("->")[2]
            held = self.held.get(destination)
            if held is not None:
                self.held[destination] = held + 1
                self.holdback_max = max(self.holdback_max, held + 1)
        elif kind == "replica.apply" and not event.arg("own_write"):
            self.held[event.component] -= 1


class Probe:
    """Everything one traced iteration records."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.scenarios: list[ScenarioResult] = []

    def new_tracer(self) -> Tracer:
        return Tracer(LayerSink())

    def watch(self, result: ScenarioResult) -> None:
        """Register a freshly built scenario, before it runs."""
        replicas = [mcs.name for system in result.systems for mcs in system.mcs_processes]
        result.sim.tracer.sink.watch(replicas)
        self.scenarios.append(result)


def profile_seconds(registry: MetricsRegistry, site: str) -> tuple[float, int]:
    """Total wall seconds and call count a profiling site recorded."""
    for instrument in registry:
        if (
            isinstance(instrument, Histogram)
            and instrument.name == "profile_seconds"
            and dict(instrument.labels).get("site") == site
        ):
            return instrument.sum, instrument.count
    return 0.0, 0


def explore_layer(results: list, registry: MetricsRegistry, wall_s: float) -> dict[str, float]:
    """explore.* of the explorer calls behind *results*, made in *wall_s*."""
    runs = sum(result.runs for result in results)
    explored = sum(result.explored for result in results)
    fingerprint_s, fingerprint_calls = profile_seconds(registry, "explore.state_fingerprint")
    check_s, _ = profile_seconds(registry, "checker.check_causal")
    return {
        "explore.runs": runs,
        "explore.explored": explored,
        "explore.pruned_fingerprint": sum(r.pruned_fingerprint for r in results),
        "explore.pruned_sleep": sum(r.pruned_sleep for r in results),
        "explore.useful_ratio": explored / runs if runs else 0.0,
        "explore.fingerprint_s": fingerprint_s,
        "explore.fingerprint_calls": fingerprint_calls,
        "explore.check_s": check_s,
        "explore.replay_s": wall_s - fingerprint_s - check_s,
    }


def layer_metrics(outcome, probe: Probe, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration that took *wall_s*."""
    phases, stats, registry = outcome.phases, outcome.stats, probe.registry
    sinks = [result.sim.tracer.sink for result in probe.scenarios]
    applies = sum(sink.kinds["replica.apply"] for sink in sinks)
    checked = [result.global_history for result in probe.scenarios if not result.sim.pending]
    history_ops = sum(len(history) for history in checked)
    check_s, _ = profile_seconds(registry, "checker.check_causal")
    derive_s, _ = profile_seconds(registry, "checker.derive")
    closure_s, _ = profile_seconds(registry, "checker.transitive_closure")
    sim_s = phases.get("sim.run_s", 0.0)
    metrics = {
        "workloads.build_s": phases.get("workloads.build_s", 0.0),
        "sim.run_s": sim_s,
        "sim.events": stats["events"],
        "sim.events_per_s": stats["events"] / sim_s if sim_s else 0.0,
        "protocols.applies": applies,
        "protocols.holdback_max": max((sink.holdback_max for sink in sinks), default=0),
        "protocols.run_s_per_apply": sim_s / applies if applies else 0.0,
        "network.messages": stats["messages"],
        "interconnect.pairs": stats["pairs"],
        "memory.history_ops": history_ops,
        "memory.history_s": phases.get("memory.history_s", 0.0),
        "checker.derive_s": derive_s,
        "checker.closure_s": closure_s,
        "checker.saturate_s": check_s - derive_s - closure_s,
        "checker.co_edges": sum(causal_order(h)[1].edge_count() for h in checked),
        "checker.ops_per_s": history_ops / check_s if check_s else 0.0,
    }
    if outcome.explored:
        metrics.update(explore_layer(outcome.explored, registry, wall_s))
    return metrics


def growth_exponent(
    build: Callable[[float], ScenarioResult], fractions=(0.25, 0.5, 1.0), repeats: int = 3
) -> tuple[float, list[tuple[int, float]]]:
    """Fit ``check_causal`` time ~ n^k over histories of one generator at
    several sizes; returns k and the (ops, median seconds) points."""
    points = []
    for fraction in fractions:
        result = build(fraction)
        run_until_quiescent(result.sim, result.systems)
        history = result.global_history
        samples = []
        for _ in range(repeats):
            invalidate(history)
            start = time.perf_counter()
            check_causal(history)
            samples.append(time.perf_counter() - start)
        points.append((len(history), statistics.median(samples)))
    xs = [math.log(ops) for ops, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    return slope, points


def median_metrics(samples: list[dict[str, Any]]) -> dict[str, float]:
    """Per-metric median across traced iterations."""
    return {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}


__all__ = [
    "LayerSink",
    "Probe",
    "explore_layer",
    "growth_exponent",
    "layer_metrics",
    "median_metrics",
    "profile_seconds",
]
