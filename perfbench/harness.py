"""Run one workload: set up, measure for a fixed time, check, report.

Untraced (``trace=False``) the run reports the end-to-end metrics: a
closed loop cycles through the workload's seeded input pool until the time
is up (and each input ran at least once). Traced, the run alternates an
untraced and a traced iteration on the pool's first input and reports the
per-layer metrics, with ``obs.trace_overhead`` the ratio of their medians.

Either way the run also checks every verdict against its known answer,
runs the negative controls, and requires each input's simulated
statistics to repeat exactly across iterations and across traced and
untraced runs. Any miss is a failed attempt; the run is then not correct.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obs import MetricsRegistry
from repro.obs.profile import profiling
from repro.workloads.scenarios import build_interconnected

from controls import CHECKER_CONTROLS, checker_control
from layers import Probe, explore_layer, growth_exponent, layer_metrics, median_metrics
from workloads import WORKLOADS, Outcome, Workload, explorer_search

#: Unit of every metric the benchmark reports.
UNITS = {
    "setup_s": "s",
    "verdict_s_p50": "s",
    "ops_per_s": "1/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "msgs_per_write": "msg/write",
    "inter_msgs_per_write": "msg/write",
    "workloads.build_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "protocols.applies": "count",
    "protocols.holdback_max": "count",
    "protocols.run_s_per_apply": "s",
    "network.messages": "count",
    "interconnect.pairs": "count",
    "visibility_sim_p50": "sim_t",
    "visibility_sim_p99": "sim_t",
    "memory.history_ops": "count",
    "memory.history_s": "s",
    "checker.derive_s": "s",
    "checker.closure_s": "s",
    "checker.saturate_s": "s",
    "checker.co_edges": "count",
    "checker.ops_per_s": "1/s",
    "checker.growth_exp": "exponent",
    "explore.runs": "count",
    "explore.explored": "count",
    "explore.pruned_fingerprint": "count",
    "explore.pruned_sleep": "count",
    "explore.useful_ratio": "ratio",
    "explore.fingerprint_s": "s",
    "explore.fingerprint_calls": "count",
    "explore.check_s": "s",
    "explore.replay_s": "s",
    "obs.trace_overhead": "ratio",
}

#: The metrics an untraced run puts in its result; a traced run puts the
#: rest. Both print every metric they measured.
END_TO_END = (
    "setup_s",
    "verdict_s_p50",
    "ops_per_s",
    "runs_per_s",
    "peak_rss_mb",
    "msgs_per_write",
    "inter_msgs_per_write",
)
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)

#: How many fresh interpreters set up; setup_s is their median.
SETUP_REPEATS = 5

HERE = Path(__file__).resolve().parent

#: One set-up in a fresh interpreter: imports, first build and warm-up.
#: argv: library path, benchmark path, workload, scale, seed.
SETUP_PROGRAM = """
import sys, time
started = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].scaled(float(sys.argv[4])).set_up(int(sys.argv[5]))
print(time.perf_counter() - started)
"""


@dataclass
class Tally:
    """Attempts, failures and the statistics each input must repeat."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    expected: dict[int, dict[str, Any]] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, label: str, problem: str) -> None:
        """Count one known-answer check; *problem* is "" when it held."""
        self.attempted += 1
        if problem:
            self.fail(f"{label}: {problem}")

    def record(self, seed: int, outcome: Optional[Outcome]) -> None:
        """Count one iteration: its verdict, then its statistics against the
        first iteration on the same input."""
        self.attempted += 1
        if outcome is None:
            self.failed += 1
            return
        if not outcome.ok:
            self.fail(f"input {seed}: wrong verdict: {outcome.detail}")
            return
        first = self.expected.setdefault(seed, outcome.stats)
        if first != outcome.stats:
            changed = sorted(key for key in first if first[key] != outcome.stats.get(key))
            self.fail(f"input {seed}: simulated statistics changed on repeat: {changed}")


def attempt(
    workload: Workload, seed: int, tally: Tally, probe: Optional[Probe] = None
) -> tuple[float, Optional[Outcome]]:
    """One timed iteration; an exception is a failed attempt, not a crash."""
    gc.collect()
    context = profiling(probe.registry) if probe is not None else nullcontext()
    start = time.perf_counter()
    try:
        with context:
            outcome = workload.iterate(seed, probe)
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        if not tally.failed:
            traceback.print_exc(file=sys.stderr)
        tally.problems.append(f"input {seed}: raised {sys.exc_info()[1]!r}")
        outcome = None
    elapsed = time.perf_counter() - start
    tally.record(seed, outcome)
    return elapsed, outcome


def set_up(name: str, scale: float, seed: int) -> list[float]:
    """Seconds each of SETUP_REPEATS fresh interpreters took to set up."""
    argv = [str(HERE.parent / "src"), str(HERE), name, repr(scale), str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, *argv],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(completed.stdout))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def section6(stats: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """The paper's §6 quantities pooled over inputs, with their sample counts."""
    writes = sum(s["writes"] for s in stats)
    messages = sum(s["messages"] + s["pairs"] for s in stats)
    pairs = sum(s["pairs"] for s in stats)
    visibility = [latency for s in stats for latency in s["visibility"]]
    return {
        "msgs_per_write": (messages / writes if writes else 0.0, writes),
        "inter_msgs_per_write": (pairs / writes if writes else 0.0, writes),
        "visibility_sim_p50": (percentile(visibility, 50), len(visibility)),
        "visibility_sim_p99": (percentile(visibility, 99), len(visibility)),
    }


def timed_run(
    workload: Workload, seeds: list[int], seconds: float, tally: Tally
) -> dict[str, tuple[float, int]]:
    """The untraced closed loop; returns end-to-end metrics with sample counts."""
    times, ops, runs = [], 0, 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < len(seeds) or time.perf_counter() < deadline:
        elapsed, outcome = attempt(workload, seeds[index % len(seeds)], tally)
        times.append(elapsed)
        if outcome is not None:
            ops += outcome.ops
            runs += outcome.runs
        index += 1
    busy = sum(times)
    metrics = {
        "verdict_s_p50": (statistics.median(times), len(times)),
        "ops_per_s": (ops / busy, len(times)),
        "runs_per_s": (runs / busy, len(times)),
    }
    stats = [tally.expected[seed] for seed in seeds if seed in tally.expected]
    metrics.update(section6(stats))
    return metrics


def deep_shape(seed: int, scale: float) -> Callable[[float], Any]:
    """Makes the deep workload's input at a fraction of its length."""
    deep = WORKLOADS["deep"].scaled(scale)

    def build(fraction: float):
        spec = deep.scaled(fraction).spec
        return build_interconnected(deep.protocols, spec, topology="chain", seed=seed)

    return build


def noread_search(seed: int, tally: Tally, traced: bool) -> dict[str, float]:
    """The known-answer bridge-noread search; traced, returns its explore.*."""
    probe = Probe() if traced else None
    context = profiling(probe.registry) if traced else nullcontext()
    start = time.perf_counter()
    with context:
        result = explorer_search(False, seed, MetricsRegistry(), probe, defaultdict(float))
    wall = time.perf_counter() - start
    tally.check("bridge-noread search", "" if result.violations else "no violation found")
    return explore_layer([result], probe.registry, wall) if traced else {}


def traced_run(
    workload: Workload, seeds: list[int], seconds: float, scale: float, tally: Tally, out
) -> dict[str, tuple[float, int]]:
    """Alternate untraced and traced iterations on the first input; returns
    per-layer metrics with sample counts."""
    seed = seeds[0]
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            probe = Probe() if tracing else None
            elapsed, outcome = attempt(workload, seed, tally, probe)
            if not tracing:
                plain.append(elapsed)
            elif outcome is not None:
                traced.append(elapsed)
                layers.append(layer_metrics(outcome, probe, elapsed))
        index += 1
    if not layers:
        return {}
    count = len(layers)
    metrics = {name: (value, count) for name, value in median_metrics(layers).items()}
    exponent, points = growth_exponent(deep_shape(seed, scale))
    metrics["checker.growth_exp"] = (exponent, len(points))
    out(
        "  checker sweep (deep shape): "
        + ", ".join(f"{ops} ops {took:.4f} s" for ops, took in points)
    )
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["obs.trace_overhead"] = (overhead, min(len(traced), len(plain)))
    metrics.update(section6([tally.expected[seed]] if seed in tally.expected else []))
    wall = statistics.median(traced)
    if workload.explores:
        # The explorer fingerprints from inside sim.run and checks after it.
        parts = ("explore.fingerprint_s", "explore.check_s", "explore.replay_s")
    else:
        parts = ("workloads.build_s", "sim.run_s", "memory.history_s", "checker.derive_s")
        parts += ("checker.closure_s", "checker.saturate_s")
    out(
        f"  traced split of {wall:.3f} s: "
        + ", ".join(f"{part} {100 * metrics[part][0] / wall:.1f}%" for part in parts)
    )
    return metrics


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Run workload *name* and return the result object the benchmark prints."""
    workload = WORKLOADS[name].scaled(scale)
    seeds = workload.input_seeds(seed)
    tally = Tally()
    out(f"workload {name}: {workload.why}")
    out(f"  seed {seed}, inputs {seeds}, {seconds:g} s, trace {int(trace)}")
    setup = [] if trace else set_up(name, scale, seeds[0])
    workload.set_up(seeds[0])
    started = time.perf_counter()
    if trace:
        metrics = traced_run(workload, seeds, seconds, scale, tally, out)
    else:
        metrics = timed_run(workload, seeds, seconds, tally)
        metrics["setup_s"] = (statistics.median(setup), len(setup))
    for label, build, pattern in CHECKER_CONTROLS:
        tally.check(label, checker_control(build, pattern))
    if not workload.explores:
        # Pipeline iterations do not explore: this known-answer search is
        # also what their traced run reports as explore.*.
        search = noread_search(seeds[0], tally, traced=trace)
        metrics.update({name: (value, 1) for name, value in search.items()})
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (peak, 1)
    out(f"  measured {time.perf_counter() - started:.1f} s")
    for metric, (value, samples) in sorted(metrics.items()):
        out(f"  {metric:<28} {value:>14.6g} {UNITS[metric]:<10} n={samples}")
    fail_ratio = tally.failed / tally.attempted
    out(f"  {'fail_ratio':<28} {fail_ratio:>14.6g} {'ratio':<10} n={tally.attempted}")
    for problem in tally.problems:
        out(f"  FAILED {problem}")
    reported = PER_LAYER if trace else END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": float(metrics[metric][0]), "unit": UNITS[metric]}
            for metric in reported
            if metric in metrics
        },
    }


__all__ = ["END_TO_END", "PER_LAYER", "UNITS", "run"]
