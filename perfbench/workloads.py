"""The benchmark's workloads and the one iteration each of them repeats.

Every workload is a closed loop: one process, one thread, and each
iteration starts after the previous verdict. An iteration takes a seed,
generates its input from it, runs the library on that input and returns
an :class:`Outcome`: whether the verdict matched its known answer, how
much work was done, and the simulated statistics that must repeat exactly
for the same seed.

An iteration runs untraced (a ``MetricsRegistry`` is attached, because the
§6 counts are read from it) or traced, when a :class:`layers.Probe` is
passed: then a ``Tracer`` is attached as well and the calls into each
layer's public entry points are timed from here. Nothing inside ``src/``
is instrumented for the benchmark.
"""

from __future__ import annotations

import functools
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.checker.causal import check_causal
from repro.explore import ExploreResult, explore
from repro.metrics.latency import VisibilityTracker
from repro.obs import MetricsRegistry, combine
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import (
    ScenarioResult,
    build_interconnected,
    run_until_quiescent,
    small_noread_scenario,
)


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark.

    Attributes:
        name: the ``--workload`` name.
        why: why the workload is in the benchmark (one line).
        validation_seed: a seed never used while the benchmark or a change
            is tuned; a claimed gain must also hold on it.
        protocols: one protocol per system, joined by a chain bridge
            (pipeline workloads only).
        spec: per-system shape of the generated programs.
        pool: distinct seeded inputs one run cycles through. The more
            inputs, the less a timing median depends on which seed the run
            got; a pool small enough for two passes in a run lets every
            input's statistics be checked on a repeat.
    """

    name: str
    why: str
    validation_seed: int
    protocols: tuple[str, ...] = ()
    spec: Optional[WorkloadSpec] = None
    pool: int = 1

    @property
    def explores(self) -> bool:
        return self.spec is None

    def scaled(self, factor: float) -> "Workload":
        """The same workload with *factor* times the operations per process."""
        if self.spec is None or factor == 1.0:
            return self
        ops = max(2, round(self.spec.ops_per_process * factor))
        return replace(self, spec=replace(self.spec, ops_per_process=ops))

    def input_seeds(self, seed: int) -> list[int]:
        """The pool of input seeds a run with ``--seed seed`` cycles through."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(self.pool)]

    def iterate(self, seed: int, probe=None) -> "Outcome":
        if self.explores:
            return explore_iteration(seed, probe)
        return pipeline_iteration(self, seed, probe)

    def set_up(self, seed: int) -> None:
        """Build the first input and warm every code path up on a small one."""
        if self.explores:
            small_noread_scenario(read_before_send=True, seed=seed)
            explore("faulty-fifo")
            return
        build_interconnected(self.protocols, self.spec, topology="chain", seed=seed)
        self.scaled(0.1).iterate(seed)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Scales the process count P at a short history: 2 x 24 processes
        # broadcast with vector clocks, so the sim kernel and the protocols'
        # O(P) clocks and hold-back scans do most of the work (~80% sim,
        # ~20% check). vector-causal <-> delayed-causal runs both
        # IS-protocols: the delayed system lacks causal updating, so its
        # IS-process needs pre-update reads (Lemma 1).
        Workload(
            name="wide",
            why="2x24 processes x 20 ops, half writes, vector-causal to "
            "delayed-causal: scales P, so the sim kernel and vector-clock protocols dominate",
            validation_seed=7001,
            protocols=("vector-causal", "delayed-causal"),
            spec=WorkloadSpec(processes=24, ops_per_process=20, write_ratio=0.5),
            pool=8,
        ),
        # Scales history length at small P: 2 x 4 processes x 150 ops gives
        # a 1200-op global history, so the ~n^3 causal checker dominates
        # (~85% check). The read-heavy mix sends few broadcasts and makes
        # many local reads, each of which feeds the checker's saturation.
        # It is the prediction-of-no-change workload for sim-only speedups.
        Workload(
            name="deep",
            why="2x4 processes x 150 ops, 30% writes: a 1200-op history at small P, so "
            "the causal checker dominates; the null for sim-only changes",
            validation_seed=7002,
            protocols=("vector-causal", "vector-causal"),
            spec=WorkloadSpec(processes=4, ops_per_process=150, write_ratio=0.3),
            pool=16,
        ),
        # The small-scope model checker: the sequential explorer exhausts
        # bridge-noread-control (380 runs) and searches bridge-noread until
        # it finds the section-3 violation. Thousands of tiny replays take
        # the kernel's policy path instead of the heap path, and state
        # fingerprinting is ~60% of the wall time (the checker ~1%). The
        # scenarios are zero-delay catalogue shapes: the seed seeds their
        # RNGs, which zero delays leave unused, so every seed does the same
        # search.
        Workload(
            name="explore",
            why="sequential explorer exhausts bridge-noread-control and finds the "
            "bridge-noread violation: replay and state fingerprints dominate",
            validation_seed=7003,
        ),
    )
}


@dataclass
class Outcome:
    """What one iteration did.

    ``stats`` holds the simulated statistics that are a pure function of
    the input; the harness requires them to repeat exactly.
    """

    ok: bool
    detail: str
    ops: int
    runs: int
    stats: dict[str, Any]
    #: Host seconds spent in each layer (traced iterations only).
    phases: dict[str, float] = field(default_factory=dict)
    #: Explorer results of the iteration, if it explored.
    explored: list[ExploreResult] = field(default_factory=list)


def _counter_total(registry: MetricsRegistry, name: str, **labels: str) -> int:
    """Sum of a counter family, restricted to series carrying *labels*."""
    wanted = set(labels.items())
    return int(
        sum(
            instrument.value
            for instrument in registry
            if instrument.name == name and wanted <= set(instrument.labels)
        )
    )


def registry_counts(registry: MetricsRegistry) -> dict[str, int]:
    """The simulated counts the benchmark reads, all from the registry."""
    return {
        "events": _counter_total(registry, "sim_events_total"),
        "messages": _counter_total(registry, "net_messages_total"),
        "pairs": _counter_total(registry, "is_pairs_sent_total"),
        "ops": _counter_total(registry, "ops_completed_total"),
        "writes": _counter_total(registry, "ops_completed_total", kind="w"),
    }


def pipeline_iteration(workload: Workload, seed: int, probe=None) -> Outcome:
    """build -> simulate -> record -> ``check_causal``; the known answer is
    that the interconnected system is causal (Theorem 1)."""
    registry = MetricsRegistry()
    tracer = probe.new_tracer() if probe is not None else None
    start = time.perf_counter()
    result = build_interconnected(
        workload.protocols,
        workload.spec,
        topology="chain",
        seed=seed,
        tracer=tracer,
        metrics=registry,
    )
    visibility = VisibilityTracker().attach_systems(result.systems)
    if probe is not None:
        probe.watch(result)
    built = time.perf_counter()
    run_until_quiescent(result.sim, result.systems)
    simulated = time.perf_counter()
    history = result.global_history
    recorded = time.perf_counter()
    verdict = check_causal(history)

    counts = registry_counts(registry)
    stats = {
        **counts,
        "visibility": tuple(record.latency for record in visibility.fully_visible()),
    }
    # The registry's event count must agree with the kernel's own.
    ok = verdict.ok and counts["events"] == result.sim.events_processed
    detail = "" if ok else f"verdict {verdict.summary()}; counts {counts}"
    outcome = Outcome(ok=ok, detail=detail, ops=counts["ops"], runs=1, stats=stats)
    if probe is not None:
        outcome.phases = {
            "workloads.build_s": built - start,
            "sim.run_s": simulated - built,
            "memory.history_s": recorded - simulated,
        }
    return outcome


def _timed(obj: Any, method: str, phases: dict[str, float], key: str) -> None:
    """Shadow ``obj.method`` with a wrapper adding its wall time to phases[key]."""
    inner = getattr(obj, method)

    @functools.wraps(inner)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            phases[key] += time.perf_counter() - start

    setattr(obj, method, wrapper)


def _explorer_factory(
    read_before_send: bool,
    seed: int,
    registry: MetricsRegistry,
    probe,
    phases: dict[str, float],
) -> Callable[[], ScenarioResult]:
    """Scenario factory for ``explore()``: a fresh zero-delay §3 bridge per
    explorer run, instrumented like the pipeline workloads."""

    def build() -> ScenarioResult:
        start = time.perf_counter()
        result = small_noread_scenario(read_before_send=read_before_send, seed=seed)
        tracer = probe.new_tracer() if probe is not None else None
        result.sim.instruments = combine(tracer, registry)
        if probe is not None:
            probe.watch(result)
            _timed(result.sim, "run", phases, "sim.run_s")
            _timed(result.recorder, "history", phases, "memory.history_s")
            phases["workloads.build_s"] += time.perf_counter() - start
        return result

    return build


def explorer_search(
    read_before_send: bool, seed: int, registry: MetricsRegistry, probe, phases
) -> ExploreResult:
    """Run the sequential explorer on the §3 bridge: exhaust the control
    (IS read restored) or search the no-read ablation for its violation."""
    name = "bridge-noread-control" if read_before_send else "bridge-noread"
    return explore(
        name, factory=_explorer_factory(read_before_send, seed, registry, probe, phases)
    )


def explorer_counts(result: ExploreResult) -> tuple[int, ...]:
    """The explorer totals that must repeat exactly for a scenario."""
    return (
        result.runs,
        result.explored,
        result.pruned_fingerprint,
        result.pruned_sleep,
        len(result.violations),
        int(result.exhausted),
    )


def explore_iteration(seed: int, probe=None) -> Outcome:
    """Exhaust bridge-noread-control (known answer: no violation) and search
    bridge-noread (known answer: a violation is found)."""
    registry = MetricsRegistry()
    phases: dict[str, float] = defaultdict(float)
    control = explorer_search(True, seed, registry, probe, phases)
    noread = explorer_search(False, seed, registry, probe, phases)
    ok = control.exhausted and not control.violations and bool(noread.violations)
    counts = registry_counts(registry)
    stats = {
        **counts,
        "control": explorer_counts(control),
        "noread": explorer_counts(noread),
        "visibility": (),
    }
    detail = "" if ok else f"{control.summary()} / {noread.summary()}"
    return Outcome(
        ok=ok,
        detail=detail,
        ops=counts["ops"],
        runs=control.runs + noread.runs,
        stats=stats,
        phases=dict(phases) if probe is not None else {},
        explored=[control, noread],
    )


__all__ = [
    "WORKLOADS",
    "Workload",
    "Outcome",
    "explorer_search",
    "registry_counts",
]
