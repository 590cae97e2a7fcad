"""Known-answer negative controls: violations every run must find.

Each ablates an ingredient the paper proves necessary, so the checker (or
the explorer) must reject it. A control that passes means the benchmark
measured a checker that no longer detects violations; it counts as a
failed verdict.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.checker.causal import check_causal
from repro.workloads.scenarios import (
    ScenarioResult,
    fifo_causality_violation,
    lemma1_scenario,
    run_until_quiescent,
    section3_counterexample,
)

#: (name, scenario, violation pattern the checker must report or None for any)
CHECKER_CONTROLS: tuple[tuple[str, Callable[[], ScenarioResult], Optional[str]], ...] = (
    # §3: without the IS read, the overwrite returns causally untethered.
    ("section3-noread", lambda: section3_counterexample(read_before_send=False), "CyclicHB"),
    # Lemma 1: IS-protocol 1 over a non-causal-updating MCS leaks inversions.
    ("lemma1-protocol1", lambda: lemma1_scenario(use_pre_update=False), "WriteHBInitRead"),
    # Sender-FIFO apply is PRAM but not causal.
    ("fifo-apply", fifo_causality_violation, None),
)


def checker_control(build: Callable[[], ScenarioResult], pattern: Optional[str]) -> str:
    """Run one control; returns "" if the expected violation was found,
    else what was seen instead."""
    result = build()
    run_until_quiescent(result.sim, result.systems)
    verdict = check_causal(result.global_history)
    patterns = [violation.pattern for violation in verdict.violations]
    if verdict.ok:
        return "accepted"
    if pattern is not None and pattern not in patterns:
        return f"rejected with {patterns}, expected {pattern}"
    return ""


__all__ = ["CHECKER_CONTROLS", "checker_control"]
