"""Unit tests for the schedule-explorer building blocks."""

import json

import pytest

from repro.errors import ExplorationError
from repro.explore import (
    SCENARIOS,
    Schedule,
    explore,
    get_scenario,
    load_schedule,
    replay_schedule,
    run_with_trace,
    save_schedule,
    shrink_trace,
)
from repro.explore.engine import (
    Counterexample,
    ExploreResult,
    _emit_metrics,
    scheduling_aliases,
)
from repro.explore.fingerprint import freeze, state_fingerprint
from repro.explore.policy import TracePolicy
from repro.obs.metrics import MetricsRegistry
from repro.workloads.scenarios import (
    run_until_quiescent,
    small_bridge_scenario,
    small_fifo_scenario,
)


class TestFreeze:
    def test_primitives_pass_through(self):
        assert freeze(3) == 3
        assert freeze("x") == "x"
        assert freeze(None) is None

    def test_dict_order_is_canonical(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_set_order_is_canonical(self):
        assert freeze({3, 1, 2}) == freeze({2, 3, 1})

    def test_slots_objects_are_walked(self):
        from repro.sim.clock import VectorClock

        clock_a = VectorClock()
        clock_b = VectorClock()
        assert freeze(clock_a) == freeze(clock_b)
        assert freeze(clock_a.increment(0)) != freeze(clock_b)

    def test_callables_collapse_to_qualname(self):
        frozen = freeze(TestFreeze.test_primitives_pass_through)
        assert frozen[0] == "fn"


class TestStateFingerprint:
    def test_identical_builds_have_identical_fingerprints(self):
        assert state_fingerprint(small_fifo_scenario()) == state_fingerprint(
            small_fifo_scenario()
        )

    def test_fingerprint_changes_as_the_run_progresses(self):
        result = small_fifo_scenario()
        before = state_fingerprint(result)
        result.sim.run()
        assert state_fingerprint(result) != before

    def test_completed_runs_under_same_schedule_agree(self):
        fingerprints = set()
        for _ in range(2):
            result = small_fifo_scenario()
            result.sim.run()
            fingerprints.add(state_fingerprint(result))
        assert len(fingerprints) == 1


class TestSchedulingAliases:
    def test_bridge_isps_alias_to_their_mcs_domain(self):
        result = small_bridge_scenario(use_pre_update=False)
        aliases = scheduling_aliases(result)
        assert aliases  # one entry per IS-process
        for isp_name, domain in aliases.items():
            assert isp_name.startswith("isp:")
            assert "mcs:" in domain

    def test_single_system_has_no_aliases(self):
        assert scheduling_aliases(small_fifo_scenario()) == {}


class TestRunWithTrace:
    def test_empty_trace_matches_default_run(self):
        replayed, verdict = run_with_trace(small_fifo_scenario, ())
        baseline = small_fifo_scenario()
        run_until_quiescent(baseline.sim, baseline.systems)
        key = lambda h: [(op.proc, op.kind.value, op.var, repr(op.value)) for op in h]
        assert key(replayed.recorder.history()) == key(baseline.recorder.history())
        assert verdict.ok  # the default schedule of faulty-fifo is clean

    def test_replay_is_deterministic(self):
        trace = [0, 1, 0, 2]
        runs = []
        for _ in range(2):
            result, verdict = run_with_trace(small_fifo_scenario, trace)
            runs.append(
                (
                    [(op.proc, op.kind.value, op.var, repr(op.value))
                     for op in result.recorder.history()],
                    verdict.ok,
                )
            )
        assert runs[0] == runs[1]

    def test_out_of_range_decision_raises(self):
        with pytest.raises(ExplorationError):
            run_with_trace(small_fifo_scenario, [99])


class TestExploreEngine:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExplorationError):
            explore("no-such-scenario")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ExplorationError):
            explore("faulty-fifo", reduction="dpor-ng")

    def test_budget_cap_is_respected(self):
        result = explore("faulty-fifo", max_interleavings=5, stop_after=None)
        assert result.runs <= 5
        assert not result.exhausted

    def test_finds_fifo_violation(self):
        result = explore("faulty-fifo", stop_after=1)
        assert result.violations
        counterexample = result.violations[0]
        assert counterexample.scenario == "faulty-fifo"
        assert counterexample.patterns

    def test_violating_trace_replays_to_same_patterns(self):
        result = explore("faulty-fifo", stop_after=1)
        counterexample = result.violations[0]
        _, verdict = run_with_trace(
            get_scenario("faulty-fifo").factory, counterexample.trace
        )
        assert not verdict.ok
        assert {v.pattern for v in verdict.violations} >= set(
            counterexample.patterns
        )

    def test_reduction_none_explores_more_runs(self):
        reduced = explore(
            "faulty-fifo", max_interleavings=300, stop_after=None
        )
        raw = explore(
            "faulty-fifo",
            max_interleavings=300,
            stop_after=None,
            reduction="none",
        )
        assert raw.pruned_sleep == raw.pruned_fingerprint == 0
        assert reduced.pruned_sleep + reduced.pruned_fingerprint > 0

    def test_outcome_counters_partition_runs(self):
        registry = MetricsRegistry()
        outcome = ExploreResult(
            scenario="s",
            explored=10,
            truncated=3,
            pruned_sleep=5,
            pruned_fingerprint=2,
        )
        _emit_metrics(registry, outcome, "s", elapsed=2.0)
        values = {
            instrument.labels[0][1]: instrument.value
            for instrument in registry
            if instrument.name == "explore_runs_total"
        }
        assert values == {
            "explored": 7.0,
            "truncated": 3.0,
            "pruned_sleep": 5.0,
            "pruned_fingerprint": 2.0,
        }
        assert sum(values.values()) == outcome.runs

    def test_gauge_emitted_even_for_zero_elapsed(self):
        registry = MetricsRegistry()
        _emit_metrics(
            registry, ExploreResult(scenario="s", explored=1), "s", elapsed=0.0
        )
        gauges = [
            instrument
            for instrument in registry
            if instrument.name == "explore_runs_per_second"
        ]
        assert len(gauges) == 1
        assert gauges[0].value == 0.0

    def test_gauge_reports_throughput(self):
        registry = MetricsRegistry()
        _emit_metrics(
            registry, ExploreResult(scenario="s", explored=8), "s", elapsed=2.0
        )
        gauge = next(
            instrument
            for instrument in registry
            if instrument.name == "explore_runs_per_second"
        )
        assert gauge.value == pytest.approx(4.0)


class TestShrink:
    def test_trailing_zeros_are_free(self):
        calls = []

        def failing(trace):
            calls.append(list(trace))
            return list(trace)[:1] == [2]

        assert shrink_trace([2, 0, 0, 0], failing) == [2]

    def test_rejects_passing_trace(self):
        with pytest.raises(ExplorationError):
            shrink_trace([1, 2, 3], lambda trace: False)

    def test_shrinks_to_core(self):
        # Failure needs a 2 somewhere and a 1 later; everything else is noise.
        def failing(trace):
            trace = list(trace)
            return 2 in trace and 1 in trace[trace.index(2):]

        shrunk = shrink_trace([0, 3, 2, 0, 4, 1, 0, 5], failing)
        assert failing(shrunk)
        assert len(shrunk) == 2

    def test_attempt_budget_bounds_predicate_calls(self):
        calls = []

        def failing(trace):
            calls.append(1)
            return True

        shrink_trace([1] * 8, failing, max_attempts=10)
        assert len(calls) <= 11  # budgeted calls + the initial validation


class TestScheduleRoundTrip:
    def test_json_round_trip(self, tmp_path):
        schedule = Schedule(
            scenario="faulty-fifo",
            trace=[0, 3, 1],
            expected_patterns=["WriteHBInitRead"],
            note="hand-written",
        )
        path = save_schedule(schedule, tmp_path / "s.json")
        loaded = load_schedule(path)
        assert loaded == schedule

    def test_format_field_is_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope", "scenario": "x", "trace": []}))
        with pytest.raises(ExplorationError):
            load_schedule(path)

    def test_malformed_trace_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"format": "repro-schedule/1", "scenario": "faulty-fifo"}
            )
        )
        with pytest.raises(ExplorationError):
            load_schedule(path)

    def test_strict_replay_rejects_stale_expectations(self, tmp_path):
        schedule = Schedule(
            scenario="faulty-fifo",
            trace=[],  # the default schedule is clean
            expected_patterns=["WriteHBInitRead"],
        )
        with pytest.raises(ExplorationError):
            replay_schedule(schedule)

    def test_strict_replay_accepts_clean_schedules(self):
        verdict = replay_schedule(
            Schedule(scenario="faulty-fifo", trace=[], expected_patterns=[])
        )
        assert verdict.ok

    def test_from_counterexample_sorts_patterns(self):
        counterexample = Counterexample(
            scenario="faulty-fifo",
            trace=[1, 0],
            patterns=["B", "A", "B"],
            detail="",
        )
        schedule = Schedule.from_counterexample(counterexample)
        assert schedule.expected_patterns == ["A", "B"]


class TestCatalogue:
    def test_catalogue_entries_build(self):
        for entry in SCENARIOS.values():
            result = entry.factory()
            assert result.sim.pending > 0  # something is scheduled

    def test_get_scenario_error_lists_known_names(self):
        with pytest.raises(ExplorationError, match="bridge-p1"):
            get_scenario("nope")
