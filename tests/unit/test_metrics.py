"""Unit tests for message counts, latency, and response-time metrics."""

from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.metrics import (
    ResponseStats,
    VisibilityTracker,
    response_stats,
)
from repro.obs import Instruments, MetricsRegistry
from repro.protocols import get
from repro.sim.core import Simulator


def make_system(segments=None, **kwargs):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, **kwargs)
    return sim, recorder, system


def make_counted_system():
    registry = MetricsRegistry()
    sim = Simulator(instruments=Instruments(metrics=registry))
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=HistoryRecorder())
    return sim, system, registry


class TestMessageCounters:
    def test_counts_by_kind_and_network(self):
        sim, system, registry = make_counted_system()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        assert registry.total("net_messages_total") == 1
        assert registry.total("net_messages_total", network="S") == 1
        assert registry.total("net_messages_total", kind="CausalUpdate") == 1

    def test_cross_segment_counting(self):
        sim, system, registry = make_counted_system()
        system.add_application("A", [Write("x", 1)], segment="lan0")
        system.add_application("B", [], segment="lan0")
        system.add_application("C", [], segment="lan1")
        system.add_application("D", [], segment="lan1")
        sim.run()
        assert registry.total("net_messages_total") == 3
        assert registry.total("bottleneck_crossings_total") == 2  # C and D are far

    def test_network_total_is_sum_of_channels(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        system.add_application("B", [])
        system.add_application("C", [])
        sim.run()
        assert system.network.messages_sent == 2 * 2


class TestVisibilityTracker:
    def test_tracks_apply_times(self):
        sim, _, system = make_system(default_delay=3.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run()
        records = tracker.fully_visible()
        assert len(records) == 1
        record = records[0]
        assert record.replica_count() == 2
        assert record.latency == 3.0  # one network hop

    def test_partial_visibility_excluded(self):
        sim, _, system = make_system(default_delay=3.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run(until=1.0)
        assert tracker.fully_visible() == []
        assert len(tracker.records) == 1

    def test_worst_and_mean_latency(self):
        sim, _, system = make_system(default_delay=2.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run()
        assert tracker.worst_latency() == 2.0
        assert tracker.mean_latency() == 2.0

    def test_empty_tracker(self):
        tracker = VisibilityTracker()
        assert tracker.worst_latency() == 0.0
        assert tracker.mean_latency() == 0.0

    def test_chains_existing_listener(self):
        sim, _, system = make_system()
        seen = []
        mcs = system.new_mcs("probe")
        mcs.update_listener = lambda inner, var, value: seen.append("first")
        tracker = VisibilityTracker()
        tracker.attach_mcs(mcs)
        mcs._apply_with_upcalls("x", 1, lambda: None, own_write=True)
        assert seen == ["first"]
        assert len(tracker.records) == 1


class TestResponseStats:
    def test_from_samples(self):
        stats = ResponseStats.from_samples([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == 2.0
        assert stats.maximum == 3.0

    def test_empty_samples(self):
        stats = ResponseStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_aggregates_across_systems(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Read("x")])
        system.add_application("B", [Read("x")])
        sim.run()
        stats = response_stats([system])
        assert stats.count == 3
        assert stats.mean == 0.0  # vector protocol ops are local
