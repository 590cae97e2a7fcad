"""Unit tests for the metrics registry and the instrumented counters."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("c", ())
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g", ())
        gauge.set(5.0)
        gauge.dec(2.0)
        gauge.inc()
        assert gauge.value == 4.0

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("h", (), buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 3.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 55.5
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.bucket_counts == [1, 2, 1]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(10.0, 1.0))


class TestRegistry:
    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("m", a="1") is registry.counter("m", a="1")
        assert registry.counter("m", a="1") is not registry.counter("m", a="2")

    def test_name_reuse_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_total_sums_across_labels(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1").inc(2)
        registry.counter("m", a="2").inc(3)
        assert registry.total("m") == 5

    def test_render_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa", x="1").inc(2)
        rendered = registry.render()
        assert rendered.index("aa") < rendered.index("zz")
        assert 'aa{x="1"} 2' in rendered
        snapshot = registry.snapshot()
        assert snapshot['aa{x="1"}'] == 2


class TestHandCountedScenario:
    """Pin the instrumented counters against quantities countable by hand
    (and against the §6 closed form: x - 1 messages per write for the
    vector protocol, zero per read)."""

    def _run(self, protocols, **spec_kwargs):
        registry = MetricsRegistry()
        result = build_interconnected(
            protocols,
            WorkloadSpec(**spec_kwargs),
            seed=5,
            metrics=registry,
        )
        run_until_quiescent(result.sim, result.systems)
        return result, registry

    def test_flat_system_counts(self):
        result, registry = self._run(
            ["vector-causal"], processes=3, ops_per_process=4, write_ratio=1.0
        )
        writes = 3 * 4
        # Flat n=3 system, all writes: each write broadcasts to n-1 peers.
        assert registry.total("net_messages_total") == writes * 2
        assert registry.total("ops_completed_total") == writes
        assert registry.total("mcs_processes_built_total") == 3
        # The kernel's per-channel count agrees with the exported one.
        assert result.systems[0].network.messages_sent == registry.total("net_messages_total")

    def test_bridge_counts_match_interconnection(self):
        for protocol in (
            "vector-causal",
            "parametrized-causal",
            "lamport-sequential",
            "partial-causal",
            "invalidation-causal",
            "delayed-causal",
        ):
            result, registry = self._run(
                [protocol, protocol],
                processes=2,
                ops_per_process=4,
                write_ratio=0.5,
            )
            interconnection = result.interconnection
            total = registry.total("net_messages_total")
            kinds = {
                dict(instrument.labels)["kind"]
                for instrument in registry
                if instrument.name == "net_messages_total"
            }
            per_kind = sum(registry.total("net_messages_total", kind=kind) for kind in kinds)
            assert per_kind == total, protocol
            assert total == interconnection.intra_system_messages, protocol
            assert (
                registry.total("is_pairs_sent_total") == interconnection.inter_system_messages
            ), protocol
            assert (
                registry.total("is_pairs_received_total")
                == interconnection.inter_system_messages
            ), protocol
            assert registry.total("bridges_total") == len(interconnection.bridges), protocol
            ops = len(result.global_history)
            assert registry.total("ops_completed_total") == ops, protocol

    def test_messages_per_write_matches_section6_model(self):
        from repro.analysis.model import interconnected_messages_per_write

        result, registry = self._run(
            ["vector-causal", "vector-causal"],
            processes=2,
            ops_per_process=3,
            write_ratio=1.0,
        )
        writes = 2 * 2 * 3
        total = registry.total("net_messages_total") + registry.total(
            "is_pairs_sent_total"
        )
        predicted = interconnected_messages_per_write(
            result.interconnection.total_app_mcs, 2, shared=True
        )
        assert total == writes * predicted

    def test_sim_events_counted(self):
        result, registry = self._run(
            ["vector-causal"], processes=2, ops_per_process=2, write_ratio=1.0
        )
        assert registry.total("sim_events_total") == result.sim.events_processed
