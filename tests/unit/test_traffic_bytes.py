"""Unit tests for message counts by kind and hybrid workloads."""

from dataclasses import fields

from repro.memory.program import Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import Instruments, MetricsRegistry
from repro.protocols import get
from repro.protocols.invalidation import Invalidation
from repro.sim.core import Simulator

#: One writer and three idle peers: n = 4 MCS-processes, nobody reads.
N = 4


def sent_by_kind(protocol, value):
    """Per-kind message counts of one write of *value* with no reader."""
    registry = MetricsRegistry()
    sim = Simulator(instruments=Instruments(metrics=registry))
    system = DSMSystem(sim, "S", get(protocol), recorder=HistoryRecorder(), seed=0)
    system.add_application("A", [Write("x", value)])
    for index in range(N - 1):
        system.add_application(f"p{index}", [Sleep(20.0)])
    sim.run()
    kinds = ("CausalUpdate", "Invalidation", "FetchReply")
    counts = {kind: registry.total("net_messages_total", kind=kind) for kind in kinds}
    assert sum(counts.values()) == registry.total("net_messages_total")
    return counts


class TestMessageKinds:
    def test_propagation_ships_value_to_each_peer(self):
        counts = sent_by_kind("vector-causal", "v" * 4096)
        assert counts == {"CausalUpdate": N - 1, "Invalidation": 0, "FetchReply": 0}

    def test_invalidation_ships_no_value_without_readers(self):
        counts = sent_by_kind("invalidation-causal", "v" * 4096)
        assert counts == {"CausalUpdate": 0, "Invalidation": N - 1, "FetchReply": 0}

    def test_value_size_changes_no_count(self):
        for protocol in ("vector-causal", "invalidation-causal"):
            assert sent_by_kind(protocol, "v") == sent_by_kind(protocol, "v" * 4096)

    def test_invalidation_carries_no_value(self):
        assert "value" not in {spec.name for spec in fields(Invalidation)}


class TestHybridWorkloads:
    def test_strong_ratio_generates_strong_writes(self):
        import random

        from repro.workloads import ValueFactory, WorkloadSpec
        from repro.workloads.generator import random_program

        spec = WorkloadSpec(ops_per_process=40, write_ratio=1.0, strong_ratio=0.5, max_think=0)
        program = random_program(random.Random(0), spec, ValueFactory(), "p")
        strong = sum(1 for command in program if command.strong)
        assert 5 < strong < 35

    def test_hybrid_random_workload_with_strong_ops_is_causal(self):
        from repro.checker import check_causal
        from repro.workloads import WorkloadSpec, populate_system
        from repro.workloads.scenarios import run_until_quiescent

        for seed in range(3):
            sim = Simulator()
            recorder = HistoryRecorder()
            system = DSMSystem(sim, "S", get("hybrid"), recorder=recorder, seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.6, strong_ratio=0.4),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            assert check_causal(recorder.history()).ok
            logs = [app.mcs.strong_apply_log for app in system.app_processes]
            assert all(log == logs[0] for log in logs)
