"""Extension experiment X2: invalidation vs propagation economics.

The paper (§1) mentions both replica-control strategies but proves its
results for propagation only. Measured here:

* invalidation sends no values on write — fetch traffic appears only on
  demand (reads of invalidated replicas);
* under a read-light workload invalidation moves far fewer values; under
  a read-heavy workload the fetch round trips dominate response time;
* the IS adapter (fetch-on-invalidate, serialised) restores Theorem 1 at
  the boundary: the bridged union is causal.
"""

from repro.checker import check_causal
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.metrics import response_stats
from repro.obs import Instruments, MetricsRegistry
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected, populate_system
from repro.workloads.scenarios import run_until_quiescent


def run_protocol(protocol: str, write_ratio: float, seed: int = 0):
    registry = MetricsRegistry()
    sim = Simulator(instruments=Instruments(metrics=registry))
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get(protocol), recorder=recorder, seed=seed)
    populate_system(
        system,
        WorkloadSpec(processes=5, ops_per_process=6, write_ratio=write_ratio),
        seed=seed,
    )
    run_until_quiescent(sim, [system])
    history = recorder.history()
    assert check_causal(history).ok
    writes = max(sum(1 for op in history if op.is_write), 1)
    values = sum(
        registry.total("net_messages_total", kind=kind) for kind in ("CausalUpdate", "FetchReply")
    )
    notices = registry.total("net_messages_total", kind="Invalidation")
    return {
        "value_msgs_per_write": values / writes,
        "control_msgs_per_write": notices / writes,
        "mean_response": response_stats([system]).mean,
    }


def test_x2_invalidation_moves_fewer_values_when_read_light(benchmark):
    invalidation = benchmark(run_protocol, "invalidation-causal", 0.8)
    propagation = run_protocol("vector-causal", 0.8)
    print("\nX2a: write-heavy workload (80% writes), value-bearing messages per write")
    print(f"  propagation (vector):   {propagation['value_msgs_per_write']:.2f}")
    print(f"  invalidation:           {invalidation['value_msgs_per_write']:.2f}")
    assert invalidation["value_msgs_per_write"] < propagation["value_msgs_per_write"]


def test_x2_invalidation_ships_no_values_without_readers(benchmark):
    """With a 4 KiB value and nobody reading, propagation ships the value
    n-1 times; invalidation sends n-1 timestamp-only notices and no value
    at all. The value size changes no count."""
    from dataclasses import fields

    from repro.memory.program import Sleep, Write
    from repro.protocols.invalidation import Invalidation

    n = 5

    def run(protocol, value):
        registry = MetricsRegistry()
        sim = Simulator(instruments=Instruments(metrics=registry))
        system = DSMSystem(sim, "S", get(protocol), recorder=HistoryRecorder(), seed=0)
        system.add_application("A", [Write("doc", value)])
        for index in range(n - 1):
            system.add_application(f"p{index}", [Sleep(20.0)])
        sim.run()
        kinds = ("CausalUpdate", "Invalidation", "FetchReply")
        return {kind: int(registry.total("net_messages_total", kind=kind)) for kind in kinds}

    document = "x" * 4096  # a realistic document-sized value
    invalidation = benchmark(run, "invalidation-causal", document)
    propagation = run("vector-causal", document)
    print(
        f"\nX2d: 4 KiB value, write-only, nobody reads: "
        f"propagation {propagation}, invalidation {invalidation}"
    )
    assert propagation == {"CausalUpdate": n - 1, "Invalidation": 0, "FetchReply": 0}
    assert invalidation == {"CausalUpdate": 0, "Invalidation": n - 1, "FetchReply": 0}
    assert run("invalidation-causal", "x") == invalidation
    assert run("vector-causal", "x") == propagation
    assert "value" not in {spec.name for spec in fields(Invalidation)}


def test_x2_fetches_cost_read_latency(benchmark):
    invalidation = benchmark(run_protocol, "invalidation-causal", 0.3)
    propagation = run_protocol("vector-causal", 0.3)
    print("\nX2b: read-heavy workload (30% writes), mean response time")
    print(f"  propagation (vector):   {propagation['mean_response']:.3f}")
    print(f"  invalidation:           {invalidation['mean_response']:.3f}")
    assert propagation["mean_response"] == 0.0
    assert invalidation["mean_response"] > 0.0


def test_x2_bridged_invalidation_system_is_causal(benchmark):
    def run():
        result = build_interconnected(
            ["invalidation-causal", "vector-causal"],
            WorkloadSpec(processes=3, ops_per_process=5, write_ratio=0.5),
            seed=4,
        )
        run_until_quiescent(result.sim, result.systems)
        return check_causal(result.global_history).ok

    causal = benchmark(run)
    print(f"\nX2c: invalidation system bridged via fetch-on-invalidate adapter -> causal={causal}")
    assert causal
