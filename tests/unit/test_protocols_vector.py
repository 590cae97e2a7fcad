"""Unit tests for the vector-clock causal protocol."""

from repro.checker import check_causal
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.core import Simulator


def make_system(delay=1.0, seed=0):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, default_delay=delay, seed=seed)
    return sim, recorder, system


class TestBasicPropagation:
    def test_write_becomes_visible_everywhere(self):
        sim, _, system = make_system()
        writer = system.add_application("A", [Write("x", 1)])
        reader = system.add_application("B", [Sleep(5.0), Read("x")])
        sim.run()
        assert reader.mcs.local_value("x") == 1
        assert writer.mcs.local_value("x") == 1

    def test_write_responds_immediately(self):
        sim, recorder, system = make_system(delay=10.0)
        system.add_application("A", [Write("x", 1)])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_messages_per_write_is_x_minus_one(self):
        # The §6 assumption: x MCS-processes => x - 1 messages per write.
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        for name in ("B", "C", "D"):
            system.add_application(name, [])
        sim.run()
        assert system.mcs_count == 4
        assert system.network.messages_sent == 2 * 3

    def test_reads_generate_no_messages(self):
        sim, _, system = make_system()
        system.add_application("A", [Read("x"), Read("y")])
        system.add_application("B", [])
        sim.run()
        assert system.network.messages_sent == 0


class TestCausalApplyOrder:
    def test_buffered_until_causally_ready(self):
        # A's write reaches C late; B's causally-later write must wait.
        sim, recorder, system = make_system()
        writer_a = system.add_application("A", [Write("x", 1)])

        def b_program():
            while True:
                value = yield Read("x")
                if value == 1:
                    break
                yield Sleep(0.5)
            yield Write("y", 2)

        system.add_application("B", b_program())
        observer_program = []
        for _ in range(30):
            observer_program.append(Read("y"))
            observer_program.append(Read("x"))
            observer_program.append(Sleep(1.0))
        observer = system.add_application("C", observer_program)
        system.network.set_delay(writer_a.mcs.name, observer.mcs.name, 25.0)
        sim.run()
        history = recorder.history()
        # C must never see y=2 before x=1 (causality).
        seen = [
            (op.var, op.value)
            for op in history.of_process("C")
            if op.is_read
        ]
        saw_y = False
        for var, value in seen:
            if var == "y" and value == 2:
                saw_y = True
            if var == "x" and value is None:
                assert not saw_y, "C saw y=2 before x=1: causality broken"
        assert check_causal(history).ok

    def test_clock_advances_per_write(self):
        sim, _, system = make_system()
        app = system.add_application("A", [Write("x", 1), Write("x", 2)])
        sim.run()
        assert app.mcs.clock.get(app.mcs.proc_index) == 2

    def test_updates_applied_counter(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1)])
        other = system.add_application("B", [])
        sim.run()
        assert other.mcs.updates_applied == 1

    def test_same_process_writes_apply_in_order(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Write("x", 2), Write("x", 3)])
        reader = system.add_application("B", [Sleep(10.0), Read("x")])
        sim.run()
        assert reader.mcs.local_value("x") == 3


class TestConsistency:
    def test_random_workload_histories_are_causal(self):
        from repro.workloads import WorkloadSpec, populate_system
        from repro.workloads.scenarios import run_until_quiescent

        # Five small seeded shapes, then a 320-op and a 300-op history.
        shapes = [(4, 8, 0.6, seed) for seed in range(5)]
        shapes += [(8, 40, 0.4, 0), (10, 30, 0.4, 1)]
        for processes, ops, write_ratio, seed in shapes:
            sim, recorder, system = make_system(seed=seed)
            populate_system(
                system,
                WorkloadSpec(
                    processes=processes,
                    ops_per_process=ops,
                    write_ratio=write_ratio,
                ),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            history = recorder.history()
            assert len(history) == processes * ops
            assert check_causal(history).ok
