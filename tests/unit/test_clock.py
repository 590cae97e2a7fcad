"""Unit tests for vector and Lamport clocks."""

import pytest

from repro.sim.clock import LamportClock, LamportTimestamp, VectorClock


class TestVectorClockBasics:
    def test_empty_clock_entries_are_zero(self):
        clock = VectorClock()
        assert clock.get(0) == 0
        assert clock.get(99) == 0

    def test_increment_returns_new_clock(self):
        clock = VectorClock()
        bumped = clock.increment(2)
        assert clock.get(2) == 0
        assert bumped.get(2) == 1

    def test_zero_entries_are_normalised_away(self):
        assert VectorClock({1: 0, 2: 3}) == VectorClock({2: 3})

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            VectorClock({0: -1})

    def test_trailing_zero_entries_are_normalised_away(self):
        clock = VectorClock({0: 2, 5: 0})
        assert clock == VectorClock({0: 2})
        assert hash(clock) == hash(VectorClock({0: 2}))
        assert repr(clock) == "VC({0:2})"

    def test_negative_process_index_rejected(self):
        # The clock is dense over process indices, which start at zero.
        with pytest.raises(ValueError):
            VectorClock({-1: 1})
        with pytest.raises(ValueError):
            VectorClock().increment(-1)
        assert VectorClock({0: 1}).get(-1) == 0

    def test_equality_and_hash(self):
        a = VectorClock({0: 1, 1: 2})
        b = VectorClock({1: 2, 0: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != VectorClock({0: 1})

    def test_repr_mentions_entries(self):
        assert "0:1" in repr(VectorClock({0: 1}))


class TestVectorClockOrder:
    def test_merge_is_pointwise_max(self):
        a = VectorClock({0: 3, 1: 1})
        b = VectorClock({1: 5, 2: 2})
        merged = a.merge(b)
        assert merged == VectorClock({0: 3, 1: 5, 2: 2})

    def test_dominates_reflexive(self):
        clock = VectorClock({0: 2})
        assert clock.dominates(clock)

    def test_strict_order(self):
        small = VectorClock({0: 1})
        big = VectorClock({0: 2, 1: 1})
        assert small < big
        assert not big < small
        assert small <= big

    def test_concurrent_clocks(self):
        a = VectorClock({0: 1})
        b = VectorClock({1: 1})
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)
        assert not a.concurrent_with(a)

    def test_merge_dominates_both(self):
        a = VectorClock({0: 4, 1: 1})
        b = VectorClock({1: 3, 2: 7})
        merged = a.merge(b)
        assert merged.dominates(a)
        assert merged.dominates(b)

    def test_join_all(self):
        clocks = [VectorClock({0: 1}), VectorClock({1: 2}), VectorClock({0: 3})]
        assert VectorClock.join_all(clocks) == VectorClock({0: 3, 1: 2})

    def test_processes_lists_nonzero(self):
        clock = VectorClock({3: 1, 7: 2})
        assert sorted(clock.processes()) == [3, 7]


class TestCausalReadiness:
    def test_next_write_with_applied_dependencies_is_ready(self):
        local = VectorClock({0: 2, 1: 1})
        assert VectorClock({0: 1, 1: 2}).causally_ready(local, sender=1)
        assert VectorClock({2: 1}).causally_ready(local, sender=2)

    def test_gap_from_sender_is_not_ready(self):
        local = VectorClock({1: 1})
        assert not VectorClock({1: 3}).causally_ready(local, sender=1)
        assert not VectorClock({1: 1}).causally_ready(local, sender=1)

    def test_unapplied_dependency_is_not_ready(self):
        local = VectorClock({0: 2})
        assert not VectorClock({0: 2, 1: 1, 3: 1}).causally_ready(local, sender=1)
        assert not VectorClock({0: 3, 1: 1}).causally_ready(local, sender=1)


class TestLamportClock:
    def test_tick_increments(self):
        clock = LamportClock(proc=5)
        assert clock.tick() == LamportTimestamp(1, 5)
        assert clock.tick() == LamportTimestamp(2, 5)

    def test_observe_jumps_past_remote(self):
        clock = LamportClock(proc=0)
        stamped = clock.observe(LamportTimestamp(10, 1))
        assert stamped.counter == 11

    def test_observe_older_still_advances(self):
        clock = LamportClock(proc=0)
        clock.tick()
        clock.tick()
        stamped = clock.observe(LamportTimestamp(1, 1))
        assert stamped.counter == 3

    def test_timestamps_totally_ordered(self):
        assert LamportTimestamp(1, 0) < LamportTimestamp(1, 1) < LamportTimestamp(2, 0)

    def test_current_does_not_advance(self):
        clock = LamportClock(proc=0)
        clock.tick()
        assert clock.current == clock.current
