"""Logical clocks: vector clocks and Lamport clocks.

Vector clocks are the workhorse of the causal MCS protocols
(:mod:`repro.protocols.vector`): a write is applied at a replica only when
it is *causally ready* with respect to the replica's clock. Lamport clocks
provide the total-order tiebreaker used by the sequential protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, le
from typing import Iterable, Iterator, Mapping


class VectorClock:
    """An immutable vector clock over non-negative integer process indices.

    The clock is stored densely: a tuple of counts indexed by process,
    with trailing zeros trimmed, so entries default to zero, clocks over
    different process sets compare sensibly, and equal clocks have equal
    tuples (hence equal hashes and fingerprints). Every operation is one
    O(P) pass and returns a new clock; instances are hashable and safe to
    embed in messages.
    """

    __slots__ = ("_counts",)

    def __init__(self, entries: Mapping[int, int] | None = None) -> None:
        counts: list[int] = []
        if entries:
            for proc, count in entries.items():
                if proc < 0:
                    raise ValueError(f"negative process index {proc}")
                if count < 0:
                    raise ValueError(f"negative clock entry for process {proc}")
                if count > 0:
                    if proc >= len(counts):
                        counts.extend([0] * (proc + 1 - len(counts)))
                    counts[proc] = count
        self._counts: tuple[int, ...] = tuple(counts)

    @classmethod
    def _of(cls, counts: tuple[int, ...]) -> "VectorClock":
        """Wrap an already-trimmed count tuple without re-validating it."""
        clock = object.__new__(cls)
        clock._counts = counts
        return clock

    def get(self, proc: int) -> int:
        """Value of the entry for *proc* (0 if absent)."""
        counts = self._counts
        return counts[proc] if 0 <= proc < len(counts) else 0

    def increment(self, proc: int) -> "VectorClock":
        """Return a copy with *proc*'s entry incremented by one."""
        if proc < 0:
            raise ValueError(f"negative process index {proc}")
        counts = self._counts
        if proc < len(counts):
            return VectorClock._of(counts[:proc] + (counts[proc] + 1,) + counts[proc + 1 :])
        return VectorClock._of(counts + (0,) * (proc - len(counts)) + (1,))

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum (join) of the two clocks."""
        longer, shorter = self._counts, other._counts
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        # Both tuples end in a nonzero count, so the join needs no trim.
        joined = [a if a > b else b for a, b in zip(longer, shorter)]
        return VectorClock._of(tuple(joined) + longer[len(shorter) :])

    def dominates(self, other: "VectorClock") -> bool:
        """True if every entry of *self* is >= the entry of *other*."""
        mine, theirs = self._counts, other._counts
        # other's last entry is nonzero, so a longer *other* is ahead there.
        return len(mine) >= len(theirs) and all(map(ge, mine, theirs))

    def causally_ready(self, local: "VectorClock", sender: int) -> bool:
        """True if a write stamped with *self* by process *sender* may be
        applied at a replica whose clock is *local*.

        Ready iff the sender's entry is the next one *local* expects from
        it and no other entry is ahead of *local*: every write the update
        depends on has been applied there. This is the delivery condition
        of every vector-clock protocol in :mod:`repro.protocols`.
        """
        stamp, seen = self._counts, local._counts
        if len(seen) < len(stamp):
            seen = seen + (0,) * (len(stamp) - len(seen))
        if not 0 <= sender < len(stamp) or stamp[sender] != seen[sender] + 1:
            return False
        return all(map(le, stamp[:sender], seen)) and all(
            map(le, stamp[sender + 1 :], seen[sender + 1 :])
        )

    def __le__(self, other: "VectorClock") -> bool:
        return other.dominates(self)

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self != other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True if neither clock dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def processes(self) -> Iterator[int]:
        """Processes with a nonzero entry, in increasing index order."""
        return (proc for proc, count in enumerate(self._counts) if count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{proc}:{count}" for proc, count in enumerate(self._counts) if count
        )
        return f"VC({{{inner}}})"

    @classmethod
    def join_all(cls, clocks: Iterable["VectorClock"]) -> "VectorClock":
        """Pointwise maximum of any number of clocks."""
        result = cls()
        for clock in clocks:
            result = result.merge(clock)
        return result


@dataclass(frozen=True, order=True)
class LamportTimestamp:
    """A Lamport timestamp: (counter, process id) totally ordered pairs."""

    counter: int
    proc: int


class LamportClock:
    """A mutable Lamport clock owned by a single process."""

    __slots__ = ("_proc", "_counter")

    def __init__(self, proc: int) -> None:
        self._proc = proc
        self._counter = 0

    def tick(self) -> LamportTimestamp:
        """Advance for a local event and return the new timestamp."""
        self._counter += 1
        return LamportTimestamp(self._counter, self._proc)

    def observe(self, remote: LamportTimestamp) -> LamportTimestamp:
        """Advance past a received timestamp and return the new timestamp."""
        self._counter = max(self._counter, remote.counter) + 1
        return LamportTimestamp(self._counter, self._proc)

    @property
    def current(self) -> LamportTimestamp:
        return LamportTimestamp(self._counter, self._proc)


__all__ = ["VectorClock", "LamportClock", "LamportTimestamp"]
