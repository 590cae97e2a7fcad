"""Reliable FIFO channels with delay models and availability schedules.

The IS-protocols of the paper only require "a bidirectional reliable FIFO
channel connecting one process from each system" (§1.1), and explicitly
tolerate the channel being unavailable for periods of time ("dial-up"
operation): updates queue up and are propagated later. Both properties are
modelled here:

* FIFO + reliability: every message sent is delivered, and delivery order
  equals send order regardless of sampled per-message delays.
* Availability: an :class:`AvailabilitySchedule` says when the link is up;
  a message sent while the link is down starts transmission at the next
  up-time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ChannelError
from repro.sim.core import Simulator


class DelayModel:
    """Samples a per-message transmission delay."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Every message takes exactly *delay* time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ChannelError(f"negative delay {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Delay drawn uniformly from [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ChannelError(f"bad uniform delay bounds [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Exponentially distributed delay with the given mean, plus a floor."""

    mean: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.floor < 0:
            raise ChannelError("exponential delay needs mean > 0 and floor >= 0")

    def sample(self, rng: random.Random) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)


class AvailabilitySchedule:
    """Says when a link is up. Implementations must be time-monotone."""

    def is_up(self, time: float) -> bool:
        raise NotImplementedError

    def next_up(self, time: float) -> float:
        """Earliest instant >= *time* at which the link is up."""
        raise NotImplementedError


class AlwaysUp(AvailabilitySchedule):
    """A link that is never down."""

    def is_up(self, time: float) -> bool:
        return True

    def next_up(self, time: float) -> float:
        return time


@dataclass(frozen=True)
class UpWindows(AvailabilitySchedule):
    """Up only during the half-open windows [start, end); down otherwise.

    After the last window the link is up forever (so queued traffic always
    drains, matching the paper's reliability assumption).
    """

    windows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        previous_end = -math.inf
        for start, end in self.windows:
            if end <= start or start < previous_end:
                raise ChannelError(f"windows must be disjoint and increasing: {self.windows}")
            previous_end = end

    def is_up(self, time: float) -> bool:
        if not self.windows or time >= self.windows[-1][1]:
            return True
        return any(start <= time < end for start, end in self.windows)

    def next_up(self, time: float) -> float:
        if self.is_up(time):
            return time
        for start, _end in self.windows:
            if start >= time:
                return start
        return time  # pragma: no cover - is_up already covers the tail


@dataclass(frozen=True)
class PeriodicAvailability(AvailabilitySchedule):
    """Dial-up style link: up for the first *up_fraction* of every period."""

    period: float
    up_fraction: float

    def __post_init__(self) -> None:
        if self.period <= 0 or not (0 < self.up_fraction <= 1):
            raise ChannelError("need period > 0 and 0 < up_fraction <= 1")

    def is_up(self, time: float) -> bool:
        phase = time % self.period
        return phase < self.up_fraction * self.period

    def next_up(self, time: float) -> float:
        if self.is_up(time):
            return time
        return (math.floor(time / self.period) + 1) * self.period


@dataclass
class ChannelStats:
    """Running totals for a single channel direction."""

    messages_sent: int = 0
    messages_delivered: int = 0
    total_delay: float = 0.0
    max_queue_length: int = 0

    @property
    def in_flight(self) -> int:
        return self.messages_sent - self.messages_delivered

    @property
    def mean_delay(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.total_delay / self.messages_delivered


class ReliableFifoChannel:
    """A unidirectional reliable FIFO channel.

    Messages are delivered by invoking *deliver* with the payload. Delivery
    order always equals send order: even if a later message samples a
    shorter delay, it is held back behind its predecessors.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: AvailabilitySchedule | None = None,
        rng: random.Random | None = None,
        name: str = "channel",
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._delay = FixedDelay(delay) if isinstance(delay, (int, float)) else delay
        self._availability = availability or AlwaysUp()
        self._rng = rng or random.Random(0)
        self._last_delivery = -math.inf
        self._closed = False
        self._pending = 0
        self.name = name
        self.stats = ChannelStats()

    @property
    def is_up(self) -> bool:
        return self._availability.is_up(self._sim.now)

    def next_up_time(self) -> float:
        """Earliest instant >= now at which the link is up."""
        return self._availability.next_up(self._sim.now)

    def send(self, message: Any) -> float:
        """Send *message*; returns the scheduled delivery time.

        If the link is down, transmission begins at the next up-time. The
        message is never lost (reliability).
        """
        if self._closed:
            raise ChannelError(f"send on closed channel {self.name!r}")
        now = self._sim.now
        start = self._availability.next_up(now)
        deliver_at = max(start + self._delay.sample(self._rng), self._last_delivery)
        self._last_delivery = deliver_at
        self.stats.messages_sent += 1
        self._pending += 1
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._pending)
        send_time = now
        ordinal = self.stats.messages_sent
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.emit(now, "msg.send", self.name, channel=self.name, n=ordinal)

        def fire() -> None:
            self._pending -= 1
            self.stats.messages_delivered += 1
            self.stats.total_delay += self._sim.now - send_time
            tracer = self._sim.tracer
            if tracer is not None:
                tracer.emit(
                    self._sim.now,
                    "msg.recv",
                    self.name,
                    channel=self.name,
                    n=ordinal,
                    latency=self._sim.now - send_time,
                )
            self._deliver(message)

        # Tagged with the channel name: deliveries of one channel direction
        # form one scheduling domain, so a SchedulerPolicy can interleave
        # them against other components but never reorder them against
        # each other (FIFO is part of the channel's contract).
        self._sim.schedule_at(deliver_at, fire, tag=f"chan:{self.name}")
        return deliver_at

    def close(self) -> None:
        """Refuse further sends. In-flight messages still deliver."""
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReliableFifoChannel({self.name!r}, in_flight={self.stats.in_flight})"


__all__ = [
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "ExponentialDelay",
    "AvailabilitySchedule",
    "AlwaysUp",
    "UpWindows",
    "PeriodicAvailability",
    "ReliableFifoChannel",
    "ChannelStats",
]
