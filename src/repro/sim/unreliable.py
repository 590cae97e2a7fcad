"""Channels that violate the paper's assumptions — deliberately.

The IS-protocols assume a *reliable FIFO* channel between IS-processes
(§1.1). These test doubles break one assumption at a time so the
necessity of each can be demonstrated (experiment X7):

* :class:`ReorderingChannel` — reliable but NOT FIFO: each message is
  delivered after an independent delay, so later sends can overtake
  earlier ones. Lemma 1's conclusion ("pairs arrive in causal order")
  fails, and with it Theorem 1.
* :class:`DuplicatingChannel` — FIFO but at-least-once: messages may be
  delivered twice. A naive ``Propagate_in`` then writes the same value
  twice, violating the §2 value-uniqueness discipline; the
  ``dedup_incoming`` option of :class:`repro.interconnect.ISProcess`
  restores exactly-once semantics on top.

Both remain loss-free by design: each double breaks exactly one
assumption so X7 can attribute the failure it causes. Channels that
*also* lose, duplicate, reorder and partition — and the session layer
that rebuilds the §1.1 contract on top of them (sequence numbers,
cumulative acks, retransmission) — live in
:mod:`repro.resilience.transport` (:class:`LossyChannel`,
:class:`ResilientTransport`).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.sim.channel import (
    AvailabilitySchedule,
    DelayModel,
    ReliableFifoChannel,
)


class ReorderingChannel(ReliableFifoChannel):
    """Reliable, loss-free — but deliveries are NOT held back in order."""

    def send(self, message: Any) -> float:
        now = self._sim.now
        start = self._availability.next_up(now)
        deliver_at = start + self._delay.sample(self._rng)  # no FIFO floor
        self.stats.messages_sent += 1
        self._pending += 1
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._pending)
        send_time = now

        def fire() -> None:
            self._pending -= 1
            self.stats.messages_delivered += 1
            self.stats.total_delay += self._sim.now - send_time
            self._deliver(message)

        # One tag per message, not per channel: this channel's whole point
        # is that deliveries are NOT ordered, so a SchedulerPolicy must be
        # free to interleave them.
        self._sim.schedule_at(
            deliver_at, fire, tag=f"chan:{self.name}#{self.stats.messages_sent}"
        )
        return deliver_at


class DuplicatingChannel(ReliableFifoChannel):
    """FIFO and loss-free, but messages may be delivered more than once.

    Duplicates are injected with probability *dup_probability* per send
    and arrive after the original (FIFO preserved among originals; the
    duplicate trails by an extra sampled delay).
    """

    def __init__(
        self,
        sim,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: Optional[AvailabilitySchedule] = None,
        rng: Optional[random.Random] = None,
        name: str = "dup-channel",
        dup_probability: float = 0.5,
    ) -> None:
        super().__init__(
            sim,
            deliver,
            delay=delay,
            availability=availability,
            rng=rng,
            name=name,
        )
        self.dup_probability = dup_probability
        self.duplicates_injected = 0

    def send(self, message: Any) -> float:
        deliver_at = super().send(message)
        if self._rng.random() < self.dup_probability:
            self.duplicates_injected += 1
            extra = self._delay.sample(self._rng)

            def fire_duplicate() -> None:
                self._deliver(message)

            self._sim.schedule_at(
                deliver_at + extra + 1e-9,
                fire_duplicate,
                tag=f"chan:{self.name}#dup{self.duplicates_injected}",
            )
        return deliver_at


__all__ = ["ReorderingChannel", "DuplicatingChannel"]
