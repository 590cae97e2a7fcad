"""Building the paper's reliable FIFO channel out of lossy parts.

The IS-protocols *assume* "a bidirectional reliable FIFO channel
connecting one process from each system" (§1.1); every correctness result
downstream (Lemma 1, Theorem 1) leans on that assumption. This module
discharges it constructively:

* :class:`LossyChannel` — an adversarial transport. Frames may be
  dropped, duplicated, or reordered, each governed by a
  :class:`FaultPlan`, and whole time windows may be partitioned (frames
  sent during a partition are lost, unlike the queue-and-drain semantics
  of :class:`repro.sim.channel.AvailabilitySchedule`). All fault
  decisions flow through the deterministic sim rng, so a failing
  schedule replays exactly.

* :class:`ResilientTransport` — a session layer that recovers the
  reliable-FIFO contract on top of two lossy wires (one for DATA frames,
  one for cumulative ACKs): per-message sequence numbers, out-of-order
  buffering at the receiver, cumulative acknowledgements, and
  retransmission with exponential backoff plus jitter
  (:class:`RetryPolicy`). Delivery to the application callback is
  exactly-once and in send order — precisely the §1.1 channel — as long
  as every frame has a nonzero chance of crossing eventually.

The transport deliberately mirrors :class:`ReliableFifoChannel`'s
constructor and surface (``send``/``stats``/``is_up``/``close``) so
:func:`repro.interconnect.bridge.connect` can swap it in without the
IS-processes noticing; that substitutability *is* the point.

Crash-recovery of the endpoints (the session state is volatile) is
layered on separately: :mod:`repro.resilience.recovery` journals the
session through a write-ahead log and restores it with
:meth:`ResilientTransport.restore_sender` /
:meth:`ResilientTransport.restore_receiver`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ChannelError
from repro.sim.channel import (
    AvailabilitySchedule,
    ChannelStats,
    DelayModel,
    ReliableFifoChannel,
)
from repro.sim.core import EventHandle, Simulator


@dataclass(frozen=True)
class FaultPlan:
    """What an adversarial link is allowed to do to each frame.

    Attributes:
        drop_probability: chance a frame vanishes in transit.
        duplicate_probability: chance a frame is delivered twice (the
            copy trails the original by an extra sampled delay).
        reorder_probability: chance a frame skips the FIFO hold-back and
            races ahead/behind its neighbours by up to *reorder_spread*
            extra delay.
        reorder_spread: the extra delay bound for reordered frames.
        partitions: half-open ``[start, end)`` windows of virtual time
            during which every frame sent is lost.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_spread: float = 4.0
    partitions: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability", "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0 or (name == "drop_probability" and p >= 1.0):
                raise ChannelError(f"{name}={p} out of range (drop must be < 1 for liveness)")
        if self.reorder_spread < 0:
            raise ChannelError(f"negative reorder_spread {self.reorder_spread}")
        previous_end = -math.inf
        for start, end in self.partitions:
            if end <= start or start < previous_end:
                raise ChannelError(f"partitions must be disjoint and increasing: {self.partitions}")
            previous_end = end

    @property
    def is_benign(self) -> bool:
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.reorder_probability == 0.0
            and not self.partitions
        )

    def partitioned_at(self, time: float) -> bool:
        return any(start <= time < end for start, end in self.partitions)

    def next_heal(self, time: float) -> float:
        """Earliest instant >= *time* outside every partition window."""
        for start, end in self.partitions:
            if start <= time < end:
                return end
        return time


#: The do-nothing plan: a LossyChannel under NO_FAULTS behaves exactly
#: like a ReliableFifoChannel.
NO_FAULTS = FaultPlan()


class LossyChannel(ReliableFifoChannel):
    """A unidirectional channel that honours a :class:`FaultPlan`.

    With :data:`NO_FAULTS` this is byte-for-byte a
    :class:`ReliableFifoChannel`; each fault knob breaks exactly one of
    the §1.1 assumptions, which is what the resilience layer exists to
    repair.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: Optional[AvailabilitySchedule] = None,
        rng: Optional[random.Random] = None,
        name: str = "lossy",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(
            sim, deliver, delay=delay, availability=availability, rng=rng, name=name
        )
        self.faults = faults or NO_FAULTS
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0

    @property
    def is_up(self) -> bool:
        return super().is_up and not self.faults.partitioned_at(self._sim.now)

    def next_up_time(self) -> float:
        time = self._availability.next_up(self._sim.now)
        return self.faults.next_heal(time)

    def send(self, message: Any) -> float:
        if self._closed:
            raise ChannelError(f"send on closed channel {self.name!r}")
        now = self._sim.now
        self.stats.messages_sent += 1
        ordinal = self.stats.messages_sent
        instruments = self._sim.instruments
        if instruments is not None and instruments.tracer is not None:
            instruments.tracer.emit(
                now, "msg.send", self.name, channel=self.name, n=ordinal
            )
        # One rng draw per knob per frame, always, so that toggling one
        # fault never perturbs the stream feeding the others.
        r_drop = self._rng.random()
        r_reorder = self._rng.random()
        r_dup = self._rng.random()
        plan = self.faults
        if plan.partitioned_at(now) or r_drop < plan.drop_probability:
            self.frames_dropped += 1
            if instruments is not None and instruments.tracer is not None:
                instruments.tracer.emit(
                    now, "msg.drop", self.name, channel=self.name, n=ordinal
                )
            if instruments is not None and instruments.metrics is not None:
                instruments.metrics.counter(
                    "channel_frames_dropped_total", channel=self.name
                ).inc()
            return now
        start = self._availability.next_up(now)
        deliver_at = start + self._delay.sample(self._rng)
        if r_reorder < plan.reorder_probability:
            # Escape the FIFO hold-back: this frame's delivery time is
            # independent of its predecessors', so it can overtake them.
            deliver_at += self._rng.uniform(0.0, plan.reorder_spread)
            self.frames_reordered += 1
        else:
            deliver_at = max(deliver_at, self._last_delivery)
            self._last_delivery = deliver_at
        self._schedule_delivery(deliver_at, message, now, ordinal)
        if r_dup < plan.duplicate_probability:
            self.frames_duplicated += 1
            extra = self._delay.sample(self._rng) + 1e-9
            self._schedule_delivery(deliver_at + extra, message, now, ordinal)
        return deliver_at

    def _schedule_delivery(
        self, deliver_at: float, message: Any, send_time: float, ordinal: int = 0
    ) -> None:
        self._pending += 1
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._pending)

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

        self._sim.schedule_at(deliver_at, fire)


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission timing: exponential backoff with jitter.

    The n-th consecutive timeout without ack progress waits
    ``min(base_timeout * multiplier**n, max_timeout)`` scaled by a
    random factor in ``[1, 1 + jitter]``. Progress resets n to 0.
    """

    base_timeout: float = 4.0
    multiplier: float = 2.0
    max_timeout: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base_timeout <= 0 or self.multiplier < 1 or self.jitter < 0:
            raise ChannelError(f"bad retry policy {self}")
        if self.max_timeout < self.base_timeout:
            raise ChannelError("max_timeout must be >= base_timeout")

    def timeout(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base_timeout * self.multiplier ** attempt, self.max_timeout)
        return raw * (1.0 + rng.random() * self.jitter)


@dataclass
class TransportStats:
    """Wire-level accounting of one transport direction (stats beyond the
    app-level :class:`ChannelStats` kept in ``.stats``)."""

    data_frames_sent: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    stale_frames: int = 0
    buffered_out_of_order: int = 0
    frames_refused: int = 0  # dropped because the endpoint host was down

    @property
    def retransmit_overhead(self) -> float:
        """Fraction of DATA frames that were retransmissions."""
        if self.data_frames_sent == 0:
            return 0.0
        return self.retransmissions / self.data_frames_sent


_DATA = "DATA"
_ACK = "ACK"


class ResilientTransport:
    """Exactly-once FIFO delivery over lossy wires (the §1.1 channel, earned).

    One instance is one *direction*: ``send()`` is called at the sender
    end, *deliver* fires at the receiver end. Internally it owns two
    :class:`LossyChannel` wires — DATA frames sender->receiver and ACK
    frames receiver->sender — both subject to the same :class:`FaultPlan`
    (independent rng streams).

    Protocol: every message gets a sequence number; the receiver delivers
    in sequence order, buffering out-of-order arrivals, and acknowledges
    cumulatively (the ack names the next sequence it is waiting for).
    Unacknowledged frames are retransmitted on a timer with exponential
    backoff and jitter (:class:`RetryPolicy`). Duplicates — whether
    injected by the wire or by retransmission — are filtered by sequence
    number, so delivery is exactly-once however badly the wire behaves.

    Hooks (``on_assign``, ``on_ack_progress``, ``on_deliver``) and the
    ``restore_sender``/``restore_receiver`` methods exist for the
    durability layer, which journals the session state through a WAL and
    rebuilds it after an endpoint crash; ``sender_up``/``receiver_up``
    gate frame processing while the owning IS-process is down.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: Optional[AvailabilitySchedule] = None,
        rng: Optional[random.Random] = None,
        name: str = "resilient",
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        sender_up: Optional[Callable[[], bool]] = None,
        receiver_up: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._rng = rng or random.Random(0)
        self.name = name
        self.retry = retry or RetryPolicy()
        self._sender_up = sender_up or (lambda: True)
        self._receiver_up = receiver_up or (lambda: True)
        self._closed = False
        # Two independent lossy wires; splitting the rng keeps the fault
        # schedule deterministic per direction.
        data_rng = random.Random(self._rng.getrandbits(48))
        ack_rng = random.Random(self._rng.getrandbits(48))
        self._wire_data = LossyChannel(
            sim, self._on_data_frame, delay=delay, availability=availability,
            rng=data_rng, name=f"{name}:data", faults=faults,
        )
        self._wire_ack = LossyChannel(
            sim, self._on_ack_frame, delay=delay, availability=availability,
            rng=ack_rng, name=f"{name}:ack", faults=faults,
        )
        # Sender-side session state (volatile; journalled by the WAL layer).
        self._next_seq = 0
        self._unacked: dict[int, Any] = {}  # seq -> message, insertion = seq order
        self._sent_at: dict[int, float] = {}
        self._retry_handle: Optional[EventHandle] = None
        self._backoff_level = 0
        # Receiver-side session state.
        self._next_expected = 0
        self._out_of_order: dict[int, Any] = {}
        # Accounting.
        self.stats = ChannelStats()  # app-level messages, ChannelStats-compatible
        self.wire = TransportStats()
        # Durability hooks.
        self.on_assign: Optional[Callable[[int, Any], None]] = None
        self.on_ack_progress: Optional[Callable[[int], None]] = None
        self.on_deliver: Optional[Callable[[int, Any], None]] = None

    # -- ReliableFifoChannel surface ---------------------------------------

    @property
    def is_up(self) -> bool:
        return self._wire_data.is_up

    def next_up_time(self) -> float:
        return self._wire_data.next_up_time()

    @property
    def faults(self) -> FaultPlan:
        return self._wire_data.faults

    def send(self, message: Any) -> float:
        """Accept *message* for exactly-once FIFO delivery; returns the
        first transmission attempt's scheduled arrival (the wire may well
        lose it — the session layer is what makes the promise)."""
        if self._closed:
            raise ChannelError(f"send on closed transport {self.name!r}")
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = message
        self._sent_at[seq] = self._sim.now
        self.stats.messages_sent += 1
        self.stats.max_queue_length = max(self.stats.max_queue_length, len(self._unacked))
        if self.on_assign is not None:
            self.on_assign(seq, message)
        eta = self._transmit(seq, message)
        self._arm_timer()
        return eta

    def close(self) -> None:
        """Refuse further sends; in-flight frames still deliver."""
        self._closed = True
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    # -- sender side --------------------------------------------------------

    def _transmit(self, seq: int, message: Any) -> float:
        self.wire.data_frames_sent += 1
        return self._wire_data.send((_DATA, seq, message))

    def _arm_timer(self) -> None:
        if self._retry_handle is not None or not self._unacked:
            return
        timeout = self.retry.timeout(self._backoff_level, self._rng)
        self._retry_handle = self._sim.schedule(timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self._retry_handle = None
        if not self._unacked:
            return
        if self._sender_up():
            for seq, message in self._unacked.items():
                self._note_retransmit(seq)
                self._transmit(seq, message)
        self._backoff_level += 1
        self._arm_timer()

    def _note_retransmit(self, seq: int) -> None:
        self.wire.retransmissions += 1
        instruments = self._sim.instruments
        if instruments is not None:
            if instruments.metrics is not None:
                instruments.metrics.counter("retransmits_total", link=self.name).inc()
            if instruments.tracer is not None:
                instruments.tracer.emit(
                    self._sim.now, "retransmit", self.name, seq=seq
                )

    def _on_ack_frame(self, frame: Any) -> None:
        _, cumulative = frame
        if not self._sender_up():
            self.wire.frames_refused += 1
            return
        progressed = False
        for seq in [s for s in self._unacked if s < cumulative]:
            del self._unacked[seq]
            self._sent_at.pop(seq, None)
            progressed = True
        if not progressed:
            return
        self._backoff_level = 0
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None
        if self.on_ack_progress is not None:
            self.on_ack_progress(cumulative)
        self._arm_timer()

    def restore_sender(self, next_seq: int, unacked: list[tuple[int, Any]]) -> None:
        """Rebuild the sender session after a host crash (WAL replay) and
        retransmit everything not known to be acknowledged."""
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None
        self._next_seq = next_seq
        self._unacked = dict(sorted(unacked))
        self._sent_at = {seq: self._sim.now for seq in self._unacked}
        self._backoff_level = 0
        for seq, message in self._unacked.items():
            self._note_retransmit(seq)
            self._transmit(seq, message)
        self._arm_timer()

    def freeze_sender(self) -> None:
        """Stop the retransmission timer (the sending host just crashed)."""
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    # -- receiver side ------------------------------------------------------

    def _on_data_frame(self, frame: Any) -> None:
        _, seq, message = frame
        if not self._receiver_up():
            self.wire.frames_refused += 1
            return
        if seq < self._next_expected:
            # Duplicate of something already delivered: the ack that
            # retired it must have been lost. Re-ack, don't re-deliver.
            self.wire.stale_frames += 1
            self._send_ack()
            return
        if seq == self._next_expected:
            self._accept(seq, message)
            while self._next_expected in self._out_of_order:
                self._accept(self._next_expected, self._out_of_order.pop(self._next_expected))
        else:
            if seq not in self._out_of_order:
                self.wire.buffered_out_of_order += 1
                self._out_of_order[seq] = message
        self._send_ack()

    def _accept(self, seq: int, message: Any) -> None:
        self._next_expected = seq + 1
        self.stats.messages_delivered += 1
        sent_at = self._sent_at.get(seq)
        if sent_at is not None:
            self.stats.total_delay += self._sim.now - sent_at
        if self.on_deliver is not None:
            self.on_deliver(seq, message)
        self._deliver(message)

    def _send_ack(self) -> None:
        self.wire.acks_sent += 1
        self._wire_ack.send((_ACK, self._next_expected))

    def restore_receiver(self, next_expected: int) -> None:
        """Rebuild the receiver session after a host crash (WAL replay).

        The out-of-order buffer died with the host; the peer's
        retransmissions will refill it. Re-ack immediately so a peer deep
        in backoff learns which frames already landed before the crash.
        """
        self._next_expected = next_expected
        self._out_of_order.clear()
        self._send_ack()

    # -- diagnostics --------------------------------------------------------

    @property
    def frames_lost_on_wire(self) -> int:
        return self._wire_data.frames_dropped + self._wire_ack.frames_dropped

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResilientTransport({self.name!r}, unacked={len(self._unacked)}, "
            f"next_expected={self._next_expected})"
        )


__all__ = [
    "FaultPlan",
    "NO_FAULTS",
    "LossyChannel",
    "RetryPolicy",
    "TransportStats",
    "ResilientTransport",
]
