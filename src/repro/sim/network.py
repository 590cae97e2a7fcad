"""Point-to-point network fabric for one DSM system.

A :class:`Network` owns a lazily-built full mesh of reliable FIFO channels
between registered nodes. Each node lives on a named *segment* (think: a
LAN). Every send is counted once per channel (``ChannelStats``, summed by
:attr:`Network.messages_sent`) and, when a metrics registry is attached,
once in ``net_messages_total{network,kind}`` and, if it leaves its
segment, in ``bottleneck_crossings_total{network}`` — the §6
bottleneck-link count of messages crossing the slow inter-LAN link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim import rng as rng_mod
from repro.sim.channel import DelayModel, FixedDelay, ReliableFifoChannel
from repro.sim.core import Simulator

@dataclass
class _Node:
    deliver: Callable[[str, Any], None]
    segment: str


class Network:
    """A mesh of FIFO channels among named nodes, with traffic accounting."""

    def __init__(
        self,
        sim: Simulator,
        default_delay: DelayModel | float = 1.0,
        seed: int = 0,
        name: str = "net",
    ) -> None:
        self._sim = sim
        self._default_delay = (
            FixedDelay(default_delay) if isinstance(default_delay, (int, float)) else default_delay
        )
        self._seed = seed
        self.name = name
        self._nodes: dict[str, _Node] = {}
        self._channels: dict[tuple[str, str], ReliableFifoChannel] = {}
        self._delays: dict[tuple[str, str], DelayModel] = {}
        # Send counters, looked up in the registry once and kept until the
        # simulator's registry changes: payload type -> its
        # ``net_messages_total{network,kind}`` counter, and the
        # ``bottleneck_crossings_total`` counter once a send crosses.
        self._counted_by: Any = None
        self._kind_counters: dict[type, Any] = {}
        self._crossing_counter: Any = None

    def add_node(
        self,
        node_id: str,
        deliver: Callable[[str, Any], None],
        segment: str = "default",
    ) -> None:
        """Register a node. *deliver* is called as ``deliver(src, payload)``."""
        if node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node_id!r} on network {self.name!r}")
        self._nodes[node_id] = _Node(deliver, segment)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def segment_of(self, node_id: str) -> str:
        return self._nodes[node_id].segment

    @property
    def messages_sent(self) -> int:
        """Messages sent so far, summed over this network's channels."""
        return sum(channel.stats.messages_sent for channel in self._channels.values())

    def set_delay(self, src: str, dst: str, delay: DelayModel | float) -> None:
        """Override the delay model for the src->dst direction.

        Must be called before the first message on that direction.
        """
        key = (src, dst)
        if key in self._channels:
            raise ConfigurationError(f"channel {src}->{dst} already in use")
        self._delays[key] = FixedDelay(delay) if isinstance(delay, (int, float)) else delay

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send *payload* from node *src* to node *dst* (FIFO per pair)."""
        if src not in self._nodes:
            raise ConfigurationError(f"unknown sender {src!r}")
        if dst not in self._nodes:
            raise ConfigurationError(f"unknown destination {dst!r}")
        channel = self._channel(src, dst)
        metrics = self._sim.metrics
        if metrics is not None:
            if metrics is not self._counted_by:
                self._counted_by = metrics
                self._kind_counters = {}
                self._crossing_counter = None
            kind = type(payload)
            counter = self._kind_counters.get(kind)
            if counter is None:
                counter = self._kind_counters[kind] = metrics.counter(
                    "net_messages_total", network=self.name, kind=kind.__name__
                )
            counter.inc()
            if self._nodes[src].segment != self._nodes[dst].segment:
                if self._crossing_counter is None:
                    self._crossing_counter = metrics.counter(
                        "bottleneck_crossings_total", network=self.name
                    )
                self._crossing_counter.inc()
        channel.send(payload)

    def broadcast(self, src: str, payload: Any) -> int:
        """Send *payload* to every other node; returns the message count.

        This models the propagation-based MCS protocols' update broadcast:
        x MCS-processes => x - 1 messages per write (§6).
        """
        count = 0
        for node_id in self._nodes:
            if node_id != src:
                self.send(src, node_id, payload)
                count += 1
        return count

    def _channel(self, src: str, dst: str) -> ReliableFifoChannel:
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            delay = self._delays.get(key, self._default_delay)
            node = self._nodes[dst]
            channel = ReliableFifoChannel(
                self._sim,
                deliver=lambda payload, _src=src, _node=node: _node.deliver(_src, payload),
                delay=delay,
                rng=rng_mod.derive(self._seed, self.name, src, dst),
                name=f"{self.name}:{src}->{dst}",
            )
            self._channels[key] = channel
        return channel


__all__ = ["Network"]
