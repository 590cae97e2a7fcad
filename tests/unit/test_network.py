"""Unit tests for the per-system network fabric."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, combine
from repro.sim.core import Simulator
from repro.sim.network import Network


def make_net(node_names, segments=None, metrics=None, **kwargs):
    sim = Simulator(instruments=combine(None, metrics))
    net = Network(sim, **kwargs)
    inboxes = {}
    for index, name in enumerate(node_names):
        inbox = []
        inboxes[name] = inbox
        segment = segments[index] if segments else "default"
        net.add_node(name, lambda src, payload, _inbox=inbox: _inbox.append((src, payload)), segment)
    return sim, net, inboxes


class TestNodes:
    def test_duplicate_node_rejected(self):
        sim, net, _ = make_net(["a"])
        with pytest.raises(ConfigurationError):
            net.add_node("a", lambda src, payload: None)

    def test_node_ids_and_segments(self):
        _, net, _ = make_net(["a", "b"], segments=["lan0", "lan1"])
        assert set(net.node_ids) == {"a", "b"}
        assert net.segment_of("b") == "lan1"
        assert net.has_node("a") and not net.has_node("zzz")


class TestSend:
    def test_point_to_point_delivery(self):
        sim, net, inboxes = make_net(["a", "b"], default_delay=2.0)
        net.send("a", "b", "hi")
        sim.run()
        assert inboxes["b"] == [("a", "hi")]
        assert inboxes["a"] == []

    def test_unknown_endpoints_rejected(self):
        sim, net, _ = make_net(["a"])
        with pytest.raises(ConfigurationError):
            net.send("a", "ghost", "x")
        with pytest.raises(ConfigurationError):
            net.send("ghost", "a", "x")

    def test_per_pair_fifo(self):
        sim, net, inboxes = make_net(["a", "b"], default_delay=1.0)
        for index in range(20):
            net.send("a", "b", index)
        sim.run()
        assert [payload for _, payload in inboxes["b"]] == list(range(20))

    def test_broadcast_counts_messages(self):
        sim, net, inboxes = make_net(["a", "b", "c", "d"])
        count = net.broadcast("a", "update")
        sim.run()
        assert count == 3
        assert inboxes["a"] == []
        assert all(inboxes[node] == [("a", "update")] for node in ("b", "c", "d"))

    def test_messages_sent_counter(self):
        sim, net, _ = make_net(["a", "b", "c"])
        net.broadcast("a", "u")
        net.send("b", "c", "v")
        assert net.messages_sent == 3

    def test_set_delay_override(self):
        sim, net, inboxes = make_net(["a", "b", "c"], default_delay=1.0)
        net.set_delay("a", "c", 50.0)
        net.send("a", "b", "fast")
        net.send("a", "c", "slow")
        sim.run(until=2.0)
        assert inboxes["b"] and not inboxes["c"]
        sim.run()
        assert inboxes["c"] == [("a", "slow")]

    def test_set_delay_after_use_rejected(self):
        sim, net, _ = make_net(["a", "b"])
        net.send("a", "b", "x")
        with pytest.raises(ConfigurationError):
            net.set_delay("a", "b", 9.0)


class TestSendCounters:
    def test_cross_segment_send_counted(self):
        registry = MetricsRegistry()
        sim, net, _ = make_net(["a", "b"], segments=["lan0", "lan1"], metrics=registry)
        net.send("a", "b", "payload")
        assert registry.total("bottleneck_crossings_total", network="net") == 1
        assert registry.total("net_messages_total", network="net", kind="str") == 1
        assert registry.total("net_messages_total", kind="int") == 0

    def test_same_segment_does_not_cross(self):
        registry = MetricsRegistry()
        sim, net, _ = make_net(["a", "b"], segments=["lan0", "lan0"], metrics=registry)
        net.send("a", "b", "payload")
        assert registry.total("net_messages_total") == net.messages_sent == 1
        assert registry.total("bottleneck_crossings_total") == 0

    def test_counts_follow_a_swapped_registry(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        sim, net, _ = make_net(["a", "b"], segments=["lan0", "lan1"], metrics=first)
        net.send("a", "b", "payload")
        net.send("a", "b", 7)
        sim.instruments = combine(None, second)
        net.send("a", "b", "payload")
        sim.instruments = None
        net.send("a", "b", "payload")
        assert registry_counts(first) == (2, 1, 1, 2)
        assert registry_counts(second) == (1, 1, 0, 1)
        assert net.messages_sent == 4


def registry_counts(registry):
    return (
        registry.total("net_messages_total", network="net"),
        registry.total("net_messages_total", kind="str"),
        registry.total("net_messages_total", kind="int"),
        registry.total("bottleneck_crossings_total", network="net"),
    )
