"""ZeroMQ-pattern socket semantics: REQ/REP, PUSH, PUB/SUB."""

import numpy as np
import pytest

from repro.net import Message, Network, PacketType
from repro.net.sockets import PubSubSocket, PushSocket, ReqRepSocket, SocketError
from repro.sim import Entity, SimKernel

NOTICE = {"versions": {"pagerank": 1}}
ADVANCE = {"phase": "step", "round": 1, "run_id": 1, "step": 1}


class Node(Entity):
    def __init__(self, network, name):
        super().__init__(network, name)
        self.push = PushSocket(self)
        self.req = ReqRepSocket(self)
        self.pub = PubSubSocket(self)
        self.received = []

    def handle_message(self, message):
        if message.ptype == PacketType.DIRECTORY_QUERY:
            self.network.send(message.reply(PacketType.DIRECTORY_ASSIGN, 7))
        elif message.ptype == PacketType.DIRECTORY_ASSIGN:
            self.req.handle_reply(message)
        else:
            self.received.append(message)


@pytest.fixture()
def net():
    kernel = SimKernel()
    return kernel, Network(kernel)


def test_push_is_non_blocking_delivery(net):
    kernel, network = net
    a, b = Node(network, "a"), Node(network, "b")
    a.push.push(b.address, PacketType.HEARTBEAT, {"agent_id": 1})
    assert b.received == []  # nothing until the simulator runs
    kernel.run()
    assert len(b.received) == 1


def test_push_refuses_an_undeclared_payload(net):
    _, network = net
    a, b = Node(network, "a"), Node(network, "b")
    with pytest.raises(TypeError, match="HEARTBEAT"):
        a.push.push(b.address, PacketType.HEARTBEAT, {"x": 1})


def test_reqrep_round_trip(net):
    kernel, network = net
    a, b = Node(network, "a"), Node(network, "b")
    replies = []
    a.req.request(b.address, PacketType.DIRECTORY_QUERY, on_reply=lambda m: replies.append(m.payload))
    kernel.run()
    assert replies == [7]
    assert not a.req.busy


def test_reqrep_rejects_second_outstanding_request(net):
    _, network = net
    a, b = Node(network, "a"), Node(network, "b")
    a.req.request(b.address, PacketType.DIRECTORY_QUERY)
    with pytest.raises(SocketError):
        a.req.request(b.address, PacketType.DIRECTORY_QUERY)


def test_reqrep_ignores_stale_reply(net):
    _, network = net
    a = Node(network, "a")
    stale = Message(ptype=PacketType.DIRECTORY_ASSIGN, payload=7, request_id=999)
    assert a.req.handle_reply(stale) is False


def test_pubsub_filters_by_type(net):
    kernel, network = net
    publisher = Node(network, "pub")
    sub_a, sub_b = Node(network, "sa"), Node(network, "sb")
    publisher.pub.subscribe(sub_a.address, [PacketType.RESULT_NOTICE])
    publisher.pub.subscribe(sub_b.address, [PacketType.RESULT_NOTICE, PacketType.SUPERSTEP_ADVANCE])
    n1 = publisher.pub.publish(PacketType.RESULT_NOTICE, NOTICE)
    n2 = publisher.pub.publish(PacketType.SUPERSTEP_ADVANCE, ADVANCE)
    kernel.run()
    assert (n1, n2) == (2, 1)
    assert len(sub_a.received) == 1
    assert len(sub_b.received) == 2


def test_pubsub_sizes_a_payload_once_per_fan_out(net, monkeypatch):
    kernel, network = net
    publisher = Node(network, "pub")
    subs = [Node(network, f"s{i}") for i in range(3)]
    for s in subs:
        publisher.pub.subscribe(s.address, [PacketType.SPLIT_REPORT])
    sized = []
    size_of = PacketType.size_of
    monkeypatch.setattr(PacketType, "size_of", lambda self, p: sized.append(self) or size_of(self, p))
    publisher.pub.publish(PacketType.SPLIT_REPORT, np.arange(4, dtype=np.int64))
    kernel.run()
    assert sized == [PacketType.SPLIT_REPORT]
    got = [s.received[0] for s in subs]
    assert [m.dst for m in got] == [s.address for s in subs]
    assert [m.size_bytes for m in got] == [1 + 32] * 3


def test_pubsub_refuses_an_undeclared_payload_without_subscribers(net):
    _, network = net
    publisher = Node(network, "pub")
    with pytest.raises(TypeError, match="RESULT_NOTICE"):
        publisher.pub.publish(PacketType.RESULT_NOTICE, "state")


def test_pubsub_unsubscribe(net):
    kernel, network = net
    publisher = Node(network, "pub")
    sub = Node(network, "s")
    publisher.pub.subscribe(sub.address, [PacketType.RESULT_NOTICE])
    publisher.pub.unsubscribe(sub.address)
    publisher.pub.publish(PacketType.RESULT_NOTICE, NOTICE)
    kernel.run()
    assert sub.received == []


def test_pubsub_subscriber_order_deterministic(net):
    _, network = net
    publisher = Node(network, "pub")
    subs = [Node(network, f"s{i}") for i in range(5)]
    for s in reversed(subs):
        publisher.pub.subscribe(s.address, [PacketType.DIRECTORY_UPDATE])
    order = publisher.pub.subscribers_of(PacketType.DIRECTORY_UPDATE)
    assert order == sorted(order)
