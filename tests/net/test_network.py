"""Network fabric: delivery, latency, ordering, stats, drops."""

import numpy as np
import pytest

from repro.net import Message, Network, PacketType, TransportModel
from repro.sim import Entity, SimKernel


class Recorder(Entity):
    def __init__(self, network, name, node=0):
        super().__init__(network, name)
        self.node = node
        self.received = []

    def handle_message(self, message):
        self.received.append((self.now, message))


def make_net(transport=None):
    kernel = SimKernel()
    return kernel, Network(kernel, transport=transport)


def send(net, src, dst, ptype=PacketType.VERTEX_MSG, payload=None):
    msg = Message(ptype=ptype, payload=payload)
    msg.src = src.address
    msg.dst = dst.address
    net.send(msg)
    return msg


def test_delivery_and_latency():
    kernel, net = make_net(TransportModel.zeromq())
    a = Recorder(net, "a", node=0)
    b = Recorder(net, "b", node=1)
    send(net, a, b)
    kernel.run()
    assert len(b.received) == 1
    at, msg = b.received[0]
    assert at >= 20e-6  # inter-node ZeroMQ latency


def test_intra_node_is_cheaper():
    kernel, net = make_net(TransportModel.zeromq())
    a = Recorder(net, "a", node=0)
    b = Recorder(net, "b", node=0)  # same node: ipc path
    c = Recorder(net, "c", node=1)
    send(net, a, b)
    send(net, a, c)
    kernel.run()
    assert b.received[0][0] < c.received[0][0]


def test_size_affects_delay():
    kernel, net = make_net()
    a = Recorder(net, "a", node=0)
    b = Recorder(net, "b", node=1)
    send(net, a, b, payload=np.zeros(1, dtype=np.int64))
    send(net, a, b, payload=np.zeros(1_000_000, dtype=np.int64))
    kernel.run()
    small_at, big_at = b.received[0][0], b.received[1][0]
    assert big_at > small_at


def test_busy_sender_delays_departure():
    kernel, net = make_net()
    a = Recorder(net, "a", node=0)
    b = Recorder(net, "b", node=1)
    a.charge(1.0)  # single-threaded sender still computing
    send(net, a, b)
    kernel.run()
    assert b.received[0][0] >= 1.0


def test_pairwise_ordering_preserved():
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b", node=1)
    for i in range(10):
        send(net, a, b, payload=i)
    kernel.run()
    assert [m.payload for _, m in b.received] == list(range(10))


def test_messages_to_detached_address_are_dropped():
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b)
    b.detach()
    kernel.run()
    assert b.received == []
    assert net.stats.messages_dropped == 1


def test_drops_recorded_per_packet_type():
    """Dropped-message accounting: every drop is attributed to its
    PacketType, not just a single total."""
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b, ptype=PacketType.VERTEX_MSG)
    send(net, a, b, ptype=PacketType.VERTEX_MSG)
    send(net, a, b, ptype=PacketType.EDGE_UPDATE)
    b.detach()
    kernel.run()
    assert net.stats.messages_dropped == 3
    assert net.stats.dropped_by_type[PacketType.VERTEX_MSG] == 2
    assert net.stats.dropped_by_type[PacketType.EDGE_UPDATE] == 1
    assert net.stats.drops_detached == 3
    snap = net.stats.snapshot()
    assert snap.dropped_by_type[PacketType.VERTEX_MSG] == 2


def test_drop_causes_separated():
    """Chaos drops, partition drops, and detached drops are counted
    under distinct causes (all still total into messages_dropped)."""
    from repro.net import FaultPlan, FaultRule, PartitionWindow

    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    c = Recorder(net, "c")
    plan = FaultPlan(
        seed=0,
        rules=[FaultRule(ptypes=frozenset({PacketType.VERTEX_MSG}), drop_p=1.0)],
        partitions=[
            PartitionWindow(group=frozenset({c.address}), start_s=0.0, end_s=1.0)
        ],
    )
    net.install_faults(plan, reliable=False)
    send(net, a, b, ptype=PacketType.VERTEX_MSG)  # chaos drop
    send(net, a, c, ptype=PacketType.EDGE_UPDATE)  # partition drop
    kernel.run()
    assert net.stats.drops_chaos == 1
    assert net.stats.drops_partition == 1
    assert net.stats.messages_dropped == 2
    assert net.stats.dropped_by_type[PacketType.VERTEX_MSG] == 1
    assert net.stats.dropped_by_type[PacketType.EDGE_UPDATE] == 1


def test_record_drop_rejects_unknown_cause():
    from repro.net.network import NetworkStats

    stats = NetworkStats()
    with pytest.raises(ValueError):
        stats.record_drop(Message(ptype=PacketType.VERTEX_MSG, src=0, dst=1), "gremlin")


def test_stats_accounting():
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b, ptype=PacketType.VERTEX_MSG, payload=np.zeros(4, dtype=np.int64))
    send(net, a, b, ptype=PacketType.EDGE_UPDATE)
    kernel.run()
    assert net.stats.messages_sent == 2
    assert net.stats.by_type_count[PacketType.VERTEX_MSG] == 1
    assert net.stats.by_type_bytes[PacketType.VERTEX_MSG] == 1 + 32
    snap = net.stats.snapshot()
    send(net, a, b)
    kernel.run()
    assert net.stats.messages_sent - snap.messages_sent == 1


def test_snapshot_keeps_every_field_and_shares_nothing():
    from dataclasses import fields

    from repro.net.network import NetworkStats

    stats = NetworkStats()
    for i, f in enumerate(fields(NetworkStats), start=1):
        value = getattr(stats, f.name)
        if isinstance(value, int):
            setattr(stats, f.name, i)
        else:
            value[PacketType.VERTEX_MSG] = i
    snap = stats.snapshot()
    assert snap == stats
    for f in fields(NetworkStats):
        value = getattr(stats, f.name)
        if isinstance(value, int):
            setattr(stats, f.name, value + 100)
        else:
            value[PacketType.VERTEX_MSG] += 100
            value[PacketType.EDGE_UPDATE] += 1
    for i, f in enumerate(fields(NetworkStats), start=1):
        kept = getattr(snap, f.name)
        assert (kept if isinstance(kept, int) else dict(kept)) == (
            i if isinstance(kept, int) else {PacketType.VERTEX_MSG: i}
        ), f.name


def test_missing_destination_rejected():
    _, net = make_net()
    a = Recorder(net, "a")
    msg = Message(ptype=PacketType.VERTEX_MSG)
    msg.src = a.address
    with pytest.raises(ValueError):
        net.send(msg)


def test_tap_sees_every_message():
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    seen = []
    net.add_tap(lambda m: seen.append(m.ptype))
    send(net, a, b)
    kernel.run()
    assert seen == [PacketType.VERTEX_MSG]


# ---------------------------------------------------------------------------
# Reliable mode (sequenced + acknowledged + retransmitted delivery)
# ---------------------------------------------------------------------------


def make_reliable_net(plan=None, **kw):
    from repro.net import Network as Net

    kernel = SimKernel()
    net = Net(kernel, reliable=True, **kw)
    if plan is not None:
        net.install_faults(plan)
    return kernel, net


def first_window_drop_plan(ptype=PacketType.VERTEX_MSG, end_s=1e-4):
    """Drop every initial transmission (sent at t~0); retransmissions
    fire after the window closes and get through."""
    from repro.net import FaultPlan, FaultRule

    return FaultPlan(
        seed=0,
        rules=[FaultRule(ptypes=frozenset({ptype}), drop_p=1.0, end_s=end_s)],
    )


def test_reliable_mode_recovers_dropped_message():
    kernel, net = make_reliable_net(first_window_drop_plan())
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b, payload="precious")
    kernel.run()
    assert [m.payload for _, m in b.received] == ["precious"]
    assert net.stats.messages_retried >= 1
    assert net.stats.retries_by_type[PacketType.VERTEX_MSG] >= 1
    assert net.pending_reliable == 0


def test_retransmissions_do_not_inflate_traffic_counts():
    """Figure-16-style traffic figures come from messages_sent /
    by_type_count; recovery traffic must not perturb them."""
    kernel, net = make_reliable_net(first_window_drop_plan())
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    tapped = []
    net.add_tap(lambda m: tapped.append(m.ptype))
    send(net, a, b)
    kernel.run()
    assert net.stats.by_type_count[PacketType.VERTEX_MSG] == 1
    assert tapped.count(PacketType.VERTEX_MSG) == 1
    # The transport ack stream is visible but separate.
    assert net.stats.acks_sent >= 1


def test_duplicate_deliveries_suppressed():
    from repro.net import FaultPlan, FaultRule

    plan = FaultPlan(
        seed=0,
        rules=[FaultRule(ptypes=frozenset({PacketType.VERTEX_MSG}), dup_p=1.0)],
    )
    kernel, net = make_reliable_net(plan)
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    for i in range(5):
        send(net, a, b, payload=i)
    kernel.run()
    # Every message duplicated in flight, yet each dispatched only once.
    assert [m.payload for _, m in b.received] == [0, 1, 2, 3, 4]
    assert net.stats.messages_duplicated == 5
    assert net.stats.duplicates_suppressed == 5


def test_per_destination_pending_keys_do_not_collide():
    """Regression: sequence numbers are per link, so one sender's
    in-flight messages to *different* receivers share seq numbers and
    must not clobber each other's retransmit state."""
    kernel, net = make_reliable_net(first_window_drop_plan())
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    c = Recorder(net, "c")
    send(net, a, b, payload="to-b")  # seq 1 on link a->b
    send(net, a, c, payload="to-c")  # seq 1 on link a->c
    kernel.run()
    assert [m.payload for _, m in b.received] == ["to-b"]
    assert [m.payload for _, m in c.received] == ["to-c"]
    assert net.pending_reliable == 0


def test_reordered_messages_each_delivered_once():
    from repro.net import FaultPlan, FaultRule

    plan = FaultPlan(
        seed=3,
        rules=[
            FaultRule(
                ptypes=frozenset({PacketType.VERTEX_MSG}),
                reorder_p=0.8,
                reorder_window_s=5e-3,
            )
        ],
    )
    kernel, net = make_reliable_net(plan)
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    n = 30
    for i in range(n):
        send(net, a, b, payload=i)
    kernel.run()
    payloads = [m.payload for _, m in b.received]
    assert sorted(payloads) == list(range(n))  # exactly once each
    assert net.pending_reliable == 0


def test_retransmit_to_detached_destination_abandoned():
    kernel, net = make_reliable_net(first_window_drop_plan())
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b)
    b.detach()
    kernel.run()
    assert net.stats.retries_abandoned == 1
    assert net.pending_reliable == 0


def test_give_up_on_attached_destination_raises():
    """Permanent loss to a live receiver is protocol corruption, not
    business as usual — the fabric must scream."""
    from repro.net import FaultPlan, FaultRule
    from repro.sim.kernel import SimulationError

    plan = FaultPlan(
        seed=0,
        rules=[FaultRule(ptypes=frozenset({PacketType.VERTEX_MSG}), drop_p=1.0)],
    )
    kernel, net = make_reliable_net(plan, max_retries=3)
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    send(net, a, b)
    with pytest.raises(SimulationError, match="gave up"):
        kernel.run()


def test_classic_mode_messages_carry_no_seq():
    kernel, net = make_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    msg = send(net, a, b)
    kernel.run()
    assert msg.seq is None
    assert net.stats.acks_sent == 0


def test_reliable_mode_fault_free_delivers_in_order():
    kernel, net = make_reliable_net()
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    for i in range(10):
        send(net, a, b, payload=i)
    kernel.run()
    assert [m.payload for _, m in b.received] == list(range(10))
    assert net.stats.messages_retried == 0
    assert net.stats.duplicates_suppressed == 0
