"""§3.5 — transport latency microbenchmark.

"Using Mellanox ConnectX/5 NICs, we benchmarked the latency of an MPI
send at around 1 µs, a raw TCP send at 4 µs and a send through ZeroMQ
at over 20 µs."  This harness runs an in-simulator ping-pong over each
transport model and reports the measured one-way latencies — the
constants every other experiment's communication costs are built on.
"""

import numpy as np
import pytest

from repro.bench import Table, print_experiment_header
from repro.net import Message, Network, PacketType, TransportModel
from repro.sim import Entity, SimKernel


class Ping(Entity):
    def __init__(self, network, name, node):
        super().__init__(network, name)
        self.node = node
        self.received_at = []

    def handle_message(self, message):
        self.received_at.append(self.now)


def packet(size_bytes: int) -> Message:
    """A ``size_bytes`` packet: the type byte plus a byte array."""
    return Message(ptype=PacketType.SPLIT_REPORT, payload=np.zeros(size_bytes - 1, dtype=np.uint8))


def one_way_latency(transport: TransportModel, size_bytes: int = 64) -> float:
    kernel = SimKernel()
    network = Network(kernel, transport=transport)
    a = Ping(network, "a", node=0)
    b = Ping(network, "b", node=1)
    msg = packet(size_bytes)
    msg.src = a.address
    msg.dst = b.address
    start = kernel.now
    network.send(msg)
    kernel.run()
    return b.received_at[0] - start


def run_experiment():
    return {
        "mpi": one_way_latency(TransportModel.mpi()),
        "tcp": one_way_latency(TransportModel.raw_tcp()),
        "zmq": one_way_latency(TransportModel.zeromq()),
        "zmq_ipc": one_way_latency_intra(),
    }


def one_way_latency_intra() -> float:
    kernel = SimKernel()
    network = Network(kernel, transport=TransportModel.zeromq())
    a = Ping(network, "a", node=0)
    b = Ping(network, "b", node=0)  # same node: ipc:// path
    msg = packet(64)
    msg.src = a.address
    msg.dst = b.address
    network.send(msg)
    kernel.run()
    return b.received_at[0]


def test_sec35_transport_latency(benchmark):
    latencies = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header("§3.5", "one-way send latency per transport (64 B)")
    table = Table(["transport", "latency µs", "paper"])
    table.add_row("MPI", latencies["mpi"] * 1e6, "~1 µs")
    table.add_row("raw TCP", latencies["tcp"] * 1e6, "4 µs")
    table.add_row("ZeroMQ (tcp)", latencies["zmq"] * 1e6, ">20 µs")
    table.add_row("ZeroMQ (ipc, same node)", latencies["zmq_ipc"] * 1e6, "—")
    table.show()

    assert latencies["mpi"] == pytest.approx(1e-6, rel=0.05)
    assert latencies["tcp"] == pytest.approx(4e-6, rel=0.05)
    assert latencies["zmq"] >= 20e-6
    # The paper's 20× MPI-vs-ZeroMQ gap (§4.7).
    assert latencies["zmq"] / latencies["mpi"] == pytest.approx(20.0, rel=0.05)
    assert latencies["zmq_ipc"] < latencies["zmq"]
