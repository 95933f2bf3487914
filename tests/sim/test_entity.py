"""Entity base class: attach/detach, busy-time accounting, timer chains."""

import pytest

from repro.net import Network
from repro.sim import Entity, SimKernel
from repro.sim.entity import Periodic


class Recorder(Entity):
    def __init__(self, network, name):
        super().__init__(network, name)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


@pytest.fixture()
def net():
    return Network(SimKernel())


def test_attach_assigns_unique_addresses(net):
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    assert a.address != b.address
    assert net.is_attached(a.address) and net.is_attached(b.address)


def test_detach_removes_entity(net):
    a = Recorder(net, "a")
    assert net.is_attached(a.address)
    a.detach()
    assert not net.is_attached(a.address)


def test_charge_extends_busy_horizon(net):
    a = Recorder(net, "a")
    a.charge(2.0)
    assert a.available_at() == 2.0
    a.charge(1.0)  # serial work queues behind the first
    assert a.available_at() == 3.0


def test_charge_after_idle_gap_starts_at_now(net):
    a = Recorder(net, "a")
    a.charge(1.0)
    net.kernel.schedule(5.0, lambda: None)
    net.kernel.run()
    assert a.available_at() == 5.0  # the backlog elapsed during the gap
    a.charge(1.0)
    assert a.available_at() == 6.0


def test_negative_charge_rejected(net):
    a = Recorder(net, "a")
    with pytest.raises(ValueError):
        a.charge(-0.1)


def test_base_handle_message_raises(net):
    e = Entity(net, "raw")
    with pytest.raises(NotImplementedError):
        e.handle_message(None)


def test_entity_has_private_rng(net):
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    assert a.rng.random() != b.rng.random()


class Ticker(Recorder):
    """An entity with one chain that re-arms itself ``runs`` times."""

    def __init__(self, network, interval, runs):
        super().__init__(network, "ticker")
        self.runs = runs
        self.ticks = []
        self.chain = Periodic(self.kernel, interval, self._tick)

    def _tick(self):
        self.ticks.append((self.now, self.chain.armed))
        if len(self.ticks) < self.runs:
            self.chain.arm()


def test_periodic_arm_is_idempotent(net):
    t = Ticker(net, 0.5, runs=1)
    t.chain.arm()
    t.chain.arm()
    assert t.chain.armed and net.kernel.pending == 1
    net.kernel.run()
    assert t.ticks == [(0.5, False)]


def test_periodic_zero_interval_never_arms(net):
    t = Ticker(net, 0.0, runs=3)
    t.chain.arm()
    assert not t.chain.armed and net.kernel.pending == 0
    assert net.kernel.run() == 0 and t.ticks == []


def test_periodic_tick_that_does_not_rearm_ends_the_chain(net):
    t = Ticker(net, 1.0, runs=3)
    t.chain.arm()
    net.kernel.run()
    # Unarmed while its own tick runs: no flag to clear, and the third
    # tick, which does not re-arm, leaves nothing queued.
    assert t.ticks == [(1.0, False), (2.0, False), (3.0, False)]
    assert not t.chain.armed and net.kernel.pending == 0


def test_periodic_cancelled_handle_reads_not_armed(net):
    t = Ticker(net, 1.0, runs=1)
    t.chain.arm()
    t.chain._handle.cancel()
    assert not t.chain.armed
    t.chain.arm()  # a cancelled tick does not block re-arming
    assert t.chain.armed
    net.kernel.run()
    assert t.ticks == [(1.0, False)]


def test_periodic_schedules_the_owners_bound_tick(net):
    t = Ticker(net, 1.0, runs=1)
    t.chain.arm()
    callback = t.chain._handle._event.callback
    assert callback.__self__ is t and callback.__func__ is Ticker._tick
