"""Regression tests for the network fabric's resource handling.

A transfer that fails or is interrupted while holding an output link, an
input link or a bus must return that capacity; previously the releases were
not in a ``try/finally``, so one failed transfer permanently leaked the
slots and deadlocked every subsequent transfer through the same resources.
The resources now live on the fabric's FlatBus topology model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.dimemas.messages import Message
from repro.dimemas.network import NetworkFabric, NetworkStatistics
from repro.dimemas.platform import Platform


@pytest.fixture
def platform():
    """Finite resources everywhere so leaks are observable."""
    return Platform(num_buses=1, input_links=1, output_links=1,
                    bandwidth_mbps=100.0)


@pytest.fixture
def env():
    return Environment()


def _message(env, src=0, dst=1, size=1000):
    return Message(env, src=src, dst=dst, tag=0, size=size)


def _drive_to_timeout(generator):
    """Advance a transfer generator past resource acquisition."""
    events = [next(generator)]
    # Three immediately-granted requests, then the transfer timeout.
    for _ in range(3):
        events.append(generator.send(None))
    return events


class TestTransferResourceSafety:
    def test_failure_mid_transfer_releases_everything(self, env, platform):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        generator = fabric._transfer(_message(env))
        _drive_to_timeout(generator)
        assert fabric.model.buses.count == 1
        with pytest.raises(RuntimeError):
            generator.throw(RuntimeError("interrupted"))
        assert fabric.model.buses.count == 0
        assert fabric.model.output_link(0).count == 0
        assert fabric.model.input_link(1).count == 0

    def test_interrupt_while_queued_withdraws_the_request(self, env, platform):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        holder = fabric.model.buses.request()  # occupy the single bus
        generator = fabric._transfer(_message(env))
        next(generator)            # output link granted
        generator.send(None)       # input link granted, bus request queued
        generator.send(None)
        assert fabric.model.buses.queue_length == 1
        generator.close()          # GeneratorExit runs the cleanup
        assert fabric.model.buses.queue_length == 0
        assert fabric.model.output_link(0).count == 0
        assert fabric.model.input_link(1).count == 0
        assert fabric.model.buses.count == 1  # the unrelated holder keeps its slot
        fabric.model.buses.release(holder)

    def test_transfers_still_flow_after_a_failed_one(self, env, platform):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        generator = fabric._transfer(_message(env))
        _drive_to_timeout(generator)
        with pytest.raises(RuntimeError):
            generator.throw(RuntimeError("interrupted"))
        # With the leak, this second transfer would wait forever on the bus.
        message = _message(env)
        fabric.start_transfer(message)
        env.run()
        assert message.arrived.triggered
        assert fabric.statistics.transfers == 1

    def test_successful_transfer_leaves_no_residue(self, env, platform):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        message = _message(env)
        fabric.start_transfer(message)
        env.run()
        assert message.arrival_time == pytest.approx(
            platform.transfer_time(message.size))
        assert fabric.model.buses.count == 0
        assert fabric.model.output_link(0).count == 0
        assert fabric.model.input_link(1).count == 0


#: An unqueued transfer: (size, duration, intranode, names of crossed hops).
transfers = st.lists(st.one_of(
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.floats(min_value=0.0, max_value=1.0),
              st.just(True), st.just(())),
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.floats(min_value=0.0, max_value=1.0),
              st.just(False),
              st.lists(st.sampled_from(("net", "up0", "down1", "x+", "y-")),
                       min_size=1, max_size=4).map(tuple)),
), max_size=40)


class TestUnqueuedStatistics:
    """``NetworkStatistics.unqueued`` equals recording each transfer."""

    @settings(max_examples=100, deadline=None)
    @given(transfers)
    def test_matches_the_record_path(self, drawn):
        recorded = NetworkStatistics()
        crossings = {}
        for size, duration, intranode, hops in drawn:
            for name in hops:
                recorded.record_hop(name, 0.0)
                crossings[name] = crossings.get(name, 0) + 1
            recorded.record(size, 0.0, duration, intranode)
        built = NetworkStatistics.unqueued(
            sum(size for size, _, _, _ in drawn),
            sum(1 for _, _, intranode, _ in drawn if intranode),
            crossings, [duration for _, duration, _, _ in drawn])
        assert list(built.summary().items()) == list(
            recorded.summary().items())
        assert list(built.hop_queue_time.items()) == list(
            recorded.hop_queue_time.items())
        assert list(built.hop_transfers.items()) == list(
            recorded.hop_transfers.items())
