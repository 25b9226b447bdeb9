"""Regression tests for the network fabric's resource handling.

A transfer that fails while holding an output link, an input link or a bus
must return that capacity, and one that fails while queued for a slot must
withdraw from the queue; a leaked slot permanently deadlocks every later
transfer through the same resource.  Each transfer is a callback task
stepped by the DES, so the failures are injected into its steps (a hop's
transfer time or a resource's grant raising) and observed through
``env.run()``.  The resources live on the fabric's FlatBus topology model.
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


def _occupancy(fabric):
    """(count, queue_length) of the links and the bus a 0 -> 1 transfer
    crosses."""
    model = fabric.model
    return [(resource.count, resource.queue_length) for resource in
            (model.output_link(0), model.input_link(1), model.buses)]


def _failing_transfer_time(size):
    raise RuntimeError("hop failed")


class TestTransferResourceSafety:
    def test_failure_mid_transfer_releases_everything(self, env, platform,
                                                      monkeypatch):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        idle = _occupancy(fabric)
        monkeypatch.setattr(fabric.model.route(0, 1)[0], "transfer_time",
                            _failing_transfer_time)
        holder = env.event()  # one bus slot held elsewhere
        fabric.model.buses.acquire(holder)
        message = _message(env)
        fabric.start_transfer(message)
        env.run()  # both links granted, queued for the bus
        assert _occupancy(fabric) == [(1, 0), (1, 0), (1, 1)]
        # The handed-over bus completes the hop's resources; entering the
        # wire then fails.
        fabric.model.buses.release(holder)
        with pytest.raises(RuntimeError, match="hop failed"):
            env.run()
        assert _occupancy(fabric) == idle
        assert not message.arrived.triggered

    def test_failure_while_queued_withdraws_the_request(self, env, platform,
                                                        monkeypatch):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        buses = fabric.model.buses
        holder = env.event()  # occupy the single bus
        buses.acquire(holder)
        acquire = buses.acquire

        def acquire_then_fail(token):
            acquire(token)  # the bus is taken: the token queues
            raise RuntimeError("bus arbiter failed")

        monkeypatch.setattr(buses, "acquire", acquire_then_fail)
        fabric.start_transfer(_message(env))
        with pytest.raises(RuntimeError, match="bus arbiter failed"):
            env.run()
        # The queued token is withdrawn and both links are back; the
        # unrelated holder keeps its slot.
        assert _occupancy(fabric) == [(0, 0), (0, 0), (1, 0)]
        buses.release(holder)

    def test_transfers_still_flow_after_a_failed_one(self, env, platform,
                                                     monkeypatch):
        fabric = NetworkFabric(env, platform, num_ranks=2)
        with monkeypatch.context() as patch:
            patch.setattr(fabric.model.route(0, 1)[0], "transfer_time",
                          _failing_transfer_time)
            fabric.start_transfer(_message(env))
            with pytest.raises(RuntimeError, match="hop failed"):
                env.run()
        # With the leak, this second transfer would wait forever on the
        # output link.
        message = _message(env)
        fabric.start_transfer(message)
        env.run()
        assert message.arrived.triggered
        assert message.arrival_time == pytest.approx(
            platform.transfer_time(message.size))
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
