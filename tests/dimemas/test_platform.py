"""Unit tests for the platform description."""

import re
from collections import Counter

import pytest

from repro.dimemas.config import PLATFORM_FIELDS
from repro.dimemas.platform import INTEGER_FIELDS, NUMBER_FIELDS, Platform
from repro.errors import ConfigurationError

NUMERIC_FIELDS = sorted(name for name, kind in PLATFORM_FIELDS.items()
                        if kind in (int, float))


class TestPlatformValidation:
    @pytest.mark.parametrize("kwargs", [
        {"relative_cpu_speed": 0.0},
        {"latency": -1.0},
        {"bandwidth_mbps": -5.0},
        {"num_buses": -1},
        {"eager_threshold": -1},
        {"processors_per_node": 0},
        {"processors_per_node": 2.5},
        {"input_links": 0.5},
        {"output_links": 1.0},
        {"num_buses": 1.5},
        {"eager_threshold": 1024.7},
        {"processors_per_node": True},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Platform(**kwargs)

    @pytest.mark.parametrize("value", [2.0, True])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be an integer, got {value!r}"):
            Platform(**{field: value})

    @pytest.mark.parametrize("value", ["1e-6", True, None])
    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_number_fields_take_only_numbers(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be a number, got {value!r}"):
            Platform(**{field: value})

    def test_number_fields_keep_integers(self):
        platform = Platform(bandwidth_mbps=100, latency=0)
        assert platform.bandwidth_mbps == 100
        assert platform.transfer_time(10**6) == 0.01

    def test_number_fields_are_the_serialized_float_fields(self):
        assert sorted(NUMBER_FIELDS) == sorted(
            name for name, kind in PLATFORM_FIELDS.items() if kind is float)

    @pytest.mark.parametrize("value", [5, True, None, ["a"]])
    def test_name_takes_only_a_string(self, value):
        # A saved platform reads its name back as a string: 5 would come
        # back as "5".
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"name must be a string, "
                                           f"got {value!r}")):
            Platform(name=value)

    def test_integer_fields_are_the_serialized_int_fields(self):
        assert sorted(INTEGER_FIELDS) == sorted(
            name for name, kind in PLATFORM_FIELDS.items() if kind is int)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be a finite number"):
            Platform(**{field: value})

    def test_defaults_are_valid(self):
        platform = Platform()
        assert platform.bandwidth_mbps == 250.0
        assert platform.latency == pytest.approx(5.0e-6)


class TestDerivedQuantities:
    def test_bandwidth_conversion(self):
        assert Platform(bandwidth_mbps=100.0).bandwidth_bytes_per_second == 1.0e8

    def test_zero_bandwidth_means_infinite(self):
        assert Platform(bandwidth_mbps=0.0).bandwidth_bytes_per_second == float("inf")

    def test_transfer_time(self):
        platform = Platform(latency=1.0e-5, bandwidth_mbps=100.0)
        assert platform.transfer_time(1_000_000) == pytest.approx(1.0e-5 + 0.01)

    def test_transfer_time_infinite_bandwidth(self):
        platform = Platform(latency=2.0e-6, bandwidth_mbps=0.0)
        assert platform.transfer_time(10**9) == pytest.approx(2.0e-6)

    def test_transfer_time_intranode(self):
        platform = Platform(intranode_latency=1.0e-6, intranode_bandwidth_mbps=1000.0)
        assert platform.transfer_time(1_000_000, intranode=True) == pytest.approx(
            1.0e-6 + 0.001)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform().transfer_time(-1)


class TestNodeMapping:
    def test_one_rank_per_node_by_default(self):
        platform = Platform()
        assert [platform.node_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_block_mapping(self):
        platform = Platform(processors_per_node=4)
        assert platform.node_of(3) == 0
        assert platform.node_of(4) == 1
        assert platform.num_nodes(10) == 3

    def test_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform().node_of(-1)

    def test_a_node_never_hosts_more_ranks_than_processors(self):
        # The replay gives every rank a processor of its own on this.
        for processors in range(1, 6):
            platform = Platform(processors_per_node=processors)
            for num_ranks in range(1, 18):
                hosted = Counter(platform.node_of(r) for r in range(num_ranks))
                assert max(hosted.values()) <= processors
                assert sorted(hosted) == list(
                    range(platform.num_nodes(num_ranks)))


class TestCopies:
    def test_with_bandwidth(self):
        base = Platform(bandwidth_mbps=250.0)
        faster = base.with_bandwidth(1000.0)
        assert faster.bandwidth_mbps == 1000.0
        assert base.bandwidth_mbps == 250.0
        assert faster.latency == base.latency

    def test_with_latency_and_cpu_speed(self):
        base = Platform()
        assert base.with_latency(1e-6).latency == 1e-6
        assert base.with_cpu_speed(2.0).relative_cpu_speed == 2.0

    def test_ideal_network_factory(self):
        ideal = Platform.ideal_network()
        assert ideal.bandwidth_bytes_per_second == float("inf")
        assert ideal.latency == 0.0
