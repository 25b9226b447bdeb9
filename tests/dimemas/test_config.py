"""Unit tests for the Dimemas-style platform configuration files."""

import pytest

from repro.dimemas.config import (
    PLATFORM_FIELDS,
    REMOVED_PLATFORM_FIELDS,
    config_to_platform,
    load_platform,
    platform_to_config,
    save_platform,
)
from repro.dimemas.platform import Platform
from repro.errors import ConfigurationError


class TestConfigRoundTrip:
    def test_round_trip_preserves_every_field(self):
        platform = Platform(name="mn-like", relative_cpu_speed=2.0, latency=1e-6,
                            bandwidth_mbps=1000.0, num_buses=4, input_links=2,
                            output_links=2, eager_threshold=32768,
                            processors_per_node=4)
        rebuilt = config_to_platform(platform_to_config(platform))
        assert rebuilt == platform

    def test_file_round_trip(self, tmp_path):
        platform = Platform(name="file-test", bandwidth_mbps=123.0)
        path = save_platform(platform, tmp_path / "platform.cfg")
        assert load_platform(path) == platform

    def test_config_text_is_commented_and_readable(self):
        text = platform_to_config(Platform())
        assert text.startswith("#")
        assert "bandwidth_mbps = 250.0" in text
        assert "topology = flat" in text

    def test_topology_round_trip(self):
        platform = Platform(topology="tree:radix=8,links=2")
        rebuilt = config_to_platform(platform_to_config(platform))
        assert rebuilt == platform
        assert rebuilt.topology.radix == 8

    def test_topology_options_survive_the_equals_sign(self):
        # The option list itself contains '='; the line parser must only
        # split on the first one.
        platform = config_to_platform("topology = torus:torus_width=4")
        assert platform.topology.kind == "torus"
        assert platform.topology.torus_width == 4

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_platform("topology = mesh")

    def test_hash_inside_a_value_round_trips(self, tmp_path):
        platform = Platform(name="rack#2")
        path = save_platform(platform, tmp_path / "platform.cfg")
        assert load_platform(path) == platform
        assert load_platform(path).name == "rack#2"

    @pytest.mark.parametrize("name", [
        "rack #2", "#2", "rack\n2", "rack\r2", " rack", "rack ",
    ])
    def test_value_that_would_not_read_back_is_refused(self, name):
        with pytest.raises(ConfigurationError,
                           match="platform field 'name' cannot be written"):
            platform_to_config(Platform(name=name))


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        bandwidth_mbps = 10   # trailing comment

        latency = 1e-6
        """
        platform = config_to_platform(text)
        assert platform.bandwidth_mbps == 10.0
        assert platform.latency == 1e-6

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_removed_cpu_contention_is_named(self, value):
        with pytest.raises(ConfigurationError,
                           match="line 2: platform field 'cpu_contention' "
                                 "was removed: a node never hosts more ranks"):
            config_to_platform(f"latency = 1e-6\ncpu_contention = {value}")

    def test_removed_fields_are_no_platform_fields(self):
        for field, message in REMOVED_PLATFORM_FIELDS.items():
            assert field not in PLATFORM_FIELDS
            assert field not in Platform.__dataclass_fields__
            assert message.startswith(f"platform field {field!r} was removed: ")

    def test_hash_after_whitespace_starts_a_comment(self):
        platform = config_to_platform(
            "name = rack#2 # a comment\nlatency = 1e-6\t# another")
        assert platform.name == "rack#2"
        assert platform.latency == 1e-6

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_platform("warp_speed = 9")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_platform("bandwidth_mbps 250")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_platform("num_buses = many")

    def test_invalid_platform_values_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_platform("latency = -1")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_platform(tmp_path / "nope.cfg")
