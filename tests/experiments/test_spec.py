"""Tests for the declarative experiment spec: normalisation, validation and
JSON/TOML serialization round-trips."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, load_spec
from repro.experiments import _toml


def _rich_spec():
    return ExperimentSpec(
        apps=("sancho-loop",),
        app_options={"num_ranks": 4, "iterations": 2},
        bandwidths=(2.0, 63.24555320336758, 2000.0),
        latencies=(5e-6,),
        topologies=("flat", "tree:radix=8,links=2"),
        node_mappings=(1, 4),
        eager_thresholds=(0, 65536),
        cpu_speeds=(1.0, 2.0),
        patterns=("real", "ideal"),
        mechanisms=("full",),
        platform={"bandwidth_mbps": 250.0, "name": "test"},
        chunking={"policy": "fixed-count", "count": 4},
        jobs=2)


class TestNormalisation:
    def test_scalars_become_tuples(self):
        spec = ExperimentSpec(apps="nas-bt", bandwidths=100.0,
                              topologies="tree:radix=8", patterns="ideal",
                              seeds=3)
        assert spec.apps == ("nas-bt",)
        assert spec.bandwidths == (100.0,)
        assert spec.topologies == ("tree:radix=8",)
        assert spec.patterns == ("ideal",)
        assert spec.seeds == (3,)

    def test_numeric_coercion(self):
        spec = ExperimentSpec(apps=("a",), bandwidths=[10, 100],
                              cpu_speeds=[2], node_mappings=[4])
        assert spec.bandwidths == (10.0, 100.0)
        assert isinstance(spec.bandwidths[0], float)
        assert spec.cpu_speeds == (2.0,)
        assert spec.node_mappings == (4,)

    def test_topologies_are_canonicalised(self):
        # Spec strings normalise through TopologySpec.parse/to_string.
        spec = ExperimentSpec(apps=("a",), topologies=(" tree:radix=8 ",))
        assert spec.topologies == ("tree:radix=8",)

    def test_option_maps_become_sorted_items(self):
        first = ExperimentSpec(apps=("a",), app_options={"b": 1, "a": 2})
        second = ExperimentSpec(apps=("a",), app_options={"a": 2, "b": 1})
        assert first == second


class TestValidation:
    def test_needs_an_app(self):
        with pytest.raises(ConfigurationError, match="at least one app"):
            ExperimentSpec(apps=())

    @pytest.mark.parametrize("field, values", [
        ("latencies", (1e-6, 1e-6)),
        ("topologies", ("flat", "flat")),
        ("node_mappings", (2, 2)),
        ("eager_thresholds", (0, 0)),
        ("cpu_speeds", (1.0, 1.0)),
        ("patterns", ("ideal", "ideal")),
        ("mechanisms", ("full", "full")),
    ])
    def test_duplicate_axis_values_rejected(self, field, values):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentSpec(apps=("a",), **{field: values})

    def test_duplicate_bandwidths_allowed(self):
        # Legacy sweeps keep duplicate bandwidths as separate grid points.
        spec = ExperimentSpec(apps=("a",), bandwidths=(100.0, 100.0))
        assert spec.bandwidths == (100.0, 100.0)

    def test_unknown_pattern_and_mechanism(self):
        with pytest.raises(ConfigurationError, match="pattern"):
            ExperimentSpec(apps=("a",), patterns=("quadratic",))
        with pytest.raises(ConfigurationError, match="mechanism"):
            ExperimentSpec(apps=("a",), mechanisms=("psychic",))

    def test_bad_topology_spec(self):
        with pytest.raises(ConfigurationError, match="topology"):
            ExperimentSpec(apps=("a",), topologies=("mesh",))

    def test_unknown_platform_field(self):
        with pytest.raises(ConfigurationError, match="platform field"):
            ExperimentSpec(apps=("a",), platform={"warp_factor": 9})

    def test_chunking_validation(self):
        with pytest.raises(ConfigurationError, match="policy"):
            ExperimentSpec(apps=("a",), chunking={"count": 4})
        with pytest.raises(ConfigurationError, match="unknown option"):
            ExperimentSpec(apps=("a",),
                           chunking={"policy": "fixed-size", "count": 4})

    def test_numeric_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(apps=("a",), bandwidths=(-1.0,))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(apps=("a",), node_mappings=(0,))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(apps=("a",), cpu_speeds=(0.0,))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(apps=("a",), jobs=-1)

    @pytest.mark.parametrize("field, value", [
        ("seeds", (2.7,)),
        ("seeds", ("3",)),
        ("node_mappings", (2.5,)),
        ("eager_thresholds", (1.5,)),
        ("eager_thresholds", ("1024",)),
        ("jobs", "3"),
        ("jobs", 2.5),
        ("jobs", True),
    ])
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=field) as raised:
            ExperimentSpec(apps=("a",), **{field: value})
        shown = value[0] if isinstance(value, tuple) else value
        assert repr(shown) in str(raised.value)


class TestRoundTrip:
    def test_json_round_trip_equality(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip_equality(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = _rich_spec()
        for name in ("spec.json", "spec.toml"):
            path = spec.to_file(tmp_path / name)
            assert ExperimentSpec.from_file(path) == spec
            assert load_spec(path) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec(apps=("nas-bt",))
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_bad_suffix_rejected(self, tmp_path):
        spec = ExperimentSpec(apps=("a",))
        with pytest.raises(ConfigurationError, match=".json or .toml"):
            spec.to_file(tmp_path / "spec.yaml")
        with pytest.raises(ConfigurationError, match=".json or .toml"):
            ExperimentSpec.from_file(tmp_path / "spec.yaml")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentSpec.from_file(tmp_path / "absent.toml")

    def test_fallback_toml_parser_matches_reference(self):
        # The < 3.11 fallback parser must agree with tomllib on the exact
        # subset the spec emitter produces.
        text = _rich_spec().to_toml()
        fallback = _toml._fallback_loads(text)
        assert ExperimentSpec.from_dict(fallback) == _rich_spec()
        try:
            import tomllib
        except ModuleNotFoundError:
            return
        assert fallback == tomllib.loads(text)


class TestFallbackTomlParser:
    """The < 3.11 fallback parser, exercised directly on the emitted subset."""

    def test_comments_and_blank_lines(self):
        text = ('# leading comment\n\n[table]\n'
                'key = 1  # trailing comment\n'
                'name = "has # inside"\n')
        assert _toml._fallback_loads(text) == {
            "table": {"key": 1, "name": "has # inside"}}

    def test_value_types(self):
        text = ('[t]\na = true\nb = false\nc = 3\nd = 2.5\ne = 5e-06\n'
                'f = "s"\ng = []\nh = [1, 2]\ni = ["x", "y"]\n')
        parsed = _toml._fallback_loads(text)["t"]
        assert parsed == {"a": True, "b": False, "c": 3, "d": 2.5,
                          "e": 5e-06, "f": "s", "g": [],
                          "h": [1, 2], "i": ["x", "y"]}

    @pytest.mark.parametrize("bad", [
        "key value\n",            # no '='
        "[t]\nkey =\n",           # empty value
        "[t]\nkey = nonsense\n",  # unparseable value
        "[[t]]\nkey = 1\n",       # array-of-tables unsupported
    ])
    def test_bad_input_is_a_toml_error(self, bad):
        with pytest.raises(_toml.TomlError):
            _toml._fallback_loads(bad)

    def test_escaped_quotes_round_trip(self):
        # '#' inside a string after an escaped quote must not start a
        # comment, and commas after escaped quotes must not split arrays.
        spec = ExperimentSpec(apps=("a",),
                              platform={"name": 'say "hi #1, bye'})
        text = spec.to_toml()
        assert ExperimentSpec.from_dict(_toml._fallback_loads(text)) == spec
        try:
            import tomllib
        except ModuleNotFoundError:
            return
        assert _toml._fallback_loads(text) == tomllib.loads(text)

    def test_dumps_rejects_non_finite_and_exotic_values(self):
        with pytest.raises(_toml.TomlError):
            _toml.dumps({"t": {"x": float("inf")}})
        with pytest.raises(_toml.TomlError):
            _toml.dumps({"t": {"x": object()}})
        with pytest.raises(_toml.TomlError):
            _toml.dumps({"t": 3})


class TestUnknownKeys:
    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown spec section"):
            ExperimentSpec.from_dict({"experiment": {"apps": ["a"]},
                                      "network": {}})

    def test_unknown_experiment_key(self):
        with pytest.raises(ConfigurationError, match="unknown \\[experiment\\]"):
            ExperimentSpec.from_dict({"experiment": {"apps": ["a"],
                                                     "bandwidth": [1.0]}})

    def test_unknown_platform_key_via_file(self):
        text = "[experiment]\napps = [\"a\"]\n[platform]\nwarp = 9\n"
        with pytest.raises(ConfigurationError, match="platform field"):
            ExperimentSpec.from_toml(text)

    def test_invalid_toml_reported(self):
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            ExperimentSpec.from_toml("this is not = = toml [")

    def test_invalid_json_reported(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentSpec.from_json("{nope")


class TestDescribe:
    def test_replay_count(self):
        spec = _rich_spec()
        described = spec.describe()
        # grid: 3 bandwidths x 2 topologies x 2 mappings x 2 eager x 2 cpu
        assert described["grid_points"] == 48
        assert described["variants"] == 3
        assert described["replays"] == 144
        assert described["jobs"] == 2

    def test_with_jobs(self):
        spec = _rich_spec().with_jobs(8)
        assert spec.jobs == 8
        assert _rich_spec().jobs == 2
