"""Key-sensitivity tests: every simulation-relevant input must move the
cell digest, and nothing cosmetic may."""

import pytest

from repro.dimemas.platform import Platform
from repro.errors import ConfigurationError
from repro.store import (
    ORIGINAL_VARIANT,
    CellKey,
    platform_fingerprint,
    simulator_salt,
    variant_id,
)

TRACE_DIGEST = "a" * 64
OTHER_TRACE_DIGEST = "b" * 64


def digest_of(platform=None, variant=ORIGINAL_VARIANT,
              trace=TRACE_DIGEST, salt=None):
    return CellKey.compute(trace, platform or Platform(), variant,
                           salt=salt).digest


class TestKeyStability:
    def test_identical_inputs_identical_digest(self):
        assert digest_of() == digest_of()

    def test_equal_platforms_built_differently_share_a_digest(self):
        by_kwargs = Platform(bandwidth_mbps=100.0, topology="tree:radix=4")
        by_with = Platform().with_bandwidth(100.0).with_topology("tree:radix=4")
        assert digest_of(by_kwargs) == digest_of(by_with)

    def test_platform_name_is_cosmetic(self):
        assert digest_of(Platform(name="cli")) == \
            digest_of(Platform(name="spec"))
        assert "name" not in platform_fingerprint(Platform())

    def test_digest_is_sha256_hex(self):
        digest = digest_of()
        assert len(digest) == 64
        int(digest, 16)

    def test_short_is_a_prefix(self):
        key = CellKey.compute(TRACE_DIGEST, Platform(), ORIGINAL_VARIANT)
        assert key.short() == key.digest[:12]
        assert key.trace_digest == TRACE_DIGEST
        assert key.variant == ORIGINAL_VARIANT


class TestKeySensitivity:
    @pytest.mark.parametrize("overrides", [
        {"bandwidth_mbps": 999.0},
        {"latency": 9e-6},
        {"topology": "tree:radix=8"},
        {"topology": "torus"},
        {"collective_model": "decomposed"},
        {"eager_threshold": 1024},
        {"relative_cpu_speed": 4.0},
        {"processors_per_node": 4},
        {"intranode_bandwidth_mbps": 123.0},
        {"num_buses": 2},
    ])
    def test_platform_field_changes_the_digest(self, overrides):
        assert digest_of(Platform(**overrides)) != digest_of(Platform())

    def test_trace_content_changes_the_digest(self):
        assert digest_of(trace=OTHER_TRACE_DIGEST) != digest_of()

    def test_variant_changes_the_digest(self):
        overlapped = variant_id(pattern="ideal", mechanism="full",
                                chunking="fixed-count:4")
        assert digest_of(variant=overlapped) != digest_of()

    def test_mechanism_changes_the_digest(self):
        full = variant_id(pattern="ideal", mechanism="full", chunking="c")
        early = variant_id(pattern="ideal", mechanism="early-send",
                           chunking="c")
        assert digest_of(variant=full) != digest_of(variant=early)

    def test_chunking_changes_the_digest(self):
        coarse = variant_id(pattern="ideal", mechanism="full",
                            chunking="fixed-count:4")
        fine = variant_id(pattern="ideal", mechanism="full",
                          chunking="fixed-size:16384")
        assert digest_of(variant=coarse) != digest_of(variant=fine)

    def test_salt_changes_the_digest(self):
        assert digest_of(salt="2:9.9.9") != digest_of()

    def test_default_salt_is_the_simulator_salt(self):
        assert digest_of(salt=simulator_salt()) == digest_of()


class TestReplayBackendKeying:
    """The reference backend is keyed without the knob; ``adaptive`` is not.

    ``adaptive`` replays the same run, but its network aggregates may differ
    from ``event``'s in the last ulp (summation order), so its cells are
    keyed separately.
    """

    def test_compiled_backend_is_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"replay_backend must be 'event' or "
                                 r"'adaptive', got 'compiled'"):
            Platform(replay_backend="compiled")

    def test_exact_fingerprint_omits_the_backend_knobs(self):
        fingerprint = platform_fingerprint(Platform(replay_backend="event"))
        assert "replay_backend" not in fingerprint

    def test_adaptive_gets_its_own_digest(self):
        assert digest_of(Platform(replay_backend="adaptive")) != \
            digest_of(Platform(replay_backend="event"))

    def test_adaptive_fingerprint_includes_the_backend_knobs(self):
        # Exactly the event fingerprint plus the backend itself.
        fingerprint = platform_fingerprint(Platform(replay_backend="adaptive"))
        assert fingerprint == {**platform_fingerprint(Platform()),
                               "replay_backend": "adaptive"}

    def test_event_keys_are_pinned(self):
        # Event keys must not move when adaptive-only knobs come or go.
        assert digest_of(salt="pin") == (
            "1ed1ccb4e82c667d47e517eedc74000114d44f93832017b26ff56ccdf29d97ce")


class TestVariantId:
    def test_no_arguments_is_the_original(self):
        assert variant_id() == ORIGINAL_VARIANT

    def test_derivation_triple_is_pinned(self):
        assert variant_id(pattern="ideal", mechanism="full",
                          chunking="fixed-count:4") == \
            "pattern=ideal,mechanism=full,chunking=fixed-count:4"

    def test_missing_chunking_defaults(self):
        assert variant_id(pattern="real", mechanism="full").endswith(
            "chunking=default")
