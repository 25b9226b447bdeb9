"""Key-sensitivity tests: every simulation-relevant input must move the
cell digest, and nothing cosmetic may; and the digests a plan hashes from
shared per-point and per-variant pieces are those of the whole payload."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dimemas.platform import Platform
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, plan_experiment
from repro.store import (
    ORIGINAL_VARIANT,
    CellKey,
    platform_fingerprint,
    simulator_salt,
    variant_id,
)
from repro.store.keys import canonical_json

TRACE_DIGEST = "a" * 64
OTHER_TRACE_DIGEST = "b" * 64


def reference_digest(trace_digest, platform, variant, salt):
    """A key's digest the way it was first defined: the SHA-256 of one
    canonical JSON document holding every input."""
    payload = {"salt": salt, "trace": trace_digest, "variant": variant,
               "platform": platform_fingerprint(platform)}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


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
    """Both backends replay a cell to the same bytes, so the backend knob
    never reaches the key: one cache namespace serves both."""

    def test_compiled_backend_is_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"replay_backend must be 'event' or "
                                 r"'adaptive', got 'compiled'"):
            Platform(replay_backend="compiled")

    def test_exact_fingerprint_omits_the_backend_knobs(self):
        fingerprint = platform_fingerprint(Platform(replay_backend="event"))
        assert "replay_backend" not in fingerprint

    def test_backends_share_a_digest(self):
        assert platform_fingerprint(Platform(replay_backend="adaptive")) == \
            platform_fingerprint(Platform(replay_backend="event"))
        assert digest_of(Platform(replay_backend="adaptive")) == \
            digest_of(Platform(replay_backend="event"))

    def test_event_keys_are_pinned(self):
        # Event keys must not move when adaptive-only knobs come or go.
        assert digest_of(salt="pin") == (
            "b696f7fef9e1f9f8c66c6f28ccdac31bb8d13f30ab8dcd8145657c6a3357451a")


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


#: One spec over every platform axis a grid can sweep, both seeds of a
#: generated workload and four overlapped variants.
RICH_SPEC = ExperimentSpec(
    apps=("random-exchange",),
    app_options={"num_ranks": 4, "iterations": 2},
    seeds=(1, 2),
    bandwidths=(50.0, 500.0),
    latencies=(1e-06, 5e-05),
    topologies=("tree:radix=2,links=1", "torus:links=2,torus_width=2"),
    collective_models=("analytical", "decomposed:bcast=ring"),
    node_mappings=(1, 2),
    eager_thresholds=(0, 65536),
    cpu_speeds=(1.0, 2.0),
    patterns=("real", "ideal"),
    mechanisms=("full", "early-send"),
    chunking={"policy": "fixed-count", "count": 4})

#: Text that JSON must escape: quotes, backslashes, control and non-ASCII.
AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from('"\\/,:{}ab=\n\t\x00\x7f\u00e9\u4e2d\u2028') | st.characters(),
    max_size=24)


@st.composite
def platforms(draw):
    return Platform(
        name=draw(AWKWARD_TEXT),
        bandwidth_mbps=draw(st.floats(min_value=0.0, max_value=1e6)),
        latency=draw(st.sampled_from((0.0, 1e-06, 5e-05, 1 / 3))),
        relative_cpu_speed=draw(st.floats(min_value=0.01, max_value=64.0)),
        eager_threshold=draw(st.integers(min_value=0, max_value=2 ** 40)),
        processors_per_node=draw(st.integers(min_value=1, max_value=8)),
        num_buses=draw(st.integers(min_value=0, max_value=3)),
        input_links=draw(st.integers(min_value=0, max_value=3)),
        output_links=draw(st.integers(min_value=0, max_value=3)),
        topology=draw(st.sampled_from(
            ("flat", "tree:radix=4,links=2", "torus:links=1,torus_width=4"))),
        collective_model=draw(st.sampled_from(
            ("analytical", "decomposed:allreduce=binomial,bcast=ring"))),
        replay_backend=draw(st.sampled_from(("event", "adaptive"))))


class TestKeyBytes:
    """Hashing a key from a platform prefix and a variant suffix must give
    the digest of the whole canonical payload, byte for byte: a store
    filled before the split keeps serving every cell."""

    @pytest.mark.parametrize("salt", [None, "pin"])
    def test_plan_keys_equal_the_whole_payload_digests(self, salt):
        plan = plan_experiment(RICH_SPEC)
        assert "real+early-send" in plan.variant_labels
        ids = plan.variant_ids()
        digests = {label: plan.original_trace(label).digest()
                   for label in plan.app_labels}
        keys = plan.cell_keys(salt=salt)
        assert len(keys) == len(plan.tasks) == 2 * 128 * 5
        for task, key in zip(plan.tasks, keys):
            app_label = task.trace_key.rpartition("/")[0]
            trace_digest, variant = digests[app_label], ids[task.variant]
            assert (key.trace_digest, key.variant) == (trace_digest, variant)
            assert key.digest == reference_digest(
                trace_digest, task.platform, variant,
                simulator_salt() if salt is None else salt)
        assert len({key.digest for key in keys}) == len(keys)

    @settings(max_examples=200, deadline=None)
    @given(salt=AWKWARD_TEXT,
           trace_digest=st.one_of(
               st.text(alphabet="0123456789abcdef", min_size=64,
                       max_size=64),
               AWKWARD_TEXT),
           variant=st.one_of(
               st.just(ORIGINAL_VARIANT),
               st.builds(variant_id, pattern=AWKWARD_TEXT,
                         mechanism=AWKWARD_TEXT, chunking=AWKWARD_TEXT),
               AWKWARD_TEXT),
           platform=platforms())
    def test_compute_equals_the_whole_payload_digest(self, salt, trace_digest,
                                                     variant, platform):
        key = CellKey.compute(trace_digest, platform, variant, salt=salt)
        assert key.digest == reference_digest(trace_digest, platform,
                                              variant, salt)
