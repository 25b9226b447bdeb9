"""A run makes no reference cycles.

``run_experiment`` pauses Python's cyclic garbage collector for the whole
call, and the CLI pauses it for every command body
(:func:`repro.core.executor.collector_paused`).  That is safe only
because everything a run creates is freed by reference counting: were a
replay walk to leave objects in a cycle -- say a transfer task that
references itself -- every cell would leak them until the collector ran
again.  Each test runs one configuration with the collector disabled and
asserts that a collection afterwards finds nothing unreachable.
"""

import gc
from collections import Counter

import pytest

from repro import cli
from repro.apps import NasBT, Sweep3D
from repro.core.study import batch_study
from repro.dimemas import Platform
from repro.experiments import ExperimentSpec, run_experiment

APPS = ("nas-bt", "sweep3d", "allreduce-ring")
BANDWIDTHS = (50.0, 250.0)
UNCONTENDED = {"input_links": 0, "output_links": 0}

#: One configuration per replay walk and platform feature; every one of
#: them runs with a result store attached.
CONFIGURATIONS = {
    "lane-walk-grid": dict(platform=UNCONTENDED, latencies=(1e-6, 5e-6),
                           cpu_speeds=(1.0, 2.0)),
    "paced-walk": dict(),
    "event-walk": dict(platform={"replay_backend": "event"}),
    "event-walk-timelines": dict(platform={"replay_backend": "event"},
                                 collect_timelines=True),
    "decomposed-tree": dict(platform={"collective_model": "decomposed",
                                      "topology": "tree:radix=2,links=1"}),
    "event-walk-two-ranks-per-node": dict(
        platform={"replay_backend": "event", "processors_per_node": 2}),
    "torus": dict(platform={"topology": "torus:links=1"}),
}


def _spec(**fields):
    return ExperimentSpec(apps=APPS, app_options={"num_ranks": 8,
                                                  "iterations": 2},
                          bandwidths=BANDWIDTHS, **fields)


def _cyclic_garbage(run):
    """Run ``run()`` with the collector disabled, drop its result and count
    the objects a collection then finds unreachable, by type name."""
    gc.collect()
    flags = gc.get_debug()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


@pytest.mark.parametrize("fields", list(CONFIGURATIONS.values()),
                         ids=list(CONFIGURATIONS))
def test_a_run_leaves_no_cyclic_garbage(fields, store):
    assert _cyclic_garbage(
        lambda: run_experiment(_spec(**fields), store=store)) == {}


def test_a_warm_run_leaves_no_cyclic_garbage(store):
    spec = _spec(platform=UNCONTENDED)
    run_experiment(spec, store=store)
    assert _cyclic_garbage(lambda: run_experiment(spec, store=store)) == {}


def test_a_batch_study_leaves_no_cyclic_garbage():
    apps = [NasBT(num_ranks=8, iterations=2), Sweep3D(num_ranks=8,
                                                      iterations=1)]
    platform = Platform(bandwidth_mbps=250.0)
    assert _cyclic_garbage(
        lambda: batch_study(apps, platform=platform)) == {}


def test_a_check_lint_run_leaves_no_cyclic_garbage(capsys):
    # The argument parser holds cycles of its own; main() builds it before
    # it pauses the collector, and so does this test.
    args = cli._build_parser().parse_args(
        ["check", "--all-apps", "--ranks", "4", "--worst-case",
         "--mechanisms", "full,early-send,late-receive"])
    assert _cyclic_garbage(lambda: cli._COMMANDS["check"](args)) == {}
    assert capsys.readouterr().out == "clean: no diagnostics\n"


def test_the_check_sees_a_cycle():
    class Node:
        pass

    def make_cycle():
        node = Node()
        node.me = node

    assert _cyclic_garbage(make_cycle)["Node"] == 1
