"""``STORE_FORMAT`` is tied to what the replays produce.

A warm result store serves a cell by its key, and the key carries
``STORE_FORMAT`` but not the code that replayed the cell.  So a change of
replay output that keeps the format would let a warm store serve stale
rows.  This test pins a digest of the tidy rows of a few small replays per
format: a change in replay output fails here until ``STORE_FORMAT`` is
bumped and the digest re-pinned.

The replays span the three walks (the event walk, the paced walk on the
default platform, the lane walk on an uncontended one) and the platform
features that change a replay: tree and torus topologies, decomposed
collectives, ``mpi_overhead``, two ranks per node and an eager threshold of
0.  Only ``task_seconds`` (wall time) is left out of the rows.
"""

import hashlib
import json

from repro.experiments import ExperimentSpec, run_experiment
from repro.store import STORE_FORMAT

#: sha256 of the tidy rows of ``SPECS``, per store format.
PINNED = {
    4: "4c7ad029a387415c780f0aa5dcbe7f8b5e68280d9b351dcb779418a674b7432c",
}

_COMMON = dict(
    apps=("nas-cg", "sweep3d"),
    app_options={"num_ranks": 4, "iterations": 2},
    chunking={"policy": "fixed-count", "count": 2},
    jobs=1,
)

SPECS = (
    # The event walk, on every platform feature at once.
    ExperimentSpec(
        bandwidths=(40.0, 400.0),
        topologies=("flat", "tree:radix=2", "torus"),
        collective_models=("analytical", "decomposed"),
        node_mappings=(1, 2),
        eager_thresholds=(0, 65536),
        platform={"replay_backend": "event", "mpi_overhead": 2e-6},
        **_COMMON),
    # The paced walk: one limited link per node direction.
    ExperimentSpec(
        bandwidths=(40.0, 400.0),
        topologies=("flat", "tree:radix=2", "torus"),
        node_mappings=(1, 2),
        eager_thresholds=(0, 65536),
        platform={"mpi_overhead": 2e-6},
        **_COMMON),
    # The lane walk: no limited network resource.
    ExperimentSpec(
        bandwidths=(40.0, 120.0, 400.0),
        topologies=("flat", "tree:radix=2,links=0", "torus:links=0"),
        node_mappings=(1, 2),
        eager_thresholds=(0, 65536),
        platform={"input_links": 0, "output_links": 0,
                  "mpi_overhead": 2e-6},
        **_COMMON),
)


def _digest():
    rows = []
    for spec in SPECS:
        for row in run_experiment(spec).to_rows():
            row.pop("task_seconds")
            rows.append(row)
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_replay_output_is_pinned_to_the_store_format():
    digest = _digest()
    assert STORE_FORMAT in PINNED and PINNED[STORE_FORMAT] == digest, (
        f"the tidy rows of the pinned replays now digest to {digest}: "
        f"replay output changed, so bump STORE_FORMAT in repro/store/keys.py "
        f"(a warm store would serve stale rows otherwise) and pin the new "
        f"digest under the new format")
