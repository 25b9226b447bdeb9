"""The trace-driven network replay simulator (Dimemas model).

Dimemas reconstructs the time behaviour of an MPI application on a
configurable parallel platform from per-process trace files.  This package
implements that machine model from scratch:

* :mod:`repro.dimemas.platform`    -- the platform description (CPU speed,
  latency, bandwidth, buses, per-node links, eager threshold, mapping);
* :mod:`repro.dimemas.topology`    -- pluggable interconnect topologies
  (flat bus, hierarchical tree, 2-D torus) with routing and per-hop
  contention resources;
* :mod:`repro.dimemas.network`     -- point-to-point transfers routed over
  the topology model;
* :mod:`repro.dimemas.protocol`    -- eager/rendezvous selection;
* :mod:`repro.dimemas.collectives` -- pluggable collective cost models
  (the closed-form ``analytical`` backend and the ``decomposed`` backend
  that lowers collectives into point-to-point phases routed over the
  topology model);
* :mod:`repro.dimemas.replay`      -- the walks that replay a trace, matching
  messages through its static plan;
* :mod:`repro.dimemas.results`     -- per-rank statistics and aggregates;
* :mod:`repro.dimemas.simulator`   -- the facade (`DimemasSimulator`).

The package's public names export lazily.  The platform description, its
topology and collective-model specs and the result types import without
the replay engine; the walks and the :mod:`repro.des` kernel they run on
load with the first replay.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".collectives.analytical": ("AnalyticalModel",),
    ".collectives.base": ("CollectiveModel", "CollectiveSpec"),
    ".collectives.decomposed": ("DecomposedModel",),
    ".collectives.registry": ("COLLECTIVE_MODELS",),
    ".platform": ("Platform",),
    ".results": ("RankStats", "SimulationResult"),
    ".simulator": ("DimemasSimulator",),
    ".topology": ("TOPOLOGIES", "FlatBus", "HierarchicalTree", "NetworkModel",
                  "TopologySpec", "Torus2D"),
})

__all__ = [
    "AnalyticalModel",
    "COLLECTIVE_MODELS",
    "CollectiveModel",
    "CollectiveSpec",
    "DecomposedModel",
    "DimemasSimulator",
    "FlatBus",
    "HierarchicalTree",
    "NetworkModel",
    "Platform",
    "RankStats",
    "SimulationResult",
    "TOPOLOGIES",
    "TopologySpec",
    "Torus2D",
]
