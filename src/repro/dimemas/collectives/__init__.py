"""Pluggable cost models for collective operations.

Dimemas models collectives with analytical latency/bandwidth formulas; real
machines execute them as algorithms made of point-to-point messages that
ride the same interconnect as everything else.  This package provides both
views behind one interface:

* :mod:`~repro.dimemas.collectives.base`        -- the
  :class:`CollectiveModel` interface and the :class:`CollectiveSpec` value
  stored in ``Platform.collective_model``;
* :mod:`~repro.dimemas.collectives.analytical`  -- the historical
  closed-form backend (the default; bit-identical to the pre-package
  implementation);
* :mod:`~repro.dimemas.collectives.schedules`   -- per-algorithm phase
  schedules (binomial tree, ring, recursive doubling, pairwise exchange);
* :mod:`~repro.dimemas.collectives.decomposed`  -- the backend that
  executes those schedules through the network fabric, making collective
  cost topology-dependent and contended;
* :mod:`~repro.dimemas.collectives.registry`    -- the registry of the
  selectable model kinds and :func:`build_collective_model`.

The long-standing module-level helpers (``collective_duration``,
``point_to_point_time``) keep their import path:
``from repro.dimemas.collectives import collective_duration``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytical": ("AnalyticalModel", "collective_duration",
                    "point_to_point_time"),
    ".base": ("ANALYTICAL", "DECOMPOSED", "CollectiveModel", "CollectiveSpec",
              "MODEL_KINDS", "split_collective_list"),
    ".decomposed": ("DecomposedModel",),
    ".registry": ("COLLECTIVE_MODELS", "build_collective_model"),
    ".schedules": ("ALGORITHMS", "DEFAULT_ALGORITHMS", "build_schedule",
                   "supported_algorithms"),
})

__all__ = [
    "ALGORITHMS",
    "ANALYTICAL",
    "AnalyticalModel",
    "COLLECTIVE_MODELS",
    "CollectiveModel",
    "CollectiveSpec",
    "DECOMPOSED",
    "DEFAULT_ALGORITHMS",
    "DecomposedModel",
    "MODEL_KINDS",
    "build_collective_model",
    "build_schedule",
    "collective_duration",
    "point_to_point_time",
    "split_collective_list",
    "supported_algorithms",
]
