"""The paper's core contribution: the overlap study environment.

* :mod:`repro.core.chunking`    -- policies that split a message into the
  independent chunks of the automatic-overlap mechanism;
* :mod:`repro.core.patterns`    -- the *real* (measured) and *ideal*
  (linear) computation-pattern models;
* :mod:`repro.core.mechanisms`  -- which overlapping mechanisms are enabled
  (early sends, late receives, or both);
* :mod:`repro.core.overlap`     -- the trace transformation that turns the
  original trace into the potential (overlapped) trace;
* :mod:`repro.core.environment` -- the facade tying tracing, transformation,
  replay and visualisation together (paper Figure 1);
* :mod:`repro.core.analysis`    -- speedups, bandwidth sweeps, bandwidth
  reduction factors and the Sancho analytical model;
* :mod:`repro.core.executor`    -- expansion of sweeps into self-contained
  replay tasks and their (optionally multi-process) execution;
* :mod:`repro.core.study`       -- one-stop study objects and reports.

Sweeps, grids and ablations are experiment specs run by
:func:`repro.experiments.run_experiment`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("BandwidthSweep", "SweepPoint", "bandwidth_reduction_factor",
                  "sancho_overlap_bound", "speedup"),
    ".chunking": ("Chunk", "ChunkingPolicy", "FixedCountChunking",
                  "FixedSizeChunking"),
    ".environment": ("OverlapStudyEnvironment",),
    ".executor": ("SweepExecutor", "SweepTask", "SweepTaskResult"),
    ".mechanisms": ("OverlapMechanism",),
    ".overlap": ("OverlapTransformer",),
    ".patterns": ("ComputationPattern",),
    ".study": ("OverlapStudy", "batch_study"),
})

__all__ = [
    "batch_study",
    "BandwidthSweep",
    "Chunk",
    "ChunkingPolicy",
    "ComputationPattern",
    "FixedCountChunking",
    "FixedSizeChunking",
    "OverlapMechanism",
    "OverlapStudy",
    "OverlapStudyEnvironment",
    "OverlapTransformer",
    "SweepExecutor",
    "SweepPoint",
    "SweepTask",
    "SweepTaskResult",
    "bandwidth_reduction_factor",
    "sancho_overlap_bound",
    "speedup",
]
