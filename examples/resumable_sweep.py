#!/usr/bin/env python
"""Resumable sweeps with the content-addressed result store.

Every replay cell of an experiment is a pure function of (trace content,
variant derivation, platform point, simulator version), so its result can
be cached under a digest of exactly those inputs.  Attaching a
:class:`repro.store.FileResultStore` to a run makes sweeps *resumable*:
each finished unit of work (a cohort of cells replayed together, or a
single cell) commits its cells to the store in one transaction, and
re-invoking the same spec replays only the cells that are not stored yet.

This example simulates the workflow end to end:

1. a sweep is "interrupted" partway (modelled by running a narrower grid),
2. the same full spec is re-invoked with the same cache directory -- the
   finished cells come back as hits and only the rest are simulated,
3. a third invocation is fully warm: zero simulations, and its scalar rows
   are bit-identical to a never-cached run,
4. ``preview_experiment`` (the library face of ``repro-overlap run
   --dry-run``) shows per-cell keys and hit/miss status without running
   anything.

Run with::

    python examples/resumable_sweep.py
"""

import tempfile
from pathlib import Path

from repro.experiments import (
    Experiment,
    log_spaced,
    preview_experiment,
    run_experiment,
)
from repro.store import FileResultStore


def cache_line(result) -> str:
    stats = result.cache_stats()
    return (f"{stats['hits']} cell(s) from the cache, "
            f"{stats['misses']} simulated")


def main() -> None:
    bandwidths = log_spaced(10, 10000, 5)
    builder = (Experiment.for_app("sancho-loop", num_ranks=8, iterations=4)
               .patterns("real", "ideal")
               .chunk_count(8))
    full_spec = builder.bandwidths(bandwidths).build()

    with tempfile.TemporaryDirectory() as tmp, \
            FileResultStore(Path(tmp) / "cache") as store:
        # 1. The sweep gets interrupted after the three low-bandwidth
        #    points.  (Each finished unit was already committed by the
        #    worker that computed it -- nothing below re-does them.)
        partial_spec = builder.bandwidths(bandwidths[:3]).build()
        print("-- interrupted run (3 of 5 bandwidth points) " + "-" * 19)
        partial = run_experiment(partial_spec, store=store)
        print(cache_line(partial))
        print(f"store now holds {store.stats().entries} cell(s)")
        print()

        # 2. Re-invoke the *full* spec with the same cache directory:
        #    the finished cells are hits, only the new points replay.
        print("-- resumed run (full 5-point grid) " + "-" * 29)
        resumed = run_experiment(full_spec, store=store)
        print(cache_line(resumed))
        print()

        # 3. Fully warm: everything is served from disk, and the scalars
        #    are bit-identical to a run that never saw a cache.
        print("-- warm re-run " + "-" * 49)
        warm = run_experiment(full_spec, store=store)
        print(cache_line(warm))
        fresh = run_experiment(full_spec)

        def scalars(result):
            return [{k: v for k, v in row.items() if k != "task_seconds"}
                    for row in result.to_rows()]

        assert scalars(warm) == scalars(fresh), \
            "cached results must be bit-identical to uncached ones"
        print("warm rows are bit-identical to a never-cached run")
        print()

        # 4. The dry-run view: per-cell keys and status, nothing executed.
        print("-- dry-run preview of a wider grid " + "-" * 29)
        wider = builder.bandwidths(log_spaced(10, 10000, 7)).build()
        preview = preview_experiment(wider, store=store)
        for task, key, status in zip(preview.plan.tasks, preview.keys,
                                     preview.statuses):
            print(f"  {key.short()}  {status:4s}  {task.label}")
        print(f"{preview.hits} hit(s), {preview.misses} to simulate")
        print()
        print(warm.summary())


if __name__ == "__main__":
    main()
