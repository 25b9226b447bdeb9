"""One cold benchmark process: a single ``run_experiment`` call.

Run by ``run.py``, never by hand::

    python3 child.py MODE DESCRIPTION_JSON STORE_DIR OUT_PATH

``MODE`` is ``untraced`` (time the call), ``traced`` (time it with the
per-layer spans of ``spans.py`` installed), ``setup`` (stop right before
the call) or ``fill`` (run it to fill a result store, untimed).  The child
writes one JSON document to ``OUT_PATH``: the monotonic instants at which
its set-up ended, the call began and the call returned, the tidy rows
without their run-local ``task_seconds`` and, when traced, the span
metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def main() -> None:
    mode, description, store_dir, out_path = sys.argv[1:5]
    description = json.loads(description)
    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        run_experiment = spans.install(recorder)
    else:
        from repro.experiments import run_experiment
    from repro.experiments import ExperimentSpec
    from repro.store import FileResultStore

    spec = ExperimentSpec(**workloads.spec_fields(description))
    store = FileResultStore(store_dir) if description["store"] else None
    reached = now()
    if mode == "setup":
        _write(out_path, {"reached": reached})
        return
    bytes_before = store.stats().total_bytes if store else 0

    called = now()
    result = run_experiment(spec, store=store)
    returned = now()

    rows = result.to_rows()
    for row in rows:
        del row["task_seconds"]
    document = {
        "reached": reached,
        "called": called,
        "returned": returned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_hits": result.cache_stats().get("hits", 0),
        "rows": rows,
    }
    if recorder is not None:
        metrics = recorder.metrics()
        metrics["store.bytes_written"] = (
            store.stats().total_bytes - bytes_before if store else 0)
        document["spans"] = metrics
        document["fallback_reasons"] = dict(recorder.fallback_reasons)
    _write(out_path, document)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _write(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    main()
