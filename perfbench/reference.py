"""The ``event``-backend correctness reference of the end-to-end benchmark.

``reference.json.gz`` holds the tidy-row scalars of every cell any seed can
draw (see ``workloads.py``): the six paper applications x three variants
over the whole bandwidth ladder on the default platform, and over the whole
bandwidth x latency x CPU-speed ladder on the uncontended platform.  Values
are ``float.hex`` strings, so the check is exact to the last bit.  Because
the file covers the whole universe, no seed needs its reference recomputed
at benchmark time.

Regenerate it (after an intended change of replay semantics) with::

    python3 perfbench/reference.py

which replays the universe on the ``event`` backend, about 6000 cells.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json.gz"

#: Tidy-row scalars compared per cell (the row minus its identity columns
#: and the run-local ``task_seconds``).
COLUMNS = ("time", "speedup", "transfers", "bytes_transferred",
           "mean_queue_time", "mean_transfer_time", "intranode_share",
           "collective_transfers", "collective_bytes", "collective_share")

#: Largest relative difference of any compared scalar a cell may show.  The
#: benchmark owns this value, so the program cannot loosen its own check.
TOLERANCE = 0.01

CellKey = Tuple[str, str, str, float, float, float]


def cell_key(grid: str, row: Dict[str, object]) -> CellKey:
    return (grid, row["app"], row["variant"], row["bandwidth_mbps"],
            row["latency"], row["cpu_speed"])


def _encode(value: object) -> object:
    return value.hex() if isinstance(value, float) else value


def _decode(value: object) -> object:
    return float.fromhex(value) if isinstance(value, str) else value


def load(path: Path = REFERENCE_PATH) -> Dict[CellKey, Tuple[object, ...]]:
    """``{cell key: reference scalars}`` over the whole universe."""
    document = json.loads(gzip.decompress(path.read_bytes()))
    if list(document["columns"]) != list(COLUMNS):
        raise ValueError(f"{path} records columns {document['columns']}, "
                         f"the benchmark compares {list(COLUMNS)}")
    table: Dict[CellKey, Tuple[object, ...]] = {}
    for grid, rows in document["grids"].items():
        for row in rows:
            app, variant, bandwidth, latency, cpu_speed = row[:5]
            table[(grid, app, variant, _decode(bandwidth), _decode(latency),
                   _decode(cpu_speed))] = tuple(_decode(v) for v in row[5:])
    return table


def _relative(value: object, expected: object) -> float:
    if value == expected:
        return 0.0
    if expected == 0:
        return float("inf")
    return abs(value - expected) / abs(expected)


def compare(grid: str, rows: Sequence[Dict[str, object]],
            table: Dict[CellKey, Tuple[object, ...]]
            ) -> Tuple[int, float, List[str]]:
    """Check ``rows`` against the reference.

    Returns ``(failed cells, largest relative error of time, problems)``.
    A cell fails when it has no reference or when any compared scalar
    differs from it by more than :data:`TOLERANCE` (relative).
    """
    failed = 0
    worst_time = 0.0
    problems: List[str] = []
    for row in rows:
        key = cell_key(grid, row)
        expected = table.get(key)
        if expected is None:
            failed += 1
            problems.append(f"no reference for cell {key}")
            continue
        errors = [_relative(row[column], reference)
                  for column, reference in zip(COLUMNS, expected)]
        worst_time = max(worst_time, errors[0])
        if max(errors) > TOLERANCE:
            failed += 1
            column = COLUMNS[errors.index(max(errors))]
            problems.append(f"{key}: {column} off by {max(errors):.3g}")
    return failed, worst_time, problems


def _universe(grid: str) -> Dict[str, object]:
    """A workload description covering every cell of ``grid``."""
    uncontended = grid == "uncontended"
    return {
        "name": f"reference-{grid}", "grid": grid, "backend": "event",
        "bandwidths": list(workloads.BANDWIDTH_LADDER),
        "latencies": list(workloads.LATENCY_LADDER) if uncontended else [],
        "cpu_speeds": list(workloads.CPU_SPEEDS) if uncontended else [],
        "store": None,
    }


def _rows_of(result) -> Iterable[List[object]]:
    for row in result.to_rows():
        yield [row["app"], row["variant"]] + [
            _encode(row[column]) for column in
            ("bandwidth_mbps", "latency", "cpu_speed") + COLUMNS]


def regenerate() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.experiments import ExperimentSpec, run_experiment

    grids = {}
    for grid in workloads.GRIDS:
        start = time.perf_counter()
        spec = ExperimentSpec(**dict(
            workloads.spec_fields(_universe(grid)),
            jobs=min(4, os.cpu_count() or 1)))
        grids[grid] = list(_rows_of(run_experiment(spec)))
        print(f"{grid}: {len(grids[grid])} cells in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    document = {
        "about": "event-backend tidy-row scalars of every cell the "
                 "benchmark's seeds can draw; floats are float.hex",
        "columns": list(COLUMNS),
        "row_layout": ["app", "variant", "bandwidth_mbps", "latency",
                       "cpu_speed", *COLUMNS],
        "grids": grids,
    }
    text = json.dumps(document, separators=(",", ":"))
    # One row per line keeps ``zcat`` output readable; mtime=0 keeps the
    # compressed bytes a function of the content.
    text = text.replace("],[", "],\n[") + "\n"
    REFERENCE_PATH.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


if __name__ == "__main__":
    regenerate()
