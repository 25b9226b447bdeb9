"""End-to-end benchmark of the overlap-study pipeline.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Each measurement is one ``run_experiment`` call in a fresh interpreter
(``child.py``), so it pays the cold start a CLI invocation pays.  Children
run one at a time with ``jobs=1``; the runner keeps launching them until
``--seconds`` have passed (and at least a few have run) and reports medians.

Times are in seconds of the undisturbed host: ``hostspeed.py`` measures
how much the shared CPU is slowed while each child runs, and the runner
divides the child's times by that slowdown.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced children with traced ones, whose layer entry points are wrapped in
spans (``spans.py``), and prints the per-layer metrics.  Every child's rows
are checked against the ``event``-backend reference (``reference.py``)
outside the timed region, and every traced child's span counts are
reconciled with the plan.  The last line of standard output is the JSON
result; the lines before it are a readable report.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import reference
import workloads
from hostspeed import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Untraced children a run measures at least, however short ``--seconds``.
MIN_SAMPLES = 3
#: Traced (and untraced) children a ``--trace 1`` run measures at least.
MIN_TRACED = 2
#: Extra children per run that stop right before the call (set-up samples),
#: spread over the run so that one slow phase of the host cannot hold them all.
SETUP_PROBES = 8
#: No child may take longer, and no new child starts past the run budget.
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0


class Run:
    """One benchmark run: its children, their checks and their samples."""

    def __init__(self, description: Dict[str, object], work: Path,
                 table, meter: hostspeed.Meter) -> None:
        self.description = description
        self.cells = workloads.cell_count(description)
        self.work = work
        self.table = table
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.max_rel_error = 0.0
        self.problems: List[str] = []
        self.untraced: List[dict] = []
        self.traced: List[dict] = []
        self.setup_samples: List[float] = []
        self.first_rows: Optional[List[dict]] = None
        self.longest = 0.0
        self.probes = 0
        self._children = 0

    def child(self, mode: str) -> Optional[dict]:
        """Run one child to completion; ``None`` if it failed."""
        self._children += 1
        out = self.work / f"child-{self._children}.json"
        store = self.work / ("warm" if self.description["store"] == "warm"
                             else f"store-{self._children}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        spawned = now()
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode,
                 json.dumps(self.description), str(store), str(out)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} child timed out")
            return None
        finally:
            self.longest = max(self.longest, now() - spawned)
            if self.description["store"] == "fresh":
                shutil.rmtree(store, ignore_errors=True)
        if completed.returncode != 0:
            tail = completed.stderr.strip().splitlines()[-1:]
            self.problems.append(f"{mode} child exited "
                                 f"{completed.returncode}: {tail}")
            return None
        document = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        document["setup_s"] = self.normalized(spawned, document["reached"])
        if "called" in document:
            document["raw_wall_s"] = document["returned"] - document["called"]
            document["wall_s"] = self.normalized(document["called"],
                                                 document["returned"])
        return document

    def normalized(self, begin: float, end: float) -> float:
        """Seconds of the undisturbed host between two monotonic instants."""
        return (end - begin) / self.meter.slowdown(begin, end)

    def measure(self, mode: str) -> None:
        """One timed child, its rows checked against the reference."""
        document = self.child(mode)
        self.attempted += self.cells
        if document is None:
            self.failed += self.cells
            return
        rows = document.pop("rows")
        if len(rows) != self.cells:
            self.problems.append(f"{mode} child returned {len(rows)} rows, "
                                 f"expected {self.cells}")
            self.failed += self.cells
            return
        failed, worst, problems = reference.compare(
            self.description["grid"], rows, self.table)
        self.failed += failed
        self.max_rel_error = max(self.max_rel_error, worst)
        self.problems.extend(problems[:5])
        if (self.description["store"] == "warm"
                and document["cache_hits"] != self.cells):
            self.problems.append(
                f"warm store served {document['cache_hits']} of "
                f"{self.cells} cells")
        if self.first_rows is None:
            self.first_rows = rows
        self.setup_samples.append(document["setup_s"])
        (self.traced if mode == "traced" else self.untraced).append(document)

    def fill_store(self) -> None:
        """Fill the warm store in an untimed child of the same spec."""
        document = self.child("fill")
        if document is None:
            raise SystemExit("filling the warm store failed: "
                             + "; ".join(self.problems))

    def probe_setup(self) -> None:
        self.probes += 1
        document = self.child("setup")
        if document is not None:
            self.setup_samples.append(document["setup_s"])

    def over_budget(self, started: float) -> bool:
        return now() - started + 1.5 * self.longest > RUN_BUDGET_S

    def check_samples(self, trace: bool) -> None:
        """A run that stopped on its budget with too few children fails."""
        least = MIN_TRACED if trace else MIN_SAMPLES
        finished = {"untraced": len(self.untraced)}
        if trace:
            finished["traced"] = len(self.traced)
        for mode, have in finished.items():
            if have < least:
                self.problems.append(f"only {have} {mode} children finished, "
                                     f"at least {least} are needed")


def self_check(description, cells: int, spans: Dict[str, float],
               cache_hits: int) -> List[str]:
    """Reconcile one traced child's span counts with the plan."""
    expected = {
        "tracing.calls": len(workloads.PAPER_APPS),
        "dimemas.simulator.calls + dimemas.gridreplay.lanes":
            cells - cache_hits,
        "sum of dimemas.path.*": cells,
    }
    observed = {
        "tracing.calls": spans["tracing.calls"],
        "dimemas.simulator.calls + dimemas.gridreplay.lanes":
            spans["dimemas.simulator.calls"] + spans["dimemas.gridreplay.lanes"],
        "sum of dimemas.path.*": sum(
            value for name, value in spans.items()
            if name.startswith("dimemas.path.")),
    }
    if description["store"]:
        expected["store.get_calls"] = cells
        observed["store.get_calls"] = spans["store.get_calls"]
    if description["store"] == "warm":
        expected["core.overlap.calls"] = 0
        observed["core.overlap.calls"] = spans["core.overlap.calls"]
    return [f"span self-check: {name} is {observed[name]}, expected {value}"
            for name, value in expected.items() if observed[name] != value]


def is_time(name: str) -> bool:
    """Whether a span metric is a layer's summed self time."""
    return name.endswith(("_s", ".s"))


def rationale(name: str, spans: Dict[str, float], wall: float) -> List[str]:
    """The workload's stated rationale, checked on the traced run."""
    checks = []
    if name == "paper-sweep":
        share = spans["dimemas.simulator.s"] / wall
        checks.append((f"dimemas.simulator.s is {share:.0%} of wall_s "
                       f"(>= 80%)", share >= 0.8))
    if name.startswith("paper-sweep"):
        checks.append(("dimemas.gridreplay.lanes is 0",
                       spans["dimemas.gridreplay.lanes"] == 0))
    if name == "cohort-grid":
        largest = max(filter(is_time, spans), key=spans.__getitem__)
        checks.append((f"largest layer is {largest}",
                       largest == "dimemas.gridreplay.s"))
    if name == "warm-cache":
        calls = ("dimemas.simulator.calls", "core.overlap.calls",
                 "analysis.calls")
        checks.append(("zero simulator, overlap and lint calls",
                       all(spans[call] == 0 for call in calls)))
    return [f"rationale: {text}: {'yes' if ok else 'NO'}"
            for text, ok in checks]


def accuracy_table(rows: List[dict]) -> List[str]:
    """Simulated ideal-pattern speedups beside the paper's (informational)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.apps.registry import PAPER_IDEAL_SPEEDUP_PERCENT
    from repro.dimemas.platform import Platform

    intermediate = Platform().bandwidth_mbps
    bandwidth = min({row["bandwidth_mbps"] for row in rows},
                    key=lambda bw: abs(math.log(bw / intermediate)))
    lines = [f"accuracy (not gated): ideal-pattern speedup at "
             f"{bandwidth:g} MB/s, nearest drawn point to the default "
             f"{intermediate:g} MB/s"]
    for row in rows:
        if row["variant"] == "ideal" and row["bandwidth_mbps"] == bandwidth:
            paper = PAPER_IDEAL_SPEEDUP_PERCENT[row["app"]]
            lines.append(f"  {row['app']:<8} simulated "
                         f"{100 * (row['speedup'] - 1):6.1f}%   "
                         f"paper {paper:5.1f}%")
    lines.append("  no real-hardware reference exists in the repository, so "
                 "the model is otherwise unvalidated")
    return lines


def declared_units() -> Dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"]
            for entry in declared["end_to_end"] + declared["per_layer"]}


UNITS = declared_units()


def metric(name: str, value: float) -> Dict[str, object]:
    return {"value": value, "unit": UNITS[name]}


def walls(documents: List[dict], key: str = "wall_s") -> List[float]:
    return [doc[key] for doc in documents]


def end_to_end(run: Run) -> Dict[str, Dict[str, object]]:
    wall = statistics.median(walls(run.untraced))
    return {
        "wall_s": metric("wall_s", wall),
        "cells_per_s": metric("cells_per_s", run.cells / wall),
        "setup_s": metric("setup_s", statistics.median(run.setup_samples)),
        "peak_rss_mb": metric("peak_rss_mb", statistics.median(
            doc["peak_rss_mb"] for doc in run.untraced)),
    }


def span_medians(run: Run) -> Dict[str, float]:
    """The recorder's metrics, each the median over the traced children."""
    return {name: statistics.median(doc["spans"][name] for doc in run.traced)
            for name in run.traced[0]["spans"]}


def per_layer(run: Run, spans: Dict[str, float]
              ) -> Dict[str, Dict[str, object]]:
    metrics = {name: metric(name, value) for name, value in spans.items()}
    metrics["trace_overhead_s"] = metric(
        "trace_overhead_s", statistics.median(walls(run.traced))
        - statistics.median(walls(run.untraced)))
    metrics["accuracy.failed_cell_share"] = metric(
        "accuracy.failed_cell_share", run.failed / run.attempted)
    metrics["accuracy.max_rel_error"] = metric(
        "accuracy.max_rel_error", run.max_rel_error)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    table = reference.load()
    description = workloads.describe(args.workload, args.seed)
    work = WORK / f"{os.getpid()}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with hostspeed.Meter() as meter:
            run = Run(description, work, table, meter)
            measure(run, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return print_result(run, args, description)


def measure(run: Run, args: argparse.Namespace) -> None:
    """Launch the run's children until it has enough samples."""
    if run.description["store"] == "warm":
        run.fill_store()
    started = now()
    deadline = started + args.seconds
    traced_turn = False
    while not run.over_budget(started):
        enough = (len(run.untraced) >= MIN_SAMPLES if not args.trace
                  else min(len(run.untraced), len(run.traced)) >= MIN_TRACED)
        if enough and now() >= deadline:
            break
        run.measure("traced" if traced_turn else "untraced")
        traced_turn = bool(args.trace) and not traced_turn
        if (run.probes < SETUP_PROBES and now() - started
                >= run.probes * args.seconds / SETUP_PROBES):
            run.probe_setup()
    while run.probes < SETUP_PROBES:
        run.probe_setup()
    run.check_samples(bool(args.trace))


def print_result(run: Run, args: argparse.Namespace, description) -> int:
    """Print the readable report and, as the last line, the JSON result."""
    if not run.untraced or (args.trace and not run.traced):
        print("error: no child completed: " + "; ".join(run.problems),
              file=sys.stderr)
        return 1
    report = [f"workload {args.workload} seed {args.seed}: {run.cells} cells "
              f"per child, {len(run.untraced)} untraced and "
              f"{len(run.traced)} traced children, "
              f"{len(run.setup_samples)} set-up samples",
              "wall_s samples: " + " ".join(
                  f"{doc['wall_s']:.3f}" for doc in run.untraced)
              + (" | traced: " + " ".join(
                  f"{doc['wall_s']:.3f}" for doc in run.traced)
                 if run.traced else "")
              + " (measured: median "
              f"{statistics.median(walls(run.untraced, 'raw_wall_s')):.3f}, "
              f"host slowdown {run.meter.slowdown(-math.inf, math.inf):.2f})",
              f"cells failed {run.failed} of {run.attempted}, "
              f"max relative error of time {run.max_rel_error:g}"]
    if args.workload == "paper-sweep":
        report += accuracy_table(run.first_rows)
    if args.trace:
        spans = span_medians(run)
        metrics = per_layer(run, spans)
        for doc in run.traced:
            run.problems += self_check(description, run.cells, doc["spans"],
                                       doc["cache_hits"])
        report.append("cell paths: " + ", ".join(
            f"{name.rsplit('.', 1)[-1]}={spans[name]:g}" for name in spans
            if name.startswith("dimemas.path.")))
        for reason, count in run.traced[0]["fallback_reasons"].items():
            report.append(f"  des_fallback x{count}: {reason}")
        report += rationale(args.workload, spans, statistics.median(
            walls(run.traced, "raw_wall_s")))
        report += [f"  {name} = {value['value']:.6g} {value['unit']}"
                   for name, value in metrics.items()]
    else:
        metrics = end_to_end(run)
        report += [f"  {name} = {value['value']:.6g} {value['unit']}"
                   for name, value in metrics.items()]
    report += [f"problem: {problem}" for problem in run.problems]
    print("\n".join(report))
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
