"""Plain-text reporting helpers used by the CLI, examples and benchmarks."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.analysis import ORIGINAL, BandwidthSweep


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a simple aligned text table."""
    rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def sweep_table(sweep: BandwidthSweep, variants: Optional[Sequence[str]] = None,
                show_timing: Optional[bool] = None) -> str:
    """Speedup-vs-bandwidth table for one application.

    When the sweep was produced by the task executor, every point carries the
    time its replay tasks took; the per-point sum shows up as a trailing
    "replay task time (s)" column (``show_timing`` forces the column on or
    off).  Tasks of one point may run concurrently, so the column can exceed
    the elapsed wall time of a parallel sweep.
    """
    variants = list(variants or [v for v in sweep.variants if v != ORIGINAL])
    if show_timing is None:
        show_timing = any(point.task_seconds for point in sweep.points)
    headers = ["bandwidth (MB/s)", "original time (s)"] + [
        f"speedup ({variant})" for variant in variants]
    if show_timing:
        headers.append("replay task time (s)")
    rows = []
    for point in sweep.points:
        row: List[object] = [point.bandwidth_mbps, point.time(ORIGINAL)]
        row.extend(point.speedup(variant) for variant in variants)
        if show_timing:
            row.append(point.replay_seconds())
        rows.append(row)
    title = f"bandwidth sweep: {sweep.app_name}"
    jobs = sweep.metadata.get("jobs")
    if jobs and jobs > 1:
        title += f" ({jobs} workers)"
    return format_table(headers, rows, title=title)


def network_table(sweep: BandwidthSweep, variant: str = ORIGINAL) -> str:
    """Per-point network counters of one sweep variant.

    Shows what the fabric recorded while replaying ``variant`` at each
    bandwidth: transfer count, bytes moved, mean queue and transfer times
    and the share of transfers that stayed inside a node.  Only sweeps run
    through the task executor carry this data.
    """
    headers = ["bandwidth (MB/s)", "transfers", "bytes", "mean queue (s)",
               "mean transfer (s)", "intranode share"]
    rows = []
    for point in sweep.points:
        rows.append([
            point.bandwidth_mbps,
            int(point.network_stat(variant, "transfers")),
            int(point.network_stat(variant, "bytes_transferred")),
            point.network_stat(variant, "mean_queue_time"),
            point.network_stat(variant, "mean_transfer_time"),
            point.network_stat(variant, "intranode_share"),
        ])
    title = f"network statistics: {sweep.app_name} ({variant} variant"
    topology = sweep.metadata.get("topology")
    if topology:
        title += f", {topology} topology"
    return format_table(headers, rows, title=title + ")")


def topology_table(sweeps: Dict[str, BandwidthSweep], variant: str = "ideal",
                   dimension: str = "topology") -> str:
    """Side-by-side comparison with one column pair per swept dimension value.

    ``sweeps`` maps dimension values (the topology specs of
    ``ExperimentResult.by_topology``, or the collective-model specs of
    ``ExperimentResult.by_collective_model``) to their sweeps; every
    value contributes an original-time and a speedup column, so E4/E5-style
    bandwidth curves can be read side by side.  ``dimension`` only names
    the compared axis in the title.
    """
    if not sweeps:
        raise ValueError("topology_table needs at least one sweep")
    names = list(sweeps)
    first = sweeps[names[0]]
    headers = ["bandwidth (MB/s)"]
    for name in names:
        headers.append(f"original (s) [{name}]")
        headers.append(f"speedup ({variant}) [{name}]")
    rows = []
    for index, point in enumerate(first.points):
        row: List[object] = [point.bandwidth_mbps]
        for name in names:
            other = sweeps[name].points[index]
            row.append(other.time(ORIGINAL))
            row.append(other.speedup(variant))
        rows.append(row)
    title = f"{dimension} comparison: {first.app_name} ({', '.join(names)})"
    return format_table(headers, rows, title=title)


def peak_speedup_table(sweeps: Dict[str, BandwidthSweep], variant: str = "ideal",
                       paper_values: Optional[Dict[str, float]] = None) -> str:
    """The paper's headline table: per-application speedup at intermediate bandwidth."""
    headers = ["application", "intermediate BW (MB/s)", "speedup", "improvement (%)"]
    if paper_values:
        headers.append("paper (%)")
    rows = []
    for name, sweep in sweeps.items():
        bandwidth = sweep.intermediate_bandwidth()
        speedup_value = sweep.intermediate_speedup(variant)
        row: List[object] = [name, bandwidth, speedup_value,
                             (speedup_value - 1.0) * 100.0]
        if paper_values:
            row.append(paper_values.get(name, float("nan")))
        rows.append(row)
    return format_table(headers, rows,
                        title=f"overlap speedup at intermediate bandwidth ({variant} pattern)")


def reduction_table(sweeps: Dict[str, BandwidthSweep], variant: str = "ideal",
                    reference_bandwidth: Optional[float] = None) -> str:
    """Bandwidth-relaxation table: factor by which overlap reduces the need."""
    headers = ["application", "reference BW (MB/s)", "needed BW (MB/s)", "reduction factor"]
    rows = []
    for name, sweep in sweeps.items():
        reference = reference_bandwidth or sweep.points[-1].bandwidth_mbps
        target_time = sweep.point_at(reference).time(ORIGINAL)
        needed = sweep.bandwidth_for_time(target_time, variant)
        factor = sweep.bandwidth_reduction_factor(variant, reference)
        rows.append([name, reference,
                     needed if needed is not None else float("nan"),
                     factor if factor is not None else float("nan")])
    return format_table(headers, rows,
                        title="bandwidth needed by the overlapped execution to match "
                              "the original at the reference bandwidth")
