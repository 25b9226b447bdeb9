"""Command-line interface of the overlap study environment.

The CLI exposes the full pipeline from the terminal::

    repro-overlap list-apps
    repro-overlap trace    --app nas-bt --output bt.json
    repro-overlap check    --app nas-bt --worst-case
    repro-overlap study    --app sweep3d --bandwidth 250 --gantt
    repro-overlap sweep    --app alya --min-bandwidth 2 --max-bandwidth 20000
    repro-overlap run      --spec experiment.toml --csv rows.csv
    repro-overlap simulate --trace bt.json --bandwidth 100 --prv bt.prv

``study``, ``sweep`` and ``run`` are all fronts for the same declarative
experiment API (:mod:`repro.experiments`): the first two build an
:class:`~repro.experiments.spec.ExperimentSpec` from their flags, ``run``
loads one from a JSON/TOML file.

The parser reads only the application registry, the platform defaults and
the topology and collective-model kinds; each command imports what it runs,
so ``list-apps`` or ``cache stats`` never loads the replay stack.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import ContextManager, List, Optional, TYPE_CHECKING

from repro._collector import collector_paused
from repro._version import __version__
from repro.apps.registry import (
    APPLICATIONS,
    PAPER_IDEAL_SPEEDUP_PERCENT,
    create_application,
)
from repro.core.analysis import geometric_bandwidths
from repro.core.reporting import format_table, network_table, sweep_table, topology_table
from repro.dimemas.collectives.base import (
    MODEL_KINDS,
    CollectiveSpec,
    split_collective_list,
)
from repro.dimemas.platform import Platform
from repro.dimemas.topology import TOPOLOGIES, TopologySpec, split_topology_list
from repro.errors import ReproError
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import AnalysisReport
    from repro.experiments import Experiment, ExperimentSpec
    from repro.store import FileResultStore

#: Environment variable supplying the default ``--cache-dir``.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-overlap",
        description="Simulation environment for studying overlap of "
                    "communication and computation (ISPASS 2010 reproduction)")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-apps", help="list the available application models")

    trace = subparsers.add_parser("trace", help="trace an application model")
    _add_app_arguments(trace)
    trace.add_argument("--output", required=True, help="trace file to write (JSON)")
    trace.add_argument("--overlap", choices=["real", "ideal"],
                       help="also apply the overlap transformation with this pattern")
    trace.add_argument("--mechanism", default=None,
                       choices=["full", "early-send", "late-receive", "none"],
                       help="overlapping mechanism for --overlap (default: full)")

    check = subparsers.add_parser(
        "check", help="statically analyze traces for MPI correctness "
                      "(tracelint) without replaying anything")
    target = check.add_mutually_exclusive_group(required=True)
    target.add_argument("--app", choices=sorted(APPLICATIONS),
                        help="trace and analyze one application model")
    target.add_argument("--all-apps", action="store_true",
                        help="trace and analyze every registered application")
    target.add_argument("--spec",
                        help="analyze every trace an experiment spec file "
                             "would replay (apps x variants, at the grid's "
                             "eager thresholds)")
    target.add_argument("--trace", help="analyze a trace file written by 'trace'")
    check.add_argument("--ranks", type=int, default=16,
                       help="number of MPI ranks (--app/--all-apps)")
    check.add_argument("--iterations", type=int, default=None,
                       help="number of iterations (model default if omitted)")
    check.add_argument("--seed", type=int, default=None,
                       help="workload seed (generated workloads only)")
    check.add_argument("--chunk-bytes", type=int, default=16384,
                       help="chunk size used when --mechanisms transforms "
                            "overlapped variants")
    check.add_argument("--chunk-count", type=int, default=None,
                       help="fixed chunk count instead of a fixed chunk size")
    check.add_argument("--eager-threshold", type=int,
                       default=Platform().eager_threshold,
                       help="eager/rendezvous switch-over size the deadlock "
                            "search assumes (bytes)")
    check.add_argument("--worst-case", action="store_true",
                       help="additionally run the deadlock search with every "
                            "send forced onto the rendezvous protocol (clean "
                            "here means deadlock-free at any threshold)")
    check.add_argument("--mechanisms",
                       help="comma-separated overlap mechanisms (e.g. "
                            "'full,early-send'): also analyze the real- and "
                            "ideal-pattern overlapped variants of each app")
    check.add_argument("--format", dest="output_format",
                       choices=["text", "json"], default="text",
                       help="report format (exit code is 0 clean, 1 "
                            "warnings, 2 errors either way)")

    study = subparsers.add_parser(
        "study", help="trace, transform and replay one application")
    _add_app_arguments(study)
    _add_platform_arguments(study)
    study.add_argument("--gantt", action="store_true",
                       help="print the side-by-side ASCII Gantt comparison")
    study.add_argument("--mechanism", default="full",
                       choices=["full", "early-send", "late-receive"])
    _add_jobs_argument(study)
    _add_cache_arguments(study)
    study.add_argument("--profile", metavar="PATH", default=None,
                       help="run the replay under cProfile, dump the raw "
                            "stats to PATH and print the top 20 functions "
                            "by cumulative time to stderr")

    sweep = subparsers.add_parser(
        "sweep", help="speedup-versus-bandwidth sweep for one application")
    _add_app_arguments(sweep)
    _add_platform_arguments(sweep)
    sweep.add_argument("--min-bandwidth", type=float, default=2.0,
                       help="lowest bandwidth of the sweep (MB/s)")
    sweep.add_argument("--max-bandwidth", type=float, default=20000.0,
                       help="highest bandwidth of the sweep (MB/s)")
    sweep.add_argument("--samples", type=int, default=9,
                       help="number of (log-spaced) bandwidth samples")
    sweep.add_argument("--topologies",
                       help="comma-separated topology specs to compare "
                            "(e.g. 'flat,tree:radix=8,torus'); replays the "
                            "same traced run on every topology and prints "
                            "per-topology columns")
    sweep.add_argument("--collective-models",
                       help="comma-separated collective-model specs to "
                            "compare (e.g. 'analytical,decomposed' or "
                            "'decomposed:bcast=ring'); replays the same "
                            "traced run under every model and prints "
                            "per-model columns")
    _add_jobs_argument(sweep)
    _add_cache_arguments(sweep)
    sweep.add_argument("--profile", metavar="PATH", default=None,
                       help="run the replay under cProfile, dump the raw "
                            "stats to PATH and print the top 20 functions "
                            "by cumulative time to stderr")

    run = subparsers.add_parser(
        "run", help="execute a declarative experiment spec file (JSON/TOML)")
    run.add_argument("--spec", required=True,
                     help="experiment spec file written by "
                          "ExperimentSpec.to_file (.json or .toml)")
    run.add_argument("--jobs", type=int, default=None,
                     help="override the spec's worker count "
                          "(1 = serial, 0 = all cores)")
    run.add_argument("--collect-timelines", action="store_true",
                     help="keep full per-replay timelines on the result "
                          "(sweeps default to the fast timeline-free replay "
                          "path; scalar results are identical either way)")
    run.add_argument("--json", dest="json_output",
                     help="write the tidy result rows (plus the spec) as JSON")
    run.add_argument("--csv", dest="csv_output",
                     help="write the tidy result rows as CSV")
    run.add_argument("--quiet", action="store_true",
                     help="only print the summary, not the per-cell tables")
    run.add_argument("--dry-run", action="store_true",
                     help="print the expanded grid (cell keys, cached vs "
                          "missing counts, diagnostic counts) without "
                          "simulating anything")
    run.add_argument("--no-precheck", action="store_true",
                     help="skip the static trace analysis that rejects "
                          "defective traces before any replay starts")
    run.add_argument("--profile", metavar="PATH", default=None,
                     help="run the replay under cProfile, dump the raw "
                          "stats to PATH and print the top 20 functions "
                          "by cumulative time to stderr")
    _add_cache_arguments(run)

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain the persistent result cache")
    cache.add_argument("action", choices=["stats", "prune", "verify"],
                       help="stats: entry count and size; prune: delete "
                            "entries; verify: check entry integrity")
    cache.add_argument("--cache-dir", default=None,
                       help="result cache directory "
                            f"(default: ${CACHE_DIR_ENV})")
    cache.add_argument("--older-than-days", type=float, default=None,
                       help="prune only entries older than this many days "
                            "(default: prune everything)")
    cache.add_argument("--delete", action="store_true",
                       help="verify: also delete the corrupt entries found")

    simulate = subparsers.add_parser(
        "simulate", help="replay a previously saved trace file")
    _add_platform_arguments(simulate)
    simulate.add_argument("--trace", required=True, help="trace file written by 'trace'")
    simulate.add_argument("--prv", help="also export the timeline as a Paraver .prv file")
    simulate.add_argument("--profile", metavar="PATH", default=None,
                          help="run the replay under cProfile, dump the raw "
                               "stats to PATH and print the top 20 functions "
                               "by cumulative time to stderr")

    profile = subparsers.add_parser(
        "profile", help="print the statistics of a saved trace file")
    profile.add_argument("--trace", required=True, help="trace file written by 'trace'")
    profile.add_argument("--compare", help="second trace file (e.g. the overlapped "
                                           "variant) for an expansion report")

    return parser


def _add_app_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", required=True, choices=sorted(APPLICATIONS),
                        help="application model to use")
    parser.add_argument("--ranks", type=int, default=16, help="number of MPI ranks")
    parser.add_argument("--iterations", type=int, default=None,
                        help="number of iterations (model default if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (generated workloads such as "
                             "'random-exchange' only)")
    parser.add_argument("--chunk-bytes", type=int, default=16384,
                        help="chunk size of the overlap transformation (bytes)")
    parser.add_argument("--chunk-count", type=int, default=None,
                        help="use a fixed chunk count instead of a fixed chunk size")


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the replays "
                             "(1 = serial, 0 = all cores); results are "
                             "identical to the serial run")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache directory: cached "
                             "cells are returned without simulating, "
                             "missing cells are replayed and stored "
                             f"(default: ${CACHE_DIR_ENV} if set, else no "
                             "caching); results are identical either way")
    parser.add_argument("--no-cache", action="store_true",
                        help=f"disable the result cache even when "
                             f"${CACHE_DIR_ENV} is set")


def _open_cache(args: argparse.Namespace, existing: bool = False
                ) -> ContextManager[Optional[FileResultStore]]:
    """The result store the cache flags select (honouring the env default),
    as a context that closes it on exit; it yields ``None`` without a cache.

    ``existing`` is for maintenance: the directory must be named and must
    already hold a store, which is then opened without creating anything.
    """
    from repro.store import FileResultStore

    if getattr(args, "no_cache", False):
        return contextlib.nullcontext()
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    if cache_dir is None:
        if existing:
            raise ReproError(
                f"no cache directory: pass --cache-dir or set ${CACHE_DIR_ENV}")
        return contextlib.nullcontext()
    if existing:
        return FileResultStore.existing(cache_dir)
    return FileResultStore(cache_dir)


def _parse_topology(text: str) -> TopologySpec:
    """Argparse type for topology specs (bad specs become usage errors)."""
    try:
        return TopologySpec.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_collective_model(text: str) -> CollectiveSpec:
    """Argparse type for collective-model specs."""
    try:
        return CollectiveSpec.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_platform_arguments(parser: argparse.ArgumentParser) -> None:
    # Every default comes from Platform, so a command without platform
    # flags replays exactly the library's default platform.
    defaults = Platform()
    parser.add_argument("--bandwidth", type=float, default=defaults.bandwidth_mbps,
                        help="network bandwidth in MB/s (0 = ideal network)")
    parser.add_argument("--latency", type=float, default=defaults.latency,
                        help="network latency in seconds")
    parser.add_argument("--buses", type=int, default=defaults.num_buses,
                        help="number of network buses (0 = unlimited)")
    parser.add_argument("--cpu-speed", type=float, default=defaults.relative_cpu_speed,
                        help="relative CPU speed of the target machine")
    parser.add_argument("--eager-threshold", type=int, default=defaults.eager_threshold,
                        help="eager/rendezvous switch-over size in bytes")
    parser.add_argument("--topology", default=defaults.topology, type=_parse_topology,
                        help="interconnect topology spec: "
                             f"{'|'.join(sorted(TOPOLOGIES))}, optionally "
                             "parameterised like 'tree:radix=8,links=2' or "
                             "'torus:torus_width=4'")
    parser.add_argument("--collective-model", default=defaults.collective_model,
                        type=_parse_collective_model,
                        help="collective cost model: "
                             f"{'|'.join(sorted(MODEL_KINDS))}, the "
                             "latter optionally with per-operation "
                             "algorithm overrides like "
                             "'decomposed:bcast=ring,allreduce=binomial'")
    parser.add_argument("--processors-per-node", type=int,
                        default=defaults.processors_per_node,
                        help="ranks mapped onto each node (consecutive "
                             "ranks fill nodes; same-node messages bypass "
                             "the network)")
    parser.add_argument("--intranode-bandwidth", type=float,
                        default=defaults.intranode_bandwidth_mbps,
                        help="intra-node bandwidth in MB/s (0 = infinite)")
    parser.add_argument("--intranode-latency", type=float,
                        default=defaults.intranode_latency,
                        help="intra-node latency in seconds")
    parser.add_argument("--replay-backend", default=defaults.replay_backend,
                        choices=["event", "adaptive"],
                        help="replay implementation: 'adaptive' "
                             "fast-forwards cells without DES events and "
                             "runs the event walk where it cannot; 'event' "
                             "walks every record through the DES (same "
                             "results, slower)")


# -- spec construction from flags ---------------------------------------------

def _app_options(args: argparse.Namespace) -> dict:
    options = {"num_ranks": args.ranks}
    if args.iterations is not None:
        options["iterations"] = args.iterations
    if getattr(args, "seed", None) is not None:
        options["seed"] = args.seed
    return options


def _platform_options(args: argparse.Namespace) -> dict:
    return {
        "name": "cli",
        "bandwidth_mbps": args.bandwidth,
        "latency": args.latency,
        "num_buses": args.buses,
        "relative_cpu_speed": args.cpu_speed,
        "eager_threshold": args.eager_threshold,
        "topology": args.topology.to_string(),
        "collective_model": args.collective_model.to_string(),
        "processors_per_node": args.processors_per_node,
        "intranode_bandwidth_mbps": args.intranode_bandwidth,
        "intranode_latency": args.intranode_latency,
        "replay_backend": args.replay_backend,
    }


def _experiment_from_args(args: argparse.Namespace) -> Experiment:
    """The spec builder every replaying subcommand starts from."""
    from repro.experiments import Experiment

    builder = (Experiment.for_app(args.app, **_app_options(args))
               .platform(**_platform_options(args))
               .jobs(args.jobs))
    if getattr(args, "chunk_count", None) is not None:
        builder.chunk_count(args.chunk_count)
    else:
        builder.chunk_bytes(getattr(args, "chunk_bytes", 16384))
    return builder


def _make_platform(args: argparse.Namespace) -> Platform:
    if not hasattr(args, "bandwidth"):
        return Platform()
    return Platform(**_platform_options(args))


# -- sub-commands ------------------------------------------------------------

def _cmd_list_apps(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(APPLICATIONS):
        paper = PAPER_IDEAL_SPEEDUP_PERCENT.get(name)
        rows.append([name, "yes" if paper is not None else "no",
                     f"{paper:.0f}%" if paper is not None else "-"])
    print(format_table(["application", "in paper evaluation", "paper ideal speedup"],
                       rows, title="available application models"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.chunking import FixedCountChunking, FixedSizeChunking
    from repro.core.environment import OverlapStudyEnvironment
    from repro.core.overlap import resolve_overlap_request

    if args.mechanism is not None and not args.overlap:
        raise ReproError(
            "--mechanism selects the overlap mechanism and needs --overlap; "
            "add e.g. '--overlap ideal' or drop --mechanism")
    environment = OverlapStudyEnvironment(
        chunking=FixedCountChunking(count=args.chunk_count)
        if args.chunk_count is not None
        else FixedSizeChunking(chunk_bytes=args.chunk_bytes))
    app = create_application(args.app, **_app_options(args))
    trace = environment.trace(app)
    if args.overlap:
        pattern, mechanism = resolve_overlap_request(
            args.overlap, args.mechanism or "full")
        trace = environment.overlap(trace, pattern=pattern, mechanism=mechanism)
    path = trace.save(args.output)
    info = trace.describe()
    print(f"wrote {path} ({info['records']} records, "
          f"{info['total_messages']} messages, {info['total_bytes']} bytes)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_trace
    from repro.experiments import ExperimentSpec
    from repro.experiments.plan import analyze_tasks, plan_experiment

    if args.spec:
        plan = plan_experiment(ExperimentSpec.from_file(args.spec))
        report = analyze_tasks(plan, plan.tasks)
    elif args.trace:
        report = analyze_trace(Trace.load(args.trace),
                               eager_threshold=args.eager_threshold,
                               worst_case=args.worst_case, source=args.trace)
    else:
        report = _check_apps(args)
    if args.output_format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code()


def _check_apps(args: argparse.Namespace) -> AnalysisReport:
    """``check --app``/``--all-apps``: originals plus requested variants."""
    from repro.analysis import AnalysisReport, analyze_trace
    from repro.core.chunking import FixedCountChunking, FixedSizeChunking
    from repro.core.environment import OverlapStudyEnvironment
    from repro.core.overlap import resolve_overlap_request

    names = sorted(APPLICATIONS) if args.all_apps else [args.app]
    mechanisms = ([label.strip() for label in args.mechanisms.split(",")]
                  if args.mechanisms else [])
    environment = OverlapStudyEnvironment(
        chunking=FixedCountChunking(count=args.chunk_count)
        if args.chunk_count is not None
        else FixedSizeChunking(chunk_bytes=args.chunk_bytes))
    reports = []
    for name in names:
        app = create_application(name, **_app_options(args))
        original = environment.trace(app)
        reports.append(analyze_trace(
            original, eager_threshold=args.eager_threshold,
            worst_case=args.worst_case, source=name))
        for label in mechanisms:
            for pattern_label in ("real", "ideal"):
                pattern, mechanism = resolve_overlap_request(
                    pattern_label, label)
                variant = environment.overlap(
                    original, pattern=pattern, mechanism=mechanism)
                reports.append(analyze_trace(
                    variant, eager_threshold=args.eager_threshold,
                    worst_case=args.worst_case,
                    source=f"{name}:{pattern.value}+{mechanism.label}"))
    return AnalysisReport.merged(reports, metadata={"apps": names})


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    spec = _experiment_from_args(args).mechanism(args.mechanism).build()
    with _open_cache(args) as store:
        if store is not None:
            print("note: studies keep full timelines, which the result "
                  "cache does not hold -- replaying uncached")
        result = _profiled(
            args.profile,
            lambda: run_experiment(spec, full_results=True, store=store))
    study = result.studies()[args.app]
    print(study.summary())
    if args.gantt:
        print()
        print(study.gantt("ideal"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    builder = _experiment_from_args(args)
    builder.bandwidths(geometric_bandwidths(
        args.min_bandwidth, args.max_bandwidth, args.samples))
    cache = _open_cache(args)
    if args.topologies:
        builder.topologies(split_topology_list(args.topologies))
    if args.collective_models:
        builder.collective_models(split_collective_list(args.collective_models))

    def replay():
        with cache as store:
            return _profiled(
                args.profile,
                lambda: run_experiment(builder.build(), store=store))

    if args.topologies and args.collective_models:
        return _print_grid_sweep(replay())
    if args.topologies:
        return _print_topology_sweep(replay())
    if args.collective_models:
        return _print_collective_sweep(replay())
    result = replay()
    sweep = result.sweep()
    print(sweep_table(sweep))
    print()
    print(network_table(sweep))
    print()
    wall = sweep.metadata.get("replay_wall_seconds")
    if wall is not None:
        print(f"replayed {len(sweep.points) * len(sweep.variants)} tasks "
              f"with {sweep.metadata.get('jobs', 1)} worker(s) "
              f"in {wall:.2f} s")
    factor = sweep.bandwidth_reduction_factor("ideal")
    peak_bandwidth, peak = sweep.peak_speedup("ideal")
    print(f"peak ideal-pattern speedup: {peak:.3f}x at {peak_bandwidth:.1f} MB/s")
    if factor is not None:
        print(f"bandwidth reduction factor at the highest swept bandwidth: {factor:.1f}x")
    return 0


def _print_collective_sweep(result) -> int:
    sweeps = result.by_collective_model()
    print(topology_table(sweeps, dimension="collective model"))
    for name, sweep in sweeps.items():
        print()
        # The network-table title only names app/variant/topology, which
        # are identical across collective models -- label each table.
        print(f"-- collective model: {name}")
        print(network_table(sweep))
    print()
    for name, sweep in sweeps.items():
        peak_bandwidth, peak = sweep.peak_speedup("ideal")
        share = sweep.points[-1].network_stat("original", "collective_share")
        print(f"{name}: peak ideal-pattern speedup {peak:.3f}x "
              f"at {peak_bandwidth:.1f} MB/s, "
              f"collective byte share {share:.3f}")
    return 0


def _print_grid_sweep(result) -> int:
    """Per-cell tables when both topologies and collective models are swept."""
    for cell in result.cells:
        dims = cell.dims.as_dict()
        print(f"-- topology={dims['topology']}, "
              f"collective_model={dims['collective_model']}")
        print(sweep_table(cell.sweep))
        print()
    print(result.summary())
    return 0


def _print_topology_sweep(result) -> int:
    sweeps = result.by_topology()
    print(topology_table(sweeps))
    for _name, sweep in sweeps.items():
        print()
        print(network_table(sweep))
    print()
    for name, sweep in sweeps.items():
        peak_bandwidth, peak = sweep.peak_speedup("ideal")
        print(f"{name}: peak ideal-pattern speedup {peak:.3f}x "
              f"at {peak_bandwidth:.1f} MB/s")
    first = next(iter(sweeps.values()))
    wall = first.metadata.get("replay_wall_seconds")
    if wall is not None:
        tasks = sum(len(sweep.points) for sweep in sweeps.values()) * \
            len(first.variants)
        print(f"replayed {tasks} tasks with {first.metadata.get('jobs', 1)} "
              f"worker(s) in {wall:.2f} s")
    return 0


def _profiled(path, call):
    """Run ``call()`` under :mod:`cProfile` when ``path`` is set.

    Dumps the raw profiler stats to ``path`` (loadable with
    ``python -m pstats``) and prints the top 20 functions by cumulative
    time to stderr, keeping stdout free for the regular result tables.
    """
    if not path:
        return call()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"wrote cProfile stats to {path}; top 20 by cumulative time:",
              file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec.from_file(args.spec)
    if args.jobs is not None:
        spec = spec.with_jobs(args.jobs)
    if args.collect_timelines:
        spec = spec.with_collect_timelines()
    described = spec.describe()
    print(f"loaded {args.spec}: {described['apps']} app(s) x "
          f"{described['grid_points']} grid point(s) x "
          f"{described['variants']} variant(s) = "
          f"{described['replays']} replays (jobs={spec.jobs})")
    with _open_cache(args) as store:
        if args.dry_run:
            return _print_dry_run(spec, store)
        result = _profiled(
            args.profile,
            lambda: run_experiment(spec, store=store,
                                   precheck=not args.no_precheck))
    if not args.quiet:
        for cell in result.cells:
            print()
            coordinate = ", ".join(f"{key}={value}"
                                   for key, value in cell.dims.as_dict().items())
            print(f"-- {cell.app} [{coordinate}]")
            print(sweep_table(cell.sweep))
    print()
    print(result.summary())
    if args.json_output:
        result.to_json(args.json_output)
        print(f"wrote tidy rows to {args.json_output}")
    if args.csv_output:
        result.to_csv(args.csv_output)
        print(f"wrote tidy rows to {args.csv_output}")
    return 0


def _print_dry_run(spec: ExperimentSpec,
                   store: Optional[FileResultStore]) -> int:
    """``run --dry-run``: the expanded grid and its cache status, no replays."""
    from repro.experiments import preview_experiment

    preview = preview_experiment(spec, store=store)
    rows = [[key.short(), _task_cell_label(task), preview.statuses[task.index]]
            for task, key in zip(preview.plan.tasks, preview.keys)]
    print(format_table(["cell key", "task", "status"], rows,
                       title="expanded grid (dry run -- nothing simulated)"))
    print()
    if store is None:
        print(f"{len(rows)} task(s); no cache attached "
              f"(pass --cache-dir or set ${CACHE_DIR_ENV})")
    else:
        print(f"{len(rows)} task(s): {preview.hits} cached, "
              f"{preview.misses} missing ({store.location})")
    if preview.lint is not None:
        print(f"static analysis of the original traces: "
              f"{preview.lint.summary()} "
              f"(variants are checked by 'run' before replaying)")
    return 0


def _task_cell_label(task) -> str:
    platform = task.platform
    return (f"{task.label} "
            f"[{platform.topology.to_string()}, "
            f"{platform.collective_model.to_string()}, "
            f"ppn={platform.processors_per_node}]")


def _cmd_cache(args: argparse.Namespace) -> int:
    with _open_cache(args, existing=True) as store:
        if args.action == "stats":
            stats = store.stats()
            rows = [["location", stats.location],
                    ["entries", stats.entries],
                    ["total bytes", stats.total_bytes]]
            print(format_table(["metric", "value"], rows, title="result cache"))
            return 0
        if args.action == "prune":
            older_than = (args.older_than_days * 86400.0
                          if args.older_than_days is not None else None)
            removed = store.prune(older_than_seconds=older_than)
            scope = (f"older than {args.older_than_days:g} day(s)"
                     if args.older_than_days is not None else "all entries")
            print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
                  f"({scope}) from {store.location}")
            return 0
        ok, bad = store.verify(delete=args.delete)
        print(f"verified {store.location}: {ok} entr{'y' if ok == 1 else 'ies'} "
              f"ok, {len(bad)} corrupt")
        for digest in bad:
            print(f"  corrupt: {digest}" + (" (deleted)" if args.delete else ""))
        return 0 if not bad else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.dimemas.simulator import DimemasSimulator
    from repro.paraver.prv import export_prv

    trace = Trace.load(args.trace)
    platform = _make_platform(args)
    result = _profiled(args.profile,
                       lambda: DimemasSimulator(platform).simulate(trace))
    rows = [[key, value] for key, value in sorted(result.describe().items())]
    print(format_table(["metric", "value"], rows,
                       title=f"replay of {args.trace} on {platform.bandwidth_mbps} MB/s"))
    if args.prv:
        path = export_prv(result.timeline, args.prv)
        print(f"wrote Paraver trace {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.tracing.stats import expansion_report, profile_trace

    trace = Trace.load(args.trace)
    profile = profile_trace(trace)
    rows = [
        ["ranks", profile.num_ranks],
        ["records", profile.total_records],
        ["messages", profile.total_messages],
        ["bytes", profile.total_bytes],
        ["instructions", profile.total_instructions],
        ["compute/comm ratio (250 MB/s)",
         profile.compute_to_communication_ratio()],
    ]
    print(format_table(["metric", "value"], rows, title=f"profile of {args.trace}"))
    per_rank = [[rank.rank, rank.bursts, rank.messages_sent, rank.bytes_sent,
                 rank.collectives] for rank in profile.ranks]
    print()
    print(format_table(["rank", "bursts", "sends", "bytes sent", "collectives"],
                       per_rank))
    if args.compare:
        other = Trace.load(args.compare)
        report = expansion_report(trace, other)
        print()
        print(format_table(["metric", "value"],
                           [[key, value] for key, value in report.items()],
                           title=f"expansion report: {args.trace} -> {args.compare}"))
    return 0


_COMMANDS = {
    "list-apps": _cmd_list_apps,
    "trace": _cmd_trace,
    "check": _cmd_check,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "cache": _cmd_cache,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by both ``repro-overlap`` and ``python -m repro``.

    The command runs with the cyclic garbage collector paused
    (:func:`~repro._collector.collector_paused`): no command body makes
    reference cycles.  The argument parser does, so it is built first.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with collector_paused():
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
