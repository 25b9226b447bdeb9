"""Tests of the command-line interface."""

import dataclasses

import pytest

from repro.cli import _build_parser, _experiment_from_args, _make_platform, main
from repro.dimemas.platform import Platform
from repro.tracing.records import CpuBurst, SendRecord
from repro.tracing.trace import RankTrace, Trace


class TestCli:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "nas-bt" in out and "sweep3d" in out

    def test_study_command(self, capsys):
        code = main(["study", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--bandwidth", "250"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "sancho-loop" in out

    def test_study_with_gantt(self, capsys):
        code = main(["study", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "1", "--gantt", "--chunk-count", "4"])
        assert code == 0
        assert "legend:" in capsys.readouterr().out

    def test_trace_then_simulate(self, tmp_path, capsys):
        trace_path = tmp_path / "loop.json"
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--output", str(trace_path)]) == 0
        assert trace_path.exists()
        prv_path = tmp_path / "loop.prv"
        assert main(["simulate", "--trace", str(trace_path),
                     "--bandwidth", "100", "--prv", str(prv_path)]) == 0
        assert prv_path.exists()
        out = capsys.readouterr().out
        assert "total_time" in out

    def test_trace_with_overlap_variant(self, tmp_path, capsys):
        trace_path = tmp_path / "overlapped.json"
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--output", str(trace_path),
                     "--overlap", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--min-bandwidth", "20",
                     "--max-bandwidth", "2000", "--samples", "3",
                     "--chunk-count", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bandwidth sweep" in out and "peak ideal-pattern speedup" in out

    def test_profile_command(self, tmp_path, capsys):
        original = tmp_path / "orig.json"
        overlapped = tmp_path / "over.json"
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--output", str(original)]) == 0
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--output", str(overlapped),
                     "--overlap", "ideal"]) == 0
        assert main(["profile", "--trace", str(original),
                     "--compare", str(overlapped)]) == 0
        out = capsys.readouterr().out
        assert "profile of" in out and "expansion report" in out

    def test_missing_trace_file_reports_error(self, capsys, tmp_path):
        code = main(["simulate", "--trace", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_platform_number_is_a_clear_error(self, capsys):
        code = main(["study", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "1", "--bandwidth", "nan"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: bandwidth_mbps must be a finite number, got nan" in err

    def test_non_finite_topology_number_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "--app", "sancho-loop", "--ranks", "4",
                  "--iterations", "1", "--topology", "tree:hop_latency=nan"])
        assert exit_info.value.code != 0
        err = capsys.readouterr().err
        assert "hop_latency must be a finite number, got nan" in err


class TestCliPlatformDefaults:
    """Without platform flags the CLI replays the library's default
    platform, replay backend included."""

    @pytest.mark.parametrize("command", [
        ["study", "--app", "nas-cg"],
        ["sweep", "--app", "nas-cg"],
        ["simulate", "--trace", "unread.json"],
    ], ids=lambda command: command[0])
    def test_no_flags_give_the_default_platform(self, command):
        args = _build_parser().parse_args(command)
        assert _make_platform(args) == dataclasses.replace(Platform(),
                                                           name="cli")

    def test_sweep_defaults_to_the_adaptive_backend(self):
        args = _build_parser().parse_args(["sweep", "--app", "nas-cg"])
        spec = _experiment_from_args(args).build()
        assert spec.platform_dict()["replay_backend"] == "adaptive"


class TestCliDefectiveTraces:
    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_simulate_rejects_a_send_never_received(self, tmp_path, capsys,
                                                     backend):
        path = Trace(ranks=[
            RankTrace(rank=0, records=[CpuBurst(instructions=1.0e3),
                                       SendRecord(dst=1, size=10, tag=0)]),
            RankTrace(rank=1, records=[CpuBurst(instructions=1.0e3)]),
        ], mips=1000.0).save(tmp_path / "unmatched.json")
        code = main(["simulate", "--trace", str(path),
                     "--replay-backend", backend])
        assert code == 1
        captured = capsys.readouterr()
        assert "total_time" not in captured.out
        assert ("error: TL101 unmatched-send at rank 0, record 1: send of "
                "10 bytes to rank 1 (tag 0) is never received") in captured.err


def _one_rank(*records, mips="100.0"):
    """A one-rank trace document (JSON text) holding ``records``."""
    return ('{"mips": %s, "ranks": [{"rank": 0, "records": [%s]}]}'
            % (mips, ", ".join(records)))


_BURST = '{"kind": "cpu", "instructions": 1000}'

#: Malformed trace files and a fragment of the error each must report.
MALFORMED_TRACES = {
    "not-an-object": ("[]", "malformed trace"),
    "ranks-not-a-list": ('{"ranks": "x"}', "malformed rank trace"),
    "rank-missing": ('{"ranks": [{"records": []}]}',
                     "malformed rank trace: missing field 'rank'"),
    "mips-not-a-number": (_one_rank(_BURST, mips='"fast"'), "malformed trace"),
    "send-without-size": (
        _one_rank(_BURST, '{"kind": "send", "dst": 0}'),
        "rank 0, record 1: malformed send record: missing field 'size'"),
    "dst-not-a-number": (
        _one_rank(_BURST, '{"kind": "send", "dst": "x", "size": 8}'),
        "rank 0, record 1: malformed send record"),
    "nan-burst": (_one_rank('{"kind": "cpu", "instructions": NaN}'),
                  "rank 0, record 0: burst length must be finite"),
    "infinite-burst": (_one_rank('{"kind": "cpu", "instructions": Infinity}'),
                       "rank 0, record 0: burst length must be finite"),
    "nan-mips": (_one_rank(_BURST, mips="NaN"),
                 "MIPS rate must be positive and finite"),
}


class TestCliMalformedTraceFiles:
    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_malformed_file_is_a_clean_error(self, tmp_path, capsys, command,
                                             case):
        text, fragment = MALFORMED_TRACES[case]
        path = tmp_path / "trace.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, "--trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert "Traceback" not in captured.err


class TestCliTopologies:
    def _trace(self, tmp_path):
        path = tmp_path / "loop.json"
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--output", str(path)]) == 0
        return path

    def test_simulate_on_a_topology(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--trace", str(trace_path),
                     "--topology", "tree:radix=2", "--bandwidth", "100"]) == 0
        out = capsys.readouterr().out
        assert "topology" in out and "tree:radix=2" in out
        assert "mean_queue_time" in out and "intranode_share" in out

    def test_simulate_with_node_mapping_knobs(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--trace", str(trace_path),
                     "--processors-per-node", "4",
                     "--intranode-bandwidth", "4000",
                     "--intranode-latency", "5e-7"]) == 0
        out = capsys.readouterr().out
        # All four ranks share one node, so every transfer is intranode.
        share_line = next(line for line in out.splitlines()
                          if line.startswith("intranode_share"))
        assert share_line.split()[-1] == "1.000"

    def test_sweep_across_topologies(self, capsys):
        code = main(["sweep", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--min-bandwidth", "20",
                     "--max-bandwidth", "2000", "--samples", "3",
                     "--chunk-count", "4",
                     "--topologies", "flat,tree:radix=2,torus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "topology comparison" in out
        assert "speedup (ideal) [torus]" in out
        assert "network statistics" in out
        assert "peak ideal-pattern speedup" in out

    def test_sweep_topologies_accepts_multi_option_specs(self, capsys):
        # Spec options contain commas; the list splitter must not break them.
        code = main(["sweep", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--min-bandwidth", "20",
                     "--max-bandwidth", "2000", "--samples", "3",
                     "--chunk-count", "4",
                     "--topologies", "flat,tree:radix=2,links=2"])
        assert code == 0
        assert "tree:radix=2,links=2" in capsys.readouterr().out

    def test_sweep_prints_network_statistics(self, capsys):
        code = main(["sweep", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--min-bandwidth", "20",
                     "--max-bandwidth", "2000", "--samples", "3",
                     "--chunk-count", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "network statistics" in out and "mean queue (s)" in out

    def test_bad_topology_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--trace", "whatever.json", "--topology", "mesh"])
        assert "topology" in capsys.readouterr().err


class TestCliOverlapValidation:
    def test_overlap_with_none_mechanism_is_a_clear_error(self, tmp_path, capsys):
        code = main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "1", "--output", str(tmp_path / "t.json"),
                     "--overlap", "ideal", "--mechanism", "none"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "none" in err

    def test_mechanism_without_overlap_is_a_clear_error(self, tmp_path, capsys):
        code = main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "1", "--output", str(tmp_path / "t.json"),
                     "--mechanism", "early-send"])
        assert code == 1
        assert "needs --overlap" in capsys.readouterr().err

    def test_overlap_with_explicit_mechanism_still_works(self, tmp_path, capsys):
        assert main(["trace", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "1", "--output", str(tmp_path / "t.json"),
                     "--overlap", "real", "--mechanism", "early-send"]) == 0
        assert "wrote" in capsys.readouterr().out


class TestCliGeneratedWorkloads:
    def test_random_exchange_is_listed(self, capsys):
        assert main(["list-apps"]) == 0
        assert "random-exchange" in capsys.readouterr().out

    def test_study_on_a_seeded_workload(self, capsys):
        code = main(["study", "--app", "random-exchange", "--ranks", "4",
                     "--iterations", "2", "--seed", "5", "--chunk-count", "4"])
        assert code == 0
        assert "random-exchange" in capsys.readouterr().out

    def test_seed_on_a_paper_app_is_a_clear_error(self, tmp_path, capsys):
        code = main(["trace", "--app", "nas-bt", "--ranks", "4",
                     "--seed", "5", "--output", str(tmp_path / "t.json")])
        assert code == 1
        assert "does not accept" in capsys.readouterr().err


class TestCliRunSpec:
    SPEC = """
[experiment]
apps = ["sancho-loop"]
bandwidths = [50.0, 500.0]
patterns = ["real", "ideal"]
mechanisms = ["full"]
jobs = 1

[app]
num_ranks = 4
iterations = 2

[chunking]
policy = "fixed-count"
count = 4
"""

    def _write(self, tmp_path, extra=""):
        path = tmp_path / "experiment.toml"
        path.write_text(self.SPEC + extra, encoding="utf-8")
        return path

    def test_run_spec_prints_tables_and_summary(self, tmp_path, capsys):
        assert main(["run", "--spec", str(self._write(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "bandwidth sweep" in out
        assert "peak ideal-variant speedup" in out

    def test_run_spec_with_topology_axis_and_exports(self, tmp_path, capsys):
        extra = '\n[platform]\nname = "cli-test"\n'
        path = self._write(tmp_path, extra)
        json_out = tmp_path / "rows.json"
        csv_out = tmp_path / "rows.csv"
        assert main(["run", "--spec", str(path), "--jobs", "2", "--quiet",
                     "--json", str(json_out), "--csv", str(csv_out)]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert json_out.exists() and csv_out.exists()
        assert "bandwidth sweep" not in out  # --quiet suppresses the tables

    def test_run_rejects_a_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "experiment.toml"
        path.write_text("[experiment]\napps = []\n", encoding="utf-8")
        assert main(["run", "--spec", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_reports_a_missing_spec_file(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.toml")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_run_rejects_a_fractional_platform_count(self, tmp_path, capsys):
        path = self._write(tmp_path, "\n[platform]\nprocessors_per_node = 2.5\n")
        assert main(["run", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: processors_per_node must be an integer, got 2.5" in err
        assert "Traceback" not in err

    def test_run_rejects_a_string_jobs_count(self, tmp_path, capsys):
        path = tmp_path / "experiment.toml"
        path.write_text(self.SPEC.replace("jobs = 1", 'jobs = "3"'),
                        encoding="utf-8")
        assert main(["run", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error: jobs: expected int, got '3'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestCliChunkCount:
    """``--chunk-count 0`` is rejected, not silently replaced by the
    default fixed-size chunking."""

    @pytest.mark.parametrize("command", [
        ["trace", "--app", "nas-cg", "--ranks", "4", "--overlap", "ideal"],
        ["check", "--app", "nas-cg", "--ranks", "4", "--mechanisms", "full"],
        ["sweep", "--app", "nas-cg", "--ranks", "4", "--samples", "2"],
    ], ids=["trace", "check", "sweep"])
    def test_zero_chunk_count_is_an_error(self, command, tmp_path, capsys):
        if command[0] == "trace":
            command = command + ["--output", str(tmp_path / "cg.json")]
        assert main(command + ["--chunk-count", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: chunk count must be >= 1, got 0" in err
        assert not (tmp_path / "cg.json").exists()


class TestCliResultCache:
    SPEC = TestCliRunSpec.SPEC

    def _write(self, tmp_path):
        path = tmp_path / "experiment.toml"
        path.write_text(self.SPEC, encoding="utf-8")
        return path

    def test_dry_run_prints_the_grid_without_simulating(self, tmp_path,
                                                        capsys, monkeypatch):
        from repro.core import executor as executor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a replay ran during --dry-run")

        monkeypatch.setattr(executor_module, "_simulate", forbidden)
        cache_dir = tmp_path / "cache"
        assert main(["run", "--spec", str(self._write(tmp_path)),
                     "--dry-run", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "cell key" in out
        assert "6 task(s): 0 cached, 6 missing" in out

    def test_dry_run_without_a_cache(self, tmp_path, capsys):
        assert main(["run", "--spec", str(self._write(tmp_path)),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "uncached" in out and "no cache attached" in out

    def test_cold_then_warm_run(self, tmp_path, capsys):
        spec = str(self._write(tmp_path))
        cache = str(tmp_path / "cache")
        assert main(["run", "--spec", spec, "--quiet",
                     "--cache-dir", cache]) == 0
        assert "0 hit(s), 6 simulated" in capsys.readouterr().out
        assert main(["run", "--spec", spec, "--quiet",
                     "--cache-dir", cache]) == 0
        assert "6 hit(s), 0 simulated" in capsys.readouterr().out

    def test_cache_dir_from_the_environment(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = str(self._write(tmp_path))
        assert main(["run", "--spec", spec, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", spec, "--quiet"]) == 0
        assert "6 hit(s), 0 simulated" in capsys.readouterr().out

    def test_no_cache_overrides_the_environment(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = str(self._write(tmp_path))
        assert main(["run", "--spec", spec, "--quiet", "--no-cache"]) == 0
        assert "result cache" not in capsys.readouterr().out

    def test_cache_stats_prune_verify(self, tmp_path, capsys):
        spec = str(self._write(tmp_path))
        cache = str(tmp_path / "cache")
        assert main(["run", "--spec", spec, "--quiet",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "6" in out

        assert main(["cache", "verify", "--cache-dir", cache]) == 0
        assert "6 entries ok, 0 corrupt" in capsys.readouterr().out

        assert main(["cache", "prune", "--cache-dir", cache]) == 0
        assert "pruned 6 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "0" in capsys.readouterr().out

    @pytest.mark.parametrize("days", ["-1", "nan"])
    def test_cache_prune_rejects_an_invalid_age(self, tmp_path, capsys, days):
        from repro.store import CellKey, FileResultStore

        cache = tmp_path / "cache"
        with FileResultStore(cache) as store:
            payload = {"total_time": 1.0}
            for bandwidth in (1.0, 2.0, 3.0):
                store.put(CellKey.compute("c" * 64,
                                          Platform(bandwidth_mbps=bandwidth),
                                          "original"), payload)
            assert main(["cache", "prune", "--cache-dir", str(cache),
                         "--older-than-days", days]) == 1
            captured = capsys.readouterr()
            assert ("error: prune age must be finite and non-negative"
                    in captured.err)
            assert "pruned" not in captured.out
            assert store.stats().entries == 3

    def test_cache_verify_flags_corruption(self, tmp_path, capsys,
                                           store_rows):
        spec = str(self._write(tmp_path))
        cache = tmp_path / "cache"
        assert main(["run", "--spec", spec, "--quiet",
                     "--cache-dir", str(cache)]) == 0
        store_rows(cache).execute(
            "UPDATE entries SET payload = CAST('{broken' AS BLOB) "
            "WHERE digest = (SELECT MIN(digest) FROM entries)")
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", str(cache),
                     "--delete"]) == 1
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
        assert "5 entries ok, 0 corrupt" in capsys.readouterr().out

    def test_cache_verify_flags_an_undecodable_entry(self, tmp_path, capsys,
                                                     store_rows):
        spec = str(self._write(tmp_path))
        cache = tmp_path / "cache"
        assert main(["run", "--spec", spec, "--quiet",
                     "--cache-dir", str(cache)]) == 0
        store_rows(cache).execute(
            "UPDATE entries SET payload = ? "
            "WHERE digest = (SELECT MIN(digest) FROM entries)",
            (b"\xff\xfe\x00garbage",))
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
        assert "5 entries ok, 1 corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["stats", "verify", "prune"])
    def test_cache_maintenance_never_creates_a_store(self, tmp_path, capsys,
                                                     action):
        missing = tmp_path / "typo" / "cache"
        assert main(["cache", action, "--cache-dir", str(missing)]) == 1
        captured = capsys.readouterr()
        assert f"error: no result cache at {missing}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "typo").exists()

    def test_cache_without_a_directory_is_a_clear_error(self, capsys,
                                                        monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_sweep_accepts_the_cache_flags(self, tmp_path, capsys):
        args = ["sweep", "--app", "sancho-loop", "--ranks", "4",
                "--iterations", "2", "--min-bandwidth", "20",
                "--max-bandwidth", "2000", "--samples", "3",
                "--chunk-count", "4", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # warm: served from the store
        assert "peak ideal-pattern speedup" in capsys.readouterr().out

    def test_study_notes_the_cache_bypass(self, tmp_path, capsys):
        assert main(["study", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--chunk-count", "4",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "replaying uncached" in capsys.readouterr().out


class TestCliCheck:
    """The ``check`` subcommand: static analysis from the command line."""

    def _save(self, tmp_path, *rank_records):
        from repro.tracing.trace import RankTrace, Trace

        trace = Trace(ranks=[RankTrace(rank=rank, records=list(records))
                             for rank, records in enumerate(rank_records)])
        path = tmp_path / "trace.json"
        trace.save(path)
        return str(path)

    def test_check_app_is_clean(self, capsys):
        assert main(["check", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--worst-case"]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_check_app_with_overlapped_variants(self, capsys):
        assert main(["check", "--app", "sancho-loop", "--ranks", "4",
                     "--iterations", "2", "--chunk-count", "4",
                     "--mechanisms", "full,early-send"]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_check_all_apps(self, capsys):
        assert main(["check", "--all-apps", "--ranks", "4",
                     "--worst-case"]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_check_broken_trace_exits_2(self, tmp_path, capsys):
        from repro.tracing.records import CpuBurst, SendRecord

        path = self._save(tmp_path,
                          [SendRecord(dst=1, size=64)],
                          [CpuBurst(instructions=1.0)])
        assert main(["check", "--trace", path]) == 2
        out = capsys.readouterr().out
        assert "TL101 unmatched-send at rank 0, record 0" in out

    def test_check_warning_only_trace_exits_1(self, tmp_path, capsys):
        from repro.tracing.records import RecvRecord, SendRecord

        path = self._save(tmp_path,
                          [SendRecord(dst=1, size=100)],
                          [RecvRecord(src=0, size=200)])
        assert main(["check", "--trace", path]) == 1
        assert "TL104 size-mismatch" in capsys.readouterr().out

    def test_check_eager_threshold_governs_the_deadlock_search(self, tmp_path,
                                                               capsys):
        from repro.tracing.records import RecvRecord, SendRecord

        path = self._save(
            tmp_path,
            [SendRecord(dst=1, size=100_000), RecvRecord(src=1, size=100_000)],
            [SendRecord(dst=0, size=100_000), RecvRecord(src=0, size=100_000)])
        assert main(["check", "--trace", path,
                     "--eager-threshold", "1000000"]) == 0
        capsys.readouterr()
        assert main(["check", "--trace", path]) == 2
        assert "TL401 potential-rendezvous-deadlock" in capsys.readouterr().out

    def test_check_json_format(self, tmp_path, capsys):
        import json

        from repro.tracing.records import CpuBurst, SendRecord

        path = self._save(tmp_path,
                          [SendRecord(dst=1, size=64)],
                          [CpuBurst(instructions=1.0)])
        assert main(["check", "--trace", path, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [row["code"] for row in payload["diagnostics"]] == ["TL101"]

    def test_check_spec_analyzes_the_whole_grid(self, tmp_path, capsys):
        path = tmp_path / "experiment.toml"
        path.write_text(TestCliRunSpec.SPEC, encoding="utf-8")
        assert main(["check", "--spec", str(path)]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_dry_run_reports_the_lint_summary(self, tmp_path, capsys):
        path = tmp_path / "experiment.toml"
        path.write_text(TestCliRunSpec.SPEC, encoding="utf-8")
        assert main(["run", "--spec", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert ("static analysis of the original traces: "
                "clean: no diagnostics") in out

    def test_run_accepts_no_precheck(self, tmp_path, capsys):
        path = tmp_path / "experiment.toml"
        path.write_text(TestCliRunSpec.SPEC, encoding="utf-8")
        assert main(["run", "--spec", str(path), "--quiet",
                     "--no-precheck"]) == 0
