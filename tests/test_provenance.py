"""The provenance stamp of the committed benchmark reports
(``benchmarks/_provenance.py``) says whether tracked files had uncommitted
changes."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "_provenance.py"
_spec = importlib.util.spec_from_file_location("_bench_provenance", _PATH)
stamp_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stamp_module)

COMMIT = "ab" * 20
STATUS = ["git", "status", "--porcelain", "--untracked-files=no"]


def _stub_git(monkeypatch, status_output, returncode=0):
    """Answer ``rev-parse HEAD`` and ``status`` without running git."""
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        stdout = COMMIT + "\n" if command[1] == "rev-parse" else status_output
        return subprocess.CompletedProcess(
            command, returncode, stdout=stdout if returncode == 0 else "",
            stderr="")

    monkeypatch.setattr(stamp_module.subprocess, "run", run)
    return commands


class TestGitDirty:
    @pytest.mark.parametrize("status_output, dirty", [
        (" M src/repro/core/executor.py\n", True),
        ("M  README.md\n", True),
        ("", False),
    ], ids=["unstaged", "staged", "clean"])
    def test_a_listed_change_marks_the_tree_dirty(self, monkeypatch,
                                                  status_output, dirty):
        commands = _stub_git(monkeypatch, status_output)
        stamp = stamp_module.provenance()
        assert stamp["git_dirty"] is dirty
        assert stamp["git_commit"] == COMMIT
        assert STATUS in commands

    def test_outside_a_repository_both_fields_are_none(self, monkeypatch):
        _stub_git(monkeypatch, "", returncode=128)
        stamp = stamp_module.provenance()
        assert stamp["git_dirty"] is None
        assert stamp["git_commit"] is None

    def test_without_git_both_fields_are_none(self, monkeypatch):
        def run(command, **kwargs):
            raise FileNotFoundError(command[0])

        monkeypatch.setattr(stamp_module.subprocess, "run", run)
        stamp = stamp_module.provenance()
        assert stamp["git_dirty"] is None
        assert stamp["git_commit"] is None
