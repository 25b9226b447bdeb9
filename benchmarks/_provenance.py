"""Shared provenance stamp for the committed benchmark trajectories.

Every benchmark writes a ``BENCH_*.json`` file that is committed to the
repository, so each report carries the same stamp identifying the state
of the world that produced it: the git commit, whether the work tree had
uncommitted changes to tracked files (a report regenerated in the change
that measured it names the parent commit), the UTC wall time and the
Python version.  The benchmarks are plain scripts run from anywhere
(``python benchmarks/bench_*.py``), which puts this directory on
``sys.path`` -- they import the stamp as ``from _provenance import
provenance``.
"""

from __future__ import annotations

import platform as host_platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union


def _git(*arguments: str) -> Optional[str]:
    """The output of one git command run here, or None where git fails."""
    try:
        result = subprocess.run(
            ["git", *arguments], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def provenance() -> Dict[str, Union[str, bool, None]]:
    """Stamp for the committed trajectory: commit, dirty tree, UTC time,
    python."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_commit": _git("rev-parse", "HEAD") or None,
        "git_dirty": None if status is None else bool(status),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": host_platform.python_version(),
    }
