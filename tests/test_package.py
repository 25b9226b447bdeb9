"""Smoke tests of the public package surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Imports every top-level ``repro`` package and module, each one first in
#: a process whose ``repro.*`` modules were all purged, so an import cycle
#: that a warm ``sys.modules`` would hide still fails.
_COLD_IMPORTS = """
import importlib, pkgutil, sys
import repro
names = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))
for name in names:
    for loaded in [key for key in sys.modules
                   if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    importlib.import_module("repro." + name)
print(" ".join(names))
"""


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__
        from repro._version import __version__
        assert repro.__version__ == __version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module", [
        "repro.des", "repro.tracing", "repro.mpi", "repro.apps",
        "repro.dimemas", "repro.paraver", "repro.core", "repro.workloads",
        "repro.cli",
    ])
    def test_subpackages_importable(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} has no module docstring"

    @pytest.mark.parametrize("module", [
        "repro.des", "repro.tracing", "repro.mpi", "repro.apps",
        "repro.dimemas", "repro.paraver", "repro.core", "repro.workloads",
    ])
    def test_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert getattr(imported, name) is not None

    def test_minimal_workflow_from_top_level_imports(self):
        from repro import OverlapStudyEnvironment, Platform
        from repro.apps import SanchoLoop

        environment = OverlapStudyEnvironment(platform=Platform(bandwidth_mbps=500.0))
        study = environment.study(SanchoLoop(num_ranks=2, iterations=1))
        assert study.original_result.total_time > 0


class TestColdImports:
    def test_every_top_level_module_imports_cold(self, tmp_path):
        source_root = str(Path(repro.__file__).resolve().parents[1])
        # Bytecode cached under tmp_path: each source compiles once, not
        # once per purge, even where the caller disabled bytecode writes.
        env = dict(os.environ, PYTHONPATH=source_root,
                   PYTHONPYCACHEPREFIX=str(tmp_path))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        completed = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORTS], env=env,
            capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        imported = completed.stdout.split()
        assert len(imported) == 17
        assert {"apps", "cli", "workloads", "__main__"} <= set(imported)
