"""What each entry point loads: a command imports only what it runs.

The package namespaces export lazily (:mod:`repro._lazy`), and the replay
stack and the worker pool load where they run.  These tests pin that
setting up a run, the light CLI commands and a fully warm run never load
the replay stack, the static analyzer, the overlap transform or the
process-pool machinery.  Every check runs in a fresh interpreter, because
this process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules that setting up a run, a light command and a fully warm run must
#: not load: the walks, the DES kernel, the linter, the overlap transform
#: and the worker-pool machinery.
DEFERRED = (
    "repro.dimemas.replay",
    "repro.dimemas.gridreplay",
    "repro.dimemas.windows",
    "repro.des",
    "repro.analysis.tracelint",
    "repro.core.overlap",
    "multiprocessing",
    "concurrent.futures",
)

#: The packages whose ``__init__`` exports its public names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.des",
    "repro.dimemas",
    "repro.dimemas.collectives",
    "repro.experiments",
    "repro.mpi",
    "repro.paraver",
    "repro.tracing",
)

#: One small experiment against the store at ``sys.argv[1]``; prints the
#: cache counts and which ``DEFERRED`` modules are loaded after the call.
_RUN = """
import json, sys
from repro.experiments import ExperimentSpec, run_experiment

spec = ExperimentSpec(apps=("sweep3d",), app_options={"num_ranks": 4},
                      bandwidths=(50.0, 500.0), jobs=1)
result = run_experiment(spec, cache_dir=sys.argv[1])
stats = result.cache_stats()
print(json.dumps({"hits": stats["hits"], "misses": stats["misses"],
                  "loaded": [name for name in sys.argv[2:]
                             if name in sys.modules]}))
"""


def _python(*arguments, timeout=120):
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    env.pop("REPRO_CACHE_DIR", None)
    completed = subprocess.run([sys.executable, *arguments], env=env,
                               capture_output=True, text=True,
                               timeout=timeout)
    assert completed.returncode == 0, completed.stderr
    return completed


def _imported(stderr):
    """Every module an ``-X importtime`` run imported, by name."""
    return {line.rpartition("|")[2].strip()
            for line in stderr.splitlines()
            if line.startswith("import time:")}


def _deferred_in(modules):
    return sorted(name for name in DEFERRED if name in modules)


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store the experiment of ``_RUN`` filled, cold, in its own process."""
    store = tmp_path_factory.mktemp("store")
    cold = json.loads(_python("-c", _RUN, str(store), *DEFERRED).stdout)
    return store, cold


@pytest.mark.parametrize("module", [
    "repro", "repro.experiments", "repro.store", "repro.dimemas.platform",
    "repro.cli",
])
def test_importing_loads_no_deferred_module(module):
    completed = _python(
        "-c", f"import sys, {module}; print(' '.join(sys.modules))")
    assert _deferred_in(completed.stdout.split()) == []


@pytest.mark.parametrize("command", [
    ["list-apps"], ["--help"], ["cache", "stats"],
], ids=["list-apps", "help", "cache-stats"])
def test_light_command_loads_no_deferred_module(command, filled_store):
    store, _cold = filled_store
    if command[0] == "cache":
        command = command + ["--cache-dir", str(store)]
    completed = _python("-X", "importtime", "-m", "repro", *command)
    imported = _imported(completed.stderr)
    assert "repro.cli" in imported
    assert _deferred_in(imported) == []


#: Modules the parser and the light commands must not load either: the
#: sweep executor and, through it, the result store.
_HEAVY_FOR_LIGHT_COMMANDS = ("repro.core.executor", "repro.store")


@pytest.mark.parametrize("command", [
    ["-c", "import repro.cli"],
    ["-m", "repro", "list-apps"],
    ["-m", "repro", "--help"],
], ids=["import", "list-apps", "help"])
def test_the_cli_loads_neither_executor_nor_store(command):
    imported = _imported(_python("-X", "importtime", *command).stderr)
    assert "repro.cli" in imported
    assert [name for name in _HEAVY_FOR_LIGHT_COMMANDS
            if name in imported] == []


def test_fully_warm_run_loads_no_deferred_module(filled_store):
    store, cold = filled_store
    warm = json.loads(_python("-c", _RUN, str(store), *DEFERRED).stdout)
    assert warm["hits"] == cold["misses"] > 0
    assert warm["misses"] == 0
    assert warm["loaded"] == []


def test_cold_serial_run_starts_no_pool(filled_store):
    _store, cold = filled_store
    assert cold["hits"] == 0 and cold["misses"] > 0
    # The replay stack did load: the pool machinery is what must not.
    assert "repro.dimemas.replay" in cold["loaded"]
    assert [name for name in cold["loaded"]
            if name in ("multiprocessing", "concurrent.futures")] == []


_EXPORTS = """
import importlib, sys
name = sys.argv[1]
package = importlib.import_module(name)
missing = [export for export in package.__all__
           if getattr(package, export) is None or export not in dir(package)]
assert missing == [], missing
namespace = {}
exec(f"from {name} import *", namespace)
assert set(package.__all__) <= set(namespace), sorted(
    set(package.__all__) - set(namespace))
try:
    package.no_such_name
except AttributeError as exc:
    assert repr(name) in str(exc) and "no_such_name" in str(exc), str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(package):
    assert _python("-c", _EXPORTS, package).stdout.split() == ["ok"]
