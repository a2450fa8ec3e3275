"""A process imports only the modules its command runs, and runs on numpy and
the standard library alone.

The circuit simulator, the QASM writer and json load on first use: a sweep
runs none of them, a burst report needs json alone.  Each import set is read
in a fresh interpreter, since this one has loaded every module already, in
which the test extras scipy, pytest and hypothesis cannot be imported.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icobattery

SRC = Path(icobattery.__file__).resolve().parents[1]

# The modules a command may leave unloaded.
DEFERRED = ("icobattery.circuit", "icobattery.qasm", "json")

# Run first in every fresh interpreter: importing a test extra raises ImportError.
WITHOUT_TEST_EXTRAS = ("import sys\n"
                       "for m in ('scipy', 'pytest', 'hypothesis'):\n    sys.modules[m] = None\n")

# The public names that load on first access, each with the module that defines it.
LAZY_NAMES = {"Gate": "circuit", "QuantumCircuit": "circuit", "angles_of_time": "circuit",
              "build_ico_circuit": "circuit", "emit_qasm": "qasm", "parse_qasm": "qasm"}


def deferred_loaded(code: str, cwd: Path) -> list[str]:
    """The modules of DEFERRED that a fresh interpreter without the test extras
    holds after running `code` in `cwd`."""
    probe = f"{WITHOUT_TEST_EXTRAS}{code}\nprint(*(m for m in {DEFERRED!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def run_command(*argv: str) -> str:
    return f"import icobattery.cli\nassert icobattery.cli.main({list(argv)!r}) == 0"


CONFIG = "from pathlib import Path\nPath('c.json').write_text('{\"n_list\": [2], \"points\": 3}')\n"


@pytest.mark.parametrize("code, loaded", [
    pytest.param("import icobattery", [], id="package"),
    pytest.param("import icobattery.cli", [], id="cli"),
    pytest.param(run_command("sweep", "--n", "2,3", "--points", "5", "--engine", "both",
                             "--out", "x.csv"), [], id="sweep-both"),
    pytest.param(run_command("sweep", "--n", "2", "--points", "3", "--engine", "analytic",
                             "--out", "x.csv"), [], id="sweep-analytic"),
    pytest.param(CONFIG + run_command("sweep", "--config", "c.json", "--engine", "numeric",
                                      "--out", "x.csv"), ["json"], id="sweep-config"),
    pytest.param(run_command("bursts", "--n", "2,3", "--points", "5", "--out", "x.json"),
                 ["json"], id="bursts"),
    pytest.param(run_command("export-circuits", "--n", "2", "--points", "3", "--out", "circuits"),
                 ["icobattery.circuit", "icobattery.qasm"], id="export-circuits"),
    pytest.param(run_command("noise-study", "--n", "2", "--points", "3", "--shots", "10",
                             "--depol-p", "0.1", "--out", "x.csv"),
                 ["icobattery.circuit"], id="noise-study"),
    pytest.param("import icobattery\nicobattery.Gate", ["icobattery.circuit"], id="Gate"),
    pytest.param("import icobattery\nicobattery.emit_qasm",
                 ["icobattery.circuit", "icobattery.qasm"], id="emit_qasm"),
])
def test_a_process_loads_only_what_its_command_runs(tmp_path, code, loaded):
    assert deferred_loaded(code, tmp_path) == loaded


@pytest.mark.parametrize("name, module", LAZY_NAMES.items())
def test_lazy_name_is_the_object_in_its_module(name, module):
    assert getattr(icobattery, name) is getattr(importlib.import_module(f"icobattery.{module}"),
                                                name)


def test_dir_and_star_import_cover_every_public_name():
    assert set(icobattery.__all__) <= set(dir(icobattery))
    namespace = {}
    exec("from icobattery import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(icobattery.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        icobattery.no_such_name
    assert not hasattr(icobattery, "no_such_name")
