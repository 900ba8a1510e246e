"""Let the CLI tests' `python -m goalrba.cli` subprocesses import src/ too.

pyproject.toml puts src/ on the test process's path; child processes see
only PYTHONPATH, so a bare `pytest` from a fresh checkout needs it set.

goalrba is imported here, before any test module loads numpy, so that its
BLAS pin holds in the test process as well; subprocesses inherit the pin.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
importlib.import_module("goalrba")


@pytest.fixture(scope="session")
def preset_digests():
    """scripts/preset_digests.py as a module, with sys.path as it was.

    Loading the script puts this checkout's src/ first on sys.path, and
    imports the goalrba CLI, whose package pins BLAS to one thread.
    """
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "preset_digests", ROOT / "scripts" / "preset_digests.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module
