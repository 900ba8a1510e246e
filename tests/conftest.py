"""Let the CLI tests' `python -m goalrba.cli` subprocesses import src/ too.

pyproject.toml puts src/ on the test process's path; child processes see
only PYTHONPATH, so a bare `pytest` from a fresh checkout needs it set.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def preset_digests():
    """scripts/preset_digests.py as a module, with os.environ and sys.path as they were.

    Loading the script pins BLAS to one thread in os.environ; the CLI tests'
    subprocesses must not inherit that pin from this process.
    """
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "preset_digests", ROOT / "scripts" / "preset_digests.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module
