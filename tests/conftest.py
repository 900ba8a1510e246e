"""Let the CLI tests' `python -m goalrba.cli` subprocesses import src/ too.

pyproject.toml puts src/ on the test process's path; child processes see
only PYTHONPATH, so a bare `pytest` from a fresh checkout needs it set.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
