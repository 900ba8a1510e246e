"""Importing goalrba pins BLAS to one thread, whatever the caller set.

The last digits of some results depend on the BLAS thread count, so a
`goalrba compare` started with every BLAS variable at "2" must write the
bytes of one started at "1".
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(threads):
    return dict(os.environ, **dict.fromkeys(BLAS_VARIABLES, threads))


def compare(config, out, threads):
    """The bytes of each file `goalrba compare` writes, started at `threads`."""
    subprocess.run(
        [sys.executable, "-m", "goalrba.cli", "compare", "--config",
         str(ROOT / "configs" / config), "--set", "rounds=3", "--out", str(out)],
        env=blas_env(threads), capture_output=True, check=True,
    )
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("config", ["federated.yaml", "edge_learning.yaml"])
def test_two_blas_threads_write_the_one_thread_bytes(config, tmp_path):
    one = compare(config, tmp_path / "one", "1")
    two = compare(config, tmp_path / "two", "2")
    assert sorted(one) == ["channel.csv", "hybrid.csv", "summary.csv", "utility.csv"]
    assert [name for name in one if one[name] != two[name]] == []


def test_importing_goalrba_pins_one_thread_before_numpy_loads():
    code = ("import goalrba, os, sys; "
            f"print(*(os.environ[name] for name in {BLAS_VARIABLES}), 'numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=blas_env("2"),
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["1", "1", "1", "False"]
