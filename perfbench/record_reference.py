#!/usr/bin/env python3
"""Record the default-seed reference digests the benchmark checks against.

For every workload and policy, writes the generated config at the preset's
own seed, runs ``python -m goalrba.cli run`` on it (the ``goalrba run``
command) in the runner's environment (one BLAS thread), and stores the SHA-256 of
the metrics CSV in ``perfbench/reference.json``. Run from the root of a checkout:

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter program output, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "reference"
# Rounds per default-seed CSV: short, because every benchmark run replays them.
CHECK_ROUNDS = 3


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from goalrba.harness import POLICIES
    from run import BLAS_THREADS, RUN_ENV
    from workloads import WORKLOADS, preset_config, sha256, write_config

    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **RUN_ENV)
    reference = {"blas_threads": BLAS_THREADS, "workloads": {}}
    for workload in WORKLOADS.values():
        seed = preset_config(ROOT, workload)["seed"]
        digests = {}
        for policy in POLICIES:
            config = write_config(ROOT, workload, OUT, seed=seed, policy=policy,
                                  rounds=CHECK_ROUNDS)
            csv = OUT / f"{workload.name}-{policy}.csv"
            subprocess.run(
                [sys.executable, "-m", "goalrba.cli", "run", "--config", str(config),
                 "--out", str(csv)],
                cwd=ROOT, env=env, check=True, timeout=300,
            )
            digests[policy] = sha256(csv)
        reference["workloads"][workload.name] = {
            "seed": seed, "rounds": CHECK_ROUNDS, "sha256": digests,
        }
        print(f"{workload.name}: seed {seed}, {CHECK_ROUNDS} rounds, {digests}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
