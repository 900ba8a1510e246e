#!/usr/bin/env python3
"""SHA-256 of every file `goalrba compare` writes, one line per file.

Runs `goalrba compare` on each given config (default: every configs/*.yaml
preset) into a temporary directory and prints `<config> <file> <sha256>`.
BLAS is pinned to one thread before numpy loads, because the last digits of
some results depend on the thread count. Run it on two checkouts and diff
the output to check that a change keeps the metrics CSVs byte-identical:

    python3 scripts/preset_digests.py > digests.txt
    python3 scripts/preset_digests.py my_config.yaml
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from goalrba.cli import main as goalrba_main  # noqa: E402  (loads numpy)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", type=Path,
                    help="config files (default: every configs/*.yaml preset)")
    args = ap.parse_args()

    for config in args.configs or sorted(CONFIGS.glob("*.yaml")):
        with tempfile.TemporaryDirectory() as out:
            code = goalrba_main(["compare", "--config", str(config), "--out", out])
            if code != 0:
                print(f"{config}: goalrba compare exited {code}", file=sys.stderr)
                return code
            for path in sorted(Path(out).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{config.name} {path.name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
