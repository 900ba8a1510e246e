#!/usr/bin/env python3
"""SHA-256 of every file `goalrba compare` writes, one line per file.

Runs `goalrba compare` on each given config (default: every configs/*.yaml
preset) into a temporary directory and prints `<config> <file> <sha256>`.
BLAS is pinned to one thread before numpy loads, because the last digits of
some results depend on the thread count. Run it on two checkouts and diff
the output to check that a change keeps the metrics CSVs byte-identical:

    python3 scripts/preset_digests.py > digests.txt
    python3 scripts/preset_digests.py my_config.yaml

`--set key=value` (repeatable) overrides one key of every config: each is
passed as it is to `goalrba compare --set`, where `load_config` applies it.
A dotted key reaches into a block, and `--set params.lr=1e-3` sets a float:

    python3 scripts/preset_digests.py configs/demand_response.yaml \
        --set rounds=25 --set params.num_eds=15000
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
# This checkout's package, ahead of any installed goalrba.
sys.path.insert(0, str(ROOT / "src"))

from goalrba.cli import main as goalrba_main  # noqa: E402  (loads numpy)

CONFIGS = ROOT / "configs"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", type=Path,
                    help="config files (default: every configs/*.yaml preset)")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a config key in every config, e.g. "
                         "params.num_eds=15000 (repeatable; passed to goalrba compare)")
    return ap


def main() -> int:
    args = _build_parser().parse_args()
    sets = [arg for override in args.overrides for arg in ("--set", override)]
    for config in args.configs or sorted(CONFIGS.glob("*.yaml")):
        with tempfile.TemporaryDirectory() as out:
            code = goalrba_main(["compare", "--config", str(config), *sets, "--out", out])
            if code != 0:
                print(f"{config}: goalrba compare exited {code}", file=sys.stderr)
                return code
            for path in sorted(Path(out).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{config.name} {path.name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
