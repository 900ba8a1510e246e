#!/usr/bin/env python3
"""SHA-256 of every file `goalrba compare` writes, one line per file.

Runs `goalrba compare` on each given config (default: every configs/*.yaml
preset) into a temporary directory and prints `<config> <file> <sha256>`.
BLAS is pinned to one thread before numpy loads, because the last digits of
some results depend on the thread count. Run it on two checkouts and diff
the output to check that a change keeps the metrics CSVs byte-identical:

    python3 scripts/preset_digests.py > digests.txt
    python3 scripts/preset_digests.py my_config.yaml

`--set key=value` (repeatable) overrides one key of every config before the
run; a dotted key reaches into a block. The value, and each config, is read
with goalrba's own YAML loader, so `--set params.lr=1e-3` sets a float:

    python3 scripts/preset_digests.py configs/demand_response.yaml \
        --set rounds=25 --set params.num_eds=15000
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import yaml

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
# This checkout's package, ahead of any installed goalrba.
sys.path.insert(0, str(ROOT / "src"))

from goalrba.cli import main as goalrba_main  # noqa: E402  (loads numpy)
from goalrba.harness import parse_yaml  # noqa: E402

CONFIGS = ROOT / "configs"


def parse_override(text: str):
    """`a.b=value` -> (["a", "b"], value read as a config value is)."""
    key, sep, value = text.partition("=")
    if not sep or not all(key.split(".")):
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key.split("."), parse_yaml(value)
    except yaml.YAMLError as exc:
        raise argparse.ArgumentTypeError(f"invalid YAML value in {text!r}: {exc}") from exc


def overridden(config: Path, overrides, out: str) -> Path:
    """Write config with the overrides applied into out; return its path.

    A config whose root is not a mapping is returned as it is, so that
    `goalrba compare` rejects it as a config error.
    """
    raw = parse_yaml(config.read_text())
    if not isinstance(raw, dict):
        return config
    for keys, value in overrides:
        block = raw
        for key in keys[:-1]:
            if not isinstance(block.get(key), dict):
                block[key] = {}
            block = block[key]
        block[keys[-1]] = value
    path = Path(out) / config.name
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", type=Path,
                    help="config files (default: every configs/*.yaml preset)")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    type=parse_override, metavar="KEY=VALUE",
                    help="override a config key in every config, e.g. "
                         "params.num_eds=15000 (repeatable; value read as in a config)")
    return ap


def main() -> int:
    args = _build_parser().parse_args()

    for config in args.configs or sorted(CONFIGS.glob("*.yaml")):
        with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as cfg_dir:
            if args.overrides:
                config = overridden(config, args.overrides, cfg_dir)
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
