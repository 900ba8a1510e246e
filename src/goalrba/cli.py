"""Command-line entry points: run one scenario, compare policies, report
the claims over seeds, verify.

`run`, `compare` and `claims` read `--config` with any number of
`--set KEY=VALUE` overrides, which `load_config` applies. Exit codes: 0
success, 1 config error (a bad flag or override too), 2 runtime error, 3
verification failure. `claims` exits as `run` does.
"""

from __future__ import annotations

import argparse
import sys

from .claims import run_claims
from .harness import ConfigError, emit_metrics, load_config, run_compare, run_scenario
from .verification import run_all_checks


class _Parser(argparse.ArgumentParser):
    """An argparse parser that exits 1 on a bad command line, as on a bad config."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goalrba",
        description="Goal-oriented RB allocation scenarios and property checks.",
    )
    config_p = argparse.ArgumentParser(add_help=False)
    config_p.add_argument("--config", required=True)
    config_p.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="override a config key, e.g. rounds=50 or params.lr=1e-3 "
                               "(repeatable; the value is read as in a config)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[config_p],
                           help="run one scenario and emit a metrics CSV")
    run_p.add_argument("--out", required=True)

    cmp_p = sub.add_parser("compare", parents=[config_p],
                           help="run all three policies on shared seeds")
    cmp_p.add_argument("--out", required=True, help="output directory")

    claims_p = sub.add_parser("claims", parents=[config_p],
                              help="each policy's claim value over seeds")
    claims_p.add_argument("--seeds", type=int, nargs="+", default=None,
                          help="default: the config's own seed")

    sub.add_parser("verify", help="run the property and oracle suites")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return 0 if run_all_checks() else 3
    try:
        config = load_config(args.config, args.overrides)
        if args.command == "run":
            emit_metrics(run_scenario(config), args.out)
        elif args.command == "claims":
            run_claims(config, args.seeds or [config.seed])
        else:
            run_compare(config, args.out)
    except ConfigError as exc:
        # Loading the config or building a workload from it; a round's own
        # failure reaches here as a RoundError.
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
