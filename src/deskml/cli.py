"""Experiment runner: load a config, apply overrides, train, print metrics.

Exit codes: 0 success, 2 usage error, 3 config error, 4 runtime failure.
A run refused before its workdir exists exits 3; a failure after that,
a refused checkpoint in the workdir among them, exits 4.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import baselines
from .config import ConfigError, load_config, override
from .train import run_trainer

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskml",
        description="Run a training experiment from a JSON config file.")
    parser.add_argument("command", choices=["run"], help="subcommand")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--workdir", required=True, help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="config override; repeatable; the value must fit "
                             "the leaf's kind (an int leaf takes an int, a list "
                             "leaf a JSON list); +key=value creates")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0

    try:
        config = load_config(args.config)
        config = override(config, args.override)
        model_name = config.require("model.name")
        if model_name not in baselines.BASELINES:
            raise ConfigError(f"unknown model {model_name!r}; "
                              f"registered: {sorted(baselines.BASELINES)}")
        kind = baselines.BASELINES[model_name][2]
        metrics = run_trainer(kind, config, args.workdir, seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps(metrics, sort_keys=True))
    return 0


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
