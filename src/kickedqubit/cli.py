"""Command-line driver: ``simulate <experiment-id> [--config ...] [--out ...]``.

``simulate all`` runs every catalog id in catalog order, in one process.

Exit codes: 0 on success, 2 on a config problem (unknown experiment, bad or
missing fields, malformed JSON), 3 when the integration diverges, 4 when the
datasets cannot be written; ``all`` stops at the first id that fails and
exits with its code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    EXPERIMENT_IDS,
    ConfigError,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from .hydrogen import UNIT_SCALES
from .integrator import IntegrationDivergedError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_WRITE = 4
#: the ids ``simulate all`` runs, in catalog order
CATALOG_IDS = tuple(e for e in EXPERIMENT_IDS if e != "custom")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a kicked-qubit experiment and write CSV datasets.")
    parser.add_argument("experiment", metavar="experiment-id",
                        help=f"one of: {', '.join(EXPERIMENT_IDS)}, or all "
                             f"(every id but custom)")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file (required for 'custom'; "
                             "otherwise overrides the catalog defaults)")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory for CSV/JSON datasets "
                             "(default: %(default)s)")
    parser.add_argument("--dt", type=float, metavar="VAL",
                        help="integrator step override")
    parser.add_argument("--convention", choices=sorted(UNIT_SCALES),
                        help="hydrogen MHz-to-angular-frequency convention")
    return parser


def _load_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    if args.experiment == "all":
        for option in ("config", "dt"):
            if getattr(args, option) is not None:
                raise ConfigError(f"--{option}", "simulate all runs the catalog defaults")
        # the convention enters the hydrogen ids' configs only
        return default_config(experiment, convention=args.convention or "plain")
    if args.config is None:
        config = default_config(experiment, convention=args.convention or "plain")
    else:
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError("--config", f"cannot read {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"{args.config!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("--config", "top level must be a JSON object")
        stated = raw.get("experiment")
        if stated is None:
            raw["experiment"] = experiment
        elif stated != experiment:
            raise ConfigError(
                "experiment",
                f"config file says {stated!r} but the command line says "
                f"{experiment!r}")
        config = ExperimentConfig.from_dict(raw)

    if args.dt is not None:
        config = dataclasses.replace(config, dt=args.dt)
    if args.convention is not None:
        if config.system != "hydrogen":
            raise ConfigError(
                "hydrogen.convention",
                f"--convention applies to hydrogen experiments; "
                f"{config.experiment} runs on {config.system}")
        config = dataclasses.replace(
            config, hydrogen={**config.hydrogen, "convention": args.convention})
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for experiment in CATALOG_IDS if args.experiment == "all" else (args.experiment,):
        code = _simulate(args, experiment)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _simulate(args: argparse.Namespace, experiment: str) -> int:
    try:
        config = _load_config(args, experiment)
        datasets, _ = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        paths = [d.write(args.out) for d in datasets] if args.out is not None else []
    except OSError as exc:  # its message names the path
        print(f"cannot write the datasets: {exc}", file=sys.stderr)
        return EXIT_WRITE
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
