"""Command-line entry point for seeded coverage benchmarks.

Runs one strategy (or all six) for a batch of seeded simulations and writes
summary.json, runs.csv, cpr.csv, and optional per-run heatmaps. Exit code 0
means every run reached full coverage, 2 means some runs hit the step
budget, 1 means a malformed invocation or config, or a failed strategy (--all
still runs the rest).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arena import ArenaSpec
from .checks import integer_at_least
from .harness import STRATEGIES, ExperimentConfig, export, run_experiment
from .world import SimConfig

# The JSON type a --config key takes, from its option's default; a boolean is never a number.
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepsim",
        description="Deterministic multi-UAV sweep-coverage benchmark harness.",
    )
    parser.add_argument("--strategy", choices=STRATEGIES, help="strategy to run")
    parser.add_argument("--all", action="store_true", help="run every strategy")
    parser.add_argument("--runs", type=int, default=ExperimentConfig.runs,
                        help="runs per strategy (default %(default)s)")
    parser.add_argument("--seed", type=int, default=ExperimentConfig.base_seed,
                        help="base seed; run i uses seed+i (default %(default)s)")
    parser.add_argument("--arena-side", type=float, default=ArenaSpec.side_length,
                        help="arena side length in m (default %(default)g)")
    parser.add_argument("--uavs", type=int, default=ExperimentConfig.n_uavs,
                        help="swarm size (default %(default)s)")
    parser.add_argument("--dt", type=float, default=SimConfig.dt,
                        help="step duration in s (default %(default)g)")
    parser.add_argument("--max-steps", type=int, default=SimConfig.max_steps,
                        help="per-run step budget (default %(default)s)")
    parser.add_argument("--out", default=ExperimentConfig.output_dir,
                        help="output directory (default %(default)s)")
    parser.add_argument("--heatmaps", action="store_true",
                        help="also write per-run visit-count heatmaps")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel runs (default %(default)s)")
    parser.add_argument("--config", help="JSON file with the flat option schema; flags override")
    return parser


def _options(argv) -> argparse.Namespace:
    """Parse argv; a --config file's values replace the defaults, so a flag still wins."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        defaults = vars(parser.parse_args([]))
        del defaults["config"]  # a config file names no further file
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        strategy = loaded.get("strategy")
        if strategy not in (None, *STRATEGIES):  # set_defaults skips the parser's choices
            raise ValueError(f"config key 'strategy' must be one of {list(STRATEGIES)}, got {strategy!r}")
        for key, value in loaded.items():
            kind = type(defaults[key])
            if key != "strategy" and type(value) is not kind and (kind, type(value)) != (float, int):
                raise ValueError(f"config key {key!r} must be {_KINDS[kind]}, got {value!r}")
        parser.set_defaults(**loaded)
        args = parser.parse_args(argv)
    return args


def _experiment(args: argparse.Namespace, strategy: str) -> ExperimentConfig:
    return ExperimentConfig(
        strategy=strategy,
        runs=args.runs,
        base_seed=args.seed,
        arena=ArenaSpec(side_length=float(args.arena_side)),
        n_uavs=args.uavs,
        sim=SimConfig(dt=float(args.dt), max_steps=args.max_steps),
        output_dir=str(Path(args.out) / strategy if args.all else Path(args.out)),
        heatmaps=args.heatmaps,
    )


def main(argv=None) -> int:
    try:
        args = _options(argv)
        if args.all and args.strategy:
            raise ValueError("give --strategy or --all, not both")
        if not (args.all or args.strategy):
            raise ValueError("provide --strategy or --all")
        # A bad option is every strategy's, so it is reported once and nothing runs.
        configs = [_experiment(args, s) for s in (STRATEGIES if args.all else [args.strategy])]
        integer_at_least(args, 1, "jobs")
    except SystemExit as exc:  # argparse has printed its help (code 0) or its usage error (2)
        return 1 if exc.code else 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    incomplete = failed = 0
    for config in configs:
        strategy, out_dir = config.strategy, Path(config.output_dir)
        try:
            records, summary = run_experiment(config, args.jobs)
            export(records, summary, out_dir, config)
        except Exception as exc:  # noqa: BLE001 - one strategy's failure does not stop the rest
            print(f"error: {strategy}: {exc}", file=sys.stderr)
            failed += 1
            continue
        incomplete += summary.incomplete_runs
        mean_cct = "incomplete" if summary.mean_cct is None else f"{summary.mean_cct:.1f}"
        print(
            f"{strategy}: {summary.complete_runs}/{config.runs} complete, "
            f"mean CCT {mean_cct} -> {out_dir}"
        )
    return 1 if failed else (2 if incomplete else 0)


if __name__ == "__main__":
    sys.exit(main())
