"""Command-line entry point for seeded coverage benchmarks.

Runs one strategy (or all six) for a batch of seeded simulations and writes
summary.json, runs.csv, cpr.csv, and optional per-run heatmaps. Exit code 0
means every run reached full coverage, 2 means some runs hit the step
budget, 1 means the invocation or a strategy failed (--all still runs the rest).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arena import ArenaSpec
from .harness import STRATEGIES, ExperimentConfig, export, run_experiment
from .world import SimConfig

_DEFAULTS = {
    "strategy": None,
    "runs": ExperimentConfig.runs,
    "seed": ExperimentConfig.base_seed,
    "arena_side": ArenaSpec.side_length,
    "uavs": ExperimentConfig.n_uavs,
    "dt": SimConfig.dt,
    "max_steps": SimConfig.max_steps,
    "out": ExperimentConfig.output_dir,
    "heatmaps": ExperimentConfig.heatmaps,
    "jobs": ExperimentConfig.jobs,
}

# The JSON type each --config key must have; a boolean is never a number.
_CONFIG_TYPES = {
    "strategy": ((str, type(None)), "a string or null"),
    "all": (bool, "a boolean"),
    "runs": (int, "an integer"),
    "seed": (int, "an integer"),
    "arena_side": ((int, float), "a number"),
    "uavs": (int, "an integer"),
    "dt": ((int, float), "a number"),
    "max_steps": (int, "an integer"),
    "out": (str, "a string"),
    "heatmaps": (bool, "a boolean"),
    "jobs": (int, "an integer"),
}


def _parser() -> argparse.ArgumentParser:
    d = _DEFAULTS
    parser = argparse.ArgumentParser(
        prog="sweepsim",
        description="Deterministic multi-UAV sweep-coverage benchmark harness.",
    )
    parser.add_argument("--strategy", choices=STRATEGIES, help="strategy to run")
    parser.add_argument("--all", action="store_true", help="run every strategy")
    parser.add_argument("--runs", type=int, help=f"runs per strategy (default {d['runs']})")
    parser.add_argument("--seed", type=int, help=f"base seed; run i uses seed+i (default {d['seed']})")
    parser.add_argument("--arena-side", type=float,
                        help=f"arena side length in m (default {d['arena_side']:g})")
    parser.add_argument("--uavs", type=int, help=f"swarm size (default {d['uavs']})")
    parser.add_argument("--dt", type=float, help=f"step duration in s (default {d['dt']:g})")
    parser.add_argument("--max-steps", type=int,
                        help=f"per-run step budget (default {d['max_steps']})")
    parser.add_argument("--out", help=f"output directory (default {d['out']})")
    parser.add_argument("--heatmaps", action="store_true", default=None,
                        help="also write per-run visit-count heatmaps")
    parser.add_argument("--jobs", type=int, help=f"parallel runs (default {d['jobs']})")
    parser.add_argument("--config", help="JSON file with the flat option schema; flags override")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    options = dict(_DEFAULTS)
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        unknown = set(loaded) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            types, expected = _CONFIG_TYPES[key]
            if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        options.update(loaded)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return options


def _experiment(options: dict, strategy: str, out_dir: str) -> ExperimentConfig:
    arena = ArenaSpec(side_length=float(options["arena_side"]))
    sim = SimConfig(dt=float(options["dt"]), max_steps=options["max_steps"])
    return ExperimentConfig(
        strategy=strategy,
        runs=options["runs"],
        base_seed=options["seed"],
        arena=arena,
        n_uavs=options["uavs"],
        sim=sim,
        output_dir=out_dir,
        heatmaps=options["heatmaps"],
        jobs=options["jobs"],
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        options = _resolve_options(args)
        out_root = Path(options["out"])
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_all = args.all or options.get("all")
    if run_all:
        strategies = list(STRATEGIES)
    elif options["strategy"]:
        strategies = [options["strategy"]]
    else:
        print("error: provide --strategy or --all", file=sys.stderr)
        return 1

    incomplete = failed = 0
    for strategy in strategies:
        out_dir = out_root / strategy if run_all else out_root
        try:
            config = _experiment(options, strategy, str(out_dir))
            records, summary = run_experiment(config)
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
