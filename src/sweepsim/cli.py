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
    "runs": 30,
    "seed": 1,
    "arena_side": 40.0,
    "uavs": 25,
    "dt": 0.1,
    "max_steps": 60_000,
    "out": "results",
    "heatmaps": False,
    "jobs": 1,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepsim",
        description="Deterministic multi-UAV sweep-coverage benchmark harness.",
    )
    parser.add_argument("--strategy", choices=STRATEGIES, help="strategy to run")
    parser.add_argument("--all", action="store_true", help="run every strategy")
    parser.add_argument("--runs", type=int, help="runs per strategy (default 30)")
    parser.add_argument("--seed", type=int, help="base seed; run i uses seed+i (default 1)")
    parser.add_argument("--arena-side", type=float, help="arena side length in m (default 40)")
    parser.add_argument("--uavs", type=int, help="swarm size (default 25)")
    parser.add_argument("--dt", type=float, help="step duration in s (default 0.1)")
    parser.add_argument("--max-steps", type=int, help="per-run step budget (default 60000)")
    parser.add_argument("--out", help="output directory (default results)")
    parser.add_argument("--heatmaps", action="store_true", default=None,
                        help="also write per-run visit-count heatmaps")
    parser.add_argument("--jobs", type=int, help="parallel runs (default 1)")
    parser.add_argument("--config", help="JSON file with the flat option schema; flags override")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    options = dict(_DEFAULTS)
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        unknown = set(loaded) - set(_DEFAULTS) - {"all"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        options.update(loaded)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return options


def _experiment(options: dict, strategy: str, out_dir: str) -> ExperimentConfig:
    arena = ArenaSpec(side_length=float(options["arena_side"]))
    sim = SimConfig(dt=float(options["dt"]), max_steps=int(options["max_steps"]))
    return ExperimentConfig(
        strategy=strategy,
        runs=int(options["runs"]),
        base_seed=int(options["seed"]),
        arena=arena,
        n_uavs=int(options["uavs"]),
        sim=sim,
        output_dir=out_dir,
        heatmaps=bool(options["heatmaps"]),
        jobs=int(options["jobs"]),
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
