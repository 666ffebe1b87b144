"""One SHA-256 per run, pinned in run_digests.json.

A run's digest covers its RunRecord: cct, coverage_fraction.tobytes() and
final_visits.tobytes(). It does not cover the exported text, so a change
that only touches export leaves it alone. Two sets are pinned:

- "default": the 180 runs of the acceptance sweep (6 strategies x seeds
  1..30 at the default configuration), checked against the sweep fixture
  in test_acceptance.py, which simulates nothing extra;
- "matrix": MATRIX, off-default configurations at three seeds each with
  the step budget capped, checked in test_harness.py. These digests also
  cover every agent's final pose.

Regenerate the file, only for a change meant to move a run and with the
reason stated in CHANGES.md, with

    PYTHONPATH=src python tests/run_digests.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

from sweepsim.arena import ArenaSpec
from sweepsim.harness import (
    STRATEGIES,
    ExperimentConfig,
    PlacementSpec,
    build_world,
    run_experiment,
)
from sweepsim.world import SimConfig

PATH = Path(__file__).with_name("run_digests.json")
SWEEP_RUNS = 30
SWEEP_BASE_SEED = 1
JOBS = min(os.cpu_count() or 1, 4)

_CAP = SimConfig(max_steps=3000)
MATRIX = {
    "side80": ExperimentConfig(
        strategy="rb", arena=ArenaSpec(side_length=80.0), sim=_CAP, runs=3
    ),
    "n10": ExperimentConfig(strategy="ldr_random", n_uavs=10, sim=_CAP, runs=3),
    "n50": ExperimentConfig(
        strategy="ldr_repulsive",
        n_uavs=50,
        placement=PlacementSpec(width=30.0, depth=6.0),
        sim=_CAP,
        runs=3,
    ),
    "dt0.05": ExperimentConfig(strategy="pm", sim=replace(_CAP, dt=0.05), runs=3),
    "cell0.5": ExperimentConfig(
        strategy="sons_rw", arena=ArenaSpec(cell_size=0.5), sim=_CAP, runs=3
    ),
    "sons_bs_n50": ExperimentConfig(strategy="sons_bs", n_uavs=50, sim=_CAP, runs=3),
    "sons_rw_n50": ExperimentConfig(strategy="sons_rw", n_uavs=50, sim=_CAP, runs=3),
}


def record_digest(record) -> str:
    """SHA-256 over cct, coverage_fraction and final_visits, lengths included."""
    cf = record.coverage_fraction
    fv = record.final_visits
    h = hashlib.sha256(f"{record.cct}|{cf.dtype}{cf.size}|{fv.dtype}{fv.size}|".encode())
    h.update(cf.tobytes())
    h.update(fv.tobytes())
    return h.hexdigest()


def digests(records) -> dict[str, str]:
    return {f"{r.strategy}/{r.seed}": record_digest(r) for r in records}


def _matrix_digest(task) -> str:
    """The record digest, then every agent's final position and heading.

    A one-ulp change in a move or a formation pose seldom moves a cell
    boundary crossing or flips a decision, so it leaves the record alone;
    the final poses show it.
    """
    config, seed = task
    world = build_world(config, seed)
    h = hashlib.sha256(record_digest(world.run()).encode())
    poses = [((x, y), heading) for x, y, heading in zip(world.xs, world.ys, world.hs)]
    h.update(repr(poses).encode())
    return h.hexdigest()


def run_matrix() -> dict[str, str]:
    """Digests of every MATRIX run, all of them spread over one pool of JOBS workers."""
    tasks = {
        f"{name}/{config.strategy}/{config.base_seed + i}": (config, config.base_seed + i)
        for name, config in MATRIX.items()
        for i in range(config.runs)
    }
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=get_context("spawn")) as pool:
        return dict(zip(tasks, pool.map(_matrix_digest, tasks.values()), strict=True))


def pinned() -> dict[str, dict[str, str]]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Runs whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Check or regenerate tests/run_digests.json.")
    p.add_argument("--write", action="store_true", help="rewrite the file from this checkout")
    args = p.parse_args(argv)
    default = {}
    for strategy in STRATEGIES:
        config = ExperimentConfig(strategy=strategy, runs=SWEEP_RUNS, base_seed=SWEEP_BASE_SEED)
        default.update(digests(run_experiment(config, JOBS)[0]))
    current = {"default": default, "matrix": run_matrix()}
    if args.write:
        PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {PATH}")
        return 0
    differ = [
        f"{group}:{key}"
        for group, runs in pinned().items()
        for key in mismatches(runs, current[group])
    ]
    print("\n".join(differ) or "all runs match")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
