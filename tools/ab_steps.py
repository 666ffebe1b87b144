"""Step the same seeded worlds of two checkouts in turn and compare their time per agent-step.

    python3 tools/ab_steps.py PARENT CHANGE --strategies rb sons_bs --seeds 1 2 3

PARENT and CHANGE are checkouts (directories holding src/sweepsim). Both
are imported into this one process, each under its own package name, so
neither reads the other's modules. For every strategy and seed, each side
builds its world with harness.build_world from a default ExperimentConfig,
and the two worlds are stepped alternately, CHUNK steps at a time, with the
side that goes first alternating from one chunk to the next, until each
reaches full coverage or the step budget. A drift in host speed then lands
on both sides alike, which back-to-back benchmark windows do not ensure.

Both sides must end with the same step count, visit grid, live pose (xs, ys,
hs), cells and clamp_count, and with the same controller turn state (turn_dir,
turn_target, turn_quiet, quiet_until) wherever both controllers keep it, or
the tool stops with exit code 1. It prints the
microseconds per agent-step of World.step for each side, and the change/parent
ratio, for each strategy.
Only the step calls are timed: building the worlds is not.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

CHUNK = 20  # steps a side takes before the other side's turn
ALL = ("rb", "ldr_random", "ldr_repulsive", "pm", "sons_bs", "sons_rw")
STATE = ("step_count", "visits", "xs", "ys", "hs", "cells", "clamp_count")  # World fields both sides must end equal on
TURN_STATE = ("turn_dir", "turn_target", "turn_quiet", "quiet_until")  # the same, of controllers that keep them


def load(checkout: Path, name: str):
    """Import checkout/src/sweepsim as the package name, with its harness module."""
    package = checkout / "src" / "sweepsim"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def advance(world, steps: int) -> float:
    """Step world up to steps times, stopping where World.run would; the seconds it took."""
    cells, budget = world.arena.cell_count, world.cfg.max_steps
    start = time.perf_counter()
    for _ in range(steps):
        if world.visited_count == cells or world.step_count == budget:
            break
        world.step()
    return time.perf_counter() - start


def finished(world) -> bool:
    return world.visited_count == world.arena.cell_count or world.step_count == world.cfg.max_steps


def measure(harnesses, strategy: str, seed: int) -> tuple[list[float], int]:
    """Seconds spent stepping on each side, and the agent-steps each side took."""
    worlds = [h.build_world(h.ExperimentConfig(strategy=strategy), seed) for h in harnesses]
    seconds = [0.0, 0.0]
    turn = 0
    while not all(finished(w) for w in worlds):
        for side in (turn, 1 - turn):
            seconds[side] += advance(worlds[side], CHUNK)
        turn = 1 - turn
    parent, change = worlds
    differ = [name for name in STATE if getattr(parent, name) != getattr(change, name)]
    controllers = parent.controller, change.controller
    differ += [
        f"controller.{name}" for name in TURN_STATE
        if all(hasattr(c, name) for c in controllers) and getattr(controllers[0], name) != getattr(controllers[1], name)
    ]
    if differ:
        raise SystemExit(f"{strategy} seed {seed}: the checkouts disagree on {', '.join(differ)}")
    return seconds, parent.step_count * len(parent.agents)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--strategies", nargs="+", default=list(ALL), choices=ALL)
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = p.parse_args(argv)
    harnesses = [load(args.parent.resolve(), "sweepsim_parent"),
                 load(args.change.resolve(), "sweepsim_change")]
    print(f"{'strategy':<14} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for strategy in args.strategies:
        seconds, agent_steps = [0.0, 0.0], 0
        for seed in args.seeds:
            took, count = measure(harnesses, strategy, seed)
            seconds = [a + b for a, b in zip(seconds, took)]
            agent_steps += count
        parent_us, change_us = (1e6 * s / agent_steps for s in seconds)
        ratio = change_us / parent_us
        print(f"{strategy:<14} {parent_us:>10.3f} {change_us:>10.3f} {ratio:>7.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
