"""Batch execution: placement, seeded runs, and result export.

Each run gets its own seed (base_seed + run index) and is fully independent,
so runs can execute in any order or in parallel without changing a byte of
the output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import mean
from types import SimpleNamespace

import numpy as np

from .arena import ArenaSpec
from .checks import boolean, integer_at_least, positive_finite
from .decentralized import ADD_ON, DecentralizedController
from .metrics import (
    RunRecord,
    StrategySummary,
    block_uniformities,
    cpr,
    summarize,
    tcu,
)
from .sons import FORMATIONS, make_sons_controller
from .world import AgentState, SimConfig, World, agent_stream, check_step_length, harness_stream

DECENTRALIZED = tuple(ADD_ON)
STRATEGIES = DECENTRALIZED + tuple(FORMATIONS)


@dataclass(frozen=True)
class PlacementSpec:
    """Start box for decentralized swarms: a strip inside the southern boundary."""

    width: float = 20.0  # m, along the boundary
    depth: float = 3.0  # m, into the arena
    min_spacing: float = 1.5  # m, pairwise
    max_rejects: int = 100_000
    stall_rejects: int = 2_000  # consecutive rejects before scrapping the layout

    def __post_init__(self) -> None:
        positive_finite(self, "width", "depth", "min_spacing")
        integer_at_least(self, 0, "max_rejects")
        integer_at_least(self, 1, "stall_rejects")


_BLOCK = 1024  # candidates drawn from the stream at a time


def place_decentralized(
    spec: PlacementSpec, n: int, arena: ArenaSpec, cfg: SimConfig, rng
) -> list[AgentState]:
    """Scatter n agents in the start box with interior-facing headings.

    Positions are rejection-sampled uniformly subject to the pairwise
    spacing; headings are uniform in [0, 180] degrees measured from east, so
    every agent faces into the arena. Deterministic for a given stream. Each
    agent gets its own stream, split from (cfg.seed, id).

    Sequential dart-throwing jams well below the theoretical capacity, so a
    layout that stalls is scrapped and redrawn; only the global reject budget
    makes the placement fail.

    Candidates are the stream's doubles taken in (x, y) pairs, drawn a block
    at a time: a mask marks the candidates that keep min_spacing from every
    placed point, so the rejects up to the next fit are a count. The points,
    the headings (the doubles after the last candidate used) and the errors
    are those of drawing each candidate with rng.uniform in turn, bit for
    bit. Only rng ends further along, past unused draws of the last block;
    nothing reads it afterwards (build_world discards its harness stream).
    """
    box = f"{spec.width:g} m x {spec.depth:g} m"
    width, depth = arena.extents
    if spec.width > width or spec.depth > depth:
        size = f"{width:g} m" if width == depth else f"{width:g} m x {depth:g} m"
        raise ValueError(f"start box {box} does not fit the {size} arena")
    infeasible = (
        f"placement infeasible: {n} agents at min_spacing {spec.min_spacing:g} m "
        f"in the {box} start box"
    )
    sep = spec.min_spacing / math.sqrt(2.0)
    capacity = (math.floor(spec.width / sep) + 1) * (math.floor(spec.depth / sep) + 1)
    if n > capacity:
        raise RuntimeError(f"{infeasible}, which holds at most {capacity}")
    cx = arena.center[0]
    y0 = arena.min_corner[1]
    x_lo, x_hi = cx - spec.width / 2.0, cx + spec.width / 2.0
    y_lo, y_hi = y0, y0 + spec.depth
    spacing2 = spec.min_spacing * spec.min_spacing
    points: list[tuple[float, float]] = []
    rejects = 0
    stall = 0
    draws = xs = ys = ok = np.empty(0)
    used = 0  # candidates of the current block consumed
    while len(points) < n:
        if used == len(ok):
            draws = rng.random(2 * _BLOCK)
            xs = x_lo + (x_hi - x_lo) * draws[0::2]
            ys = y_lo + (y_hi - y_lo) * draws[1::2]
            ok = np.ones(_BLOCK, dtype=bool)
            for px, py in points:
                ok &= (xs - px) ** 2 + (ys - py) ** 2 >= spacing2
            used = 0
        rest = ok[used:]
        misses = int(rest.argmax())  # rejects before the next fit
        if not rest[misses]:
            misses = len(rest)  # no fit left in this block
        to_budget = spec.max_rejects + 1 - rejects  # the reject that exceeds the budget
        to_stall = spec.stall_rejects - stall  # the reject that scraps the layout
        if misses >= to_budget and to_budget <= to_stall:
            raise RuntimeError(f"{infeasible}: gave up after {spec.max_rejects + 1} rejected draws")
        if misses >= to_stall:
            rejects += to_stall
            used += to_stall
            points.clear()
            stall = 0
            ok[used:] = True
            continue
        rejects += misses
        stall += misses
        used += misses
        if used == len(ok):
            continue
        x = float(xs[used])
        y = float(ys[used])
        points.append((x, y))
        stall = 0
        used += 1
        ok[used:] &= (xs[used:] - x) ** 2 + (ys[used:] - y) ** 2 >= spacing2
    tail = draws[2 * used :]
    if len(tail) < n:
        tail = np.concatenate([tail, rng.random(n - len(tail))])
    return [
        AgentState(
            id=i,
            position=point,
            heading=math.pi * u,
            altitude=cfg.sampling_altitude,
            rng=agent_stream(cfg.seed, i),
        )
        for i, (point, u) in enumerate(zip(points, tail[:n].tolist()))
    ]


@dataclass(frozen=True)
class ExperimentConfig:
    """One strategy's batch: how many runs, where, and with what world."""

    strategy: str
    runs: int = 30
    base_seed: int = 1
    arena: ArenaSpec = field(default_factory=ArenaSpec)
    n_uavs: int = 25
    sim: SimConfig = field(default_factory=SimConfig)
    output_dir: str = "results"
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    heatmaps: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy}")
        integer_at_least(self, 1, "runs", "n_uavs")
        integer_at_least(self, 0, "base_seed")
        boolean(self, "heatmaps")
        if self.sim.seed != 0:
            raise ValueError(f"sim.seed must be 0, got {self.sim.seed!r}; base_seed sets the run seeds")
        check_step_length(self.sim, self.arena)


def build_world(config: ExperimentConfig, seed: int, collect_events: bool = False) -> World:
    """Assemble one seeded, ready-to-run world for the configured strategy.

    collect_events hands the controller an empty log to fill: reactions for
    the decentralized strategies, boundary crossings for sons_rw, nothing
    for sons_bs. Without it the controller's events stay None.
    """
    sim = replace(config.sim, seed=seed)
    if config.strategy in DECENTRALIZED:
        agents = place_decentralized(
            config.placement, config.n_uavs, config.arena, sim, harness_stream(seed)
        )
        controller = DecentralizedController(config.strategy, agents, config.arena, sim, ADD_ON[config.strategy])
    else:
        agents, controller = make_sons_controller(config.strategy, config.arena, sim, config.n_uavs)
    if collect_events:
        controller.events = []
    return World(config.arena, sim, agents, controller)


def _run_index(args: tuple[ExperimentConfig, int]) -> RunRecord:
    config, index = args
    return build_world(config, config.base_seed + index).run()


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> tuple[list[RunRecord], StrategySummary]:
    """Execute the batch on up to jobs processes and return (records, summary), in run-index order."""
    integer_at_least(SimpleNamespace(jobs=jobs), 1, "jobs")
    tasks = [(config, i) for i in range(config.runs)]
    # A pool forks all its workers at the first submit, so more than runs would idle.
    workers = min(jobs, config.runs)
    if workers > 1:
        # Imported here: it is a sizeable share of the package's import time.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_index, tasks))
    else:
        records = [_run_index(t) for t in tasks]
    return records, summarize(records, config.arena)


# -- export -------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Serialize a float with 9 significant digits."""
    return f"{value:.9g}"


def export(
    records: list[RunRecord],
    summary,
    out_dir,
    config: ExperimentConfig,
) -> list[Path]:
    """Write summary.json, runs.csv, cpr.csv, and optional per-run heatmaps.

    All floats carry 9 significant digits; CSV files use commas, LF line
    endings, and UTF-8. Incomplete runs appear in runs.csv with "incomplete"
    in the cct column and empty metric fields.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    arena = config.arena

    summary_doc = {
        "config": {**asdict(config), "output_dir": str(config.output_dir)},
        "strategies": {
            summary.strategy: {
                key: float(_fmt(value)) if isinstance(value, float) else value
                for key, value in asdict(summary).items()
            }
        },
    }
    path = out / "summary.json"
    path.write_text(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(path)

    n_blocks = math.prod(arena.blocks)
    lines = [
        "strategy,seed,cct,tcu,lcu," + ",".join(f"block_{i:02d}" for i in range(n_blocks))
    ]
    for record in records:
        if record.complete:
            blocks = block_uniformities(record, arena)
            row = [
                record.strategy,
                str(record.seed),
                str(record.cct),
                _fmt(tcu(record)),
                _fmt(float(mean(blocks))),  # lcu(record, arena), from the blocks at hand
            ] + [_fmt(b) for b in blocks]
        else:
            row = [record.strategy, str(record.seed), "incomplete", "", ""] + [""] * n_blocks
        lines.append(",".join(row))
    path = out / "runs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    lines = ["step,mean_coverage_fraction"]
    lines += [f"{i},{value:.9g}" for i, value in enumerate(cpr(records).tolist(), start=1)]  # _fmt inlined
    path = out / "cpr.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    if config.heatmaps:
        for index, record in enumerate(records):
            grid = record.final_visits.reshape(arena.rows, arena.cols)
            lines = [f"{arena.cols},{arena.rows},{_fmt(arena.cell_size)}"]
            lines += [",".join(map(str, row)) for row in grid.tolist()]
            path = out / f"heatmap_{index:03d}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written
