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

import numpy as np

from .arena import ArenaSpec
from .decentralized import LDR_ADD_ON, make_controller
from .metrics import (
    RunRecord,
    block_uniformities,
    cpr,
    lcu,
    summarize,
    tcu,
)
from .sons import make_sons_controller
from .world import AgentState, SimConfig, World, agent_stream, check_step_length, harness_stream

DECENTRALIZED = tuple(LDR_ADD_ON)
STRATEGIES = DECENTRALIZED + ("sons_bs", "sons_rw")


@dataclass(frozen=True)
class PlacementSpec:
    """Start box for decentralized swarms: a strip inside the southern boundary."""

    width: float = 20.0  # m, along the boundary
    depth: float = 3.0  # m, into the arena
    min_spacing: float = 1.5  # m, pairwise
    max_rejects: int = 100_000
    stall_rejects: int = 2_000  # consecutive rejects before scrapping the layout

    def __post_init__(self) -> None:
        for name in ("width", "depth", "min_spacing"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_rejects", "stall_rejects"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.stall_rejects < 1:
            raise ValueError(f"stall_rejects must be at least 1, got {self.stall_rejects!r}")
        if self.max_rejects < 0:
            raise ValueError(f"max_rejects must be non-negative, got {self.max_rejects!r}")


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
    if max(spec.width, spec.depth) > arena.side_length:
        raise ValueError(f"start box {box} does not fit the {arena.side_length:g} m arena")
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


@dataclass
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
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy}")
        for name in ("runs", "n_uavs", "jobs", "base_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.n_uavs < 1:
            raise ValueError("n_uavs must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        check_step_length(self.sim, self.arena)

    def split_roles(self) -> tuple[int, int]:
        """Supervisor/sampler split for the hierarchy strategies (1:4 of the swarm)."""
        supervisors = max(1, self.n_uavs // 5)
        samplers = self.n_uavs - supervisors
        if samplers < 1:
            raise ValueError("n_uavs leaves no samplers")
        return supervisors, samplers


def build_world(config: ExperimentConfig, seed: int, collect_events: bool = False) -> World:
    """Assemble one seeded, ready-to-run world for the configured strategy."""
    sim = replace(config.sim, seed=seed)
    if config.strategy in DECENTRALIZED:
        agents = place_decentralized(
            config.placement, config.n_uavs, config.arena, sim, harness_stream(seed)
        )
        controller = make_controller(
            config.strategy, agents, config.arena, collect_events=collect_events
        )
    else:
        agents, controller = make_sons_controller(
            config.strategy, config.arena, sim, *config.split_roles()
        )
    return World(config.arena, sim, agents, controller)


def _run_index(args: tuple[ExperimentConfig, int]) -> RunRecord:
    config, index = args
    return build_world(config, config.base_seed + index).run()


def run_experiment(config: ExperimentConfig) -> tuple[list[RunRecord], "object"]:
    """Execute the batch and return (records, summary), in run-index order."""
    tasks = [(config, i) for i in range(config.runs)]
    if config.jobs > 1:
        # Imported here: it is a sizeable share of the package's import time.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(_run_index, tasks))
    else:
        records = [_run_index(t) for t in tasks]
    return records, summarize(records, config.arena)


# -- export -------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Serialize a float with 9 significant digits."""
    return f"{value:.9g}"


def _round9(value):
    if isinstance(value, float):
        return float(_fmt(value))
    return value


def _summary_payload(summary) -> dict:
    payload = {}
    for key, value in asdict(summary).items():
        payload[key] = _round9(value)
    return payload


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
        "strategies": {summary.strategy: _summary_payload(summary)},
    }
    path = out / "summary.json"
    path.write_text(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(path)

    per_side = round(arena.side_length / arena.region_size)
    n_blocks = per_side * per_side
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
                _fmt(lcu(record, arena)),
            ] + [_fmt(b) for b in blocks]
        else:
            row = [record.strategy, str(record.seed), "incomplete", "", ""] + [""] * n_blocks
        lines.append(",".join(row))
    path = out / "runs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    series = cpr(records)
    lines = ["step,mean_coverage_fraction"]
    for i, value in enumerate(series, start=1):
        lines.append(f"{i},{_fmt(value)}")
    path = out / "cpr.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    if config.heatmaps:
        for index, record in enumerate(records):
            grid = record.final_visits.reshape(arena.rows, arena.cols)
            lines = [f"{arena.cols},{arena.rows},{_fmt(arena.cell_size)}"]
            for row in grid:
                lines.append(",".join(str(int(v)) for v in row))
            path = out / f"heatmap_{index:03d}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written
