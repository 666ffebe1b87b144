"""Reference implementations that the unit suite pins the simulator to.

World.step maps positions to cells, integrates unicycle commands, places
formations and scores visits in one fused loop; these are the same rules
written one at a time, plus the cell-to-index map, the clamp onto the arena,
the decentralized controller's neighbour lists and LDR density as a scalar
loop over all pairs, arc membership, the exact PM move probabilities, the
bounds-checked pheromone sense, one-cell and full pheromone-field reads,
decentralized placement as a dart-throwing loop, the uniformity metric as a
sort, the region blocks as one slice each, and the export's text written one
value at a time. Cells are (col, row) tuples here, None for no cell;
flat_index maps one to the row-major index the package uses, -1 for None.
The reference step moves one RefAgent at a time and counts its visits into
a RefCoverage of its own, where World keeps the swarm's pose and coverage
record in per-swarm lists. Nothing in the package uses them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from statistics import mean
from typing import Callable, Sequence

import numpy as np

from sweepsim.angles import Arc, ccw_distance, wrap_angle
from sweepsim.arena import ArenaSpec
from sweepsim.decentralized import LdrParams, PheromoneField
from sweepsim.harness import ExperimentConfig, PlacementSpec, _fmt
from sweepsim.metrics import RunRecord, StrategySummary, cpr, tcu, uniformity
from sweepsim.sons import SonsFormation, follow_formation
from sweepsim.world import (
    _COMPASS,
    SPEED_EPS,
    AgentState,
    PoseTarget,
    SimConfig,
    Unicycle,
    agent_stream,
    compass_index,
)

Cell = tuple[int, int]


def cw_distance(from_angle: float, to_angle: float) -> float:
    """Clockwise angular distance from one heading to another, in [0, 2*pi)."""
    return wrap_angle(from_angle - to_angle)


def heading_vector(theta: float) -> tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


def contains_angle(arcs: list[Arc], theta: float) -> bool:
    theta = wrap_angle(theta)
    for start, width in arcs:
        if ccw_distance(start, theta) <= width:
            return True
    return False


def flat_index(cell: Cell | None, arena: ArenaSpec) -> int:
    """Row-major index of a (col, row) cell, as the package names it; -1 for None."""
    if cell is None:
        return -1
    col, row = cell
    return row * arena.cols + col


def cell_of(position: tuple[float, float], arena: ArenaSpec) -> Cell | None:
    """Map a point to its (col, row) cell, or None when outside the arena.

    Points on the maximum edges belong to the last cell; points on the
    minimum edges to cell 0 (plain floor).
    """
    x, y = position
    minx, miny = arena.min_corner
    if x < minx or y < miny:
        return None
    maxx, maxy = arena.max_corner
    if x > maxx or y > maxy:
        return None
    col = int((x - minx) / arena.cell_size)
    row = int((y - miny) / arena.cell_size)
    return (min(col, arena.cols - 1), min(row, arena.rows - 1))


def clamp_into(position: tuple[float, float], arena: ArenaSpec) -> tuple[float, float]:
    """Project a point onto the arena (identity for interior points)."""
    cx, cy = arena.center
    hx, hy = arena.half_extents
    x = min(max(position[0], cx - hx), cx + hx)
    y = min(max(position[1], cy - hy), cy + hy)
    return (x, y)


@dataclass
class RefAgent:
    """One mutable UAV for the reference step: its pose, the speed flown, sampling state and cell.

    speed is the magnitude flown this step, which gates visit scoring.
    prev_cell is the flat index of the cell record_visit last placed the
    agent in; -1 before the first visit check and outside the arena.
    """

    id: int
    position: tuple[float, float]
    heading: float
    altitude: float
    speed: float = 0.0
    sampling_active: bool = True
    prev_cell: int = -1

    def __post_init__(self) -> None:
        self.heading = wrap_angle(self.heading)


def step_kinematics(agent: RefAgent, command: Unicycle, dt: float) -> None:
    """Integrate one unicycle step in place: heading first, then position."""
    if command.linear_speed < 0:
        raise ValueError("linear_speed must be non-negative")
    heading = wrap_angle(agent.heading + command.angular_rate * dt)
    x, y = agent.position
    v = command.linear_speed
    agent.position = (x + v * dt * math.cos(heading), y + v * dt * math.sin(heading))
    agent.heading = heading
    agent.speed = v


class RefCoverage:
    """Reference coverage record: a visit count per flat cell index and the covered-cell tally."""

    def __init__(self, arena: ArenaSpec):
        self.arena = arena
        self.visits = [0] * arena.cell_count
        self.visited_count = 0


def record_visit(agent: RefAgent, coverage: RefCoverage, cfg: SimConfig) -> Cell | None:
    """Score the cell the agent ended this step in, entry-gated.

    A visit requires entering a new cell (a fresh agent has none) inside the
    arena with sampling active, at sampling altitude, at or under the target
    velocity; it adds one to the cell's count, and a first one to the tally.
    The agent keeps the cell's flat index as prev_cell. Returns the credited
    cell, or None.
    """
    cell = cell_of(agent.position, coverage.arena)
    idx = flat_index(cell, coverage.arena)
    entered = idx != agent.prev_cell
    agent.prev_cell = idx
    if (
        entered
        and cell is not None
        and agent.sampling_active
        and agent.altitude == cfg.sampling_altitude
        and agent.speed <= cfg.target_sampling_velocity + SPEED_EPS
    ):
        if coverage.visits[idx] == 0:
            coverage.visited_count += 1
        coverage.visits[idx] += 1
        return cell
    return None


def pose_step_reference(
    agents: Sequence[RefAgent], coverage: RefCoverage, cfg: SimConfig, command: PoseTarget
) -> list[tuple[int, Cell]]:
    """World.step for a formation command, one pose target per member.

    The command's rigid transform is expanded into one position per member
    by follow_formation. Every member first takes the sampling state, then
    in id order its position, the wrapped heading (0.0 for -0.0) and the
    speed flown, and is scored by record_visit. Returns the visit events in
    order.
    """
    for agent in agents:
        agent.sampling_active = command.sampling_active
    formation = SonsFormation(offsets=command.offsets, sampler_ids=(), span=0.0)
    positions = follow_formation(command.position, command.heading, formation)
    events = []
    for agent, (x, y) in zip(agents, positions, strict=True):
        px, py = agent.position
        agent.position = (x, y)
        agent.heading = wrap_angle(command.heading)
        agent.speed = math.hypot(x - px, y - py) / cfg.dt
        cell = record_visit(agent, coverage, cfg)
        if cell is not None:
            events.append((agent.id, cell))
    return events


def pairwise_scan_reference(
    xs: Sequence[float], ys: Sequence[float], medium_range: float, ldr: LdrParams | None
):
    """DecentralizedController.neighbours and .density as a double loop over i < j.

    Returns (near, comm_adj, notified): the (dx, dy, dist) obstacle
    candidates of each agent, and with an LDR add-on the neighbour indices
    within the communication range and the density flags (both None
    without one). Pairs beyond the communication range are skipped before
    the medium-range test.
    """
    n = len(xs)
    near: list[list] = [[] for _ in range(n)]
    med = medium_range
    if ldr is not None:
        comm = ldr.comm_range
        comm_count = [0] * n
        comm_adj: list[list[int]] | None = [[] for _ in range(n)]
    else:
        comm = med
        comm_adj = None
    comm2 = comm * comm
    med2 = med * med
    for i in range(n):
        xi = xs[i]
        yi = ys[i]
        for j in range(i + 1, n):
            dx = xs[j] - xi
            dy = ys[j] - yi
            d2 = dx * dx + dy * dy
            if d2 > comm2:
                continue
            if comm_adj is not None:
                comm_count[i] += 1
                comm_count[j] += 1
                comm_adj[i].append(j)
                comm_adj[j].append(i)
            if d2 <= med2:
                d = math.sqrt(d2)
                near[i].append((dx, dy, d))
                near[j].append((-dx, -dy, d))
    if comm_adj is None:
        return near, None, None
    notifying = [comm_count[i] >= ldr.density_threshold for i in range(n)]
    notified = [any(notifying[j] for j in comm_adj[i]) for i in range(n)]
    return near, comm_adj, notified


def pm_probabilities(ahead, left, right) -> tuple[Fraction, Fraction, Fraction]:
    """Exact move probabilities (p_ahead, p_right, p_left) that pm_choose samples.

    Each is (total - that_reading) / (2 * total); they sum to one by
    construction. Requires total > 0.
    """
    a, l, r = Fraction(ahead), Fraction(left), Fraction(right)
    total = a + l + r
    if total <= 0:
        raise ValueError("pm_probabilities requires total > 0")
    return (
        (total - a) / (2 * total),
        (total - r) / (2 * total),
        (total - l) / (2 * total),
    )


def pheromone_level(field: PheromoneField, idx: int, step: int) -> float:
    """One cell's pheromone level at a step, by its row-major index."""
    level = field._until[field._slots[idx]] - step
    return level if level > 0.0 else 0.0


def pm_sense_reference(
    level: Callable[[int, int], float], step: int, cell: Cell | None, heading: float, arena: ArenaSpec
):
    """pm_sense with an explicit bounds check on each of its three reads.

    The ahead, left and right cells of the nearest compass direction are
    read through level(idx, step); a cell beyond the grid reads zero.
    """
    if cell is None:
        return (0.0, 0.0, 0.0)
    col, row = cell
    k = compass_index(heading)
    cols = arena.cols
    out = []
    for dk in (0, 1, -1):  # ahead, left, right
        dx, dy = _COMPASS[(k + dk) % 8]
        c, r = col + dx, row + dy
        if 0 <= c < cols and 0 <= r < arena.rows:
            out.append(level(r * cols + c, step))
        else:
            out.append(0.0)
    return tuple(out)


def pheromone_snapshot(field: PheromoneField, step: int) -> np.ndarray:
    """The whole field as of the end of the given step, in grid (row-major) order."""
    return np.maximum(np.asarray(field._until)[field._slots] - step, 0.0)


def place_decentralized_reference(
    spec: PlacementSpec, n: int, arena: ArenaSpec, cfg: SimConfig, rng
) -> list[AgentState]:
    """harness.place_decentralized as a loop that draws and tests one candidate at a time.

    Each candidate is rng.uniform(x_lo, x_hi), then rng.uniform(y_lo, y_hi);
    a reject counts against both the global budget (checked first) and the
    stall that scraps the layout. Headings are rng.uniform(0, pi), drawn
    after the last candidate.
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
    while len(points) < n:
        x = rng.uniform(x_lo, x_hi)
        y = rng.uniform(y_lo, y_hi)
        if all((x - px) ** 2 + (y - py) ** 2 >= spacing2 for px, py in points):
            points.append((x, y))
            stall = 0
        else:
            rejects += 1
            stall += 1
            if rejects > spec.max_rejects:
                raise RuntimeError(f"{infeasible}: gave up after {rejects} rejected draws")
            if stall >= spec.stall_rejects:
                points.clear()
                stall = 0
    return [
        AgentState(
            id=i,
            position=(x, y),
            heading=rng.uniform(0.0, math.pi),
            altitude=cfg.sampling_altitude,
            rng=agent_stream(cfg.seed, i),
        )
        for i, (x, y) in enumerate(points)
    ]


def mad_about_median_oracle(values):
    """Independent sort-based mean absolute deviation from the median, negated: metrics.uniformity."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    return -sum(abs(v - median) for v in values) / n


def split_blocks(visits, arena: ArenaSpec) -> list[np.ndarray]:
    """Visit counts split into region_size x region_size blocks, one slice each.

    Blocks are ordered row-major over the block grid: the southern row of
    blocks first, west to east within each row.
    """
    across, up = arena.blocks
    cells = round(arena.region_size / arena.cell_size)
    grid = np.asarray(visits).reshape(arena.rows, arena.cols)
    return [
        grid[by * cells : (by + 1) * cells, bx * cells : (bx + 1) * cells].ravel()
        for by in range(up)
        for bx in range(across)
    ]


def export_text_reference(
    records: list[RunRecord], summary: StrategySummary, config: ExperimentConfig
) -> dict[str, str]:
    """harness.export's summary.json, runs.csv, cpr.csv and heatmaps, each value formatted on its own.

    Each float of the summary is rounded to _fmt's 9 significant digits;
    its ints, strings and None stay as they are. Block uniformities come from
    split_blocks and uniformity, and lcu is their statistics.mean, as
    metrics.lcu defines it.
    """
    arena = config.arena
    strategy = {}
    for f in fields(summary):
        value = getattr(summary, f.name)
        strategy[f.name] = float(_fmt(value)) if type(value) is float else value
    doc = {
        "config": {**asdict(config), "output_dir": str(config.output_dir)},
        "strategies": {summary.strategy: strategy},
    }
    texts = {"summary.json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}
    n_blocks = math.prod(arena.blocks)
    runs = ["strategy,seed,cct,tcu,lcu," + ",".join(f"block_{i:02d}" for i in range(n_blocks))]
    for record in records:
        if record.complete:
            blocks = [uniformity(b) for b in split_blocks(record.final_visits, arena)]
            runs.append(",".join(
                [record.strategy, str(record.seed), str(record.cct), _fmt(tcu(record)), _fmt(float(mean(blocks)))]
                + [_fmt(b) for b in blocks]
            ))
        else:
            runs.append(",".join([record.strategy, str(record.seed), "incomplete", "", ""] + [""] * n_blocks))
    texts["runs.csv"] = "\n".join(runs) + "\n"
    lines = ["step,mean_coverage_fraction"]
    for i, value in enumerate(cpr(records), start=1):
        lines.append(f"{i},{_fmt(value)}")
    texts["cpr.csv"] = "\n".join(lines) + "\n"
    if config.heatmaps:
        for index, record in enumerate(records):
            lines = [f"{arena.cols},{arena.rows},{_fmt(arena.cell_size)}"]
            for row in record.final_visits.reshape(arena.rows, arena.cols):
                lines.append(",".join(str(int(v)) for v in row))
            texts[f"heatmap_{index:03d}.csv"] = "\n".join(lines) + "\n"
    return texts
