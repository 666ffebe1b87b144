"""Reference implementations that the unit suite pins the simulator to.

World.step maps positions to cells, integrates unicycle commands, places
formations and scores visits in one fused loop; these are the same rules
written one at a time, plus the cell-to-index map, the boundary and
neighbour queries the decentralized controller inlines, its neighbour
lists and LDR density as a scalar loop over all pairs, arc membership, the exact PM move probabilities, the
bounds-checked pheromone sense, one-cell and full pheromone-field reads,
and decentralized placement as a dart-throwing loop. Cells are (col, row)
tuples here, None for no cell; flat_index maps one to the row-major index
the package uses, -1 for None. The reference step moves one RefAgent at a
time, where World keeps the swarm's pose in per-swarm lists. Nothing in the
package uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from sweepsim.angles import Arc, ccw_distance, wrap_angle
from sweepsim.arena import EDGE_NORMALS, ArenaSpec, CoverageGrid, edge_distances
from sweepsim.decentralized import _COMPASS, LdrParams, PheromoneField, compass_index
from sweepsim.harness import PlacementSpec
from sweepsim.world import SPEED_EPS, AgentState, PoseTarget, SimConfig, Unicycle, agent_stream

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
    last = arena.cols - 1
    if col > last:
        col = last
    if row > last:
        row = last
    return (col, row)


@dataclass(frozen=True)
class BoundaryProbe:
    """What an agent senses about the nearest arena edge."""

    distance: float  # perpendicular distance to the nearest edge line
    inward_normal: tuple[float, float]
    outside_depth: float  # Euclidean distance to the arena; 0 when inside


def boundary_probe(position: tuple[float, float], arena: ArenaSpec) -> BoundaryProbe:
    x, y = position
    dists = edge_distances(x, y, arena)
    nearest = min(range(4), key=lambda i: abs(dists[i]))
    ex = max(0.0, -dists[0], -dists[1])
    ey = max(0.0, -dists[2], -dists[3])
    return BoundaryProbe(
        distance=abs(dists[nearest]),
        inward_normal=EDGE_NORMALS[nearest],
        outside_depth=math.hypot(ex, ey),
    )


def edges_within(
    position: tuple[float, float], arena: ArenaSpec, trigger: float
) -> list[tuple[float, float]]:
    """Inward normals of every edge whose line lies within trigger distance."""
    dists = edge_distances(position[0], position[1], arena)
    return [EDGE_NORMALS[i] for i in range(4) if dists[i] <= trigger]


def clamp_into(position: tuple[float, float], arena: ArenaSpec) -> tuple[float, float]:
    """Project a point onto the arena (identity for interior points)."""
    cx, cy = arena.center
    h = arena.half_side
    x = min(max(position[0], cx - h), cx + h)
    y = min(max(position[1], cy - h), cy + h)
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


def record_visit(agent: RefAgent, grid: CoverageGrid, cfg: SimConfig) -> Cell | None:
    """Score the cell the agent ended this step in, entry-gated.

    A visit requires entering a new cell (a fresh agent has none) inside the
    arena with sampling active, at sampling altitude, at or under the target
    velocity. The agent keeps the cell's flat index as prev_cell. Returns
    the credited cell, or None.
    """
    cell = cell_of(agent.position, grid.arena)
    idx = flat_index(cell, grid.arena)
    entered = idx != agent.prev_cell
    agent.prev_cell = idx
    if (
        entered
        and cell is not None
        and agent.sampling_active
        and agent.altitude == cfg.sampling_altitude
        and agent.speed <= cfg.target_sampling_velocity + SPEED_EPS
    ):
        grid.record(idx)
        return cell
    return None


def pose_step_reference(
    agents: Sequence[RefAgent], grid: CoverageGrid, cfg: SimConfig, command: PoseTarget
) -> list[tuple[int, Cell]]:
    """World.step for a formation command, one pose target per member.

    Every member first takes the sampling state, then in id order its
    position, the wrapped heading and the speed flown, and is scored by
    record_visit. Returns the visit events in order.
    """
    for agent in agents:
        agent.sampling_active = command.sampling_active
    events = []
    for agent, (x, y) in zip(agents, command.positions, strict=True):
        px, py = agent.position
        agent.position = (x, y)
        agent.heading = wrap_angle(command.heading)
        agent.speed = math.hypot(x - px, y - py) / cfg.dt
        cell = record_visit(agent, grid, cfg)
        if cell is not None:
            events.append((agent.id, cell))
    return events


def neighbors_within(
    agents: Sequence[RefAgent], self_id: int, comm_range: float, cfg: SimConfig
) -> list[tuple[int, tuple[float, float]]]:
    """Other agents on the same altitude plane within horizontal range.

    Positions come back in the querying agent's frame. Delivery is
    synchronous, reliable, and symmetric inside one step.
    """
    if comm_range > cfg.comm_range_max:
        raise ValueError("requested range exceeds comm_range_max")
    me = next(a for a in agents if a.id == self_id)
    x, y = me.position
    out = []
    for other in agents:
        if other.id == self_id or other.altitude != me.altitude:
            continue
        dx = other.position[0] - x
        dy = other.position[1] - y
        if math.hypot(dx, dy) <= comm_range:
            out.append((other.id, (dx, dy)))
    return out


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
    return field._read(field._slot(idx), step)


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


def pheromone_snapshot(field: PheromoneField, arena: ArenaSpec, step: int) -> np.ndarray:
    """The whole field as of the end of the given step, in grid (row-major) order."""
    slots = [field._slot(idx) for idx in range(arena.cell_count)]
    level = np.asarray(field._level)[slots]
    stamp = np.asarray(field._stamp)[slots]
    return np.maximum(level - field.evaporation_rate * (step - stamp), 0.0)


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
