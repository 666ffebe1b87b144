"""Spawn records, the swarm's live pose, seeded randomness, and the synchronous step loop.

One step runs fixed phases for the whole swarm: sense and exchange messages
against the previous step's state, compute commands, integrate motion, score
visits, update pheromone, advance the clock. Agents are handled in ascending
id order inside every phase, so a run is a pure function of its config and
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .angles import TWO_PI, wrap_angle
from .arena import ArenaSpec, CoverageGrid
from .metrics import RunRecord

if TYPE_CHECKING:
    from .decentralized import PheromoneField

SPEED_EPS = 1e-9


@dataclass
class SimConfig:
    """Step size, speed/altitude envelope, and the run-level seed.

    turn_rate_default is the in-place yaw rate for individually turning
    agents (and the random-walk brain's reorientation spins); 30 deg/s keeps
    turn costs in a realistic proportion to traverse times for a small
    quadrotor holding position.
    """

    dt: float = 0.1
    target_sampling_velocity: float = 1.0
    sampling_altitude: float = 1.5
    supervisory_altitude: float = 4.0
    comm_range_max: float = 10.0
    max_steps: int = 60_000
    seed: int = 0
    turn_rate_default: float = math.pi / 6.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not isinstance(self.max_steps, int) or isinstance(self.max_steps, bool):
            raise ValueError("max_steps must be an integer")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        # A nan altitude never equals itself, so no sampler would ever score a visit.
        for name in ("sampling_altitude", "supervisory_altitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.target_sampling_velocity) and self.target_sampling_velocity > 0):
            raise ValueError("target_sampling_velocity must be positive and finite")
        # At a rate of zero no in-place turn ever ends, so every reacting agent freezes.
        if not (math.isfinite(self.turn_rate_default) and self.turn_rate_default > 0):
            raise ValueError("turn_rate_default must be positive and finite")


def check_step_length(cfg: SimConfig, arena: ArenaSpec) -> None:
    """Reject a cruise step longer than a cell.

    Visits are scored where a step ends, so a longer step skips cells
    without crediting them.
    """
    step_len = cfg.target_sampling_velocity * cfg.dt
    if step_len > arena.cell_size:
        raise ValueError(
            f"step length {step_len:g} m (target_sampling_velocity x dt) "
            f"exceeds the cell size {arena.cell_size:g} m"
        )


def agent_stream(seed: int, agent_id: int) -> np.random.Generator:
    """Per-agent random stream, split from (run seed, agent id).

    Streams do not depend on how many agents exist or the order they are
    polled, so adding agents never perturbs existing ones.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, agent_id)))


def harness_stream(seed: int) -> np.random.Generator:
    """Run-level stream for initial placement, disjoint from agent streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


@dataclass(frozen=True)
class AgentState:
    """Spawn record of one UAV: id, start pose, altitude and random stream.

    World copies the start pose into its per-swarm lists xs, ys and hs,
    which hold the live pose, and never writes here.
    """

    id: int
    position: tuple[float, float]
    heading: float
    altitude: float
    rng: np.random.Generator | None = None


class Unicycle(NamedTuple):
    """Turn-then-translate command integrated by the world."""

    linear_speed: float
    angular_rate: float


class PoseTarget(NamedTuple):
    """Direct pose assignment for a whole servo-perfect formation.

    positions holds one (x, y) per agent in id order; every agent takes the
    shared heading, and sampling_active gates this step's visits for all.
    """

    positions: list[tuple[float, float]]
    heading: float
    sampling_active: bool


HOLD = Unicycle(0.0, 0.0)


class Controller(Protocol):
    """Strategy plug-in: senses the pre-step world and commands every agent,
    with one Unicycle each or one PoseTarget for the whole formation.

    name labels the run's record; pheromone is the field the world deposits
    into on every credited visit, or None for strategies without one. The
    world clamps every Unicycle move into the arena.
    """

    name: str
    pheromone: "PheromoneField | None"

    def decide(self, world: "World") -> list[Unicycle] | PoseTarget: ...


class World:
    """One seeded run: the swarm's live pose, the grid, the controller, and the step loop.

    agents is the spawn list; its ids must be 0..n-1, so a list index is the
    agent id. The live pose is xs, ys, hs (in [0, 2 pi)) and cells, each
    agent's last flat cell index (-1 before step 1 and outside the arena).
    samplers marks the agents at the sampling altitude, which never changes.
    """

    def __init__(
        self, arena: ArenaSpec, cfg: SimConfig, agents: Sequence[AgentState], controller: Controller
    ):
        check_step_length(cfg, arena)
        self.arena = arena
        self.cfg = cfg
        self.agents = sorted(agents, key=lambda a: a.id)
        n = len(self.agents)
        if [a.id for a in self.agents] != list(range(n)):
            raise ValueError(f"agent ids must be 0..{n - 1}, each once")
        self.xs = [a.position[0] for a in self.agents]
        self.ys = [a.position[1] for a in self.agents]
        self.hs = [wrap_angle(a.heading) for a in self.agents]
        self.cells = [-1] * n
        self.samplers = [a.altitude == cfg.sampling_altitude for a in self.agents]
        self.controller = controller
        self.grid = CoverageGrid(arena)
        self.pheromone = controller.pheromone
        self.step_count = 0
        self.clamp_count = 0
        self.visit_events: list[tuple[int, int]] = []

    def step(self) -> None:
        """Advance the whole swarm by one synchronous round.

        The controller must command every agent exactly once; any other
        number of moves or positions raises ValueError before anything
        moves. Each agent turns, then translates (or takes its place and
        heading from the PoseTarget), and the cell it ends the step in is
        scored with entry semantics: a visit needs a new cell inside the
        arena, sampling on (unicycle moves always sample), the sampling
        altitude, and a speed of at most the target velocity: the commanded
        one, or the distance jumped over dt. Every unicycle move is clamped:
        one that would leave the arena ends on its edge and counts in
        clamp_count. This is the one place a position is mapped to a cell,
        its flat index (-1 outside), kept in cells and reported in
        visit_events as (agent index, cell). After the first step, an agent
        with zero linear speed only turns: its cell cannot change, so it is
        neither mapped nor scored again.
        """
        cfg = self.cfg
        dt = cfg.dt
        xs, ys, hs, cells, samplers = self.xs, self.ys, self.hs, self.cells, self.samplers
        moves = self.controller.decide(self)
        formation = moves.__class__ is PoseTarget
        sampling = True
        if formation:
            heading = wrap_angle(moves.heading)
            sampling = moves.sampling_active
            moves = moves.positions
        if len(moves) != len(xs):
            raise ValueError(f"controller commanded {len(moves)} moves for {len(xs)} agents")
        grid = self.grid
        arena = self.arena
        cols = arena.cols
        cell_size = arena.cell_size
        minx, miny = arena.min_corner
        maxx, maxy = arena.max_corner
        last = cols - 1
        speed_cap = cfg.target_sampling_velocity + SPEED_EPS
        self.step_count += 1
        step_idx = self.step_count
        pheromone = self.pheromone
        events = []
        for i, motion in enumerate(moves):
            if formation:
                x, y = motion
                speed = math.hypot(x - xs[i], y - ys[i]) / dt
                hs[i] = heading
            else:
                speed = motion.linear_speed
                if speed < 0:
                    raise ValueError("linear_speed must be non-negative")
                h = hs[i] + motion.angular_rate * dt
                if not 0.0 <= h < TWO_PI:
                    h = wrap_angle(h)
                hs[i] = h
                if speed == 0.0 and step_idx != 1:
                    # Turning or holding in place: cells[i] is already this
                    # cell, so no visit can be credited. On step 1 it is
                    # still -1 and the start cell must be scored.
                    continue
                x = xs[i]
                y = ys[i]
                if speed != 0.0:
                    x += speed * dt * math.cos(h)
                    y += speed * dt * math.sin(h)
                    if not (minx <= x <= maxx and miny <= y <= maxy):
                        x = minx if x < minx else (maxx if x > maxx else x)
                        y = miny if y < miny else (maxy if y > maxy else y)
                        self.clamp_count += 1
            xs[i] = x
            ys[i] = y
            if minx <= x <= maxx and miny <= y <= maxy:
                col = int((x - minx) / cell_size)
                row = int((y - miny) / cell_size)
                if col > last:
                    col = last
                if row > last:
                    row = last
                cell = row * cols + col
            else:
                cell = -1
            if cell != cells[i]:
                cells[i] = cell
                if cell >= 0 and sampling and samplers[i] and speed <= speed_cap:
                    grid.record(cell)
                    events.append((i, cell))
                    if pheromone is not None:
                        pheromone.deposit(cell, step_idx)
        self.visit_events = events

    def is_complete(self) -> bool:
        return self.grid.is_complete()

    def run(self, on_step: Callable[["World"], None] | None = None) -> RunRecord:
        """Step until full coverage or the step budget runs out."""
        coverage: list[float] = []
        while not self.is_complete() and self.step_count < self.cfg.max_steps:
            self.step()
            coverage.append(self.grid.coverage_fraction())
            if on_step is not None:
                on_step(self)
        cct = self.step_count if self.is_complete() else None
        return RunRecord(
            strategy=self.controller.name,
            seed=self.cfg.seed,
            cct=cct,
            coverage_fraction=np.asarray(coverage, dtype=np.float64),
            final_visits=self.grid.counts_array(),
        )
