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
from functools import cached_property
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .angles import TWO_PI, wrap_angle
from .arena import ArenaSpec, cell_boxes
from .checks import finite, integer_at_least, positive_finite
from .metrics import RunRecord

SPEED_EPS = 1e-9


@dataclass(frozen=True)
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
        # At a turn rate of zero no in-place turn would ever end, freezing every reacting agent.
        positive_finite(self, "dt", "target_sampling_velocity", "turn_rate_default", "comm_range_max")
        integer_at_least(self, 1, "max_steps")
        integer_at_least(self, 0, "seed")
        # A nan altitude never equals itself, so no sampler would ever score a visit.
        finite(self, "sampling_altitude", "supervisory_altitude")
        # World takes every agent at the sampling altitude for a sampler, supervisors included.
        if self.supervisory_altitude == self.sampling_altitude:
            raise ValueError(
                "supervisory_altitude must differ from sampling_altitude, "
                f"both are {self.sampling_altitude!r}"
            )

    @cached_property
    def step_length(self) -> float:
        """The cruise step, target_sampling_velocity x dt: cached, and not a field, so not in asdict()."""
        return self.target_sampling_velocity * self.dt


def check_step_length(cfg: SimConfig, arena: ArenaSpec) -> None:
    """Reject a cruise step longer than a cell.

    Visits are scored where a step ends, so a longer step skips cells
    without crediting them.
    """
    if cfg.step_length > arena.cell_size:
        raise ValueError(
            f"step length {cfg.step_length:g} m (target_sampling_velocity x dt) "
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


class Unicycle(NamedTuple("Unicycle", [("linear_speed", float), ("angular_rate", float)])):
    """Turn-then-translate command integrated by the world; a negative or non-finite value raises here."""

    __slots__ = ()

    def __new__(cls, linear_speed: float, angular_rate: float):
        if not 0.0 <= linear_speed < math.inf:
            raise ValueError(f"linear_speed must be non-negative and finite, got {linear_speed!r}")
        if not -math.inf < angular_rate < math.inf:
            raise ValueError(f"angular_rate must be finite, got {angular_rate!r}")
        return tuple.__new__(cls, (linear_speed, angular_rate))

    # namedtuple's _make, which _replace calls too, would skip __new__ and its check.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class PoseTarget(NamedTuple):
    """Direct pose assignment for a whole servo-perfect formation, as one rigid transform.

    position and heading are the brain's pose, and offsets holds each agent's
    (x, y) in the brain's frame, in id order. Every agent takes the shared
    heading, and sampling_active gates this step's visits for all.
    """

    position: tuple[float, float]
    heading: float
    offsets: tuple[tuple[float, float], ...]
    sampling_active: bool


def rotated_terms(heading: float, offsets) -> list[tuple[float, float, float, float]]:
    """Each offset turned by heading, as its terms (c ox, s oy, s ox, c oy): c ox - s oy, s ox + c oy."""
    c, s = math.cos(heading), math.sin(heading)
    return [(c * ox, s * oy, s * ox, c * oy) for ox, oy in offsets]


HOLD = Unicycle(0.0, 0.0)


# Compass offsets for pheromone reads, counterclockwise from east.
_COMPASS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


class PheromoneField:
    """Per-cell pheromone with fixed deposits and unit-per-step evaporation.

    Evaporation is applied lazily: each cell stores the step at which its
    level runs out, so its level at step s is that step minus s, floored at
    zero. Observationally identical to decrementing every cell once per step.

    The run-out steps live in one plain list over the arena's grid widened by
    one cell on every side. Nothing deposits in that border, so a read one cell
    past the arena's edge lands there and reads zero without a bounds check.
    Every stored value is an integer-valued double below 2**53, so the arithmetic is exact.
    """

    def __init__(self, arena: ArenaSpec):
        self.deposit_amount = 5000.0
        cols = arena.cols
        stride = cols + 2
        self._until = [0.0] * (stride * (arena.rows + 2))
        # Padded-list slot of each grid cell, by row-major flat index.
        self._slots = [idx + 2 * (idx // cols) + stride + 1 for idx in range(arena.cell_count)]
        # Slot offsets of the ahead, left and right cells for each compass index.
        offsets = [dx + dy * stride for dx, dy in _COMPASS]
        self._sense_offsets = tuple(
            (offsets[k], offsets[(k + 1) % 8], offsets[(k - 1) % 8]) for k in range(8)
        )

    def deposit(self, idx: int, step: int) -> None:
        # The deposit lands before this step's evaporation tick: the level after
        # step - 1, plus the deposit, less this step's tick of one, runs out
        # deposit_amount steps after the later of the old run-out and step - 1.
        slot = self._slots[idx]
        until = self._until
        ends = until[slot]
        until[slot] = (ends if ends > step - 1 else step - 1) + self.deposit_amount


QUARTER = math.pi / 4.0  # one compass step


def compass_index(heading: float) -> int:
    """Quantize a heading to the nearest of 8 compass directions."""
    return round(wrap_angle(heading) / QUARTER) % 8


def pm_sense(field: PheromoneField, step: int, cell: int, heading: float):
    """Pheromone levels in the cells ahead of and 45 degrees left/right of cell.

    cell is a flat index, as in Senses.cells. Directions are taken in
    the nearest compass frame; cells beyond the grid, and every neighbour of
    cell -1 (outside the arena, or no step taken yet), read as zero.
    """
    if cell < 0:
        return (0.0, 0.0, 0.0)
    # wrap_angle returns a heading in [0, 2 pi) unchanged, so compass_index's wrap is skipped there.
    k = round(heading / QUARTER) % 8 if 0.0 <= heading < TWO_PI else compass_index(heading)
    center = field._slots[cell]
    to_ahead, to_left, to_right = field._sense_offsets[k]
    until = field._until
    ahead = until[center + to_ahead] - step
    left = until[center + to_left] - step
    right = until[center + to_right] - step
    return (ahead if ahead > 0.0 else 0.0, left if left > 0.0 else 0.0, right if right > 0.0 else 0.0)


class Senses(NamedTuple):
    """What a controller may read to decide: references to one World's own objects.

    World builds it once and mutates its lists in place, so they hold the pose from before the
    step being decided. Each field names what it stands for; run constants come with the controller.
    """

    xs: list[float]  # absolute x of each agent: a global positioning fix
    ys: list[float]  # absolute y, from the same fix
    hs: list[float]  # absolute heading of each agent: a compass
    cells: list[int]  # each agent's flat cell index (-1 outside): its fix placed on the map
    pheromone: PheromoneField | None  # the virtual field over the world's grid, None without one


class Controller(Protocol):
    """Strategy plug-in: reads the pre-step Senses and commands every agent,
    with one Unicycle each or one PoseTarget for the whole formation.

    name labels the run's record; pheromone asks the world for a field that it
    deposits into on every credited visit. The world clamps every Unicycle
    move into the arena.
    """

    name: str
    pheromone: bool

    def decide(self, senses: Senses, step: int) -> list[Unicycle] | PoseTarget: ...


class World:
    """One seeded run: the swarm's live pose and coverage record, and the step loop.

    agents is the spawn list; its ids must be 0..n-1, so a list index is the
    agent id. The live pose is xs, ys, hs (in [0, 2 pi)) and cells, each
    agent's last flat cell index (-1 before step 1 and outside the arena).
    samplers marks the agents at the sampling altitude, which never changes.
    pheromone is the field over the grid a controller asks for, else None; senses holds it and the live pose.
    visits counts visits per flat cell index; visited_count, its non-zero cells.
    boxes is the arena's cell_boxes; cruise, each agent's last (command, heading, x step, y step, speed);
    rotated, the last PoseTarget's heading, offsets, their rotated_terms and the heading
    wrapped. frame holds what every step reads of the arena and cfg, derived once: dt,
    cols, cell size, the min and max corners, the last column and row, and the speed cap.
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
        self.pheromone = PheromoneField(arena) if controller.pheromone else None
        self.senses = Senses(self.xs, self.ys, self.hs, self.cells, self.pheromone)
        self.boxes = cell_boxes(arena)
        self.cruise = [(None, None)] * n  # no command or offsets is None
        self.rotated = (None, None, [], None)
        self.samplers = [a.altitude == cfg.sampling_altitude for a in self.agents]
        self.frame = (
            cfg.dt, arena.cols, arena.cell_size, *arena.min_corner, *arena.max_corner,
            arena.cols - 1, arena.rows - 1, cfg.target_sampling_velocity + SPEED_EPS,
        )
        self.controller = controller
        self.visits = [0] * arena.cell_count
        self.visited_count = 0
        self.step_count = 0
        self.clamp_count = 0
        self.visit_events: list[tuple[int, int]] = []

    def step(self) -> None:
        """Advance the whole swarm by one synchronous round.

        The controller decides from senses and this step's index; any number
        of moves or offsets but one per agent raises ValueError before
        anything moves. Each agent turns, then translates (or takes the PoseTarget's
        heading and its offset moved by the PoseTarget's pose), and the cell
        it ends the step in is scored with entry semantics: a visit needs a
        new cell inside the arena, sampling on (unicycle moves always
        sample), the sampling altitude, and then a speed of at most the
        target velocity: the commanded one, or the jump over dt, computed
        only at that point.
        Only here is a position mapped to a cell (its flat index, -1
        outside), kept in cells and reported in visit_events as (agent,
        cell); visits and visited_count count each visit at once, so a later
        raise leaves them agreeing. After step 1 a zero-speed agent only
        turns, and its unchanged cell is not mapped or scored. A position in
        the box of cells[i] is stored unmapped: the boxes are derived from
        this mapping, which stays the one definition, and all lie in the
        arena. Only a position outside its box is tested against the arena;
        a moving unicycle agent outside it ends on its edge and counts in
        clamp_count. The same command object at the very same heading
        object as the agent's last straight move adds that move's cached step
        vector, read without unpacking the command; a turning one keys no reuse. A formation reuses
        its rotated offsets and wrapped heading while its heading and offsets
        are the same objects: identity, unlike ==, never takes -0.0 for 0.0.
        """
        dt, cols, cell_size, minx, miny, maxx, maxy, last_col, last_row, speed_cap = self.frame
        xs, ys, hs, cells, samplers = self.xs, self.ys, self.hs, self.cells, self.samplers
        boxes, cruise = self.boxes, self.cruise
        step_idx = self.step_count + 1
        moves = self.controller.decide(self.senses, step_idx)
        formation = moves.__class__ is PoseTarget
        sampling = True
        if formation:
            bx, by = moves.position
            sampling = moves.sampling_active
            heading, offsets, terms, wrapped = self.rotated
            if moves.heading is not heading or moves.offsets is not offsets:
                heading, offsets = moves.heading, moves.offsets
                terms, wrapped = rotated_terms(heading, offsets), wrap_angle(heading)
                self.rotated = (heading, offsets, terms, wrapped)
            moves = terms
        if len(moves) != len(xs):
            raise ValueError(f"controller commanded {len(moves)} moves for {len(xs)} agents")
        visits = self.visits
        self.step_count = step_idx
        pheromone = self.pheromone
        events = []
        for i, motion in enumerate(moves):
            if formation:
                cox, soy, sox, coy = motion
                x = bx + cox - soy
                y = by + sox + coy
                hs[i] = wrapped
            else:
                h = hs[i]
                step = cruise[i]
                if motion is step[0] and h is step[1]:  # a repeated straight command
                    speed = step[4]
                    x = xs[i] + step[2]
                    y = ys[i] + step[3]
                else:
                    speed, rate = motion
                    if rate or not 0.0 < h < TWO_PI:  # else h + rate * dt is h itself
                        h += rate * dt
                        if not 0.0 < h < TWO_PI:  # a zero too, so -0.0 is stored as 0.0
                            h = wrap_angle(h)
                        hs[i] = h
                        motion = None  # a turned heading keys no reuse
                    if speed:
                        step = cruise[i] = (motion, h, speed * dt * math.cos(h), speed * dt * math.sin(h), speed)
                        x = xs[i] + step[2]
                        y = ys[i] + step[3]
                    elif step_idx != 1:
                        # Turning or holding in place: cells[i] is already this
                        # cell, so no visit can be credited. On step 1 it is
                        # still -1 and the start cell must be scored.
                        continue
                    else:
                        x, y = xs[i], ys[i]
            xlo, xhi, ylo, yhi = boxes[cells[i]]
            if not (xlo <= x < xhi and ylo <= y < yhi):  # else the mapping gives cells[i] again
                # Every box lies in the arena, so only here can a moving unicycle need its clamp.
                if not formation and speed and not (minx <= x <= maxx and miny <= y <= maxy):
                    x = minx if x < minx else (maxx if x > maxx else x)
                    y = miny if y < miny else (maxy if y > maxy else y)
                    self.clamp_count += 1
                if minx <= x <= maxx and miny <= y <= maxy:
                    col = int((x - minx) / cell_size)
                    row = int((y - miny) / cell_size)
                    if col > last_col:
                        col = last_col
                    if row > last_row:
                        row = last_row
                    cell = row * cols + col
                else:
                    cell = -1
                if cell != cells[i]:
                    cells[i] = cell
                    if cell >= 0 and sampling and samplers[i]:
                        if formation:  # xs[i], ys[i] still hold the pose before this step
                            speed = math.hypot(x - xs[i], y - ys[i]) / dt
                        if speed <= speed_cap:
                            count = visits[cell]
                            visits[cell] = count + 1
                            if count == 0:
                                self.visited_count += 1
                            events.append((i, cell))
                            if pheromone is not None:
                                pheromone.deposit(cell, step_idx)
            xs[i] = x
            ys[i] = y
        self.visit_events = events

    def run(self, on_step: Callable[["World"], None] | None = None) -> RunRecord:
        """Step until full coverage or the step budget runs out."""
        cell_count, max_steps, step = self.arena.cell_count, self.cfg.max_steps, self.step
        coverage: list[float] = []
        covered = coverage.append
        while self.visited_count < cell_count and self.step_count < max_steps:
            step()
            covered(self.visited_count / cell_count)
            if on_step is not None:
                on_step(self)
        cct = self.step_count if self.visited_count == cell_count else None
        return RunRecord(
            strategy=self.controller.name,
            seed=self.cfg.seed,
            cct=cct,
            coverage_fraction=np.asarray(coverage, dtype=np.float64),
            final_visits=np.asarray(self.visits, dtype=np.int64),
        )
