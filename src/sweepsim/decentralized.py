"""The four decentralized controllers: RB, LDR-Random, LDR-Repulsive, PM.

All four share the random-billiards core: fly straight at the target
velocity, reflect off boundaries toward a random interior direction, and
dodge nearby UAVs with randomized turns. The LDR variants add
communication-triggered dispersal; PM adds a virtual pheromone field that
biases agents away from recently covered ground.

Turns happen in place at the default turn rate with zero linear speed, so a
reacting agent holds its cell until the rotation completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import (
    interior_arcs,
    sample_arcs,
    subtract_arc,
    turn_direction,
    turn_remaining,
    wrap_angle,
    wrap_pi,
)
from .arena import EDGE_NORMALS, ArenaSpec, edge_distances
from .world import HOLD, Unicycle, World


@dataclass(frozen=True)
class RbParams:
    """Random-billiards boundary reflection and two-tier obstacle avoidance."""

    boundary_trigger: float = 0.05  # m
    reciprocal_exclusion: float = math.radians(5.0)  # half-angle around reverse heading
    short_range: float = 1.0  # m
    short_fov: float = math.radians(90.0)  # total cone ahead
    short_turn: tuple[float, float] = (math.radians(10.0), math.radians(30.0))
    medium_range: float = 2.5  # m
    medium_fov: float = math.radians(60.0)
    medium_turn: tuple[float, float] = (math.radians(5.0), math.radians(70.0))

    def __post_init__(self) -> None:
        if not self.short_range < self.medium_range:
            raise ValueError("short_range must be below medium_range")


@dataclass(frozen=True)
class LdrParams:
    """Local-density-reduction add-on riding on the RB core."""

    comm_range: float
    density_threshold: int
    repulsive: bool
    random_turn: tuple[float, float] = (math.radians(70.0), math.radians(90.0))
    post_reaction_suppression: int = 50
    post_avoidance_suppression: int = 350

    def __post_init__(self) -> None:
        # The range is only ever squared, so a negative one would act as its magnitude.
        if not (math.isfinite(self.comm_range) and self.comm_range > 0):
            raise ValueError("comm_range must be positive and finite")
        if self.density_threshold < 1:
            raise ValueError("density_threshold must be at least 1")
        if self.post_reaction_suppression < 0 or self.post_avoidance_suppression < 0:
            raise ValueError("suppression windows must be non-negative")


LDR_RANDOM = LdrParams(comm_range=10.0, density_threshold=5, repulsive=False)
LDR_REPULSIVE = LdrParams(
    comm_range=5.0,
    density_threshold=3,
    repulsive=True,
    post_reaction_suppression=350,
)


@dataclass(frozen=True)
class PmParams:
    """Pheromone-response add-on riding on the RB core.

    Only executed turns start the 25-step quiet window; a sampled
    go-straight decision does not, so an agent facing covered ground keeps
    re-deciding each step until it turns or the way ahead clears. Inside
    the window an agent neither senses the field nor draws.
    """

    turn_angle: float = math.radians(45.0)
    post_reaction_suppression: int = 25
    post_avoidance_suppression: int = 50

    def __post_init__(self) -> None:
        if self.post_reaction_suppression < 0 or self.post_avoidance_suppression < 0:
            raise ValueError("suppression windows must be non-negative")


PM = PmParams()


# Compass offsets for pheromone reads, counterclockwise from east.
_COMPASS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


# Padding of the avoidance candidate list beyond medium range, in metres.
SKIN = 2.0


class PheromoneField:
    """Per-cell pheromone with fixed deposits and unit-per-step evaporation.

    Evaporation is applied lazily: each cell stores its level at the step it
    was last written and reads subtract the steps elapsed since, floored at
    zero. Observationally identical to decrementing every cell once per step.

    The levels live in plain lists over the arena's grid widened by one cell
    on every side. Nothing deposits in that border, so a read one cell past
    the arena's edge lands there and reads zero without a bounds check.
    Every stored value is an integer-valued double, so the arithmetic is exact.
    """

    def __init__(self, arena: ArenaSpec):
        # Instance attributes, not class attributes: the reads below look them
        # up on every pheromone sense, and the instance lookup is the faster one.
        self.deposit_amount = 5000.0
        self.evaporation_rate = 1.0
        self._cols = arena.cols
        stride = arena.cols + 2
        size = stride * (arena.rows + 2)
        self._level = [0.0] * size
        self._stamp = [0] * size
        # Slot offsets of the ahead, left and right cells for each compass index.
        offsets = [dx + dy * stride for dx, dy in _COMPASS]
        self._sense_offsets = tuple(
            (offsets[k], offsets[(k + 1) % 8], offsets[(k - 1) % 8]) for k in range(8)
        )

    def _slot(self, idx: int) -> int:
        """Padded-list slot of the grid cell at row-major flat index idx."""
        cols = self._cols
        return idx + 2 * (idx // cols) + cols + 3

    def _read(self, slot: int, step: int) -> float:
        raw = self._level[slot] - self.evaporation_rate * (step - self._stamp[slot])
        return raw if raw > 0.0 else 0.0

    def deposit(self, idx: int, step: int) -> None:
        # The deposit lands before this step's evaporation tick.
        slot = self._slot(idx)
        value = self._read(slot, step - 1) + self.deposit_amount - self.evaporation_rate
        self._level[slot] = value if value > 0.0 else 0.0
        self._stamp[slot] = step


def boundary_escape_heading(
    heading: float, inward_normals, rng, exclusion_half_angle: float = math.radians(5.0)
) -> float:
    """Random interior-facing heading for a boundary reflection.

    Uniform over the intersection of the triggering edges' interior
    half-planes, excluding the given offset either side of the reciprocal
    heading. Falls back to the (mean) inward normal if that set is empty.
    """
    admissible = subtract_arc(
        interior_arcs(inward_normals), wrap_angle(heading + math.pi), exclusion_half_angle
    )
    if not admissible:
        mx = sum(n[0] for n in inward_normals)
        my = sum(n[1] for n in inward_normals)
        return wrap_angle(math.atan2(my, mx))
    return sample_arcs(admissible, rng)


def avoidance_turn(heading, neighbors, params: RbParams, rng):
    """Randomized dodge for the nearest UAV ahead, or None.

    neighbors are (dx, dy, dist) offsets in the world frame. Short range
    outranks medium range; the turn goes clockwise when the nearest
    qualifying neighbor is on the left, counterclockwise on the right, and an
    exactly-ahead neighbor breaks the tie clockwise. Returns
    (target_heading, direction, tier).
    """
    cos_h = math.cos(heading)
    sin_h = math.sin(heading)
    best = None  # (dist, dx, dy, tier)
    for dx, dy, dist in neighbors:
        if dist > params.medium_range:
            continue
        rel = wrap_pi(math.atan2(dy, dx) - heading)
        if dist <= params.short_range and abs(rel) <= params.short_fov / 2.0:
            tier = 0
        elif abs(rel) <= params.medium_fov / 2.0:
            tier = 1
        else:
            continue
        if best is None or (tier, dist) < (best[3], best[0]):
            best = (dist, dx, dy, tier)
    if best is None:
        return None
    dist, dx, dy, tier = best
    lo, hi = params.short_turn if tier == 0 else params.medium_turn
    magnitude = rng.uniform(lo, hi)
    cross = cos_h * dy - sin_h * dx
    direction = -1.0 if cross >= 0.0 else 1.0  # left (or dead ahead) -> clockwise
    target = wrap_angle(heading + direction * magnitude)
    return target, direction, "short" if tier == 0 else "medium"


def repulsive_escape(rel_positions) -> float | None:
    """Heading directly away from the mean of neighbor offsets.

    Returns None for the degenerate perfectly-centered case.
    """
    k = len(rel_positions)
    mx = sum(p[0] for p in rel_positions) / k
    my = sum(p[1] for p in rel_positions) / k
    if mx == 0.0 and my == 0.0:
        return None
    return wrap_angle(math.atan2(-my, -mx))


def compass_index(heading: float) -> int:
    """Quantize a heading to the nearest of 8 compass directions."""
    return round(wrap_angle(heading) / (math.pi / 4.0)) % 8


def pm_sense(field: PheromoneField, step: int, cell: int, heading: float):
    """Pheromone levels in the cells ahead of and 45 degrees left/right of cell.

    cell is a flat index, as in World.cells. Directions are taken in
    the nearest compass frame; cells beyond the grid, and every neighbour of
    cell -1 (outside the arena, or no step taken yet), read as zero.
    """
    if cell < 0:
        return (0.0, 0.0, 0.0)
    center = field._slot(cell)
    ahead, left, right = field._sense_offsets[compass_index(heading)]
    read = field._read
    return (read(center + ahead, step), read(center + left, step), read(center + right, step))


def pm_choose(readings, rng) -> str:
    """Pick among ahead / turn_right_45 / turn_left_45, or no_reaction.

    No reaction when no pheromone is ahead, or when all readings are zero.
    Sampling uses unnormalized thresholds so the exact probability identity
    carries over.
    """
    ahead, left, right = readings
    total = ahead + left + right
    if total <= 0.0 or ahead <= 0.0:
        return "no_reaction"
    u = rng.uniform(0.0, 2.0 * total)
    if u < total - ahead:
        return "ahead"
    if u < (total - ahead) + (total - right):
        return "turn_right_45"
    return "turn_left_45"


@dataclass
class ReactionEvent:
    """One recorded reaction, for behavioral trace audits."""

    step: int
    agent_id: int
    kind: str
    heading: float
    normals: tuple = ()
    outcome: str = ""


class CommRows(dict):
    """One step's LDR density: rows[i], made when first read, is the j != i in comm range, ascending."""

    def __init__(self, xs: list[float], ys: list[float], ldr: LdrParams):
        self.xs, self.ys, self.ldr = xs, ys, ldr

    def __missing__(self, i: int) -> list[int]:
        # The pair scan's squared distance: a pair at exactly comm_range is in range. Rounding
        # is monotone, so a pair whose dx * dx alone exceeds comm2 is out and skips its dy.
        xs, ys, comm = self.xs, self.ys, self.ldr.comm_range
        xi, yi, comm2 = xs[i], ys[i], comm * comm
        row = self[i] = []
        for j in range(len(xs)):
            dx = xs[j] - xi
            dd = dx * dx
            if dd <= comm2:
                dy = ys[j] - yi
                if dd + dy * dy <= comm2 and j != i:
                    row.append(j)
        return row

    def notified(self, i: int) -> bool:
        """Whether a neighbour of agent i hears at least density_threshold others."""
        for j in self[i]:
            if len(self[j]) >= self.ldr.density_threshold:
                return True
        return False


class DecentralizedController:
    """Per-step command computation for one decentralized strategy.

    All sensing reads the swarm state from before the step began; per-agent
    decisions never see each other's same-step reactions, so agents can be
    evaluated in any order. An agent carries at most one add-on: an ldr adds
    density dispersal, or a pheromone field adds PM's sensing and turns, with
    the PM constants. The add-on keeps one quiet window per agent. Each turn
    carries the window it opens when it ends: the add-on's post-avoidance
    window for a boundary or avoidance turn, its post-reaction window for
    its own.
    """

    def __init__(
        self,
        name: str,
        agents,
        ldr: LdrParams | None = None,
        pheromone: PheromoneField | None = None,
        collect_events: bool = False,
    ):
        if ldr is not None and pheromone is not None:
            raise ValueError("ldr and pheromone: a controller carries at most one add-on")
        self.name = name
        self.rb = RbParams()
        self.ldr = ldr
        self.pheromone = pheromone
        addon = ldr if ldr is not None else PM
        self.avoid_quiet = addon.post_avoidance_suppression
        self.react_quiet = addon.post_reaction_suppression
        n = len(agents)
        self.turn_target = [0.0] * n
        self.turn_dir = [0.0] * n  # +1.0 or -1.0 while turning, 0.0 while cruising
        self.turn_quiet = [0] * n  # the window the current turn opens when it ends
        self.quiet_until = [0] * n  # the add-on's last quiet step
        self.collect_events = collect_events
        self.events: list[ReactionEvent] = []
        # Upper-triangle pairs (i < j) in row-major order, so a scan over them
        # meets pairs in the same order as a loop over i, then j > i.
        self._iu, self._ju = np.triu_indices(n, 1)
        # Avoidance candidates (i, j) and the steps they are complete for.
        self._pairs: list[tuple[int, int]] = []
        self._pairs_from, self._pairs_until = 1, 0

    def _begin_turn(self, i: int, target: float, direction: float, quiet: int) -> None:
        self.turn_target[i] = target
        self.turn_dir[i] = direction
        self.turn_quiet[i] = quiet

    # -- the step -------------------------------------------------------------

    def neighbours(self, xs: list[float], ys: list[float], now: int, step_len: float):
        """near[i]: the (dx, dy, dist) offsets of the agents within medium range of agent i.

        Offsets come in ascending index order; j gets the negated offset of
        the pair (i, j), so coincident agents see -0.0. Only the candidate
        pairs are walked: those within medium_range + SKIN when the list was
        built. decide commands no move longer than step_len, and the clamp
        only shortens one, so a pair closes by at most 2 step_len a step and
        the list stays complete for the steps the skin covers; outside that
        window of now it is rebuilt.
        """
        med = self.rb.medium_range
        if not self._pairs_from <= now <= self._pairs_until:
            reach = med + SKIN
            x = np.array(xs)
            y = np.array(ys)
            pdx = x[self._ju] - x[self._iu]
            pdy = y[self._ju] - y[self._iu]
            hits = np.flatnonzero(pdx * pdx + pdy * pdy <= reach * reach)
            self._pairs = list(zip(self._iu[hits].tolist(), self._ju[hits].tolist()))
            self._pairs_from = now
            # The margin covers the rounding of the moves.
            self._pairs_until = now + int((SKIN - 1e-9) / (2.0 * step_len))
        med2 = med * med
        near: list[list] = [[] for _ in xs]
        for i, j in self._pairs:
            dx = xs[j] - xs[i]
            dy = ys[j] - ys[i]
            dd = dx * dx + dy * dy
            if dd <= med2:
                d = math.sqrt(dd)
                near[i].append((dx, dy, d))
                near[j].append((-dx, -dy, d))
        return near

    def density(self, xs: list[float], ys: list[float]) -> CommRows:
        """This step's LDR density, answered one agent at a time."""
        return CommRows(xs, ys, self.ldr)

    def decide(self, world: World) -> list[Unicycle]:
        cfg = world.cfg
        arena = world.arena
        agents = world.agents
        xs, ys, hs, cells = world.xs, world.ys, world.hs, world.cells
        n = len(xs)
        if n != len(self.turn_dir):
            raise ValueError(f"controller built for {len(self.turn_dir)} agents, world has {n}")
        now = world.step_count + 1  # index of the step being computed
        dt = cfg.dt
        v_target = cfg.target_sampling_velocity
        turn_rate = cfg.turn_rate_default
        rb = self.rb
        half = arena.half_side
        cx, cy = arena.center

        # Shared commands: Unicycle is an immutable tuple, and a turn
        # direction is exactly +1.0 or -1.0, so direction * turn_rate is one
        # of the two spins.
        cruise = Unicycle(v_target, 0.0)
        spin_ccw = Unicycle(0.0, turn_rate)
        spin_cw = Unicycle(0.0, -turn_rate)
        last_turn = turn_rate * dt + 1e-12  # the most a turn's final step covers
        turn_dir = self.turn_dir
        turn_target = self.turn_target
        step_len = v_target * dt
        near = self.neighbours(xs, ys, now, step_len)
        rows = None  # LDR density, built when the first agent asks
        clear = half - (rb.boundary_trigger + step_len)  # largest offset with no wall in reach
        moves: list[Unicycle] = []
        for i in range(n):
            direction = turn_dir[i]
            if direction:
                remaining = turn_remaining(hs[i], turn_target[i], direction)
                if remaining <= last_turn:
                    moves.append(Unicycle(0.0, direction * remaining / dt))
                    turn_dir[i] = 0.0
                    self.quiet_until[i] = now + self.turn_quiet[i]
                else:
                    moves.append(spin_ccw if direction > 0 else spin_cw)
                continue

            x = xs[i]
            y = ys[i]
            h = hs[i]

            # Boundary reflection: react when sitting in the trigger band with
            # an outward heading, or when this step's straight move would exit
            # (one tick covers twice the trigger band, so the lookahead is what
            # keeps agents inside without ever clamping).
            trigger = False
            if x - cx < clear and cx - x < clear and y - cy < clear and cy - y < clear:
                pass  # nowhere near a wall
            else:
                cos_h = math.cos(h)
                sin_h = math.sin(h)
                nx = x + step_len * cos_h
                ny = y + step_len * sin_h
                constraints = []
                for n_vec, dist_now, dist_next in zip(
                    EDGE_NORMALS, edge_distances(x, y, arena), edge_distances(nx, ny, arena)
                ):
                    if dist_now <= rb.boundary_trigger or dist_next < 0.0:
                        constraints.append(n_vec)
                        outward = cos_h * n_vec[0] + sin_h * n_vec[1] <= 0.0
                        if dist_next < 0.0 or (dist_now <= rb.boundary_trigger and outward):
                            trigger = True
            if trigger:
                target = boundary_escape_heading(h, constraints, agents[i].rng, rb.reciprocal_exclusion)
                self._begin_turn(i, target, turn_direction(h, target), self.avoid_quiet)
                if self.collect_events:
                    self.events.append(
                        ReactionEvent(now, i, "boundary", target, normals=tuple(constraints))
                    )
                moves.append(HOLD)
                continue

            # Obstacle avoidance, short range before medium.
            if near[i]:
                dodge = avoidance_turn(h, near[i], rb, agents[i].rng)
                if dodge is not None:
                    target, direction, tier = dodge
                    self._begin_turn(i, target, direction, self.avoid_quiet)
                    if self.collect_events:
                        self.events.append(ReactionEvent(now, i, "avoid_" + tier, target))
                    moves.append(HOLD)
                    continue

            # Strategy add-on, only outside its quiet window.
            if self.ldr is not None and now > self.quiet_until[i]:
                if rows is None:
                    rows = self.density(xs, ys)
                if not rows.notified(i):
                    moves.append(cruise)
                    continue
                if self.collect_events:
                    self.events.append(ReactionEvent(now, i, "density", h))
                if self.ldr.repulsive:
                    rel = [(xs[j] - x, ys[j] - y) for j in rows[i]]
                    target = repulsive_escape(rel)
                    if target is None:
                        # Perfectly centered neighbors: hold heading, still back off.
                        self.quiet_until[i] = now + self.react_quiet
                        moves.append(cruise)
                        continue
                    direction = turn_direction(h, target)
                else:
                    lo, hi = self.ldr.random_turn
                    target = wrap_angle(h - agents[i].rng.uniform(lo, hi))
                    direction = -1.0
                self._begin_turn(i, target, direction, self.react_quiet)
                moves.append(HOLD)
                continue

            if self.pheromone is not None and now > self.quiet_until[i]:
                readings = pm_sense(self.pheromone, now - 1, cells[i], h)
                outcome = pm_choose(readings, agents[i].rng)
                if outcome != "no_reaction":
                    if self.collect_events:
                        self.events.append(
                            ReactionEvent(now, i, "pheromone", h, outcome=outcome)
                        )
                    if outcome != "ahead":
                        direction = 1.0 if outcome == "turn_left_45" else -1.0
                        target = wrap_angle(h + direction * PM.turn_angle)
                        self._begin_turn(i, target, direction, self.react_quiet)
                        moves.append(HOLD)
                        continue

            moves.append(cruise)
        return moves


# Each decentralized strategy's LDR add-on; PM is RB plus the pheromone field.
LDR_ADD_ON = {"rb": None, "ldr_random": LDR_RANDOM, "ldr_repulsive": LDR_REPULSIVE, "pm": None}


def make_controller(
    name: str, agents, arena: ArenaSpec, collect_events: bool = False
) -> DecentralizedController:
    """Build the controller for a strategy name; PM's carries its pheromone field."""
    if name not in LDR_ADD_ON:
        raise ValueError(f"unknown decentralized strategy: {name}")
    field = PheromoneField(arena) if name == "pm" else None
    return DecentralizedController(
        name, agents, ldr=LDR_ADD_ON[name], pheromone=field, collect_events=collect_events
    )
