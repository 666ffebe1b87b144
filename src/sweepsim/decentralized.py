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
    TWO_PI,
    interior_arcs,
    sample_arcs,
    subtract_arc,
    turn_direction,
    turn_remaining,
    uniform,
    wrap_angle,
    wrap_pi,
)
from .arena import EDGE_NORMALS, ArenaSpec, edge_distances
from .checks import boolean, field_of_view, integer_at_least, positive_finite, turn_range
from .world import HOLD, PheromoneField, Senses, SimConfig, Unicycle, pm_sense


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
        positive_finite(self, "boundary_trigger", "reciprocal_exclusion", "short_range", "medium_range")
        # decide's forward test for avoidance takes each half-cone as at most pi.
        field_of_view(self, "short_fov", "medium_fov")
        turn_range(self, "short_turn", "medium_turn")
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
        positive_finite(self, "comm_range")
        # Compared with a neighbour count, 2.5 acts as 3 and True as 1.
        integer_at_least(self, 1, "density_threshold")
        integer_at_least(self, 0, "post_reaction_suppression", "post_avoidance_suppression")
        boolean(self, "repulsive")  # a truthy string would pick the repulsive escape
        turn_range(self, "random_turn")


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
        positive_finite(self, "turn_angle")
        integer_at_least(self, 0, "post_reaction_suppression", "post_avoidance_suppression")


PM = PmParams()


# The turn direction of each pm_choose reaction; "ahead" goes straight on.
_PM_TURN = {"ahead": 0.0, "turn_left_45": 1.0, "turn_right_45": -1.0}


# Padding of the avoidance candidate list beyond medium range, in metres.
SKIN = 2.0


def boundary_escape_heading(heading: float, inward_normals, rng, exclusion_half_angle: float) -> float:
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
    magnitude = uniform(rng, lo, hi)
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
    u = uniform(rng, 0.0, 2.0 * total)
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
    heading: float  # the heading the agent reacted at
    target: float | None  # the heading its turn ends at; None when it starts no turn
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
    evaluated in any order. The controller carries one add-on or none: an
    LdrParams adds density dispersal, a PmParams adds sensing and asks the
    world for a pheromone field. The add-on keeps one quiet window per agent.
    Each turn carries the window it opens when it ends: the add-on's
    post-avoidance window for a boundary or avoidance turn, its post-reaction
    window for its own. rb carries PM's windows, which nothing reads. decide reads
    run constants that __init__ derives once from the arena and cfg it is given.
    """

    events = None  # build_world hands out the reaction log

    def __init__(
        self,
        name: str,
        agents,
        arena: ArenaSpec,
        cfg: SimConfig,
        addon: LdrParams | PmParams | None = None,
    ):
        self.name = name
        self.rb = rb = RbParams()
        self.addon = addon
        self.ldr = addon if isinstance(addon, LdrParams) else None
        self.pheromone = isinstance(addon, PmParams)
        windows = PM if addon is None else addon
        self.avoid_quiet = windows.post_avoidance_suppression
        self.react_quiet = windows.post_reaction_suppression
        n = len(agents)
        self.rngs = {a.id: a.rng for a in agents}  # each agent's stream, by id
        self.turn_target = [0.0] * n
        self.turn_dir = [0.0] * n  # +1.0 or -1.0 while turning, 0.0 while cruising
        self.turn_quiet = [0] * n  # the window the current turn opens when it ends
        self.spin_until = [0] * n  # the current turn's last step that is certain to be a full spin
        self.quiet_until = [0] * n  # the add-on's last quiet step
        # Upper-triangle pairs (i < j) in row-major order, so a scan over them
        # meets pairs in the same order as a loop over i, then j > i.
        self._iu, self._ju = np.triu_indices(n, 1)
        # Avoidance candidates (i, j) and the steps they are complete for.
        self._pairs: list[tuple[int, int]] = []
        self._pairs_from, self._pairs_until = 1, 0
        self.arena, self.dt = arena, cfg.dt
        self.step_len = step_len = cfg.step_length
        # The steps a candidate list stays complete for; the margin covers the rounding of the moves.
        self._pairs_life = int((SKIN - 1e-9) / (2.0 * step_len))
        # Shared commands: Unicycle is an immutable tuple, and a turn direction
        # is exactly +1.0 or -1.0, so direction * turn_rate is one of the two spins.
        turn_rate = cfg.turn_rate_default
        self.cruise = Unicycle(cfg.target_sampling_velocity, 0.0)
        self.spins = (Unicycle(0.0, turn_rate), Unicycle(0.0, -turn_rate))  # counterclockwise, clockwise
        self.spin = turn_rate * cfg.dt  # the angle World.step adds to a heading on a spin
        self.last_turn = self.spin + 1e-12  # the most a turn's final step covers
        self.spin_ulps = math.ulp(TWO_PI) / self.spin  # one rounding of a heading, in spins
        # avoidance_turn dodges only an offset inside the wider half-cone (at
        # most pi): its projection on the heading is at least the cone's cosine
        # times dist, less rounding. Under 1e-150 m, where dd may be subnormal, all pass.
        self.ahead = math.cos(min(math.pi, max(rb.short_fov, rb.medium_fov) / 2.0)) - 1e-9
        # The box where no wall is in reach, (xlo, xhi, ylo, yhi): strictly inside it the lookahead
        # ends at least boundary_trigger inside every edge, so rounding never makes a constraint.
        reach = rb.boundary_trigger + step_len
        (x0, y0), (x1, y1) = arena.min_corner, arena.max_corner
        self.clear = (x0 + reach, x1 - reach, y0 + reach, y1 - reach)

    def _react(self, i: int, now: int, kind: str, heading: float, direction=0.0, target=0.0, quiet=0, **detail):
        """Agent i, flying at heading, reacts at step now: the reaction is logged when there is a log,
        and a non-zero direction starts the turn to target that opens quiet when it ends.

        decide spins the turn up to spin_until without reading the heading: the spins certain to
        leave more than last_turn to go. World.step's sum and wrap, and each turn_remaining
        reading, round by at most one ulp of 2 pi, so the count keeps one per spin, and eight more, in hand.
        """
        if self.events is not None:
            self.events.append(ReactionEvent(now, i, kind, heading, target if direction else None, **detail))
        if direction:
            self.turn_target[i] = target
            self.turn_dir[i] = direction
            self.turn_quiet[i] = quiet
            spins = (turn_remaining(heading, target, direction) - self.last_turn) / self.spin
            spins -= (spins + 8.0) * self.spin_ulps
            self.spin_until[i] = now + math.ceil(spins) if spins > 0.0 else now

    # -- the step -------------------------------------------------------------

    def neighbours(self, xs: list[float], ys: list[float], now: int):
        """near[i]: the (dx, dy, dist) offsets of the agents within medium range of agent i.

        A row is a tuple, grown by concatenation (it holds the few agents in
        medium range), and the shared () where there is none.
        Offsets come in ascending index order; j gets the negated offset of
        the pair (i, j), so coincident agents see -0.0. Only the candidate
        pairs are walked: those within medium_range + SKIN when the list was
        built. decide commands no move longer than a step length, and the clamp
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
            self._pairs_until = now + self._pairs_life
        med2 = med * med
        near: list[tuple] = [()] * len(xs)
        for i, j in self._pairs:
            dx = xs[j] - xs[i]
            dy = ys[j] - ys[i]
            dd = dx * dx + dy * dy
            if dd <= med2:
                d = math.sqrt(dd)
                near[i] += ((dx, dy, d),)
                near[j] += ((-dx, -dy, d),)
        return near

    def density(self, xs: list[float], ys: list[float]) -> CommRows:
        """This step's LDR density, answered one agent at a time."""
        return CommRows(xs, ys, self.ldr)

    def decide(self, senses: Senses, step: int) -> list[Unicycle]:
        xs, ys, hs, cells, pheromone = senses
        n = len(xs)
        if n != len(self.turn_dir):
            raise ValueError(f"controller built for {len(self.turn_dir)} agents, world has {n}")
        rb, arena, dt, step_len = self.rb, self.arena, self.dt, self.step_len
        ahead, last_turn, (xlo, xhi, ylo, yhi) = self.ahead, self.last_turn, self.clear
        (spin_ccw, spin_cw), ldr = self.spins, self.ldr
        turn_dir, turn_target, spin_until, quiet_until = self.turn_dir, self.turn_target, self.spin_until, self.quiet_until
        near = self.neighbours(xs, ys, step)
        rows = None  # LDR density, built when the first agent asks
        moves = [self.cruise] * n  # a cruising agent's command is already in place
        for i in range(n):
            direction = turn_dir[i]
            if direction:
                if step > spin_until[i]:
                    remaining = turn_remaining(hs[i], turn_target[i], direction)
                    if remaining <= last_turn:
                        moves[i] = Unicycle(0.0, direction * remaining / dt)
                        turn_dir[i] = 0.0
                        quiet_until[i] = step + self.turn_quiet[i]
                        continue
                moves[i] = spin_ccw if direction > 0 else spin_cw
                continue

            x = xs[i]
            y = ys[i]

            # Boundary reflection: react when sitting in the trigger band with
            # an outward heading, or when this step's straight move would exit
            # (one tick covers twice the trigger band, so the lookahead is what
            # keeps agents inside without ever clamping). Only an agent outside the clear box looks.
            if not (xlo < x < xhi and ylo < y < yhi):
                h = hs[i]
                cos_h = math.cos(h)
                sin_h = math.sin(h)
                nx = x + step_len * cos_h
                ny = y + step_len * sin_h
                trigger = False
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
                    target = boundary_escape_heading(h, constraints, self.rngs[i], rb.reciprocal_exclusion)
                    self._react(i, step, "boundary", h, turn_direction(h, target), target, self.avoid_quiet,
                                normals=tuple(constraints))
                    moves[i] = HOLD
                    continue

            # Obstacle avoidance, short range before medium.
            row = near[i]
            if row:
                h = hs[i]
                cos_h, sin_h = math.cos(h), math.sin(h)
                dodge = None
                for dx, dy, dist in row:
                    if dx * cos_h + dy * sin_h >= ahead * dist or dist < 1e-150:
                        dodge = avoidance_turn(h, row, rb, self.rngs[i])
                        break
                if dodge is not None:
                    target, direction, tier = dodge
                    self._react(i, step, "avoid_" + tier, h, direction, target, self.avoid_quiet)
                    moves[i] = HOLD
                    continue

            # Strategy add-on, only outside its quiet window.
            if ldr is not None and step > quiet_until[i]:
                if rows is None:
                    rows = self.density(xs, ys)
                if not rows.notified(i):
                    continue
                h = hs[i]
                if ldr.repulsive:
                    target = repulsive_escape([(xs[j] - x, ys[j] - y) for j in rows[i]])
                    direction = 0.0 if target is None else turn_direction(h, target)
                else:
                    lo, hi = ldr.random_turn
                    target = wrap_angle(h - uniform(self.rngs[i], lo, hi))
                    direction = -1.0
                self._react(i, step, "density", h, direction, target, self.react_quiet)
                if direction:
                    moves[i] = HOLD
                else:
                    # Perfectly centered neighbors: hold heading, still back off.
                    quiet_until[i] = step + self.react_quiet
                continue

            if pheromone is not None and step > quiet_until[i]:
                h = hs[i]
                readings = pm_sense(pheromone, step - 1, cells[i], h)
                # With nothing ahead pm_choose draws nothing and picks no reaction; with some ahead
                # it always reacts, since the readings are never negative.
                if readings[0] > 0.0:
                    outcome = pm_choose(readings, self.rngs[i])
                    direction = _PM_TURN[outcome]
                    target = wrap_angle(h + direction * self.addon.turn_angle)
                    self._react(i, step, "pheromone", h, direction, target, self.react_quiet, outcome=outcome)
                    if direction:
                        moves[i] = HOLD
        return moves


# Each decentralized strategy's add-on on the RB core.
ADD_ON = {"rb": None, "ldr_random": LDR_RANDOM, "ldr_repulsive": LDR_REPULSIVE, "pm": PM}
