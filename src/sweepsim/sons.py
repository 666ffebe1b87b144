"""Hierarchical line-formation strategies: boustrophedon sweep and random walk.

A single decision-making UAV (the brain) carries a rigid line of sampling
UAVs whose spacing matches the cell size. Followers are servo-perfect: their
poses are recomputed from the brain pose every step, so the formation shape
is exact by construction and pairwise distances never drift. The
hierarchy's communication is not modelled: the formation is only its
offsets from the brain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import (
    ccw_distance,
    interior_arcs,
    sample_arcs,
    subtract_arc,
    turn_direction,
    turn_remaining,
    wrap_angle,
)
from .arena import EDGE_NORMALS, ArenaSpec, edges_outside
from .world import AgentState, PoseTarget, Senses, SimConfig, agent_stream, rotated_terms


class SweepGeometryError(RuntimeError):
    """The sweep shifted fully past the arena with coverage incomplete."""


@dataclass(frozen=True)
class SonsFormation:
    """Rigid offsets of the line formation, one per member in id order.

    Ids run brain (0), then supervisors, then samplers. Offsets are in the
    brain frame with +x along the brain heading; the sampler line runs along
    the lateral (+y) axis, so the formation sweeps broadside.
    """

    offsets: tuple[tuple[float, float], ...]
    sampler_ids: tuple[int, ...]
    span: float


def build_line_formation(n_uavs: int, sampler_spacing: float = 1.0) -> SonsFormation:
    """Brain and supervisors over a sampler line: one supervisor per five UAVs, brain included.

    The brain sits at the middle of the line; the other supervisors sit
    evenly spaced over it. The rest of the swarm are samplers.
    """
    n_supervisors = max(1, n_uavs // 5)
    n_samplers = n_uavs - n_supervisors
    if n_samplers < 1:
        raise ValueError("n_uavs leaves no samplers")
    span = (n_samplers - 1) * sampler_spacing
    offsets = [(0.0, 0.0)]
    for k in range(n_supervisors - 1):
        frac = (k + 1) / n_supervisors
        offsets.append((0.0, -span / 2.0 + frac * span))
    for k in range(n_samplers):
        offsets.append((0.0, -span / 2.0 + k * sampler_spacing))
    return SonsFormation(
        offsets=tuple(offsets),
        sampler_ids=tuple(range(n_supervisors, n_supervisors + n_samplers)),
        span=span,
    )


def follow_formation(
    brain_position: tuple[float, float], brain_heading: float, formation: SonsFormation
) -> list[tuple[float, float]]:
    """World-frame target position for every member in id order, brain included."""
    bx, by = brain_position
    terms = rotated_terms(brain_heading, formation.offsets)
    return [(bx + cox - soy, by + sox + coy) for cox, soy, sox, coy in terms]


def max_formation_omega(formation: SonsFormation, v_max: float) -> float:
    """Fastest rotation rate that keeps every sampler at or under v_max."""
    r_max = max(math.hypot(*formation.offsets[sid]) for sid in formation.sampler_ids)
    if r_max == 0.0:
        return math.inf
    return v_max / r_max


class SonsController:
    """Shared plumbing: one brain decides, every member is pose-assigned."""

    pheromone = False
    events = None  # build_world hands out the crossing log (sons_rw's only)

    def __init__(self, formation: SonsFormation, brain_pos, brain_heading):
        self.formation = formation
        self.brain_pos = brain_pos
        self.brain_heading = brain_heading


class SonsBsController(SonsController):
    """Deterministic back-and-forth sweep in abutting formation-wide strips.

    The brain starts centered on the easternmost strip, hugging the southern
    boundary and heading north. Its cycle is sweep on past the edge by
    exit_margin, sidestep one stride west, reverse, over the arena it is built for.
    """

    name = "sons_bs"

    def __init__(self, formation, arena: ArenaSpec, cfg: SimConfig):
        self.stride = formation.span + arena.cell_size
        (self.minx, self.miny), self.maxy = arena.min_corner, arena.max_corner[1]
        self.step_len = cfg.step_length
        start = (arena.max_corner[0] - self.stride / 2.0, self.miny + arena.cell_size / 2.0)
        super().__init__(formation, start, math.pi / 2.0)
        self.phase = "sweep"
        self.sweep_dir = 1.0  # +1 north, -1 south
        self.shift_remaining = 0.0
        self.exit_margin = 0.5

    def decide(self, senses: Senses, step: int) -> PoseTarget:
        minx, miny, maxy, step_len = self.minx, self.miny, self.maxy, self.step_len
        x, y = self.brain_pos

        if self.phase == "sweep":
            beyond = (y - maxy) if self.sweep_dir > 0 else (miny - y)
            if beyond >= self.exit_margin:
                self.phase = "shift"
                self.shift_remaining = self.stride
        if self.phase == "shift" and self.shift_remaining <= 1e-12:
            if x + self.formation.span / 2.0 < minx:
                raise SweepGeometryError(
                    "sweep shifted fully past the arena before completing coverage"
                )
            self.sweep_dir = -self.sweep_dir
            self.phase = "sweep"
        if self.phase == "sweep":
            self.brain_pos = (x, y + self.sweep_dir * step_len)
        else:
            dx = min(step_len, self.shift_remaining)
            self.shift_remaining -= dx
            self.brain_pos = (x - dx, y)
        return PoseTarget(self.brain_pos, self.brain_heading, self.formation.offsets, True)


@dataclass
class CrossingEvent:
    """One boundary crossing of the random-walk brain, for trace audits."""

    step: int
    entry_heading: float
    theta_rand: float
    d_rand: float
    d_adjust: float
    aligned: bool
    normals: tuple
    exclusion_dropped: bool = False


_NO_EDGES = frozenset()


class SonsRwController(SonsController):
    """Random-walk brain: straight runs, boundary overshoot, randomized turns.

    The brain starts on the southeastern corner with a random interior-facing
    heading, the first draw from brain_rng, agent 0's stream. Its cycle is
    cruise out past the edge, maybe align, spin, resume.

    armed gates the crossing trigger: it fires once per excursion, when the
    brain is beyond the crossing depth and not getting closer to the arena.
    Approaching the arena re-arms it, as does exceeding an edge the previous
    firing did not cover (a corner graze can drift past a second edge without
    ever dipping back inside).
    """

    name = "sons_rw"

    crossing_depth = 0.95  # m past the boundary before turning
    exclusion_half_angle = math.radians(30.0)

    def __init__(self, formation, arena: ArenaSpec, cfg: SimConfig):
        east, _, _, south = EDGE_NORMALS
        start = (arena.max_corner[0], arena.min_corner[1])
        self.brain_rng = agent_stream(cfg.seed, 0)
        super().__init__(formation, start, sample_arcs(interior_arcs((east, south)), self.brain_rng))
        self.omega_max = max_formation_omega(formation, cfg.target_sampling_velocity)
        self.dt, self.turn_rate, self.step_len = cfg.dt, cfg.turn_rate_default, cfg.step_length
        self.arena, self.center, self.half_extents = arena, arena.center, arena.half_extents
        self.phase = "cruise"
        self.prev_depth = 0.0
        self.armed = True
        self.fired_edges = _NO_EDGES
        self.theta_rand = 0.0
        self.d_rand = 1.0
        self.d_adjust = 1.0
        self.align_target = 0.0

    def _select_crossing(self, step: int, outside) -> None:
        h = self.brain_heading
        normals = [n for n, _ in outside]
        interior = interior_arcs(normals)
        admissible = subtract_arc(
            interior, wrap_angle(h + math.pi), self.exclusion_half_angle
        )
        dropped = False
        if not admissible:
            # Corner crossing can leave nothing outside the exclusion cone.
            admissible = interior
            dropped = True
        self.theta_rand = sample_arcs(admissible, self.brain_rng)
        self.d_rand = turn_direction(h, self.theta_rand)
        # Alignment candidates put the lateral formation axis parallel to the
        # deepest-crossed edge: heading along its inward or outward normal.
        deep_nx, deep_ny = max(outside, key=lambda e: e[1])[0]
        normal_angle = math.atan2(deep_ny, deep_nx)
        align = min(
            (normal_angle, normal_angle + math.pi),
            key=lambda a: min(ccw_distance(h, a), 2.0 * math.pi - ccw_distance(h, a)),
        )
        self.align_target = wrap_angle(align)
        self.d_adjust = turn_direction(h, align)
        aligned = self.d_rand == self.d_adjust
        self.phase = "align" if aligned else "prepare"
        if self.events is not None:
            self.events.append(CrossingEvent(
                step=step,
                entry_heading=h,
                theta_rand=self.theta_rand,
                d_rand=self.d_rand,
                d_adjust=self.d_adjust,
                aligned=aligned,
                normals=tuple(normals),
                exclusion_dropped=dropped,
            ))

    def _turn(self, target: float, direction: float, rate: float, dt: float) -> bool:
        """Turn toward target at up to rate; True, snapping to target instead, when the heading is there."""
        remaining = turn_remaining(self.brain_heading, target, direction)
        # the final partial step can land an ulp past the target, which reads
        # as a nearly full lap in the rotation direction
        if remaining <= 1e-12 or remaining >= 2.0 * math.pi - 1e-9:
            self.brain_heading = wrap_angle(target)
            return True
        self.brain_heading = wrap_angle(self.brain_heading + direction * min(rate, remaining / dt) * dt)
        return False

    def decide(self, senses: Senses, step: int) -> PoseTarget:
        dt, offsets = self.dt, self.formation.offsets
        (x, y), (cx, cy), (hx, hy) = self.brain_pos, self.center, self.half_extents
        # edges_outside's test, exactly: fl(h - d) < 0 just when d > h, fl(d + h) < 0 just when d < -h.
        if -hx <= x - cx <= hx and -hy <= y - cy <= hy:
            outside, depth, exceeded = (), 0.0, _NO_EDGES
        else:
            outside = edges_outside(self.brain_pos, self.arena)
            depth = math.hypot(*(excess for _, excess in outside))
            exceeded = frozenset(n for n, _ in outside)
        if not self.armed and (depth < self.prev_depth - 1e-15 or not exceeded <= self.fired_edges):
            self.armed = True
        # A turn holds the brain in place, so the trigger stays disarmed until
        # the turn ends: it can only fire from a cruise.
        if (self.phase == "cruise" and self.armed and exceeded
                and depth > self.crossing_depth and depth >= self.prev_depth):
            self.armed = False
            self.fired_edges = exceeded
            self._select_crossing(step, outside)
        self.prev_depth = depth
        if self.phase == "align":
            if not self._turn(self.align_target, self.d_adjust, self.omega_max, dt):
                return PoseTarget(self.brain_pos, self.brain_heading, offsets, True)
            self.phase = "prepare"
        if self.phase == "prepare":
            # sampling paused, speed cap lifted
            if not self._turn(self.theta_rand, self.d_rand, self.turn_rate, dt):
                return PoseTarget(self.brain_pos, self.brain_heading, offsets, False)
            self.phase = "cruise"
        h, step_len = self.brain_heading, self.step_len
        self.brain_pos = (x + step_len * math.cos(h), y + step_len * math.sin(h))
        return PoseTarget(self.brain_pos, h, offsets, True)


# Each formation strategy's brain, keyed by the name it labels its runs with.
FORMATIONS = {brain.name: brain for brain in (SonsBsController, SonsRwController)}


def make_sons_controller(
    strategy: str, arena: ArenaSpec, cfg: SimConfig, n_uavs: int
) -> tuple[list[AgentState], SonsController]:
    """Wire up the brain FORMATIONS names for strategy and spawn the n_uavs formation at its start pose.

    Samplers fly at the sampling altitude; the brain and the supervisors at
    the supervisory altitude.
    """
    if strategy not in FORMATIONS:
        raise ValueError(f"unknown formation strategy: {strategy}")
    formation = build_line_formation(n_uavs, sampler_spacing=arena.cell_size)
    if formation.span > min(arena.extents):
        width, depth = arena.extents
        raise ValueError(
            f"formation span exceeds the arena side, got span {formation.span:g} m over "
            f"{len(formation.sampler_ids)} samplers and a {width:g} m x {depth:g} m arena"
        )
    controller = FORMATIONS[strategy](formation, arena, cfg)
    heading = controller.brain_heading
    targets = follow_formation(controller.brain_pos, heading, formation)
    agents = [
        AgentState(
            id=member,
            position=position,
            heading=heading,
            altitude=(
                cfg.sampling_altitude
                if member in formation.sampler_ids
                else cfg.supervisory_altitude
            ),
        )
        for member, position in enumerate(targets)
    ]
    return agents, controller
