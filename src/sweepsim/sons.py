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
    half_plane_arc,
    interior_arcs,
    intersect_arcs,
    sample_arcs,
    subtract_arc,
    turn_direction,
    turn_remaining,
    wrap_angle,
)
from .arena import ArenaSpec, edges_outside
from .world import AgentState, PoseTarget, SimConfig, World, agent_stream


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


def build_line_formation(
    n_supervisors: int, n_samplers: int, sampler_spacing: float = 1.0
) -> SonsFormation:
    """Brain and supervisors over a sampler line.

    n_supervisors counts the brain, which sits at the middle of the line;
    the other supervisors sit evenly spaced over it.
    """
    if n_supervisors < 1 or n_samplers < 1:
        raise ValueError("need at least one supervisor (the brain) and one sampler")
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
    c = math.cos(brain_heading)
    s = math.sin(brain_heading)
    return [(bx + c * ox - s * oy, by + s * ox + c * oy) for ox, oy in formation.offsets]


def max_formation_omega(formation: SonsFormation, v_max: float) -> float:
    """Fastest rotation rate that keeps every sampler at or under v_max."""
    r_max = max(math.hypot(*formation.offsets[sid]) for sid in formation.sampler_ids)
    if r_max == 0.0:
        return math.inf
    return v_max / r_max


class SonsController:
    """Shared plumbing: one brain decides, every member is pose-assigned."""

    pheromone = None

    def __init__(self, formation: SonsFormation, brain_pos, brain_heading):
        self.formation = formation
        self.brain_pos = brain_pos
        self.brain_heading = brain_heading

    def _emit(self, sampling_active: bool) -> PoseTarget:
        positions = follow_formation(self.brain_pos, self.brain_heading, self.formation)
        return PoseTarget(positions, self.brain_heading, sampling_active)


class SonsBsController(SonsController):
    """Deterministic back-and-forth sweep in abutting formation-wide strips.

    The brain starts centered on the easternmost strip, hugging the southern
    boundary and heading north. Its cycle is sweep, exit past the edge,
    sidestep one stride west, reverse.
    """

    name = "sons_bs"

    def __init__(self, formation, arena: ArenaSpec):
        self.stride = formation.span + arena.cell_size
        cx, cy = arena.center
        h = arena.half_side
        start = (cx + h - self.stride / 2.0, cy - h + arena.cell_size / 2.0)
        super().__init__(formation, start, math.pi / 2.0)
        self.phase = "sweep"
        self.sweep_dir = 1.0  # +1 north, -1 south
        self.shift_remaining = 0.0
        self.exit_margin = 0.5

    def decide(self, world: World) -> PoseTarget:
        arena = world.arena
        cfg = world.cfg
        cy = arena.center[1]
        h = arena.half_side
        x, y = self.brain_pos
        step_len = cfg.target_sampling_velocity * cfg.dt

        while True:
            if self.phase == "sweep":
                if (self.sweep_dir > 0 and y >= cy + h) or (self.sweep_dir < 0 and y <= cy - h):
                    self.phase = "exit_boundary"
                    continue
                dy = self.sweep_dir * step_len
                self.brain_pos = (x, y + dy)
                break
            if self.phase == "exit_boundary":
                beyond = (y - (cy + h)) if self.sweep_dir > 0 else ((cy - h) - y)
                if beyond >= self.exit_margin:
                    self.phase = "shift"
                    self.shift_remaining = self.stride
                    continue
                self.brain_pos = (x, y + self.sweep_dir * step_len)
                break
            if self.phase == "shift":
                if self.shift_remaining <= 1e-12:
                    self.phase = "turn"
                    if x + self.formation.span / 2.0 < arena.min_corner[0]:
                        raise SweepGeometryError(
                            "sweep shifted fully past the arena before completing coverage"
                        )
                    continue
                dx = min(step_len, self.shift_remaining)
                self.shift_remaining -= dx
                self.brain_pos = (x - dx, y)
                break
            # turn: reverse direction and resume sweeping, instantaneous
            self.sweep_dir = -self.sweep_dir
            self.phase = "sweep"

        return self._emit(sampling_active=True)


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


class SonsRwController(SonsController):
    """Random-walk brain: straight runs, boundary overshoot, randomized turns.

    The brain starts on the southeastern corner with a random interior-facing
    heading, the first draw from brain_rng. Its cycle is cruise out past the
    edge, maybe align, spin, resume.

    armed gates the crossing trigger: it fires once per excursion, when the
    brain is beyond the crossing depth and not getting closer to the arena.
    Approaching the arena re-arms it, as does exceeding an edge the previous
    firing did not cover (a corner graze can drift past a second edge without
    ever dipping back inside).
    """

    name = "sons_rw"

    crossing_depth = 0.95  # m past the boundary before turning
    exclusion_half_angle = math.radians(30.0)

    def __init__(self, formation, arena: ArenaSpec, cfg: SimConfig, brain_rng):
        cx, cy = arena.center
        h = arena.half_side
        interior = intersect_arcs(half_plane_arc(math.pi), half_plane_arc(math.pi / 2.0))
        super().__init__(formation, (cx + h, cy - h), sample_arcs(interior, brain_rng))
        self.omega_max = max_formation_omega(formation, cfg.target_sampling_velocity)
        self.brain_rng = brain_rng
        self.phase = "cruise"
        self.prev_depth = 0.0
        self.armed = True
        self.fired_edges = frozenset()
        self.theta_rand = 0.0
        self.d_rand = 1.0
        self.d_adjust = 1.0
        self.align_target = 0.0
        self.events: list[CrossingEvent] = []

    def _select_crossing(self, world: World, outside) -> None:
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
        self.events.append(
            CrossingEvent(
                step=world.step_count,
                entry_heading=h,
                theta_rand=self.theta_rand,
                d_rand=self.d_rand,
                d_adjust=self.d_adjust,
                aligned=aligned,
                normals=tuple(normals),
                exclusion_dropped=dropped,
            )
        )

    def _rotation_done(self, target: float, direction: float) -> bool:
        # the final partial step can land an ulp past the target, which reads
        # as a nearly full lap in the rotation direction
        remaining = turn_remaining(self.brain_heading, target, direction)
        if remaining <= 1e-12 or remaining >= 2.0 * math.pi - 1e-9:
            self.brain_heading = wrap_angle(target)
            return True
        return False

    def _rotate_toward(self, target: float, direction: float, rate: float, dt: float) -> None:
        omega = min(rate, turn_remaining(self.brain_heading, target, direction) / dt)
        self.brain_heading = wrap_angle(self.brain_heading + direction * omega * dt)

    def decide(self, world: World) -> PoseTarget:
        cfg = world.cfg
        dt = cfg.dt
        outside = edges_outside(self.brain_pos, world.arena)
        depth = math.hypot(*(excess for _, excess in outside))
        exceeded = frozenset(n for n, _ in outside)
        if not self.armed and (depth < self.prev_depth - 1e-15 or not exceeded <= self.fired_edges):
            self.armed = True
        sampling = True
        while True:
            if self.phase == "cruise":
                if self.armed and exceeded and depth > self.crossing_depth and depth >= self.prev_depth:
                    self.armed = False
                    self.fired_edges = exceeded
                    self._select_crossing(world, outside)
                    continue
                step_len = cfg.target_sampling_velocity * dt
                x, y = self.brain_pos
                self.brain_pos = (
                    x + step_len * math.cos(self.brain_heading),
                    y + step_len * math.sin(self.brain_heading),
                )
                break
            if self.phase == "align":
                if self._rotation_done(self.align_target, self.d_adjust):
                    self.phase = "prepare"
                    continue
                self._rotate_toward(self.align_target, self.d_adjust, self.omega_max, dt)
                break
            # prepare: sampling paused, speed cap lifted
            sampling = False
            if self._rotation_done(self.theta_rand, self.d_rand):
                self.phase = "cruise"
                sampling = True
                continue
            self._rotate_toward(self.theta_rand, self.d_rand, cfg.turn_rate_default, dt)
            break

        self.prev_depth = depth
        return self._emit(sampling_active=sampling)


def make_sons_controller(
    strategy: str, arena: ArenaSpec, cfg: SimConfig, n_supervisors: int, n_samplers: int
) -> tuple[list[AgentState], SonsController]:
    """Wire up the brain of sons_bs or sons_rw and spawn the formation at its start pose.

    Samplers fly at the sampling altitude; the brain and the supervisors at
    the supervisory altitude.
    """
    formation = build_line_formation(n_supervisors, n_samplers, sampler_spacing=arena.cell_size)
    if formation.span > arena.side_length:
        raise ValueError("formation span exceeds the arena side")
    if strategy == "sons_bs":
        controller = SonsBsController(formation, arena)
    elif strategy == "sons_rw":
        controller = SonsRwController(formation, arena, cfg, agent_stream(cfg.seed, 0))
    else:
        raise ValueError(f"unknown formation strategy: {strategy}")
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
