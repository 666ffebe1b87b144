"""Hierarchical line-formation strategies: boustrophedon sweep and random walk.

A single decision-making UAV (the brain) carries a rigid line of sampling
UAVs whose spacing matches the cell size. Followers are servo-perfect: their
poses are recomputed from the brain pose every step, so the formation shape
is exact by construction and pairwise distances never drift. The hierarchy's
caterpillar-tree roster is kept as data for message routing even though
control is kinematically rigid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import (
    ccw_distance,
    cw_distance,
    half_plane_arc,
    interior_arcs,
    intersect_arcs,
    sample_arcs,
    subtract_arc,
    wrap_angle,
)
from .arena import ArenaSpec, edges_outside
from .world import AgentState, Motion, PoseTarget, SimConfig, World, agent_stream


class SweepGeometryError(RuntimeError):
    """The sweep shifted fully past the arena with coverage incomplete."""


@dataclass(frozen=True)
class SonsFormation:
    """Roster, rigid offsets, and tree topology of the line formation.

    Offsets are in the brain frame with +x along the brain heading; the
    sampler line runs along the lateral (+y) axis, so the formation sweeps
    broadside. parent maps each member to the UAV it takes commands from.
    """

    brain_id: int
    supervisor_ids: tuple[int, ...]
    sampler_ids: tuple[int, ...]
    offsets: dict[int, tuple[float, float]]
    sampler_spacing: float
    parent: dict[int, int]

    @property
    def span(self) -> float:
        return (len(self.sampler_ids) - 1) * self.sampler_spacing

    @property
    def all_ids(self) -> tuple[int, ...]:
        return (self.brain_id,) + self.supervisor_ids + self.sampler_ids

    def route_to_brain(self, member_id: int) -> list[int]:
        """Upstream hop sequence from a member to the brain."""
        path = [member_id]
        while path[-1] != self.brain_id:
            path.append(self.parent[path[-1]])
        return path


def build_line_formation(
    n_supervisors: int, n_samplers: int, sampler_spacing: float = 1.0
) -> SonsFormation:
    """Caterpillar-tree line formation: brain and supervisors over a sampler line.

    n_supervisors counts the brain. Supervisors form the spine; samplers hang
    off them in contiguous groups. Supervisors sit evenly spaced over the
    sampler line.
    """
    if n_supervisors < 1 or n_samplers < 1:
        raise ValueError("need at least one supervisor (the brain) and one sampler")
    brain_id = 0
    supervisor_ids = tuple(range(1, n_supervisors))
    sampler_ids = tuple(range(n_supervisors, n_supervisors + n_samplers))
    span = (n_samplers - 1) * sampler_spacing
    offsets: dict[int, tuple[float, float]] = {brain_id: (0.0, 0.0)}
    for k, sid in enumerate(sampler_ids):
        offsets[sid] = (0.0, -span / 2.0 + k * sampler_spacing)
    for k, sup in enumerate(supervisor_ids):
        frac = (k + 1) / (len(supervisor_ids) + 1)
        offsets[sup] = (0.0, -span / 2.0 + frac * span)
    parent: dict[int, int] = {}
    spine = (brain_id,) + supervisor_ids
    for prev, nxt in zip(spine, spine[1:]):
        parent[nxt] = prev
    hosts = supervisor_ids if supervisor_ids else (brain_id,)
    per_host = math.ceil(n_samplers / len(hosts))
    for k, sid in enumerate(sampler_ids):
        parent[sid] = hosts[min(k // per_host, len(hosts) - 1)]
    return SonsFormation(
        brain_id=brain_id,
        supervisor_ids=supervisor_ids,
        sampler_ids=sampler_ids,
        offsets=offsets,
        sampler_spacing=sampler_spacing,
        parent=parent,
    )


def follow_formation(
    brain_position: tuple[float, float], brain_heading: float, formation: SonsFormation
) -> dict[int, tuple[float, float]]:
    """World-frame target position for every member, brain included."""
    bx, by = brain_position
    c = math.cos(brain_heading)
    s = math.sin(brain_heading)
    targets = {}
    for member, (ox, oy) in formation.offsets.items():
        targets[member] = (bx + c * ox - s * oy, by + s * ox + c * oy)
    return targets


def max_formation_omega(formation: SonsFormation, v_max: float) -> float:
    """Fastest rotation rate that keeps every sampler at or under v_max."""
    r_max = max(math.hypot(*formation.offsets[sid]) for sid in formation.sampler_ids)
    if r_max == 0.0:
        return math.inf
    return v_max / r_max


def spawn_formation(
    arena: ArenaSpec,
    cfg: SimConfig,
    strategy: str,
    n_supervisors: int,
    n_samplers: int,
    rng,
) -> tuple[list[AgentState], SonsFormation, tuple[float, float], float]:
    """Place the formation at the strategy's start pose.

    sons_bs starts centered on the easternmost strip, hugging the southern
    boundary; sons_rw starts on the southeastern corner with a random
    interior-facing heading drawn from rng. Returns the agent states plus
    the brain pose.
    """
    formation = build_line_formation(n_supervisors, n_samplers, sampler_spacing=arena.cell_size)
    if formation.span > arena.side_length:
        raise ValueError("formation span exceeds the arena side")
    cx, cy = arena.center
    h = arena.half_side
    if strategy == "sons_bs":
        stride = formation.span + arena.cell_size
        brain_pos = (cx + h - stride / 2.0, cy - h + arena.cell_size / 2.0)
        brain_heading = math.pi / 2.0
    elif strategy == "sons_rw":
        brain_pos = (cx + h, cy - h)
        interior = intersect_arcs(half_plane_arc(math.pi), half_plane_arc(math.pi / 2.0))
        brain_heading = sample_arcs(interior, rng)
    else:
        raise ValueError(f"unknown formation strategy: {strategy}")
    targets = follow_formation(brain_pos, brain_heading, formation)
    agents = []
    for member in formation.all_ids:
        sampler = member in formation.sampler_ids
        agents.append(
            AgentState(
                id=member,
                position=targets[member],
                heading=brain_heading,
                altitude=cfg.sampling_altitude if sampler else cfg.supervisory_altitude,
            )
        )
    return agents, formation, brain_pos, brain_heading


@dataclass
class BrainStateBS:
    """Boustrophedon cycle: sweep, exit past the edge, sidestep, reverse."""

    phase: str = "sweep"
    sweep_dir: float = 1.0  # +1 north, -1 south
    shift_remaining: float = 0.0


@dataclass
class BrainStateRW:
    """Random-walk cycle: cruise out past the edge, maybe align, spin, resume.

    armed gates the crossing trigger: it fires once per excursion, when the
    brain is beyond the crossing depth and not getting closer to the arena.
    Approaching the arena re-arms it, as does exceeding an edge the previous
    firing did not cover (a corner graze can drift past a second edge without
    ever dipping back inside).
    """

    phase: str = "cruise"
    prev_depth: float = 0.0
    armed: bool = True
    fired_edges: frozenset = frozenset()
    theta_rand: float = 0.0
    d_rand: float = 1.0
    d_adjust: float = 1.0
    align_target: float = 0.0


class SonsController:
    """Shared plumbing: one brain decides, every member is pose-assigned."""

    clamp_to_arena = False
    pheromone = None

    def __init__(self, formation: SonsFormation, brain_pos, brain_heading):
        self.formation = formation
        self.brain_pos = brain_pos
        self.brain_heading = brain_heading

    def _emit(self, world: World, sampling_active: bool) -> list[Motion]:
        targets = follow_formation(self.brain_pos, self.brain_heading, self.formation)
        moves: list[Motion] = []
        for agent in world.agents:
            x, y = targets[agent.id]
            agent.sampling_active = sampling_active
            moves.append(PoseTarget(x, y, self.brain_heading))
        return moves


class SonsBsController(SonsController):
    """Deterministic back-and-forth sweep in abutting formation-wide strips."""

    name = "sons_bs"

    def __init__(self, formation, brain_pos, brain_heading, arena: ArenaSpec):
        super().__init__(formation, brain_pos, brain_heading)
        self.state = BrainStateBS()
        self.stride = formation.span + arena.cell_size
        self.exit_margin = 0.5

    def decide(self, world: World) -> list[Motion]:
        st = self.state
        arena = world.arena
        cfg = world.cfg
        cy = arena.center[1]
        h = arena.half_side
        x, y = self.brain_pos
        step_len = cfg.target_sampling_velocity * cfg.dt

        while True:
            if st.phase == "sweep":
                if (st.sweep_dir > 0 and y >= cy + h) or (st.sweep_dir < 0 and y <= cy - h):
                    st.phase = "exit_boundary"
                    continue
                dy = st.sweep_dir * step_len
                self.brain_pos = (x, y + dy)
                break
            if st.phase == "exit_boundary":
                beyond = (y - (cy + h)) if st.sweep_dir > 0 else ((cy - h) - y)
                if beyond >= self.exit_margin:
                    st.phase = "shift"
                    st.shift_remaining = self.stride
                    continue
                self.brain_pos = (x, y + st.sweep_dir * step_len)
                break
            if st.phase == "shift":
                if st.shift_remaining <= 1e-12:
                    st.phase = "turn"
                    if x + self.formation.span / 2.0 < arena.min_corner[0]:
                        raise SweepGeometryError(
                            "sweep shifted fully past the arena before completing coverage"
                        )
                    continue
                dx = min(step_len, st.shift_remaining)
                st.shift_remaining -= dx
                self.brain_pos = (x - dx, y)
                break
            # turn: reverse direction and resume sweeping, instantaneous
            st.sweep_dir = -st.sweep_dir
            st.phase = "sweep"

        return self._emit(world, sampling_active=True)


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
    """Random-walk brain: straight runs, boundary overshoot, randomized turns."""

    name = "sons_rw"

    crossing_depth = 0.95  # m past the boundary before turning
    exclusion_half_angle = math.radians(30.0)

    def __init__(self, formation, brain_pos, brain_heading, cfg: SimConfig, brain_rng):
        super().__init__(formation, brain_pos, brain_heading)
        self.state = BrainStateRW()
        self.omega_max = max_formation_omega(formation, cfg.target_sampling_velocity)
        self.brain_rng = brain_rng
        self.events: list[CrossingEvent] = []

    def _select_crossing(self, world: World, outside) -> None:
        st = self.state
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
        st.theta_rand = sample_arcs(admissible, self.brain_rng)
        st.d_rand = 1.0 if ccw_distance(h, st.theta_rand) <= math.pi else -1.0
        # Alignment candidates put the lateral formation axis parallel to the
        # deepest-crossed edge: heading along its inward or outward normal.
        deep_nx, deep_ny = max(outside, key=lambda e: e[1])[0]
        normal_angle = math.atan2(deep_ny, deep_nx)
        best = None
        for candidate in (normal_angle, normal_angle + math.pi):
            d_ccw = ccw_distance(h, candidate)
            dist = min(d_ccw, 2.0 * math.pi - d_ccw)
            direction = 1.0 if d_ccw <= math.pi else -1.0
            if best is None or dist < best[0]:
                best = (dist, wrap_angle(candidate), direction)
        st.align_target = best[1]
        st.d_adjust = best[2]
        aligned = st.d_rand == st.d_adjust
        st.phase = "align" if aligned else "prepare"
        self.events.append(
            CrossingEvent(
                step=world.step_count,
                entry_heading=h,
                theta_rand=st.theta_rand,
                d_rand=st.d_rand,
                d_adjust=st.d_adjust,
                aligned=aligned,
                normals=tuple(normals),
                exclusion_dropped=dropped,
            )
        )

    def _remaining(self, target: float, direction: float) -> float:
        """Angle left to turn toward target in the given rotation direction."""
        if direction > 0:
            return ccw_distance(self.brain_heading, target)
        return cw_distance(self.brain_heading, target)

    def _rotation_done(self, target: float, direction: float) -> bool:
        # the final partial step can land an ulp past the target, which reads
        # as a nearly full lap in the rotation direction
        remaining = self._remaining(target, direction)
        if remaining <= 1e-12 or remaining >= 2.0 * math.pi - 1e-9:
            self.brain_heading = wrap_angle(target)
            return True
        return False

    def _rotate_toward(self, target: float, direction: float, rate: float, dt: float) -> None:
        omega = min(rate, self._remaining(target, direction) / dt)
        self.brain_heading = wrap_angle(self.brain_heading + direction * omega * dt)

    def decide(self, world: World) -> list[Motion]:
        st = self.state
        cfg = world.cfg
        dt = cfg.dt
        arena = world.arena
        ex = max(0.0, abs(self.brain_pos[0] - arena.center[0]) - arena.half_side)
        ey = max(0.0, abs(self.brain_pos[1] - arena.center[1]) - arena.half_side)
        depth = math.hypot(ex, ey)
        outside = edges_outside(self.brain_pos, arena)
        exceeded = frozenset(n for n, _ in outside)
        if not st.armed and (depth < st.prev_depth - 1e-15 or not exceeded <= st.fired_edges):
            st.armed = True
        sampling = True
        while True:
            if st.phase == "cruise":
                if st.armed and exceeded and depth > self.crossing_depth and depth >= st.prev_depth:
                    st.armed = False
                    st.fired_edges = exceeded
                    self._select_crossing(world, outside)
                    continue
                step_len = cfg.target_sampling_velocity * dt
                x, y = self.brain_pos
                self.brain_pos = (
                    x + step_len * math.cos(self.brain_heading),
                    y + step_len * math.sin(self.brain_heading),
                )
                break
            if st.phase == "align":
                if self._rotation_done(st.align_target, st.d_adjust):
                    st.phase = "prepare"
                    continue
                self._rotate_toward(st.align_target, st.d_adjust, self.omega_max, dt)
                break
            # prepare: sampling paused, speed cap lifted
            sampling = False
            if self._rotation_done(st.theta_rand, st.d_rand):
                st.phase = "cruise"
                sampling = True
                continue
            self._rotate_toward(st.theta_rand, st.d_rand, cfg.turn_rate_default, dt)
            break

        st.prev_depth = depth
        return self._emit(world, sampling_active=sampling)


def make_sons_controller(
    strategy: str, arena: ArenaSpec, cfg: SimConfig, n_supervisors: int, n_samplers: int
) -> tuple[list[AgentState], SonsController]:
    """Spawn the formation and wire up the brain of sons_bs or sons_rw."""
    brain_rng = agent_stream(cfg.seed, 0)
    agents, formation, brain_pos, brain_heading = spawn_formation(
        arena, cfg, strategy, n_supervisors, n_samplers, brain_rng
    )
    if strategy == "sons_bs":
        controller = SonsBsController(formation, brain_pos, brain_heading, arena)
    else:
        controller = SonsRwController(formation, brain_pos, brain_heading, cfg, brain_rng)
    return agents, controller
