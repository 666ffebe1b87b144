"""Per-step audits that the acceptance criteria and the unit suite share.

Each is written once: the formation monitor of a sons_rw run, the check of
one sons_rw crossing target, the inside-the-arena and inward-heading checks,
the pairing of each reaction with its agent's quiet window, and the
whole-grid check of the pheromone sense against its bounds-checked
reference. Nothing in the package uses them.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from oracles import flat_index, pheromone_level, pm_sense_reference
from sweepsim.arena import ArenaSpec
from sweepsim.harness import ExperimentConfig, build_world
from sweepsim.world import PheromoneField, SimConfig, pm_sense

# The 8 compass headings, the 22.5 degree rounding boundaries between them,
# and the nearest floats either side of each.
SENSE_HEADINGS = [
    h
    for boundary in (j * math.pi / 8.0 for j in range(16))
    for h in (math.nextafter(boundary, -math.inf), boundary, math.nextafter(boundary, math.inf))
]


def inside_arena(world) -> bool:
    """Whether every agent's position lies within the arena's corners."""
    (minx, miny), (maxx, maxy) = world.arena.min_corner, world.arena.max_corner
    return all(minx <= x <= maxx and miny <= y <= maxy for x, y in zip(world.xs, world.ys))


def faces_inward(theta: float, normals) -> bool:
    """Whether heading theta points into the arena across every edge whose inward normal is given."""
    dx, dy = math.cos(theta), math.sin(theta)
    return all(dx * nx + dy * ny > 0.0 for nx, ny in normals)


def crossing_target_ok(event) -> bool:
    """A sons_rw crossing target faces inward and lies >= 30 deg from the reversed heading.

    An event whose exclusion cone was dropped is held to neither.
    """
    if event.exclusion_dropped:
        return True
    reciprocal = event.entry_heading + math.pi
    gap = abs(math.remainder(event.theta_rand - reciprocal, 2 * math.pi))
    return faces_inward(event.theta_rand, event.normals) and gap >= math.radians(30.0) - 1e-9


class AuditRW:
    """Per-step invariant monitor for a random-walk run, passed to World.run as on_step.

    It tracks the largest drift of any pairwise member distance from step 1,
    the largest sampler jump speed in the align phase, the visits scored in
    the prepare phase, the brain's and any member's largest depth outside the
    arena, the phases seen, and the sampling state of the last command.
    """

    def __init__(self, world):
        self.controller = world.controller
        self.formation = world.controller.formation
        self.base = None
        self.max_rigidity_error = 0.0
        self.max_align_speed = 0.0
        self.prepare_visits = 0
        self.phases_seen = set()
        self.max_member_excess = 0.0
        self.max_brain_depth = 0.0
        self.before = list(zip(world.xs, world.ys))
        self.sampling = None
        decide = self.controller.decide

        def recorded(senses, step):
            command = decide(senses, step)
            self.sampling = command.sampling_active
            return command

        self.controller.decide = recorded

    def __call__(self, world):
        phase = self.controller.phase
        self.phases_seen.add(phase)
        positions = list(zip(world.xs, world.ys))
        before, self.before = self.before, positions
        pairs = list(itertools.combinations(range(len(positions)), 2))
        dists = {(i, j): math.dist(positions[i], positions[j]) for i, j in pairs}
        if self.base is None:
            self.base = dists
        else:
            for key, d in dists.items():
                self.max_rigidity_error = max(self.max_rigidity_error, abs(d - self.base[key]))
        if phase == "align":
            # each sampler's speed as World.step gates it: the distance jumped over dt
            for i in self.formation.sampler_ids:
                (x, y), (px, py) = positions[i], before[i]
                speed = math.hypot(x - px, y - py) / world.cfg.dt
                self.max_align_speed = max(self.max_align_speed, speed)
        if phase == "prepare":
            self.prepare_visits += len(world.visit_events)
        cx, cy = world.arena.center
        hx, hy = world.arena.half_extents

        def depth(x, y):
            return math.hypot(max(0.0, abs(x - cx) - hx), max(0.0, abs(y - cy) - hy))

        self.max_brain_depth = max(self.max_brain_depth, depth(*positions[0]))
        for x, y in positions:
            self.max_member_excess = max(self.max_member_excess, depth(x, y))


def audit_rw(seed, arena=ArenaSpec()):
    """Run one default sons_rw world to completion under AuditRW; returns (world, record, audit)."""
    config = ExperimentConfig(strategy="sons_rw", runs=1, arena=arena, sim=SimConfig())
    world = build_world(config, seed=seed, collect_events=True)
    audit = AuditRW(world)
    record = world.run(on_step=audit)
    return world, record, audit


def reactions_with_windows(world, kind, steps=None):
    """Step world steps times, or with None run it to completion; pair each new
    reaction of kind with its agent's quiet_until as it stood before that step."""
    controller = world.controller
    paired = []
    quiet = list(controller.quiet_until)
    seen = len(controller.events)

    def pair(w):
        nonlocal quiet, seen
        paired.extend((e, quiet[e.agent_id]) for e in controller.events[seen:] if e.kind == kind)
        seen = len(controller.events)
        quiet = list(controller.quiet_until)

    if steps is None:
        world.run(on_step=pair)
    else:
        for _ in range(steps):
            world.step()
            pair(world)
    return paired


def pm_sense_mismatches(arena: ArenaSpec, seed: int) -> list:
    """Sense every cell of a seeded field at each of SENSE_HEADINGS; return each
    (cell, heading) at which pm_sense and pm_sense_reference disagree.

    The field takes 3000 deposits at random cells over steps 1 to 7999 and is
    read at step 8000, so some cells hold pheromone and some have run out.
    """
    rng = np.random.default_rng(seed)
    field = PheromoneField(arena)
    for step in np.sort(rng.integers(1, 8000, size=3000)):
        field.deposit(int(rng.integers(arena.cell_count)), int(step))
    level = partial(pheromone_level, field)
    return [
        (cell, heading)
        for cell in ((col, row) for row in range(arena.rows) for col in range(arena.cols))
        for heading in SENSE_HEADINGS
        if pm_sense(field, 8000, flat_index(cell, arena), heading)
        != pm_sense_reference(level, 8000, cell, heading, arena)
    ]
