"""Outside-in span tracing of sweepsim's layers.

The tracer replaces public functions and methods of sweepsim's modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans stay in flat arrays until the run ends.
A span's self time is its duration minus the durations of its direct
children. Nothing inside the program changes, so a layer that one public
function spans (such as `DecentralizedController.decide`, which holds the
pairwise scan, the boundary lookahead and the LDR density check) reads as a
single self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np

from sweepsim import harness, metrics, sons, world
from sweepsim import decentralized as dz


def _export_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (owner, attribute, span name, tally): every public function the traced
# batches reach, patched on the namespace its caller looks it up in. A tally
# maps a call's result to a number summed per span name, such as 1 for an
# avoidance turn that fired.
TARGETS = (
    (world.World, "run", "world.run", None),
    (world.World, "step", "world.step", None),
    (dz.DecentralizedController, "decide", "decentralized.decide", None),
    (dz, "avoidance_turn", "decentralized.avoidance_turn", lambda r: r is not None),
    (dz, "boundary_escape_heading", "decentralized.boundary_escape_heading", None),
    (dz, "repulsive_escape", "decentralized.repulsive_escape", None),
    (dz, "pm_sense", "decentralized.pm_sense", None),
    (dz, "pm_choose", "decentralized.pm_choose", lambda r: r != "no_reaction"),
    (dz.PheromoneField, "deposit", "decentralized.PheromoneField.deposit", None),
    (dz, "sample_arcs", "angles.sample_arcs", None),
    (sons, "sample_arcs", "angles.sample_arcs", None),
    (sons.SonsBsController, "decide", "sons.decide", None),
    (sons.SonsRwController, "decide", "sons.decide", None),
    (sons, "follow_formation", "sons.follow_formation", None),
    (harness, "build_world", "harness.build_world", None),
    (harness, "place_decentralized", "harness.place_decentralized", None),
    (metrics, "summarize", "metrics.summarize", None),
    (harness, "cpr", "metrics.cpr", None),  # export calls cpr through harness
    (harness, "export", "harness.export", _export_bytes),
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tally: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, tally=None):
        """Return fn wrapped so that every call records a span called name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.tally[name] = 0
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tallies = self.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Trace every TARGETS entry for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, tally in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, tally))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own_total = np.bincount(name, weights=own, minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(own_total[i]))
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Save every span (name index, parent index, start, end) with the names."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


class StepCounter:
    """`World.run(on_step=...)` callback counting steps, agent-steps and visits."""

    def __init__(self):
        self.steps = 0
        self.agent_steps = 0
        self.visits = 0

    def __call__(self, w) -> None:
        self.steps += 1
        self.agent_steps += len(w.agents)
        self.visits += len(w.visit_events)


def layer_metrics(
    tracer: Tracer,
    steps: StepCounter,
    counts: dict,
    overhead_s: float,
    untraced_s: float,
    efficiency: float,
    idle: float,
) -> dict[str, float]:
    """The per-layer metric values of one traced run, by name.

    Layers that do not run on a workload read 0; `counts` is the event count
    block of the traced batches.
    """
    layers = tracer.layers()

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def per_call_us(name):
        n, total, _ = layers.get(name, (0, 0.0, 0.0))
        return 1e6 * total / n if n else 0.0

    def per_call_s(name):
        return per_call_us(name) / 1e6

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    agent_steps = max(steps.agent_steps, 1)
    reactions = counts.get("reactions", {})
    avoid = calls("decentralized.avoidance_turn")
    choose = calls("decentralized.pm_choose")
    exports = calls("harness.export")
    values = {
        "world.step.self_us_per_agent_step": 1e6 * self_s("world.step") / agent_steps,
        "world.run.self_us_per_step": 1e6 * self_s("world.run") / max(steps.steps, 1),
        "world.agent_steps": steps.agent_steps,
        "world.visits_per_agent_step": steps.visits / agent_steps,
        "decentralized.decide.self_us_per_agent_step": 1e6 * self_s("decentralized.decide") / agent_steps,
        "decentralized.avoidance_turn.calls": avoid,
        "decentralized.avoidance_turn.us_per_call": per_call_us("decentralized.avoidance_turn"),
        "decentralized.avoidance_turn.hit_ratio": (
            tracer.tally.get("decentralized.avoidance_turn", 0) / avoid if avoid else 0.0
        ),
        "decentralized.boundary_escape_heading.calls": calls("decentralized.boundary_escape_heading"),
        "decentralized.boundary_escape_heading.us_per_call": per_call_us(
            "decentralized.boundary_escape_heading"
        ),
        "decentralized.repulsive_escape.calls": calls("decentralized.repulsive_escape"),
        "decentralized.pm_sense.calls": calls("decentralized.pm_sense"),
        "decentralized.pm_sense.us_per_call": per_call_us("decentralized.pm_sense"),
        "decentralized.pm_choose.react_ratio": (
            tracer.tally.get("decentralized.pm_choose", 0) / choose if choose else 0.0
        ),
        "decentralized.PheromoneField.deposit.calls": calls("decentralized.PheromoneField.deposit"),
        "decentralized.PheromoneField.deposit.us_per_call": per_call_us(
            "decentralized.PheromoneField.deposit"
        ),
        "angles.sample_arcs.calls": calls("angles.sample_arcs"),
        "angles.sample_arcs.us_per_call": per_call_us("angles.sample_arcs"),
        "sons.decide.us_per_step": per_call_us("sons.decide"),
        "sons.follow_formation.us_per_call": per_call_us("sons.follow_formation"),
        "sons.crossings": counts.get("sons_rw", {}).get("crossings", 0),
        "harness.build_world.s": per_call_s("harness.build_world"),
        "harness.place_decentralized.s": per_call_s("harness.place_decentralized"),
        "metrics.summarize.s": per_call_s("metrics.summarize"),
        "metrics.cpr.s": per_call_s("metrics.cpr"),
        "harness.export.s": per_call_s("harness.export"),
        "harness.export.bytes": tracer.tally.get("harness.export", 0) / exports if exports else 0.0,
        "harness.pool.efficiency": efficiency,
        "harness.pool.idle_frac": idle,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / untraced_s,
    }
    for kind in ("boundary", "avoid_short", "avoid_medium", "density", "pheromone"):
        values[f"decentralized.reactions.{kind}"] = reactions.get(kind, 0)
    return values
