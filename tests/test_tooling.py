"""Tooling: the suite's pytest configuration reports a failing test rather than aborting,
tools/ab_steps.py compares a checkout with itself, the package's public names resolve,
the benchmark's traced functions exist, only the arena module decides the arena's shape,
only build_world hands out the event log, only the world builds the pheromone field,
reads its layout or derives the step length, each formation name is written once,
World.step reads its run constants from its frame, the controllers decide from Senses
alone and keep no config, ExperimentConfig holds settings only, and every committed
BENCH_*.json has a row, with its seed, in README's snapshot table."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import sweepsim

ROOT = Path(__file__).resolve().parent.parent

# A failing Hypothesis test makes its plugin import libcst, which warns on
# import; with every warning an error, that used to abort the whole session.
PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_the_rest_of_the_session_running(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_every_traced_function_exists():
    # The benchmark's tracer patches owner.__dict__[attr] for each of its
    # targets; a refactor that moves one breaks the traced benchmark run.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    assert len(tracing.TARGETS) > 0


def test_ab_steps_runs_a_checkout_against_itself():
    # tools/ab_steps.py imports both checkouts under their own names and compares
    # their end states, with the decentralized controller's turn state; against
    # itself it must agree and print one ratio line per strategy.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_steps.py"), str(ROOT), str(ROOT),
         "--strategies", "sons_bs", "rb", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["sons_bs", "rb"]
    assert all(float(row[-1]) > 0.0 for row in rows)


def test_every_public_name_resolves():
    # from sweepsim import * fails on any name in __all__ the package lacks
    assert [name for name in sweepsim.__all__ if not hasattr(sweepsim, name)] == []


def test_only_the_arena_and_the_cli_read_the_square_side():
    # ArenaSpec.extents decides the arena's shape; a module that reads side_length or
    # half_side directly assumes a square. Only arena.py, which derives extents, and
    # cli.py, which builds an ArenaSpec from --arena-side, may.
    allowed = {"arena.py", "cli.py"}
    readers = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "sweepsim").glob("*.py"))
        if path.name not in allowed
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"\.(side_length|half_side)\b", line)
    ]
    assert readers == []


def test_only_build_world_hands_out_the_event_log():
    # build_world sets a controller's events to a list under collect_events; a
    # controller or factory that takes the flag itself is a second switch.
    readers = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "sweepsim").glob("*.py"))
        if path.name != "harness.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "collect_events" in line
    ]
    assert readers == []


def test_only_the_world_builds_the_pheromone_field():
    # World builds the field over its own grid, the one it deposits into; a field
    # built anywhere else can be sized for another grid than the one indexing it.
    readers = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "sweepsim").glob("*.py"))
        if path.name != "world.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "PheromoneField(" in line
    ]
    assert readers == []


def test_only_the_world_reads_the_pheromone_layout():
    # The field's padded slots, read offsets and lazy evaporation are its layout;
    # a module that reads its underscored names keeps a second copy of that layout.
    from sweepsim.arena import ArenaSpec
    from sweepsim.world import PheromoneField

    private = {
        name for name in (*vars(PheromoneField), *vars(PheromoneField(ArenaSpec())))
        if name.startswith("_") and not name.startswith("__")
    }
    assert {"_slots", "_until", "_sense_offsets"} <= private
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted((ROOT / "src" / "sweepsim").glob("*.py"))
        if path.name != "world.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert found == []


def test_only_the_world_derives_the_step_length():
    # SimConfig.step_length is target_sampling_velocity times dt; a module that
    # multiplies them itself keeps a second copy of the cruise step.
    readers = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "sweepsim").glob("*.py"))
        if path.name != "world.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"target_sampling_velocity\b.*\*.*\bdt\b|\bdt\b.*\*.*target_sampling_velocity", line)
    ]
    assert readers == []


def test_each_formation_name_is_written_once():
    # A brain's name labels its runs and keys FORMATIONS, which STRATEGIES lists;
    # the same literal anywhere else is a second roster that can drift from it.
    from sweepsim.decentralized import ADD_ON
    from sweepsim.harness import STRATEGIES
    from sweepsim.sons import FORMATIONS

    found = []
    for path in sorted((ROOT / "src" / "sweepsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        brain_names = {  # the values of a class body's `name = ...`
            id(node.value)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.Assign) and ast.dump(node.targets[0]) == ast.dump(ast.Name("name", ast.Store()))
        }
        found += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("sons_bs", "sons_rw")
            and id(node) not in brain_names
        ]
    assert found == []
    assert STRATEGIES == tuple(ADD_ON) + tuple(FORMATIONS)


def test_world_step_reads_its_frame_not_the_arena_or_config():
    # World.__init__ derives what a step needs of the arena and the config once,
    # into frame; a step that reads them again derives it anew every step.
    tree = ast.parse((ROOT / "src" / "sweepsim" / "world.py").read_text(encoding="utf-8"))
    world = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "World")
    step = next(node for node in world.body if isinstance(node, ast.FunctionDef) and node.name == "step")
    found = [
        f"world.py:{node.lineno}: self.{node.attr}"
        for node in ast.walk(step)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self" and node.attr in ("arena", "cfg")
    ]
    assert found == []


def test_controllers_decide_from_senses_not_the_world():
    # decide reads only the Senses record, whose fields each name the sensor they
    # stand for; importing World or reading a world's attributes would reach
    # readings that no field accounts for.
    found = []
    for name in ("decentralized.py", "sons.py"):
        tree = ast.parse((ROOT / "src" / "sweepsim" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(alias.name == "World" for alias in node.names):
                found.append(f"{name}:{node.lineno}: imports World")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "world":
                found.append(f"{name}:{node.lineno}: world.{node.attr}")
    assert found == []


def test_controllers_keep_no_config():
    # Each controller derives its run constants from the config once, in __init__;
    # one that keeps the config reads its fields anew on every decide.
    found = [
        f"{name}:{node.lineno}: self.cfg"
        for name in ("decentralized.py", "sons.py")
        for node in ast.walk(ast.parse((ROOT / "src" / "sweepsim" / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self" and node.attr == "cfg"
    ]
    assert found == []


def test_experiment_config_holds_settings_only():
    # __post_init__ checks the settings; a rule derived from them, such as the
    # SoNS roster, belongs to the module that uses it.
    tree = ast.parse((ROOT / "src" / "sweepsim" / "harness.py").read_text(encoding="utf-8"))
    config = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    methods = [
        f"harness.py:{node.lineno}: {node.name}"
        for node in config.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "__post_init__"
    ]
    assert methods == []


def test_every_snapshot_has_a_row_in_the_readme_table():
    # README's snapshot table is how a reader finds which parent and seed a
    # committed BENCH_*.json compared; each row's seed must be the file's.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(BENCH_\d+\.json)` \| [0-9a-f]{7,} \| (\d+) \|", readme, re.MULTILINE))
    snapshots = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert snapshots
    assert [name for name in snapshots if name not in rows] == []
    seeds = {name: json.loads((ROOT / name).read_text(encoding="utf-8"))["seed"] for name in snapshots}
    assert {name: int(rows[name]) for name in snapshots} == seeds
