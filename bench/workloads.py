"""Workload table, closed-loop batch runners and output checks.

A batch is the unit of work the benchmark times: every strategy of the
workload runs `runs` seeded simulations (seeds base, base+1, ...), then each
strategy's records are summarized and exported, exactly as the CLI does. Batches
drive `harness.build_world` and `World.run` one run at a time, so that each
run's wall time is visible; `run_cli_batch` runs the same batch through
`cli.main` for the process-pool measurement.

The importing script must have put the checkout's `src` on `sys.path`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sweepsim import cli, harness, metrics
from sweepsim.decentralized import ReactionEvent

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]
    runs: int  # runs per strategy in one batch
    heatmaps: bool
    trace_batches: int  # batches in a traced run; fixed so its counts repeat
    pool: bool = False  # traced run also times batch 0 through the CLI at --jobs nproc


# Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "billiards_ldr",
            ("rb", "ldr_random", "ldr_repulsive"),
            runs=1,
            heatmaps=False,
            trace_batches=2,
        ),
        Workload(
            "pheromone",
            ("pm",),
            runs=2,
            heatmaps=False,
            trace_batches=1,
            pool=True,
        ),
        Workload(
            "formation",
            ("sons_bs", "sons_rw"),
            runs=2,
            heatmaps=True,
            trace_batches=4,
        ),
    )
}


def base_seed(seed: int, batch: int) -> int:
    """First simulation seed of a batch; seed 0 batch 0 is the CLI default (1)."""
    return 1 + seed * 1_000_000 + batch * 1_000


@dataclass
class Batch:
    """What one batch did, how long it took, and what its checks found."""

    base: int
    wall: float = 0.0
    normalized: float = 0.0  # wall time at the reference host speed; see hostspeed.py
    runs: list[tuple[str, float, int, float]] = field(default_factory=list)  # (strategy, seconds, agent-steps, factor)
    cct: dict[str, int | None] = field(default_factory=dict)  # "strategy/seed" -> CCT
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def agent_steps(self) -> int:
        return sum(steps for _, _, steps, _ in self.runs)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


# -- artifacts ----------------------------------------------------------------


def artifact_digest(out: Path) -> str:
    """SHA-256 over every exported file, keyed by its path under `out`.

    summary.json echoes the output directory and the job count; both are
    dropped before hashing, so the digest depends only on what was simulated.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            doc = json.loads(data)
            doc["config"].pop("output_dir", None)
            doc["config"].pop("jobs", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def check_record(strategy: str, record, arena) -> str | None:
    """The per-run invariants; returns what is wrong, or None."""
    if not record.complete:
        return "hit the step budget"
    fractions = record.coverage_fraction
    if len(fractions) != record.cct or fractions[-1] != 1.0:
        return "coverage series does not end at full coverage on the CCT step"
    if np.any(np.diff(fractions) < 0.0):
        return "coverage fraction decreased"
    if np.count_nonzero(record.final_visits) != arena.cell_count:
        return "non-zero cells differ from the cell count"
    if strategy == "sons_bs" and metrics.tcu(record) != 0.0:
        return "sons_bs TCU is not 0"
    return None


def event_counts(worlds) -> dict:
    """Reactions by kind, pm_choose outcomes and sons_rw crossings."""
    reactions: Counter = Counter()
    outcomes: Counter = Counter()
    crossings: Counter = Counter()
    for world in worlds:
        for event in getattr(world.controller, "events", ()):
            if isinstance(event, ReactionEvent):
                reactions[event.kind] += 1
                if event.outcome:
                    outcomes[event.outcome] += 1
            else:  # sons_rw CrossingEvent
                crossings["crossings"] += 1
                crossings["aligned"] += event.aligned
                crossings["exclusion_dropped"] += event.exclusion_dropped
    return {
        "reactions": dict(sorted(reactions.items())),
        "pm_choose": dict(sorted(outcomes.items())),
        "sons_rw": dict(sorted(crossings.items())),
    }


# -- batch runners --------------------------------------------------------------


def run_api_batch(wl: Workload, base: int, out: Path, collect_events=False, on_step=None, host=None) -> Batch:
    """One batch through build_world / World.run / summarize / export.

    collect_events and on_step are passed to build_world and World.run; the
    event counts land in `Batch.counts`. `host`, a hostspeed.Calibration, is
    sampled after every run and every export, outside the timed pieces; each
    piece's time enters `Batch.normalized` times the factor around it.
    """
    shutil.rmtree(out, ignore_errors=True)
    batch = Batch(base)
    finished = []  # (strategy, record, world), checked after the clock stops
    t = time.perf_counter()

    def lap() -> tuple[float, float]:
        nonlocal t
        seconds = time.perf_counter() - t
        factor = host.factor() if host else 1.0
        batch.wall += seconds
        batch.normalized += seconds * factor
        t = time.perf_counter()
        return seconds, factor

    for strategy in wl.strategies:
        config = harness.ExperimentConfig(
            strategy=strategy,
            runs=wl.runs,
            base_seed=base,
            heatmaps=wl.heatmaps,
            output_dir=f"results/{strategy}",
        )
        records = []
        for seed in range(base, base + wl.runs):
            batch.attempted += 1
            try:
                world = harness.build_world(config, seed, collect_events)
                record = world.run(on_step)
            except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
                lap()
                batch.cct[f"{strategy}/{seed}"] = None
                batch.fail(f"{strategy} seed {seed} raised {exc!r}")
                continue
            seconds, factor = lap()
            batch.runs.append((strategy, seconds, world.step_count * len(world.agents), factor))
            records.append(record)
            finished.append((strategy, record, world))
        if records:
            summary = metrics.summarize(records, config.arena)
            harness.export(records, summary, out / strategy, config)
        lap()

    for strategy, record, world in finished:
        batch.cct[f"{strategy}/{record.seed}"] = record.cct
        problem = check_record(strategy, record, world.arena)
        if problem:
            batch.fail(f"{strategy} seed {record.seed}: {problem}")
    batch.digest = artifact_digest(out)
    if collect_events:
        batch.counts = event_counts(w for _, _, w in finished)
    return batch


def run_cli_batch(wl: Workload, base: int, out: Path, jobs: int) -> Batch:
    """The same batch through `sweepsim --strategy S --jobs N`, one call per strategy."""
    shutil.rmtree(out, ignore_errors=True)
    batch = Batch(base)
    t0 = time.perf_counter()
    for strategy in wl.strategies:
        argv = ["--strategy", strategy, "--runs", str(wl.runs), "--seed", str(base)]
        argv += ["--jobs", str(jobs), "--out", str(out / strategy)]
        if wl.heatmaps:
            argv.append("--heatmaps")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        batch.attempted += wl.runs
        if code != 0:
            batch.failed += wl.runs
            batch.problems.append(f"sweepsim {' '.join(argv)} exited {code}")
            continue
        for row in (out / strategy / "runs.csv").read_text(encoding="utf-8").splitlines()[1:]:
            _, seed, cct = row.split(",")[:3]
            batch.cct[f"{strategy}/{seed}"] = int(cct)
    batch.wall = time.perf_counter() - t0
    batch.digest = artifact_digest(out)
    return batch
