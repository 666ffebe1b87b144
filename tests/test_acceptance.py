"""Acceptance suite: the benchmark's exit criteria at full scale.

Runs the complete 6-strategy x 30-run sweep at the default configuration
(40 m arena, 25 UAVs, seeds 1..30) once per session and checks every
criterion at its stated tolerance, printing one PASS/FAIL line per check.

Two sub-asserts are expected to fail under this kinematic implementation and
are covered by the decisions ledger: the random-walk formation's mean
completion time does not undercut the fastest decentralized mean by the
required 15 percent margin, and plain random billiards does not show the
largest uniformity spread. Both are second-order consequences of UAV flight
dynamics that are out of scope here; the asserts are implemented faithfully
rather than loosened.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest

import run_digests
from audits import audit_rw, crossing_target_ok, faces_inward, inside_arena, reactions_with_windows
from oracles import mad_about_median_oracle, pheromone_snapshot, pm_probabilities
from sweepsim.harness import (
    DECENTRALIZED,
    STRATEGIES,
    ExperimentConfig,
    build_world,
    export,
    run_experiment,
)
from sweepsim.metrics import tcu, uniformity
from sweepsim.world import SPEED_EPS, SimConfig

RUNS = 30
BASE_SEED = 1


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def sweep():
    """The full 6 x 30 sweep; records and summaries keyed by strategy."""
    jobs = os.cpu_count() or 1
    out = {}
    for strategy in STRATEGIES:
        config = ExperimentConfig(strategy=strategy, runs=RUNS, base_seed=BASE_SEED)
        records, summary = run_experiment(config, min(jobs, RUNS))
        out[strategy] = (records, summary)
    return out


def test_every_sweep_run_matches_its_pinned_digest(sweep):
    records = [record for records, _ in sweep.values() for record in records]
    current = run_digests.digests(records)
    assert run_digests.mismatches(run_digests.pinned()["default"], current) == []


# -- criterion 1: deterministic sweep exactness -------------------------------


def test_c1_sweep_exactness(sweep):
    records, summary = sweep["sons_bs"]
    every_cell_once = all(
        r.final_visits.min() == 1 and r.final_visits.max() == 1 for r in records
    )
    assert _report("C1 sweep: every in-arena cell visited exactly once", every_cell_once)
    assert _report("C1 sweep: TCU = 0 for every run", all(tcu(r) == 0.0 for r in records))
    assert _report(
        "C1 sweep: LCU = 0 for every run",
        summary.mean_lcu == 0.0 and summary.sd_lcu == 0.0,
    )
    assert _report(
        "C1 sweep: CCT identical across 30 seeds (SD = 0)",
        summary.sd_cct == 0.0,
        f"cct={summary.mean_cct:.0f}",
    )


# -- criterion 2: completion-time ordering ------------------------------------


def test_c2_rw_beats_every_decentralized_mean(sweep):
    rw = sweep["sons_rw"][1].mean_cct
    means = {s: sweep[s][1].mean_cct for s in DECENTRALIZED}
    ok = all(rw < m for m in means.values())
    assert _report(
        "C2 ordering: mean CCT(random-walk formation) below every decentralized mean",
        ok,
        f"rw={rw:.0f} vs {sorted(round(m) for m in means.values())}",
    )


def test_c2_pm_is_slowest_decentralized(sweep):
    means = {s: sweep[s][1].mean_cct for s in DECENTRALIZED}
    ok = means["pm"] == max(means.values())
    assert _report(
        "C2 ordering: PM has the largest decentralized mean CCT",
        ok,
        f"pm={means['pm']:.0f} vs {sorted(round(m) for m in means.values())}",
    )


def test_c2_rw_margin_15_percent(sweep):
    rw = sweep["sons_rw"][1].mean_cct
    floor = min(sweep[s][1].mean_cct for s in DECENTRALIZED)
    ratio = rw / floor
    assert _report(
        "C2 margin: mean CCT(random-walk formation) <= 0.85 x fastest decentralized",
        ratio <= 0.85,
        f"ratio={ratio:.3f}",
    )


def test_c2_all_runs_complete(sweep):
    incomplete = {s: sweep[s][1].incomplete_runs for s in STRATEGIES}
    assert _report(
        "C2 scale: every run completes within the step budget",
        all(v == 0 for v in incomplete.values()),
        str(incomplete),
    )


# -- criterion 3: uniformity ordering ------------------------------------------


def test_c3_tcu_ordering(sweep):
    tcus = {s: sweep[s][1].mean_tcu for s in STRATEGIES}
    chain = tcus["sons_rw"] > tcus["pm"] > max(
        tcus["ldr_repulsive"], tcus["ldr_random"], tcus["rb"]
    )
    assert _report(
        "C3 uniformity: mean TCU rw > pm > each of {ldr_repulsive, ldr_random, rb}",
        chain,
        ", ".join(f"{s}={tcus[s]:.3f}" for s in ("sons_rw", "pm", "ldr_repulsive", "ldr_random", "rb")),
    )


def test_c3_lcu_ordering(sweep):
    lcus = {s: sweep[s][1].mean_lcu for s in STRATEGIES}
    chain = lcus["sons_rw"] > lcus["pm"] > max(
        lcus["ldr_repulsive"], lcus["ldr_random"], lcus["rb"]
    )
    assert _report(
        "C3 uniformity: mean LCU rw > pm > each of {ldr_repulsive, ldr_random, rb}",
        chain,
        ", ".join(f"{s}={lcus[s]:.3f}" for s in ("sons_rw", "pm", "ldr_repulsive", "ldr_random", "rb")),
    )


def test_c3_rb_has_largest_sd_tcu(sweep):
    sds = {s: sweep[s][1].sd_tcu for s in DECENTRALIZED}
    assert _report(
        "C3 spread: RB has the largest SD-TCU among decentralized",
        sds["rb"] == max(sds.values()),
        ", ".join(f"{s}={v:.3f}" for s, v in sds.items()),
    )


# -- criterion 4: total-to-local uniformity ratio ------------------------------


def test_c4_ratio_ordering(sweep):
    ratios = {s: sweep[s][1].tcu_lcu_ratio for s in ("sons_rw",) + DECENTRALIZED}
    ok = all(ratios["sons_rw"] > ratios[s] for s in DECENTRALIZED)
    assert _report(
        "C4 ratio: TCU/LCU for the random-walk formation exceeds every decentralized ratio",
        ok,
        ", ".join(f"{s}={v:.3f}" for s, v in ratios.items()),
    )


# -- criterion 5: uniformity-metric oracle -------------------------------------


def test_c5_uniformity_matches_bruteforce_oracle():
    rng = np.random.default_rng(990)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 401))
        counts = rng.integers(0, 11, size=n)
        worst = max(worst, abs(uniformity(counts) - mad_about_median_oracle(counts.tolist())))
    assert _report(
        "C5 metric oracle: rho matches brute-force MAD-about-median on 1000 grids",
        worst <= 1e-12,
        f"max |diff|={worst:.2e}",
    )


# -- criterion 6: pheromone probability identity --------------------------------


def test_c6_probability_identity_exact():
    rng = np.random.default_rng(991)
    ok = True
    for _ in range(100_000):
        a, l, r = rng.uniform(0.0, 100.0, size=3)
        p_a, p_r, p_l = pm_probabilities(a, l, r)
        if p_a + p_r + p_l != 1:
            ok = False
            break
        if not all(Fraction(0) <= p <= Fraction(1, 2) for p in (p_a, p_r, p_l)):
            ok = False
            break
    assert _report(
        "C6 pheromone: p_A + p_R + p_L = 1 exactly and each p in [0, 1/2] (1e5 readings)", ok
    )


def test_c6_field_nonnegative_over_full_run(sweep):
    config = ExperimentConfig(strategy="pm", runs=1, base_seed=BASE_SEED)
    world = build_world(config, seed=BASE_SEED)
    ok = True

    def check(w):
        nonlocal ok
        if w.step_count % 500 == 0 and (pheromone_snapshot(w.pheromone, w.step_count) < 0.0).any():
            ok = False

    record = world.run(on_step=check)
    ok = ok and (pheromone_snapshot(world.pheromone, world.step_count) >= 0.0).all()
    assert _report(
        "C6 pheromone: field non-negative over a full PM run",
        ok and record.complete,
        f"cct={record.cct}",
    )


# -- criterion 7: formation invariants ------------------------------------------


def test_c7_random_walk_formation_invariants():
    world, record, audit = audit_rw(BASE_SEED)
    assert _report(
        "C7 formation: rigidity within 1e-9 m across all phases",
        record.complete and audit.max_rigidity_error <= 1e-9,
        f"max drift={audit.max_rigidity_error:.2e}",
    )
    assert _report(
        "C7 formation: zero visit increments during preparation spins",
        audit.prepare_visits == 0,
    )
    events = world.controller.events
    assert _report(
        "C7 formation: every turn target interior-facing and >= 30 deg from reversed heading",
        bool(events) and all(crossing_target_ok(e) for e in events),
        f"crossings={len(events)}",
    )
    assert _report(
        "C7 formation: align-phase sampler speeds <= 1 + 1e-9 m/s",
        audit.max_align_speed <= 1.0 + SPEED_EPS,
        f"max={audit.max_align_speed:.12f}",
    )


# -- criterion 8: byte-identical artifacts --------------------------------------


def test_c8_determinism_byte_identical(tmp_path):
    def invoke(out):
        config = ExperimentConfig(
            strategy="rb",
            runs=2,
            base_seed=BASE_SEED,
            sim=SimConfig(max_steps=2000),
            output_dir=str(out),
            heatmaps=True,
        )
        records, summary = run_experiment(config)
        export(records, summary, out, config)

    invoke(tmp_path / "a")
    invoke(tmp_path / "b")
    same = True
    for name in ("runs.csv", "cpr.csv", "heatmap_000.csv", "heatmap_001.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            same = False
    summaries = []
    for sub in ("a", "b"):
        text = (tmp_path / sub / "summary.json").read_text(encoding="utf-8")
        summaries.append(text.replace(str(tmp_path / sub), "OUT"))
    same = same and summaries[0] == summaries[1]
    assert _report("C8 determinism: identical configs produce byte-identical artifacts", same)


# -- criterion 9: behavioral trace audits ---------------------------------------


def test_c9_trace_audits():
    config = ExperimentConfig(strategy="rb", runs=1, base_seed=BASE_SEED)
    world = build_world(config, seed=BASE_SEED, collect_events=True)
    inside = True

    def check_inside(w):
        nonlocal inside
        inside = inside and inside_arena(w)

    record = world.run(on_step=check_inside)
    assert _report(
        "C9 audit: no decentralized agent outside the arena at any step end",
        inside and record.complete,
        f"cct={record.cct}",
    )
    assert _report(
        "C9 audit: the boundary clamp safety net never fires",
        world.clamp_count == 0,
    )
    boundary = [e for e in world.controller.events if e.kind == "boundary"]
    assert _report(
        "C9 audit: boundary reflections always interior-pointing over a full RB run",
        bool(boundary) and all(faces_inward(e.target, e.normals) for e in boundary),
        f"reactions={len(boundary)}",
    )

    config = ExperimentConfig(strategy="ldr_random", runs=1, base_seed=BASE_SEED)
    density = reactions_with_windows(build_world(config, seed=BASE_SEED, collect_events=True), "density")
    inside_window = sum(e.step <= quiet_until for e, quiet_until in density)
    assert _report(
        "C9 audit: no density reaction fires inside a suppression window",
        bool(density) and inside_window == 0,
        f"reactions={len(density)}, inside a window={inside_window}",
    )
