"""Placement, batch execution, export formats, and the CLI."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import run_digests
import sweepsim
from oracles import place_decentralized_reference
from sweepsim.arena import ArenaSpec
from sweepsim.cli import main
from sweepsim.harness import (
    ExperimentConfig,
    PlacementSpec,
    export,
    place_decentralized,
    run_experiment,
)
from sweepsim.world import SimConfig, harness_stream

ARENA = ArenaSpec()
CFG = SimConfig()


class TestPlacement:
    def test_default_batch_fits_region_and_spacing(self):
        spec = PlacementSpec()
        agents = place_decentralized(spec, 25, ARENA, CFG, harness_stream(1))
        assert len(agents) == 25
        for agent in agents:
            x, y = agent.position
            assert -10.0 <= x <= 10.0
            assert -20.0 <= y <= -17.0
            assert 0.0 <= agent.heading <= math.pi
            assert agent.altitude == CFG.sampling_altitude
        for i, a in enumerate(agents):
            for b in agents[i + 1 :]:
                assert math.dist(a.position, b.position) >= spec.min_spacing - 1e-12

    def test_single_agent(self):
        agents = place_decentralized(PlacementSpec(), 1, ARENA, CFG, harness_stream(2))
        assert len(agents) == 1

    def test_pigeonhole_infeasible(self):
        with pytest.raises(RuntimeError, match="placement infeasible"):
            place_decentralized(
                PlacementSpec(min_spacing=10.0), 25, ARENA, CFG, harness_stream(1)
            )

    def test_deterministic_given_stream(self):
        a = place_decentralized(PlacementSpec(), 25, ARENA, CFG, harness_stream(5))
        b = place_decentralized(PlacementSpec(), 25, ARENA, CFG, harness_stream(5))
        assert [p.position for p in a] == [p.position for p in b]
        assert [p.heading for p in a] == [p.heading for p in b]

    def test_start_box_wider_than_arena_rejected(self):
        small = ArenaSpec(side_length=10.0, region_size=10.0)
        with pytest.raises(ValueError, match="20 m x 3 m .* 10 m arena"):
            place_decentralized(PlacementSpec(), 25, small, CFG, harness_stream(1))

    def test_many_seeds_succeed(self):
        for seed in range(40):
            agents = place_decentralized(PlacementSpec(), 25, ARENA, CFG, harness_stream(seed))
            assert len(agents) == 25


def placement_outcome(place, spec, n, seed):
    """Positions and headings as float.hex strings, or the error's type and message."""
    try:
        agents = place(spec, n, ARENA, CFG, harness_stream(seed))
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(a.position[0].hex(), a.position[1].hex(), a.heading.hex()) for a in agents]


class TestBlockSampler:
    # Small stall and reject budgets, so that scrapped layouts and the
    # budget error both occur.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        width=st.floats(1.0, 30.0),
        depth=st.floats(0.5, 10.0),
        min_spacing=st.floats(0.2, 2.0),
        stall_rejects=st.integers(1, 60),
        max_rejects=st.integers(0, 1500),
    )
    @example(seed=2, n=6, width=3.0, depth=2.0, min_spacing=1.0, stall_rejects=5, max_rejects=300)
    @example(seed=0, n=6, width=3.0, depth=2.0, min_spacing=1.0, stall_rejects=5, max_rejects=300)
    # the reject that spends the budget is also the one that scraps the layout
    @example(seed=0, n=3, width=2.0, depth=1.0, min_spacing=1.0, stall_rejects=3, max_rejects=5)
    @example(seed=1, n=25, width=20.0, depth=3.0, min_spacing=1.5, stall_rejects=2000, max_rejects=100_000)
    def test_matches_dart_throwing_loop_bit_for_bit(
        self, seed, n, width, depth, min_spacing, stall_rejects, max_rejects
    ):
        spec = PlacementSpec(
            width=width,
            depth=depth,
            min_spacing=min_spacing,
            stall_rejects=stall_rejects,
            max_rejects=max_rejects,
        )
        assert placement_outcome(place_decentralized, spec, n, seed) == placement_outcome(
            place_decentralized_reference, spec, n, seed
        )


class TestPlacementSpec:
    @pytest.mark.parametrize("name", ["width", "depth", "min_spacing"])
    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
    def test_lengths_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            PlacementSpec(**{name: value})

    @pytest.mark.parametrize("name", ["width", "depth", "min_spacing"])
    def test_lengths_reject_bools(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            PlacementSpec(**{name: True})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("stall_rejects", 2.5),
            ("stall_rejects", True),
            ("stall_rejects", 3.0),
            ("max_rejects", 1.5),
            ("max_rejects", True),
            ("max_rejects", 100.0),
        ],
    )
    def test_reject_budgets_are_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PlacementSpec(**{name: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_stall_rejects_at_least_one(self, value):
        with pytest.raises(ValueError, match="stall_rejects must be at least 1"):
            PlacementSpec(stall_rejects=value)

    def test_max_rejects_non_negative(self):
        with pytest.raises(ValueError, match="max_rejects must be non-negative"):
            PlacementSpec(max_rejects=-1)
        assert PlacementSpec(max_rejects=0).max_rejects == 0

    def test_defaults_unchanged(self):
        spec = PlacementSpec()
        assert (spec.width, spec.depth, spec.min_spacing) == (20.0, 3.0, 1.5)
        assert (spec.max_rejects, spec.stall_rejects) == (100_000, 2_000)


class TestRunDigests:
    def test_off_default_runs_match_their_pinned_digests(self):
        current = run_digests.run_matrix()
        assert run_digests.mismatches(run_digests.pinned()["matrix"], current) == []


class TestExperimentConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(strategy="quadtree")

    def test_role_split(self):
        cfg = ExperimentConfig(strategy="sons_bs")
        assert cfg.split_roles() == (5, 20)
        assert ExperimentConfig(strategy="sons_bs", n_uavs=10).split_roles() == (2, 8)

    def test_runs_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(strategy="rb", runs=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig(strategy="rb", jobs=jobs)

    @pytest.mark.parametrize("option", ["dt", "target_sampling_velocity", "turn_rate_default"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sim_non_finite_rejected(self, option, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SimConfig(**{option: value})

    @pytest.mark.parametrize("value", [0.0, -0.0, -math.pi / 6.0])
    def test_turn_rate_not_positive_rejected(self, value):
        # no in-place turn could ever end
        with pytest.raises(ValueError, match="turn_rate_default must be positive and finite"):
            SimConfig(turn_rate_default=value)

    @pytest.mark.parametrize("option", ["sampling_altitude", "supervisory_altitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_altitude_non_finite_rejected(self, option, value):
        # a nan sampling altitude scored no visit and ran to the step budget
        with pytest.raises(ValueError, match=f"{option} must be finite"):
            SimConfig(**{option: value})

    @pytest.mark.parametrize("value", [2.5, 300.0, True, "300", None])
    def test_max_steps_not_an_integer_rejected(self, value):
        # 2.5 ran 3 steps and True ran 1
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            SimConfig(max_steps=value)

    @pytest.mark.parametrize("option", ["runs", "n_uavs", "jobs", "base_seed"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_counts_not_an_integer_rejected(self, option, value):
        # n_uavs=True ran a one-agent swarm; 1.5 failed deep in a run, or not at all
        with pytest.raises(ValueError, match=f"{option} must be an integer"):
            ExperimentConfig(strategy="rb", **{option: value})

    def test_building_a_world_leaves_the_process_pool_unimported(self):
        code = (
            "import sys, sweepsim\n"
            "sweepsim.build_world(sweepsim.ExperimentConfig('sons_bs', runs=1), 1)\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sweepsim.__file__).parent.parent)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            ExperimentConfig(strategy="rb", base_seed=-1)
        assert ExperimentConfig(strategy="rb", base_seed=0).base_seed == 0

    def test_step_longer_than_cell_rejected(self):
        with pytest.raises(ValueError, match=r"step length 2 m .* exceeds the cell size 1 m"):
            ExperimentConfig(strategy="rb", sim=SimConfig(dt=2.0))
        with pytest.raises(ValueError, match=r"step length 0\.5 m .* cell size 0\.25 m"):
            ExperimentConfig(strategy="pm", arena=ArenaSpec(cell_size=0.25), sim=SimConfig(dt=0.5))
        # a step of exactly one cell still scores every cell it enters
        ExperimentConfig(strategy="rb", sim=SimConfig(dt=1.0))


def small_config(strategy="rb", runs=2, max_steps=600, heatmaps=False, out="results", jobs=1):
    return ExperimentConfig(
        strategy=strategy,
        runs=runs,
        base_seed=1,
        sim=SimConfig(max_steps=max_steps),
        output_dir=out,
        heatmaps=heatmaps,
        jobs=jobs,
    )


class TestRunExperiment:
    def test_seeds_are_base_plus_index(self):
        records, _ = run_experiment(small_config(runs=3, max_steps=50))
        assert [r.seed for r in records] == [1, 2, 3]

    def test_sweep_ccts_identical_across_seeds(self):
        records, summary = run_experiment(small_config("sons_bs", runs=3, max_steps=2000))
        assert summary.sd_cct == 0.0
        assert len({r.cct for r in records}) == 1

    def test_incomplete_runs_counted(self):
        _, summary = run_experiment(small_config(runs=2, max_steps=50))
        assert summary.incomplete_runs == 2
        assert summary.complete_runs == 0

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg1 = small_config("sons_bs", runs=2, max_steps=1200, out=str(tmp_path / "a"))
        cfg2 = small_config("sons_bs", runs=2, max_steps=1200, out=str(tmp_path / "b"), jobs=2)
        rec1, sum1 = run_experiment(cfg1)
        rec2, sum2 = run_experiment(cfg2)
        export(rec1, sum1, tmp_path / "a", cfg1)
        export(rec2, sum2, tmp_path / "b", cfg2)
        for name in ("runs.csv", "cpr.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = small_config("sons_bs", runs=2, max_steps=2000, heatmaps=True, out=str(out))
    records, summary = run_experiment(cfg)
    paths = export(records, summary, out, cfg)
    return out, cfg, records, paths


class TestExport:
    def test_files_written(self, exported):
        out, _, records, paths = exported
        names = {p.name for p in paths}
        assert {"summary.json", "runs.csv", "cpr.csv"} <= names
        assert f"heatmap_{0:03d}.csv" in names
        assert len([n for n in names if n.startswith("heatmap_")]) == len(records)

    def test_runs_csv_schema(self, exported):
        out, _, records, _ = exported
        lines = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["strategy", "seed", "cct", "tcu", "lcu"]
        assert header[5:] == [f"block_{i:02d}" for i in range(16)]
        assert len(lines) == 1 + len(records)
        row = lines[1].split(",")
        assert row[0] == "sons_bs"
        assert row[2] == str(records[0].cct)
        assert float(row[3]) == 0.0  # perfect sweep uniformity

    def test_cpr_csv_schema(self, exported):
        out, _, records, _ = exported
        lines = (out / "cpr.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,mean_coverage_fraction"
        assert lines[1].startswith("1,")
        last_step, last_value = lines[-1].split(",")
        assert int(last_step) == max(r.cct for r in records)
        assert float(last_value) == 1.0

    def test_path_output_dir_echoed_as_string(self, tmp_path):
        cfg = small_config(runs=1, max_steps=20, out=tmp_path)
        records, summary = run_experiment(cfg)
        export(records, summary, tmp_path, cfg)
        doc = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert doc["config"]["output_dir"] == str(tmp_path)
        assert doc["config"]["arena"]["center"] == [0.0, 0.0]

    def test_summary_echoes_config(self, exported):
        out, cfg, _, _ = exported
        doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert doc["config"]["strategy"] == "sons_bs"
        assert doc["config"]["runs"] == 2
        assert doc["config"]["arena"]["side_length"] == 40.0
        assert doc["config"]["sim"]["dt"] == 0.1
        stats = doc["strategies"]["sons_bs"]
        assert stats["sd_cct"] == 0.0
        assert stats["mean_tcu"] == 0.0
        assert stats["incomplete_runs"] == 0

    def test_heatmap_layout(self, exported):
        out, _, _, _ = exported
        lines = (out / "heatmap_000.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "40,40,1"
        assert len(lines) == 1 + 40
        grid = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
        assert grid.shape == (40, 40)
        assert (grid == 1).all()

    def test_lf_line_endings(self, exported):
        out, _, _, _ = exported
        for name in ("runs.csv", "cpr.csv", "summary.json"):
            raw = (out / name).read_bytes()
            assert b"\r" not in raw

    def test_incomplete_rows_marked(self, tmp_path):
        cfg = small_config(runs=1, max_steps=40, out=str(tmp_path))
        records, summary = run_experiment(cfg)
        export(records, summary, tmp_path, cfg)
        row = (tmp_path / "runs.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[2] == "incomplete"
        assert row[3] == "" and row[4] == ""
        doc = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert doc["strategies"]["rb"]["incomplete_runs"] == 1
        assert doc["strategies"]["rb"]["mean_cct"] is None

    def test_floats_carry_nine_significant_digits(self, tmp_path):
        cfg = small_config("rb", runs=1, max_steps=300, out=str(tmp_path))
        records, summary = run_experiment(cfg)
        export(records, summary, tmp_path, cfg)
        lines = (tmp_path / "cpr.csv").read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            value = line.split(",")[1]
            mantissa = value.replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa) <= 9


class TestCli:
    def test_requires_strategy(self, capsys):
        assert main([]) == 1
        assert "strategy" in capsys.readouterr().err

    def test_single_strategy_run(self, tmp_path, capsys):
        code = main(
            [
                "--strategy",
                "sons_bs",
                "--runs",
                "2",
                "--seed",
                "7",
                "--max-steps",
                "2000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "summary.json").exists()
        assert "sons_bs: 2/2 complete" in capsys.readouterr().out

    def test_incomplete_returns_2(self, tmp_path):
        code = main(
            ["--strategy", "rb", "--runs", "1", "--max-steps", "60", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "key, value", [("heatmaps", "false"), ("runs", 1.9), ("uavs", "25"), ("dt", True)]
    )
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        config_file = tmp_path / "exp.json"
        doc = {"strategy": "rb", "runs": 1, "max_steps": 50, "heatmaps": True, "out": str(out)}
        config_file.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
        assert main(["--config", str(config_file)]) == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["--strategy", "rb", "--seed", "-1", "--runs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: rb: base_seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_step_longer_than_cell_rejected(self, tmp_path, capsys):
        code = main(["--strategy", "rb", "--runs", "1", "--dt", "2.0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "exceeds the cell size 1 m" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_arena_returns_1(self, tmp_path, capsys):
        code = main(
            ["--strategy", "rb", "--arena-side", "41.5", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "exp.json"
        config_file.write_text(
            json.dumps(
                {
                    "strategy": "sons_bs",
                    "runs": 1,
                    "seed": 3,
                    "max_steps": 2000,
                    "out": str(tmp_path / "from_file"),
                }
            ),
            encoding="utf-8",
        )
        code = main(["--config", str(config_file), "--runs", "2", "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "summary.json").read_text(encoding="utf-8"))
        assert doc["config"]["runs"] == 2  # flag wins
        assert doc["config"]["base_seed"] == 3  # file value survives

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "exp.json"
        config_file.write_text(json.dumps({"strateg": "rb"}), encoding="utf-8")
        assert main(["--config", str(config_file)]) == 1

    def test_all_layout(self, tmp_path):
        code = main(
            ["--all", "--runs", "1", "--max-steps", "50", "--out", str(tmp_path)]
        )
        assert code == 2  # nothing finishes in 50 steps
        for strategy in ("rb", "ldr_random", "ldr_repulsive", "pm", "sons_bs", "sons_rw"):
            assert (tmp_path / strategy / "summary.json").exists()
            assert (tmp_path / strategy / "runs.csv").exists()

    def test_unplaceable_swarm_names_the_box(self, tmp_path, capsys):
        code = main(["--strategy", "rb", "--uavs", "30", "--runs", "1", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert (
            "error: rb: placement infeasible: 30 agents at min_spacing 1.5 m in the "
            "20 m x 3 m start box: gave up after 100001 rejected draws"
        ) in err
        code = main(["--strategy", "rb", "--uavs", "60", "--runs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "start box, which holds at most 57" in capsys.readouterr().err

    def test_small_arena_rejected(self, tmp_path, capsys):
        code = main(
            ["--strategy", "rb", "--arena-side", "10", "--runs", "1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "does not fit the 10 m arena" in capsys.readouterr().err

    def test_all_keeps_going_past_a_failing_strategy(self, tmp_path, capsys):
        code = main(
            ["--all", "--uavs", "1", "--runs", "1", "--max-steps", "5", "--out", str(tmp_path)]
        )
        assert code == 1
        for strategy in ("rb", "ldr_random", "ldr_repulsive", "pm"):
            assert (tmp_path / strategy / "summary.json").exists()
        err = capsys.readouterr().err
        assert "error: sons_bs: " in err
        assert "error: sons_rw: " in err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--strategy", "rb", "--runs", "2", "--seed", "11", "--max-steps", "400",
                "--heatmaps"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 2
        assert main(args + ["--out", str(tmp_path / "b")]) == 2
        for name in ("runs.csv", "cpr.csv", "heatmap_000.csv", "heatmap_001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        a = json.loads((tmp_path / "a" / "summary.json").read_text(encoding="utf-8"))
        b = json.loads((tmp_path / "b" / "summary.json").read_text(encoding="utf-8"))
        a["config"].pop("output_dir")
        b["config"].pop("output_dir")
        assert a == b
