"""Smoke tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args, "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(last)


@pytest.mark.parametrize("seed", [0, 5])
def test_timed_run_reports_every_end_to_end_metric(seed):
    detail, res = result(bench("--workload", "formation", "--seed", str(seed), "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert detail["counts"] == json.loads((BENCH / "golden.json").read_text())["formation"]["counts"]
    assert (detail["batch0_cct"] == detail["counts"]["cct"]) == (seed == 0)


def test_traced_run_reports_every_per_layer_metric_and_the_pool():
    detail, res = result(bench("--workload", "pheromone", "--seed", "0", "--seconds", "1", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["decentralized.pm_sense.calls"] > 0
    assert values["decentralized.reactions.pheromone"] > 0
    assert values["sons.crossings"] == 0
    assert 0 < values["harness.pool.efficiency"] <= 1.5
    assert (ROOT / detail["spans_file"]).is_file()


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "formation", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_names_the_workloads_the_client_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    layers = tracer.layers()
    calls, total, own = layers["outer"]
    inner_calls, inner_total, inner_own = layers["inner"]
    assert (calls, inner_calls) == (1, 2)
    assert inner_own == inner_total
    assert own == pytest.approx(total - inner_total)


def test_a_change_in_simulated_output_fails_the_golden_check(tmp_path):
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    sons = tmp_path / "src" / "sweepsim" / "sons.py"
    sons.write_text(sons.read_text().replace("self.exit_margin = 0.5", "self.exit_margin = 0.6"))
    detail, res = result(bench("--workload", "formation", "--seed", "5", "--seconds", "1", "--trace", "0",
                               cwd=tmp_path))
    assert not res["correct"] and res["failed"] > 0
    assert "golden digest mismatch" in detail["problems"]
