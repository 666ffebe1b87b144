"""Write a BENCH_*.json snapshot: the benchmark, Tier-1 and the CLI, for a parent and a change.

    python3 tools/bench_snapshot.py --seed N --out BENCH_X.json PARENT CHANGE

PARENT and CHANGE are checkouts (directories holding src/, tests/, bench/
and BENCHMARK.json). For each of them the snapshot records:

- the end-to-end metrics of every workload in BENCHMARK.json, from
  `bench/run.py --workload W --seed N --seconds run_seconds --trace 0`,
  10 times;
- the Tier-1 wall time (`python -m pytest -q --continue-on-collection-errors`
  with `src` on PYTHONPATH) and its summary line;
- the wall time of `sweepsim --all --runs 30` at `--jobs 1` and at
  `--jobs nproc`, with the exit codes.

Measurements alternate between the two checkouts, and the one that goes
first alternates from one measurement to the next, so a change in host
speed during the snapshot lands on both sides. For each workload and
end-to-end metric, the snapshot counts the pairs in which the change reads
better than the parent. The machine fingerprint (Python and numpy versions,
nproc, CPU model, load average) is the one bench/run.py prints for the first
window, with the load average at the end added.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
CLI_RUNS = 30
REPEATS = 10  # bench/run.py windows per workload and checkout: the pairs a claim needs


def src_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's src/**/*.py paths and contents: which code was measured."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced bench/run.py window: the machine fingerprint from its
    detail line (the next-to-last line of stdout) and its result (the last)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    return json.loads(detail)["fingerprint"], {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def run_cli_all(checkout: Path, jobs: int) -> dict:
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "sweepsim.cli", "--all", "--runs", str(CLI_RUNS),
               "--jobs", str(jobs), "--out", out]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
        wall = time.perf_counter() - start
    return {"jobs": jobs, "wall_s": wall, "exit_code": proc.returncode}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize_workload(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {
        "runs": runs,
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {n: quartiles([r["metrics"][n] for r in runs]) for n in names},
    }


def pair_wins(parent: list[dict], change: list[dict], spec: list[dict]) -> dict:
    """Per metric, the pairs in which the change reads better than the parent (ties count for neither)."""
    wins = {}
    for m in spec:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        pairs = list(zip(parent, change))
        better = sum(1 for a, b in pairs if sign * (b["metrics"][name] - a["metrics"][name]) > 0)
        wins[name] = f"{better}/{len(pairs)}"
    return wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--seed", type=int, required=True, help="workload seed for bench/run.py")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, checkout in checkouts.items():
        if not (checkout / "BENCHMARK.json").is_file():
            p.error(f"{label} {checkout} is not a checkout with a BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    nproc = len(os.sched_getaffinity(0))

    turn = 0

    def alternating(measure):
        """measure(checkout) for both checkouts, the first one alternating between calls."""
        nonlocal turn
        order = ["parent", "change"] if turn % 2 == 0 else ["change", "parent"]
        turn += 1
        out = {}
        for label in order:
            print(f"  {label}: {measure.__name__}", file=sys.stderr, flush=True)
            out[label] = measure(checkouts[label])
        return out

    fingerprint = None
    raw = {label: {w: [] for w in workloads} for label in checkouts}
    for w in workloads:
        for r in range(REPEATS):
            print(f"{w} window {r + 1}/{REPEATS}", file=sys.stderr, flush=True)

            def bench_run(checkout, w=w):
                return run_workload(checkout, w, args.seed, seconds)

            for label, (fp, result) in alternating(bench_run).items():
                fingerprint = fingerprint or fp
                raw[label][w].append(result)
    print("Tier-1", file=sys.stderr, flush=True)
    tier1 = alternating(run_tier1)
    cli = {label: [] for label in checkouts}
    for jobs in (1, nproc):
        print(f"sweepsim --all --runs {CLI_RUNS} --jobs {jobs}", file=sys.stderr, flush=True)

        def cli_all(checkout, jobs=jobs):
            return run_cli_all(checkout, jobs)

        for label, result in alternating(cli_all).items():
            cli[label].append(result)

    fingerprint["loadavg_end"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    snapshot = {
        "seed": args.seed,
        "seconds": seconds,
        "repeats": REPEATS,
        "fingerprint": fingerprint,
        "checkouts": {
            label: {
                "src_sha256": src_digest(checkout),
                "workloads": {w: summarize_workload(raw[label][w]) for w in workloads},
                "tier1": tier1[label],
                "cli_all": cli[label],
            }
            for label, checkout in checkouts.items()
        },
        "change_wins_over_parent": {
            w: pair_wins(raw["parent"][w], raw["change"][w], spec["end_to_end"]) for w in workloads
        },
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
