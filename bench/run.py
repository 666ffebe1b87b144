"""sweepsim benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its `src`.
With --trace 0 the client times batches of seeded runs for S seconds and
reports the end-to-end metrics, normalized to a reference host speed
(hostspeed.py); with --trace 1 it runs a fixed number of
batches with every public layer wrapped in spans, replays them untraced to
measure the tracing overhead, and reports the per-layer metrics. Either way
it checks the outputs, prints a detail line of JSON, and prints the result
object as the last line. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
MIN_BATCHES = 2

# Time to the first steppable world in a fresh interpreter.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sweepsim
from sweepsim import harness
harness.build_world(harness.ExperimentConfig(strategy=sys.argv[2]), int(sys.argv[3]))
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[4])
import hostspeed
print(seconds, hostspeed.sample(), sweepsim.__file__)
"""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one set-up sample, the fewest batches; for the smoke tests")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate golden.json from this checkout and exit")
    return p


def _loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def fingerprint() -> dict:
    cpu = platform.processor()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": _loadavg(),
    }


def measure_setup(strategy: str, base: int, samples: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import plus first build_world; one untimed warm-up.

    Sample i builds the world of seed base + i: placing decentralized agents
    takes 5-190 ms depending on the seed, and the median over several seeds
    keeps that out of the comparison of two workload seeds. Returns the
    normalized and the measured seconds of each sample, each normalized by
    kernel samples taken right before it and, in the interpreter that was
    timed, right after it.
    """
    normalized, measured = [], []
    for i in range(samples + 1):
        before = hostspeed.sample()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), strategy, str(base + i), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, after, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported sweepsim from {module}, not {SRC}")
        if i:
            measured.append(float(seconds))
            normalized.append(float(seconds) * hostspeed.REFERENCE_S / (0.5 * (before + float(after))))
    return normalized, measured


def count_block(batch) -> dict:
    return {"cct": batch.cct, "agent_steps": batch.agent_steps, **batch.counts}


def write_golden(W) -> None:
    golden = {}
    for name, wl in W.WORKLOADS.items():
        batch = W.run_api_batch(wl, W.base_seed(W.DEFAULT_SEED, 0), WORK / "golden" / name, True)
        if batch.problems:
            raise SystemExit(f"{name}: {batch.problems}")
        golden[name] = {"digest": batch.digest, "counts": count_block(batch)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def timed_window(W, wl, seed: int, seconds: float, smoke: bool, work: Path, detail: dict):
    """--trace 0: time batches for `seconds`, normalized to the reference host speed."""
    # One CPU for the client, its set-up interpreters and the kernel: the
    # vCPUs of a shared host change speed independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup, setup_measured = measure_setup(wl.strategies[0], W.base_seed(seed, 0), 1 if smoke else SETUP_SAMPLES)
    host = hostspeed.Calibration()
    start = time.perf_counter()
    main_pass = []
    while len(main_pass) < MIN_BATCHES or time.perf_counter() - start < seconds:
        main_pass.append(W.run_api_batch(wl, W.base_seed(seed, len(main_pass)), work / "main", host=host))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [r for b in main_pass for r in b.runs]
    cost: dict[str, list[float]] = {}
    for strategy, s, steps, factor in runs:
        cost.setdefault(strategy, []).append(1e6 * s * factor / steps)
    # Per strategy, then averaged: strategies differ in cost per agent-step,
    # and a percentile of the mixture would jump between them. A fixed
    # percentile, because a rank rule tied to the sample count would change
    # meaning when a faster or slower version fits more runs into the window.
    p50 = statistics.fmean(statistics.median(c) for c in cost.values())
    p90 = statistics.fmean(statistics.quantiles(c, n=10, method="inclusive")[-1] for c in cost.values())
    # The median batch: a batch during which the host changed speed between
    # two kernel samples moves one batch, not the result.
    rate = statistics.median(b.agent_steps / b.normalized for b in main_pass)
    values = {
        "setup_s": statistics.median(setup),
        "agent_steps_per_s": rate,
        "run_us_per_agent_step_p50": p50,
        "run_us_per_agent_step_p90": p90,
        "peak_rss_mb": rss_mb,
    }
    detail.update(
        setup_samples=setup, setup_samples_measured=setup_measured, host_factors=host.factors,
        measured_agent_steps_per_s=sum(b.agent_steps for b in main_pass) / sum(b.wall for b in main_pass),
        batch_normalized=[b.normalized for b in main_pass], runs=runs,
    )
    return main_pass, [], values


def traced_batches(W, wl, seed: int, smoke: bool, work: Path, detail: dict):
    """--trace 1: fixed batches, each traced then untraced, then the pool."""
    import tracing

    tracer = tracing.Tracer()
    steps = tracing.StepCounter()
    on_step = tracer.wrap("bench.on_step", steps)
    bases = [W.base_seed(seed, k) for k in range(1 if smoke else wl.trace_batches)]
    main_pass, second = [], []
    for b in bases:  # each untraced replay right after its traced batch, so both see the same host load
        with tracer.patched():
            main_pass.append(W.run_api_batch(wl, b, work / f"traced{b}", True, on_step))
        second.append(W.run_api_batch(wl, b, work / f"untraced{b}"))
    traced_s = sum(b.wall for b in main_pass)
    untraced_s = sum(b.wall for b in second)
    efficiency = idle = 0.0  # no process pool on this workload
    if wl.pool:
        jobs = min(len(os.sched_getaffinity(0)), wl.runs)
        serial = W.run_cli_batch(wl, bases[0], work / "jobs1", jobs=1)
        pooled = W.run_cli_batch(wl, bases[0], work / f"jobs{jobs}", jobs=jobs)
        second += [serial, pooled]
        efficiency = serial.wall / (jobs * pooled.wall)
        idle = 1.0 - efficiency
        detail["pool"] = {"jobs": jobs, "serial_s": serial.wall, "pooled_s": pooled.wall}
    spans_file = work / "spans.npz"
    work.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_file)
    merged = {g: dict(sum((Counter(b.counts[g]) for b in main_pass), Counter())) for g in main_pass[0].counts}
    values = tracing.layer_metrics(tracer, steps, merged, traced_s - untraced_s, untraced_s, efficiency, idle)
    layers = tracer.layers()
    detail.update(
        spans_file=str(spans_file.relative_to(ROOT)), spans=len(tracer.name),
        traced_s=traced_s, untraced_s=untraced_s, traced_counts=merged,
        layers={n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in layers.items()},
    )
    return main_pass, second, values


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "sweepsim" / "__init__.py").is_file():
        print(f"error: no sweepsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W  # noqa: E402 - needs SRC on sys.path

    if args.write_golden:
        write_golden(W)
        return 0
    if args.workload not in W.WORKLOADS:
        print(f"error: --workload must be one of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    reported = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "fingerprint": fingerprint()}
    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    if args.trace:
        main_pass, second, values = traced_batches(W, wl, args.seed, args.smoke, work, detail)
    else:
        main_pass, second, values = timed_window(W, wl, args.seed, args.seconds, args.smoke, work, detail)
    # The default seed's batch 0 again, with events on, against golden.json.
    reference = W.run_api_batch(wl, W.base_seed(W.DEFAULT_SEED, 0), work / "golden", True)
    second.append(reference)

    problems = [p for b in main_pass + second for p in b.problems]
    first = {b.base: b for b in main_pass}
    for b in second:
        if b.base in first and (b.digest != first[b.base].digest or b.cct != first[b.base].cct):
            problems.append(f"batch {b.base}: artifacts or CCTs differ between two runs of the same seeds")
    attempted = sum(b.attempted for b in main_pass + second)
    failed = sum(b.failed for b in main_pass + second)
    golden = json.loads(GOLDEN.read_text())[wl.name]
    counts = count_block(reference)
    if reference.digest != golden["digest"]:
        problems.append("golden digest mismatch")
        failed += reference.attempted - reference.failed
    if counts != golden["counts"]:
        problems.append("count block differs from the golden count block")

    detail.update(
        batches=len(main_pass), batch_walls=[b.wall for b in main_pass],
        batch_agent_steps=[b.agent_steps for b in main_pass], batch0_cct=main_pass[0].cct,
        golden_digest=reference.digest, counts=counts, failed_frac=failed / attempted,
        problems=problems, loadavg_end=_loadavg(),
    )
    work.mkdir(parents=True, exist_ok=True)
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
