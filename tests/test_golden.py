"""The benchmark's golden artifacts, reproduced from this checkout.

For every benchmark workload, the default seed's batch 0 is rerun through
bench/workloads.py exactly as `bench/run.py --write-golden` ran it; the
artifact digest and the count block must equal bench/golden.json. The batch
writes into a temporary directory; bench/ is only read.

The benchmark also reaches into the package by text: bench/test_bench.py
edits one line of sons.py. The last test fails here, not only under
`pytest bench`, when a change rewrites that line. The attributes that
bench/tracing.py patches by name are checked in tests/test_tooling.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from sweepsim import sons  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_batch_matches_golden(name, tmp_path):
    batch = workloads.run_api_batch(
        workloads.WORKLOADS[name],
        workloads.base_seed(workloads.DEFAULT_SEED, 0),
        tmp_path / name,
        collect_events=True,
    )
    assert batch.problems == []
    assert batch.digest == GOLDEN[name]["digest"]
    assert run.count_block(batch) == GOLDEN[name]["counts"]


def test_exit_margin_literal_the_benchmark_rewrites_appears_once():
    # bench/test_bench.py perturbs the formation output by editing this text.
    assert Path(sons.__file__).read_text(encoding="utf-8").count("self.exit_margin = 0.5") == 1
