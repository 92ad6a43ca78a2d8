"""The benchmark's own tests: a reduced-size smoke run and the vetting of its seed pools.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from interlace import cli  # noqa: E402
from tracer import self_times  # noqa: E402


def _smoke(trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(trace, section):
    results = _smoke(trace)
    assert len(results) == len(SPEC["workloads"])
    want = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert 0 <= result["failed"] <= result["attempted"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_seed_pools_hold_no_failing_grid_point():
    """Every value a seed may draw, crossed in full, passes the grid's correctness gate.

    A grid point depends only on its own parameters, so any seed's grid is a
    subset of this one.
    """
    values = lambda slots: sorted({v for slot in slots for v in slot})  # noqa: E731
    jacobi = values(workloads.GRID_JACOBI)
    specs = {
        "jacobi-3.5": {"alpha": jacobi, "beta": [v for v in jacobi if Fraction(v) > 0]},
        "jacobi-3.6": {"alpha": jacobi, "beta": jacobi},
        "laguerre-3.7": {"alpha": jacobi},
        "meixner-3.2": {"t": values(workloads.GRID_MEIXNER_T), "w": values(workloads.GRID_MEIXNER_W)},
        "krawtchouk-3.1": {
            "p": values(workloads.GRID_KRAWTCHOUK_P),
            "N": values(workloads.GRID_KRAWTCHOUK_N),
        },
    }
    workdir = HERE / "out" / "pools"
    workdir.mkdir(parents=True, exist_ok=True)
    for check_id, params in specs.items():
        path = workdir / f"{check_id}.json"
        path.write_text(json.dumps({"check": check_id, "n": workloads.GRID_NS, "params": params}))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(["sweep", str(path), "--workers", "2"])
        results = {row["result"] for row in csv.DictReader(io.StringIO(out.getvalue()))}
        assert rc == 0 and results <= {"pass", "skipped", "degenerate"}, (check_id, results)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, None, None),
        ("a", 1.0, 4.0, 0, None),
        ("b", 3.0, 5.0, 0, None),  # overlaps a: together they cover 1..5
        ("c", 1.5, 2.0, 1, None),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.5, 2.0, 0.5])
