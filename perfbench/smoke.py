"""Smoke test of the benchmark itself; gates on no timing.

Runs every workload at tiny size, untraced and traced, and asserts that each
run exits 0, is correct with no failed job, and emits every metric that
BENCHMARK.json names, with its unit.  Also asserts that BENCHMARK.json
agrees with metrics.py.  From the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, LAYERS
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["end_to_end"] == [m._asdict() for m in END_TO_END], "end_to_end differs from metrics.py"
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS
    ], "per_layer differs from metrics.py"

    for workload in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted}, f"{workload} trace={trace}: {got}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
