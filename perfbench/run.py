"""qsot benchmark: one workload, measured end to end or traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qubit-dense --seed 1 --seconds 10 --trace 0

Workloads: qubit-dense, classical-wide, scene-verify (see workloads.py).
The workload runs in a fresh subprocess with BLAS threads capped at nproc,
so its peak memory and set-up time belong to it alone.  ``--trace 0``
reports the end-to-end metrics; set-up is repeated in further fresh
processes and its median reported.  ``--trace 1`` reports the per-layer
metrics from a traced run (see spans.py) and compares where the time went
with the predictions below.  ``--size tiny`` shrinks every input, for the
smoke test (smoke.py).

Human-readable lines come first on standard output, with the machine facts;
the last line is the JSON result.  The full record, and the spans of a
traced run as JSON lines, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYERS, REPORT_ONLY
from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("qubit-dense", "classical-wide", "scene-verify")
SETUP_PROBES = 4  # set-up-only processes beside the measuring one: setup_s is a median of 5
DEADLINE_S = 170

PREDICTIONS = {
    "qubit-dense": (
        "algebra.spectrum has the largest self time",
        lambda self_s, job_s: max(self_s, key=self_s.get) == "algebra.spectrum",
    ),
    "classical-wide": (
        "algebra.partial_trace and bloom.bloom_step together hold most self time",
        lambda self_s, job_s: self_s["algebra.partial_trace"] + self_s["bloom.bloom_step"] > job_s / 2,
    ),
    "scene-verify": (
        "scene.parse_scene plus cli.main stay under 10% of job time",
        lambda self_s, job_s: self_s["scene.parse_scene"] + self_s["cli.main"] < 0.1 * job_s,
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts(threads: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": commit,
    }


def spawn(args, env, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--spawned-at", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def neglog10(dev: float) -> float:
    return -math.log10(dev) if math.isfinite(dev) and dev > 0 else 0.0


def report_end_to_end(r: dict, setups: list[float]) -> dict:
    values = {
        "throughput_jobs_per_s": r["throughput_jobs_per_s"],
        "job_s.p50": r["job_s.p50"],
        "job_s.tail": r["job_s.tail"],
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "max_dev_neglog10": neglog10(r["max_dev"]),
        "failed_ratio": r["failed"] / r["attempted"],
        "max_dev_log10": -neglog10(r["max_dev"]),
    }
    notes = {
        "throughput_jobs_per_s": f"{r['jobs']} jobs",
        "job_s.p50": f"{r['jobs']} jobs",
        "job_s.tail": f"p{r['tail_percentile']:.1f}, {r['tail_jobs_beyond']} of {r['jobs']} jobs beyond it",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "failed_ratio": f"{r['failed']} of {r['attempted']} jobs",
    }
    for name, unit in [(m.name, m.unit) for m in END_TO_END] + list(REPORT_ONLY):
        print(f"  {name:<24} {values[name]:>12.6g} {unit:<7} {notes.get(name, '')}")
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}


def report_layers(workload: str, r: dict) -> dict:
    layers = r["layers"]
    job_s = layers["job_s.mean"]
    self_s = {name: layers["self_s"].get(name, 0.0) for name in SPAN_NAMES}
    print(f"  where a job's {job_s:.4f} s went (self time per job, traced):")
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    for name, s in ranked[:10] + [("job.glue_s (no span)", layers["job.glue_s"])]:
        if s > 0:
            print(f"    {name:<40} {s:10.5f} s {100 * s / job_s:6.1f}%")
    claim, holds = PREDICTIONS[workload]
    verdict = "holds" if holds(self_s, job_s) else "MISMATCH"
    print(f"  prediction: {claim}: {verdict}")
    print(f"  trace.overhead_ratio {layers['trace.overhead_ratio']:.4f}, {r['spans']} spans")
    if r["repro_mismatch"]:
        print(f"  two traced passes over the same seed disagree on: {r['repro_mismatch']}")
    return {m.name: {"value": layers[m.name], "unit": m.unit} for m in LAYERS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if not (ROOT / "src" / "qsot" / "__init__.py").is_file():
        print(f"error: no qsot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    threads = nproc()
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    try:
        r = spawn(args, env, deadline, setup_only=False)
        probes = 0 if args.trace else SETUP_PROBES
        setups = [r["setup"]["setup_s"]] + [
            spawn(args, env, deadline, setup_only=True)["setup_s"] for _ in range(probes)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {args.workload} worker failed: {err}", file=sys.stderr)
        return 1

    facts = machine_facts(threads)
    print(f"qsot benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    metrics = report_layers(args.workload, r) if args.trace else report_end_to_end(r, setups)
    for note in r["failure_notes"]:
        print(f"  failure: {note}")
    correct = r["failed"] == 0 and r["warmup_failed"] == 0 and not r.get("repro_mismatch")
    result = {"correct": correct, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"args": vars(args), "machine": facts, "setup_samples": setups, "worker": r, "result": result},
        indent=1,
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
