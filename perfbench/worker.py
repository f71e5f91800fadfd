"""One workload in one fresh process: set up, measure, check, and trace.

Started by ``run.py``, which owns the command line the benchmark is run
with.  The worker imports qsot from the ``src/`` directory of the checkout
it lives in, so the code measured is the code next to the benchmark.  Its
last line of standard output is a JSON object that ``run.py`` reads.

One closed loop with one client: the next job starts when the previous one
and its checks are done.  Only the job itself is timed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# the import of qsot (with numpy and click, through workloads) is timed as
# part of set-up
_t0 = perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import qsot  # noqa: E402
from workloads import WORKLOADS, job_rng, judge  # noqa: E402
IMPORT_S = perf_counter() - _t0

from metrics import LAYERS  # noqa: E402
from spans import Tracer  # noqa: E402

WARMUP_JOB = 2**31  # input stream of the warm-up job; measured jobs count up from 0
DEV_FLOOR = 1e-18  # a run whose every deviation is exactly 0 reads as 18 digits
MAX_FAILURE_NOTES = 5


def nan_max(*values: float) -> float:
    """Largest value, or NaN if any is NaN (Python's max(acc, nan) keeps acc)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


class Loop:
    """The closed loop over jobs of one workload, with the pass rule applied."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w, self.seed, self.workdir = workload, seed, workdir
        self.attempted = 0
        self.failed_jobs: set[tuple[str, int]] = set()
        self.notes: list[str] = []
        self.worst = 0.0  # NaN-propagating max of every check deviation

    def make_input(self, job: int):
        return self.w.make_input(job_rng(self.seed, job), self.workdir)

    def _fail(self, label: str, job: int, why: str) -> None:
        self.failed_jobs.add((label, job))
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{label} job {job}: {why}")

    def _judge_checks(self, label: str, job: int, checks) -> None:
        self.worst = nan_max(self.worst, *(c.deviation for c in checks))
        bad = judge(checks)
        if bad:
            self._fail(label, job, "check out of tolerance: " + ", ".join(bad[:3]))

    def attempt(self, label: str, job: int, inp, tracer=None) -> tuple[float, object]:
        """Run one job, timed, then check it untimed; returns (seconds, output or None)."""
        self.attempted += 1
        if tracer is not None:
            tracer.job = job
        t0 = perf_counter()
        try:
            out = self.w.run(inp)
        except Exception as err:  # a raising job is a failed job; the loop goes on
            seconds = perf_counter() - t0
            self._fail(label, job, f"raised {type(err).__name__}: {err}")
            return seconds, None
        finally:
            if tracer is not None:
                tracer.job = None
        seconds = perf_counter() - t0
        try:
            checks = self.w.check(inp, out)
        except Exception as err:
            self._fail(label, job, f"check raised {type(err).__name__}: {err}")
            return seconds, None
        self._judge_checks(label, job, checks)
        return seconds, out

    def run_for(self, label: str, budget_s: float, first_input=None) -> list[float]:
        """Jobs 0, 1, ... until their timed total reaches the budget (or 3x it in wall time)."""
        latencies: list[float] = []
        wall0 = perf_counter()
        job = 0
        while sum(latencies) < budget_s and perf_counter() - wall0 < 3 * budget_s:
            inp = first_input if job == 0 and first_input is not None else self.make_input(job)
            seconds, _ = self.attempt(label, job, inp)
            latencies.append(seconds)
            job += 1
        return latencies

    def cross_check(self, label: str, job: int) -> None:
        try:
            checks = self.w.cross_check(self.make_input(job))
        except Exception as err:
            self._fail(label, job, f"cross-check raised {type(err).__name__}: {err}")
            return
        self._judge_checks(label, job, checks)

    def failed_in(self, label: str) -> int:
        return sum(1 for lab, _ in self.failed_jobs if lab == label)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def latency_stats(latencies: list[float], completed: int) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    # the highest percentile with at least ten jobs beyond it; the slowest
    # job when there are too few jobs for that
    k = n - 11 if n >= 11 else n - 1
    return {
        "latencies": latencies,
        "jobs": n,
        "throughput_jobs_per_s": completed / sum(ordered),
        "job_s.p50": statistics.median(ordered),
        "job_s.tail": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_jobs_beyond": n - 1 - k,
    }


def traced_pass(loop: Loop, label: str, jobs: int, wall_cap_s: float = math.inf):
    """Jobs 0..jobs-1 with spans recorded, stopping early past the wall-time cap.

    Returns the tracer, latencies and worst deviation.
    """
    before, loop.worst = loop.worst, 0.0
    tracer = Tracer()
    tracer.install()
    latencies = []
    wall0 = perf_counter()
    try:
        for job in range(jobs):
            if perf_counter() - wall0 > wall_cap_s:
                break
            seconds, out = loop.attempt(label, job, loop.make_input(job), tracer)
            latencies.append(seconds)
            if out is not None:
                tracer.add(loop.w.counts(out))
            del out
    finally:
        tracer.uninstall()
    worst, loop.worst = loop.worst, nan_max(before, loop.worst)
    return tracer, latencies, worst


def layer_metrics(tracer, latencies: list[float], untraced_throughput: float,
                  setup: dict, rss_mib: float) -> dict:
    jobs = len(latencies)
    totals = tracer.totals()
    per_job = {k: v / jobs for k, v in totals.items()}
    per_job.update({k: v / jobs for k, v in tracer.sizes.items()})
    per_job.update({f"setup.{k}": setup[k] for k in ("import_s", "inputs_s", "warmup_s")})
    per_job["trace.overhead_ratio"] = untraced_throughput / (jobs / sum(latencies))
    per_job["job.glue_s"] = (sum(latencies) - totals["top_level_s"]) / jobs
    per_job["sot.star.rss_over_result"] = rss_mib / tracer.max_star_mb if tracer.max_star_mb else 0.0
    per_job["job_s.mean"] = sum(latencies) / jobs
    return {m.name: per_job.get(m.name, 0.0) for m in LAYERS} | {
        "job_s.mean": per_job["job_s.mean"],
        "self_s": {k[:-7]: v for k, v in per_job.items() if k.endswith(".self_s")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if Path(qsot.__file__).resolve().parent != ROOT / "src" / "qsot":
        print(f"qsot imported from {qsot.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.size)
        loop = Loop(workload, args.seed, workdir)

        t0 = perf_counter()
        warm_input = loop.make_input(WARMUP_JOB)
        first_input = loop.make_input(0)
        inputs_s = perf_counter() - t0

        t0 = perf_counter()
        loop.attempt("warmup", WARMUP_JOB, warm_input)
        warmup_s = perf_counter() - t0
        setup = {
            "setup_s": time.time() - args.spawned_at,
            "import_s": IMPORT_S,
            "inputs_s": inputs_s,
            "warmup_s": warmup_s,
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        budget = args.seconds / 3 if args.trace else args.seconds
        latencies = loop.run_for("untraced", budget, first_input)
        del first_input, warm_input
        rss = peak_rss_mib()  # before the cross-check, whose route is heavier than a job
        loop.cross_check("untraced", 0)

        result = {
            "setup": setup,
            "peak_rss_mb": rss,
            **latency_stats(latencies, len(latencies) - loop.failed_in("untraced")),
        }
        if args.trace:
            # two traced passes over the same jobs, each generating its inputs
            # afresh from the seed: their counts must agree exactly
            tracer, traced, worst_a = traced_pass(loop, "traced-a", len(latencies), args.seconds)
            tracer_b, _, worst_b = traced_pass(loop, "traced-b", len(traced))
            counts_a, counts_b = tracer.counts(), tracer_b.counts()
            counts_a["max_dev"], counts_b["max_dev"] = repr(worst_a), repr(worst_b)
            result["repro_mismatch"] = sorted(
                k for k in counts_a.keys() | counts_b.keys()
                if counts_a.get(k) != counts_b.get(k)
            )
            result["layers"] = layer_metrics(
                tracer, traced, result["throughput_jobs_per_s"], setup, rss
            )
            result["spans"] = len(tracer.spans)
            tracer.write(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl")

        result.update(
            attempted=loop.attempted - 1,  # the warm-up job is set-up, not a measured job
            failed=len([j for j in loop.failed_jobs if j[0] != "warmup"]),
            warmup_failed=loop.failed_in("warmup"),
            failure_notes=loop.notes,
            max_dev=nan_max(loop.worst, DEV_FLOOR),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
