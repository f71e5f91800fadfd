"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root mirrors these tables; ``smoke.py``
checks that the two agree.  Each per-layer metric also names the end-to-end
metric and workload it is expected to move, which is the prediction a
change to that layer is judged against.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END = (
    EndToEnd("throughput_jobs_per_s", "1/s", "higher", 0.25),
    EndToEnd("job_s.p50", "s", "lower", 0.25),
    EndToEnd("job_s.tail", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("max_dev_neglog10", "digits", "higher", 0.1),
)

# Reported beside the end-to-end metrics but kept out of the result line:
# failed_ratio is 0 on a healthy run (the result line carries it exactly as
# attempted/failed) and max_dev_log10 is negative (the result line carries
# its negation, max_dev_neglog10).
REPORT_ONLY = (("failed_ratio", "ratio"), ("max_dev_log10", "log10"))

_CW = "throughput_jobs_per_s on classical-wide"
_SV = "throughput_jobs_per_s on scene-verify"
_SV_P50 = "job_s.p50 on scene-verify"

LAYERS = (
    Layer("algebra.partial_trace.self_s", "s", "lower", _CW + "; flat on qubit-dense"),
    Layer("algebra.partial_trace.calls", "count", "lower", _CW),
    Layer("algebra.partial_trace.block_tuples", "count", "lower", _CW),
    Layer("algebra.spectrum.self_s", "s", "lower", "job_s.p50 on qubit-dense"),
    Layer("algebra.spectrum.calls", "count", "lower", "job_s.p50 on qubit-dense"),
    Layer("algebra.spectrum.blocks", "count", "lower", "job_s.p50 on qubit-dense"),
    Layer("algebra.max_abs_diff.self_s", "s", "lower", _CW),
    Layer("algebra.element_init.self_s", "s", "lower", _CW + "; flat on qubit-dense"),
    Layer("algebra.element_init.calls", "count", "lower", _CW),
    Layer("algebra.element_init.blocks", "count", "lower", _CW),
    Layer("bloom.bloom_step.self_s", "s", "lower", _CW + "; " + _SV_P50),
    Layer("bloom.bloom_step.calls", "count", "lower", _SV_P50),
    Layer("bloom.bloom_step.block_tuples", "count", "lower", _CW),
    Layer("bloom.bloom_step.out_mb", "MiB", "lower", "peak_rss_mb on qubit-dense"),
    Layer("bloom.bloom_tree.self_s", "s", "lower", _SV + " only"),
    Layer("bloom.bloom_tree.calls", "count", "lower", _SV + " only"),
    Layer("chanmap.apply.self_s", "s", "lower", _SV),
    Layer("chanmap.apply.calls", "count", "lower", _SV),
    Layer("chanmap.map_from_action.self_s", "s", "lower", _SV),
    Layer("chanmap.map_from_action.calls", "count", "lower", _SV),
    Layer("chanmap.up_to.self_s", "s", "lower", "slightly, classical-wide and qubit-dense"),
    Layer("chanmap.up_to.calls", "count", "lower", "slightly, classical-wide and qubit-dense"),
    Layer("chanmap.trace_map.self_s", "s", "lower", _SV),
    Layer("broadcast.check_broadcast_axioms.self_s", "s", "lower", _SV),
    Layer("broadcast.broadcast_anticommutator.self_s", "s", "lower", _SV),
    Layer("sot.star.self_s", "s", "lower", "job_s.p50 on every workload"),
    Layer("sot.verify_marginals.self_s", "s", "lower", _CW),
    Layer("sot.verify_propagator.self_s", "s", "lower", _SV),
    Layer("sot.spectrum_report.self_s", "s", "lower", "job_s.p50 on qubit-dense"),
    Layer("sot.star.result_mb", "MiB", "lower", "peak_rss_mb on qubit-dense"),
    Layer("sot.star.rss_over_result", "ratio", "lower", "peak_rss_mb on qubit-dense"),
    Layer("covariance.iso_apply.self_s", "s", "lower", _SV + " (lvn, covariance)"),
    Layer("covariance.iso_apply.calls", "count", "lower", _SV + " (lvn, covariance)"),
    Layer("covariance.tensor_iso.self_s", "s", "lower", _SV + " (lvn, covariance)"),
    Layer("covariance.check_chain_covariance.self_s", "s", "lower", _SV + " (covariance)"),
    Layer("bayes.solve_bayes.self_s", "s", "lower", _SV),
    Layer("bayes.check_bayes_covariance.self_s", "s", "lower", _SV),
    Layer("dynamics.unitary_chain.self_s", "s", "lower", _SV),
    Layer("dynamics.transform_hamiltonian.self_s", "s", "lower", _SV),
    Layer("scene.parse_scene.self_s", "s", "lower", _SV_P50),
    Layer("scene.parse_scene.bytes", "bytes", "lower", _SV_P50),
    Layer("cli.main.self_s", "s", "lower", _SV_P50),
    Layer("cli.main.report_bytes", "bytes", "lower", _SV_P50),
    Layer("setup.import_s", "s", "lower", "setup_s on every workload"),
    Layer("setup.inputs_s", "s", "lower", "setup_s on every workload"),
    Layer("setup.warmup_s", "s", "lower", "setup_s on every workload"),
    Layer("trace.overhead_ratio", "ratio", "lower", "none; the cost of tracing itself"),
    Layer("job.glue_s", "s", "lower", "job_s.p50 on every workload"),
)
