"""The benchmark's workloads: inputs made from a seed, one job, and its checks.

A job is one unit of user work.  Each job gets a freshly generated input,
drawn from ``numpy.random.default_rng([seed, job])``, so the workload seed
is the only source of inputs and no cache can win by sharing work between
jobs.  ``run`` is the timed part; ``check`` and ``cross_check`` run outside
the timed region and return the deviations the benchmark's own pass rule
judges (:func:`judge`), never the library's ``passed`` flags.

qubit-dense
    Random CPTP chains of qubit channels; one 1024x1024 block at full size.
    A few large BLAS and eigen kernels, almost no Python looping: dense
    memory and ``algebra.spectrum`` dominate.  The control that block-batched
    storage should leave unchanged.
classical-wide
    Random stochastic chains of 3 channels on 8 outcomes: 4,096 1x1 blocks.
    Per-block Python loops in ``bloom_step`` and ``partial_trace`` do the
    work and the FLOPs are negligible.  The workload block batching must move.
scene-verify
    A generated scene file and all ten CLI subcommands on it, in-process.
    Thousands of tiny ``bloom_step`` calls rather than a few big ones, so a
    per-call cost added for classical-wide shows here; the only workload that
    exercises scene, cli, covariance, bayes, dynamics and broadcast.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import qsot as q
from qsot import cli
from qsot.scene import Scene, emit_scene

TOL = 1e-9


class Check(NamedTuple):
    name: str
    deviation: float
    tol: float = TOL


class JobFailure(Exception):
    """A job output that is wrong in a way no deviation measures."""


def judge(checks: list[Check]) -> list[str]:
    """Names of the checks that fail: a deviation passes only when finite and within tol."""
    return [
        f"{c.name}={c.deviation!r}"
        for c in checks
        if not (math.isfinite(c.deviation) and c.deviation <= c.tol)
    ]


def job_rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, job])


def _stochastic(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    m = rng.random((n_out, n_in)) + 0.05
    return m / m.sum(axis=0, keepdims=True)


def _probability(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 0.05
    return p / p.sum()


def _state_over_time_checks(s, marginals, spec) -> list[Check]:
    """Checks of a star/verify_marginals/spectrum_report result against plain numpy."""
    blocks = s.value.flatten().blocks
    # np.max propagates NaN, where Python's max(acc, nan) would keep acc
    herm = float(np.max([np.abs(b - b.conj().T).max() for b in blocks]))
    trace = sum(complex(np.trace(b)) for b in blocks)
    hs_norm2 = sum(float(np.vdot(b, b).real) for b in blocks)
    lam = np.asarray(spec.eigenvalues, dtype=float)
    if lam.size != sum(b.shape[0] for b in blocks):
        raise JobFailure(f"spectrum has {lam.size} eigenvalues")
    if not np.all(np.diff(lam) >= 0):
        raise JobFailure("spectrum is not ascending")
    checks = [
        Check("self_adjoint", herm),
        Check("unit_trace", abs(trace - 1.0)),
        # sum and sum of squares of the eigenvalues are the trace and the
        # Hilbert-Schmidt norm squared: an eigensolver-free route
        Check("spectrum_sum", abs(float(lam.sum()) - trace.real)),
        Check("spectrum_sum_squares", abs(float(np.dot(lam, lam)) - hs_norm2)),
        Check("spectrum_min", abs(spec.min_eigenvalue - lam[0])),
        Check("negative_count", abs(spec.negative_count - int(np.sum(lam < -spec.tol)))),
    ]
    checks += [Check(f"marginal_{i}", float(d)) for i, d in enumerate(marginals.deviations)]
    return checks


class QubitDense:
    name = "qubit-dense"

    def __init__(self, size: str):
        self.steps = 9 if size == "full" else 3
        self.shape = q.AlgebraShape([2])

    def make_input(self, rng: np.random.Generator, workdir: Path):
        chain = q.Chain([q.random_cptp(self.shape, self.shape, rng) for _ in range(self.steps)])
        return chain, q.random_state(self.shape, rng)

    def run(self, inp):
        chain, rho = inp
        s = q.star(chain, rho)
        return s, q.verify_marginals(s, TOL), q.spectrum_report(s)

    def check(self, inp, out) -> list[Check]:
        return _state_over_time_checks(*out)

    def cross_check(self, inp) -> list[Check]:
        """The last attachment rebuilt through the materialised partial-trace map."""
        chain, rho = inp
        return [Check("propagator", q.verify_propagator(chain, rho, TOL).deviation)]

    def counts(self, out) -> dict[str, float]:
        return {}


class ClassicalWide:
    name = "classical-wide"

    def __init__(self, size: str):
        self.outcomes, self.steps = (8, 3) if size == "full" else (3, 2)

    def make_input(self, rng: np.random.Generator, workdir: Path):
        k = self.outcomes
        prior = _probability(rng, k)
        stochastics = [_stochastic(rng, k, k) for _ in range(self.steps)]
        chain = q.Chain([q.classical_channel(m) for m in stochastics])
        return chain, q.classical_state(prior), prior, stochastics

    def run(self, inp):
        chain, rho = inp[:2]
        s = q.star(chain, rho)
        return s, q.verify_marginals(s, TOL), q.spectrum_report(s)

    def check(self, inp, out) -> list[Check]:
        prior, stochastics = inp[2:]
        s, _, spec = out
        # chain rule p(x0) p(x1|x0) ... as a dense array, lexicographic order
        joint = prior
        for m in stochastics:
            joint = joint[..., None] * m.T
        joint = joint.reshape(-1)
        diag = np.array([b[0, 0] for b in s.value.flatten().blocks])
        return _state_over_time_checks(*out) + [
            Check("joint_vs_chain_rule", float(np.abs(diag - joint).max())),
            Check("spectrum_vs_sorted_joint", float(np.abs(spec.eigenvalues - np.sort(joint)).max())),
        ]

    def cross_check(self, inp) -> list[Check]:
        return []

    def counts(self, out) -> dict[str, float]:
        return {}


def _strict_json(text: str):
    def reject(token):
        raise JobFailure(f"non-JSON constant {token} in report")

    return json.loads(text, parse_constant=reject)


class SceneVerify:
    name = "scene-verify"

    def __init__(self, size: str):
        full = size == "full"
        # the mixed-block walk [2,1] -> [3] -> [1,1] -> [2] -> [2,1]
        self.walk = ["A", "B", "C", "D", "A"] if full else ["A", "B", "A"]
        self.durations = "0.3,0.5,0.7,0.9,1.1" if full else "0.3,0.5"
        self.trials = 100 if full else 5

    def make_input(self, rng: np.random.Generator, workdir: Path):
        sc = Scene()
        for name, blocks in (("A", [2, 1]), ("B", [3]), ("C", [1, 1]), ("D", [2])):
            sc.algebras[name] = q.AlgebraShape(blocks)
        alg = sc.algebras
        steps = [
            q.random_cptp(alg[a], alg[b], rng) for a, b in zip(self.walk, self.walk[1:])
        ]
        for i, m in enumerate(steps):
            sc.channels[f"c{i}"] = m
        sc.channels["obs"] = q.classical_channel(_stochastic(rng, 2, 2))
        sc.chains["walk"] = q.Chain(steps)
        sc.states["rho"] = q.random_faithful_state(alg["A"], rng)
        sc.states["prior"] = q.classical_state(_probability(rng, 2))
        sc.states["psi"] = q.random_faithful_state(alg["B"], rng)
        sc.operators["H"] = q.random_hermitian(alg["B"], rng)
        sc.operators["U"] = q.haar_unitary(alg["B"], rng)
        # only [1,1] may permute its blocks and keep a named target shape
        for i, a in enumerate(self.walk):
            sc.isomorphisms[f"i{i}"] = q.random_iso(alg[a], rng, permute_blocks=a == "C")
        sc.isomorphisms["phi"] = q.random_iso(alg["C"], rng)
        sc.isomorphisms["psi"] = q.random_iso(alg["C"], rng)
        path = workdir / "scene.json"
        path.write_text(json.dumps(emit_scene(sc)))
        cli_seed = int(rng.integers(2**31))
        return path, cli_seed

    def commands(self, path: Path) -> list[list[str]]:
        scene = ["--scene", str(path)]
        walk = scene + ["--chain", "walk", "--state", "rho"]
        isos = ",".join(f"i{i}" for i in range(len(self.walk)))
        bayes = scene + ["--channel", "obs", "--state", "prior"]
        return [
            ["star"] + walk,
            ["marginals"] + walk,
            ["spectrum"] + walk,
            ["propagator"] + walk,
            ["broadcast-axioms"] + scene + ["--algebra", "B"],
            ["parenthesization"] + scene + ["--chain", "walk"],
            ["covariance"] + walk + ["--isos", isos, "--intermediate"],
            ["bayes"] + bayes,
            ["bayes-covariance"] + bayes + ["--phi", "phi", "--psi", "psi"],
            ["lvn"] + scene + ["--hamiltonian", "H", "--state", "psi",
                               "--durations", self.durations, "--unitary", "U"],
        ]

    def run(self, inp):
        path, cli_seed = inp
        opts = ["--report", "structured", "--tol", repr(TOL),
                "--seed", str(cli_seed), "--trials", str(self.trials)]
        outputs = []
        for cmd in self.commands(path):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(opts + cmd, standalone_mode=False)
            outputs.append((cmd[0], rc, buf.getvalue()))
        return outputs

    def check(self, inp, out) -> list[Check]:
        checks = []
        for command, rc, text in out:
            if rc != 0:
                raise JobFailure(f"{command} exited {rc}")
            doc = _strict_json(text)
            if doc.get("command") != command or doc.get("passed") is not True:
                raise JobFailure(f"{command} report is not a passing {command} report")
            for c in doc["checks"]:
                if c.get("passed") is not True:
                    raise JobFailure(f"{command}.{c.get('name')} reported as failing")
                checks.append(Check(f"{command}.{c['name']}", float(c["deviation"])))
            if command == "parenthesization":
                n = len(self.walk) - 1
                expected = math.comb(2 * n, n) // (n + 1)
                data = doc["data"]
                if not data["tree_count"] == data["expected_count"] == expected:
                    raise JobFailure(f"parenthesization counted {data} trees, expected {expected}")
        return checks

    def cross_check(self, inp) -> list[Check]:
        return []

    def counts(self, out) -> dict[str, float]:
        return {"cli.main.report_bytes": sum(len(text.encode()) for _, _, text in out)}


WORKLOADS = {w.name: w for w in (QubitDense, ClassicalWide, SceneVerify)}
