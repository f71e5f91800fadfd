"""Span recorders for the traced run.

:meth:`Tracer.install` wraps the public qsot functions and methods listed in
``TARGETS`` and rebinds each name everywhere a qsot module holds it (``sot``
imports ``bloom_step`` by name, for instance), so calls between modules are
recorded too.  Methods are patched on their class.  A span records its name,
start, end, parent span and job id; spans stay in memory until the run
writes them out.  Only calls made while a job is running are recorded, so
input generation and output checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MIB = 2**20
COMPLEX_BYTES = np.dtype(complex).itemsize


def _scene_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}  # the CLI parses scenes from files


def _bloom_step_sizes(args, result):
    x, e = args[0], args[1]
    return {
        "block_tuples": x.element.shape.num_blocks * e.target.num_blocks,
        "out_mb": x.element.shape.total_dim * e.target.total_dim * COMPLEX_BYTES / MIB,
    }


def _star_sizes(args, result):
    return {"result_mb": result.value.element.shape.total_dim * COMPLEX_BYTES / MIB}


# (span name, module, attribute or Class.method, sizes recorded per call)
TARGETS = (
    ("algebra.partial_trace", "qsot.algebra", "partial_trace",
     lambda a, r: {"block_tuples": a[0].element.shape.num_blocks}),
    ("algebra.spectrum", "qsot.algebra", "spectrum", lambda a, r: {"blocks": a[0].shape.num_blocks}),
    ("algebra.max_abs_diff", "qsot.algebra", "max_abs_diff", None),
    ("algebra.element_init", "qsot.algebra", "AlgebraElement.__init__",
     lambda a, r: {"blocks": a[1].num_blocks}),
    ("bloom.bloom_step", "qsot.bloom", "bloom_step", _bloom_step_sizes),
    ("bloom.bloom_tree", "qsot.bloom", "bloom_tree", None),
    ("chanmap.apply", "qsot.chanmap", "LinearOperatorMap.apply", None),
    ("chanmap.map_from_action", "qsot.chanmap", "map_from_action", None),
    ("chanmap.up_to", "qsot.chanmap", "Chain.up_to", None),
    ("chanmap.trace_map", "qsot.chanmap", "trace_map", None),
    ("broadcast.check_broadcast_axioms", "qsot.broadcast", "check_broadcast_axioms", None),
    ("broadcast.broadcast_anticommutator", "qsot.broadcast", "broadcast_anticommutator", None),
    ("sot.star", "qsot.sot", "star", _star_sizes),
    ("sot.verify_marginals", "qsot.sot", "verify_marginals", None),
    ("sot.verify_propagator", "qsot.sot", "verify_propagator", None),
    ("sot.spectrum_report", "qsot.sot", "spectrum_report", None),
    ("covariance.iso_apply", "qsot.covariance", "StarIsomorphism.apply", None),
    ("covariance.tensor_iso", "qsot.covariance", "tensor_iso", None),
    ("covariance.check_chain_covariance", "qsot.covariance", "check_chain_covariance", None),
    ("bayes.solve_bayes", "qsot.bayes", "solve_bayes", None),
    ("bayes.check_bayes_covariance", "qsot.bayes", "check_bayes_covariance", None),
    ("dynamics.unitary_chain", "qsot.dynamics", "unitary_chain", None),
    ("dynamics.transform_hamiltonian", "qsot.dynamics", "transform_hamiltonian", None),
    ("scene.parse_scene", "qsot.scene", "parse_scene", _scene_bytes),
    ("cli.main", "qsot.cli", "main", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Records spans and per-call sizes for the calls made inside jobs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.sizes: dict[str, float] = defaultdict(float)
        self.max_star_mb = 0.0
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, sizes):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer.spans.append(rec)
            tracer._stack.append(index)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if sizes is not None:
                recorded = sizes(args, result)
                for key, value in recorded.items():
                    tracer.sizes[f"{name}.{key}"] += value
                if "result_mb" in recorded:
                    tracer.max_star_mb = max(tracer.max_star_mb, recorded["result_mb"])
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "qsot" or n.startswith("qsot.")]
        for name, module_name, attr, sizes in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, sizes))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, sizes)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def add(self, sizes: dict[str, float]) -> None:
        for key, value in sizes.items():
            self.sizes[key] += value

    def totals(self) -> dict[str, float]:
        """Self time and calls per span name, summed over all recorded jobs."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
            if parent < 0:
                out["top_level_s"] += end - start
        return out

    def counts(self) -> dict[str, float]:
        """The exact, input-determined part of a traced pass: calls and sizes."""
        totals = self.totals()
        out = {k: v for k, v in totals.items() if k.endswith(".calls")}
        out.update(self.sizes)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")
