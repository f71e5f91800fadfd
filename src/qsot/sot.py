"""Canonical states over time for chains of channels.

A state over time packs an initial virtual state and its whole evolution
under a chain into one self-adjoint unit-trace operator on the tensor
product of the step algebras; its i-th marginal is the state at step i.
The packing is the chain bloom applied to the initial state, so the n-step
object always arises from the (n-1)-step one by one more attachment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    AlgebraElement,
    AlgebraShape,
    FactoredElement,
    max_abs_diff,
    partial_trace,
    spectrum,
)
from .bloom import bloom_apply, bloom_step
from .chanmap import Chain, trace_map

__all__ = [
    "StateOverTime",
    "star",
    "marginal",
    "MarginalsReport",
    "verify_marginals",
    "PropagatorReport",
    "verify_propagator",
    "SpectrumReport",
    "spectrum_report",
]


@dataclass(frozen=True, eq=False)
class StateOverTime:
    """Joint operator over all step algebras, with its generating data."""

    value: FactoredElement
    chain: Chain
    initial: AlgebraElement

    @property
    def num_steps(self) -> int:
        return len(self.chain)

    @property
    def factors(self) -> tuple[AlgebraShape, ...]:
        return self.value.factors


def star(chain: Chain, rho: AlgebraElement, tol: float = DEFAULT_ATOL) -> StateOverTime:
    """Canonical state over time of a virtual state evolving along a chain."""
    if rho.shape != chain.algebras[0]:
        raise ValueError("initial state does not live in the chain's first algebra")
    if not rho.is_virtual_state(tol):
        raise ValueError("initial element must be self-adjoint with unit trace")
    return StateOverTime(bloom_apply(chain, rho), chain, rho)


def marginal(s: StateOverTime, i: int) -> AlgebraElement:
    """Reduce the state over time to the single step algebra at index i."""
    n = len(s.factors)
    if not 0 <= i < n:
        raise IndexError(f"marginal index {i} out of range for {n} factors")
    return partial_trace(s.value, {i}).as_element()


@dataclass(frozen=True)
class MarginalsReport:
    deviations: tuple[float, ...]
    tol: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def verify_marginals(s: StateOverTime, tol: float = 1e-10) -> MarginalsReport:
    """Compare every marginal against the channel-evolved state at that step.

    The expected states come from applying the chain's maps one at a time to
    the initial state, a route independent of the bloom.
    """
    expected = s.initial
    devs = [max_abs_diff(marginal(s, 0), expected)]
    for i, m in enumerate(s.chain.maps, start=1):
        expected = m.apply(expected)
        devs.append(max_abs_diff(marginal(s, i), expected))
    return MarginalsReport(tuple(devs), tol)


@dataclass(frozen=True)
class PropagatorReport:
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol


def verify_propagator(
    chain: Chain, rho: AlgebraElement, tol: float = 1e-10
) -> PropagatorReport:
    """Check that the n-step state over time is one attachment past the (n-1)-step one.

    The right side blooms the composite of the last channel with the
    materialized partial-trace map of the shorter product, a computation
    route independent of the fused per-factor attachment used by ``star``.
    """
    if len(chain) < 2:
        raise ValueError("the propagation identity needs at least 2 steps")
    full = star(chain, rho)
    shorter = star(chain[:-1], rho)
    last_after_trace = chain.maps[-1] @ trace_map(shorter.factors)
    rebuilt = bloom_step(
        FactoredElement.from_element(shorter.value.flatten()), last_after_trace
    )
    dev = max_abs_diff(full.value.flatten(), rebuilt.flatten())
    return PropagatorReport(dev, tol)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    min_eigenvalue: float
    negative_count: int
    trace: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "min_eigenvalue": self.min_eigenvalue,
            "negative_count": self.negative_count,
            "trace": self.trace,
            "tol": self.tol,
        }


def spectrum_report(s: StateOverTime, tol: float = DEFAULT_ATOL) -> SpectrumReport:
    """Eigenvalues of the flattened operator, with a negativity summary."""
    flat = s.value.flatten()
    vals = spectrum(flat, tol=max(tol, 1e-8))
    return SpectrumReport(
        eigenvalues=vals,
        min_eigenvalue=float(vals[0]),
        negative_count=int(np.sum(vals < -tol)),
        trace=float(flat.trace().real),
        tol=tol,
    )
