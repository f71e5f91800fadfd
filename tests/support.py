"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

import qsot as q

SHAPE_POOL = (
    q.AlgebraShape([2]),
    q.AlgebraShape([3]),
    q.AlgebraShape([1, 1]),
    q.AlgebraShape([2, 1]),
)


def random_shape(rng: np.random.Generator) -> q.AlgebraShape:
    return SHAPE_POOL[rng.integers(len(SHAPE_POOL))]


def random_algebra_walk(n: int, rng: np.random.Generator) -> list[q.AlgebraShape]:
    return [random_shape(rng) for _ in range(n + 1)]


def random_chain(algebras, rng: np.random.Generator) -> q.Chain:
    return q.Chain(
        [q.random_cptp(algebras[i], algebras[i + 1], rng) for i in range(len(algebras) - 1)]
    )


def random_hptp_chain(algebras, rng: np.random.Generator) -> q.Chain:
    return q.Chain(
        [q.random_hptp(algebras[i], algebras[i + 1], rng) for i in range(len(algebras) - 1)]
    )


def random_stochastic(n_out: int, n_in: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic matrix with full support."""
    m = rng.random((n_out, n_in)) + 0.05
    return m / m.sum(axis=0, keepdims=True)


def random_classical_chain(sizes, rng: np.random.Generator) -> q.Chain:
    maps = [
        q.classical_channel(random_stochastic(sizes[i + 1], sizes[i], rng))
        for i in range(len(sizes) - 1)
    ]
    return q.Chain(maps)


def random_probability(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random(n) + 0.05
    return p / p.sum()


def classical_joint_oracle(prior: np.ndarray, stochastics: list[np.ndarray]) -> np.ndarray:
    """Brute-force chain-rule joint over all outcome tuples, lexicographic order."""
    sizes = [prior.size] + [s.shape[0] for s in stochastics]
    joint = np.zeros(sizes)
    for tup in itertools.product(*[range(k) for k in sizes]):
        p = prior[tup[0]]
        for i, s in enumerate(stochastics):
            p *= s[tup[i + 1], tup[i]]
        joint[tup] = p
    return joint.reshape(-1)


def classical_joint_from_sot(s: q.StateOverTime) -> np.ndarray:
    """Diagonal of a classical state over time, in lexicographic tuple order."""
    return np.array([b[0, 0].real for b in s.value.flatten().blocks])


def random_nontrivial_iso(shape: q.AlgebraShape, rng: np.random.Generator) -> q.StarIsomorphism:
    """Random isomorphism with a non-identity block permutation."""
    if shape.num_blocks < 2:
        raise ValueError("need at least two blocks to permute")
    while True:
        iso = q.random_iso(shape, rng)
        if any(t != s for s, t in enumerate(iso.block_perm)):
            return iso


def stochastic_of(channel: q.LinearOperatorMap) -> np.ndarray:
    """Read a classical channel's stochastic matrix back from its coordinates."""
    return channel.matrix.real.copy()


# ---------------------------------------------------------------------------
# per-block reference kernels: oracles for the batched ones in qsot
# ---------------------------------------------------------------------------


def _unit_action_tensor(e: q.LinearOperatorMap, src_block: int, tgt_block: int) -> np.ndarray:
    """T[b, a, r, c] = (e applied to the unit E_ba of src_block)[r, c] in tgt_block."""
    d = e.source.blocks[src_block]
    m = e.target.blocks[tgt_block]
    sub = e.matrix[e.target.hs_slice(tgt_block), e.source.hs_slice(src_block)]
    return sub.reshape(m, m, d, d).transpose(2, 3, 0, 1)


def reference_bloom_step(x: q.FactoredElement, e: q.LinearOperatorMap) -> q.FactoredElement:
    """:func:`qsot.bloom_step`, one einsum pair per (input block, target block)."""
    if e.source != x.factors[-1]:
        raise ValueError("map source does not match the last factor")
    out_factors = x.factors + (e.target,)
    out_shape = q.product_shape(out_factors)
    n_tgt = e.target.num_blocks
    out_blocks = [None] * out_shape.num_blocks
    for flat, tup in x.block_tuples():
        dims = [x.factors[i].blocks[b] for i, b in enumerate(tup)]
        d = dims[-1]
        d_head = int(np.prod(dims[:-1], dtype=np.int64)) if len(dims) > 1 else 1
        x4 = x.element.blocks[flat].reshape(d_head, d, d_head, d)
        for beta in range(n_tgt):
            m = e.target.blocks[beta]
            t4 = _unit_action_tensor(e, tup[-1], beta)
            term1 = np.einsum("CxDy,wyrz->CxrDwz", x4, t4)
            term2 = np.einsum("CyDw,yxrz->CxrDwz", x4, t4)
            dm = d_head * d * m
            out_blocks[flat * n_tgt + beta] = 0.5 * (term1 + term2).reshape(dm, dm)
    return q.FactoredElement(out_factors, q.AlgebraElement(out_shape, out_blocks))


def reference_partial_trace(x: q.FactoredElement, keep) -> q.FactoredElement:
    """:func:`qsot.partial_trace`, one einsum per block tuple."""
    keep = sorted(set(keep))
    n = x.num_factors
    if len(keep) == n:
        return x
    kept_factors = [x.factors[i] for i in keep]
    out_shape = q.product_shape(kept_factors)
    out_blocks = [np.zeros((d, d), dtype=complex) for d in out_shape.blocks]
    kept_radix = [f.num_blocks for f in kept_factors]
    for _, tup in x.block_tuples():
        dims = [x.factors[i].blocks[b] for i, b in enumerate(tup)]
        block = x.tuple_block(tup).reshape(dims + dims)
        # traced legs share an index with their column partner, kept legs stay free
        row_idx = list(range(n))
        col_idx = [i if i not in keep else n + i for i in range(n)]
        out_idx = list(keep) + [n + i for i in keep]
        reduced = np.einsum(block, row_idx + col_idx, out_idx)
        d_kept = int(np.prod([dims[i] for i in keep]))
        out_flat = 0
        for r, i in zip(kept_radix, keep):
            out_flat = out_flat * r + tup[i]
        out_blocks[out_flat] += reduced.reshape(d_kept, d_kept)
    return q.FactoredElement(kept_factors, q.AlgebraElement(out_shape, out_blocks))
