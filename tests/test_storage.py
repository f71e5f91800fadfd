"""Flat coefficient storage and the batched kernels, against per-block oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsot as q
from support import (
    SHAPE_POOL,
    random_algebra_walk,
    reference_bloom_step,
    reference_partial_trace,
)

ORACLE_TOL = 1e-12


def random_factored(factors, rng) -> q.FactoredElement:
    """A generic (not self-adjoint) element over the product of the factors."""
    shape = q.product_shape(factors)
    return q.FactoredElement(factors, q.random_element(shape, rng))


def keep_sets(n: int):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(1, 4), hptp=st.booleans())
def test_batched_kernels_match_per_block_oracle(seed, length, hptp):
    rng = np.random.default_rng(seed)
    walk = random_algebra_walk(length - 1, rng)
    x = random_factored(walk, rng)
    for keep in keep_sets(length):
        got = q.partial_trace(x, keep)
        want = reference_partial_trace(x, keep)
        assert got.factors == want.factors
        assert q.max_abs_diff(got.flatten(), want.flatten()) < ORACLE_TOL
    target = SHAPE_POOL[rng.integers(len(SHAPE_POOL))]
    make = q.random_hptp if hptp else q.random_cptp
    e = make(walk[-1], target, rng)
    got = q.bloom_step(x, e)
    want = reference_bloom_step(x, e)
    assert got.factors == want.factors
    assert q.max_abs_diff(got.flatten(), want.flatten()) < ORACLE_TOL


def test_partial_traces_of_17_factor_classical_product():
    """131,072 1x1 blocks: partial traces are plain marginal sums of the joint."""
    n = 17
    rng = np.random.default_rng(17)
    joint = rng.random((2,) * n)
    factors = [q.AlgebraShape([1, 1])] * n
    x = q.FactoredElement(factors, q.from_hs(q.product_shape(factors), joint.reshape(-1)))
    assert x.product.num_blocks == 2**n
    for keep in [(0,), (16,), (3, 11), tuple(range(16)), tuple(range(0, n, 2))]:
        traced = tuple(i for i in range(n) if i not in keep)
        expected = joint.sum(axis=traced).reshape(-1)
        got = q.partial_trace(x, keep).flatten().to_hs()
        assert np.abs(got - expected).max() < 1e-9
    assert x.trace() == pytest.approx(joint.sum(), rel=1e-12)


def test_mixed_class_spectrum_and_products_match_blockwise():
    rng = np.random.default_rng(5)
    shape = q.AlgebraShape([2, 1, 3, 2, 1])
    a = q.random_element(shape, rng)
    b = q.random_element(shape, rng)
    prod = a @ b
    for i in range(shape.num_blocks):
        assert np.abs(prod.blocks[i] - a.blocks[i] @ b.blocks[i]).max() < 1e-13
        assert np.abs(a.dagger().blocks[i] - a.blocks[i].conj().T).max() == 0
    assert a.trace() == pytest.approx(sum(np.trace(blk) for blk in a.blocks), abs=1e-13)
    h = q.random_hermitian(shape, rng)
    blockwise = np.sort(np.concatenate([np.linalg.eigvalsh(blk) for blk in h.blocks]))
    assert np.abs(q.spectrum(h) - blockwise).max() < 1e-12


def test_shape_data_is_computed_once():
    s = q.AlgebraShape([2, 1, 2])
    assert s.hs_offsets == (0, 4, 5)
    assert s.hs_offsets is s.hs_offsets
    assert s.size_classes is s.size_classes
    assert [n for n, _, _ in s.size_classes] == [1, 2]
    assert s.dagger_permutation() is s.dagger_permutation()
    factors = (q.AlgebraShape([2, 1]), q.AlgebraShape([1, 1]))
    assert q.product_shape(factors) is q.product_shape(list(factors))


# ---------------------------------------------------------------------------
# aliasing and read-only storage
# ---------------------------------------------------------------------------


def _outputs():
    rng = np.random.default_rng(11)
    shape = q.AlgebraShape([2, 1])
    a = q.random_element(shape, rng)
    b = q.random_element(shape, rng)
    x = q.FactoredElement.from_element(q.random_state(shape, rng))
    step = q.bloom_step(x, q.random_cptp(shape, q.AlgebraShape([1, 1]), rng))
    return {
        "bloom_step": step.flatten(),
        "partial_trace": q.partial_trace(step, {1}).flatten(),
        "from_hs": q.from_hs(shape, np.arange(5.0)),
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "scale": 2.0 * a,
        "div": a / 3,
        "matmul": a @ b,
        "dagger": a.dagger(),
    }


@pytest.mark.parametrize("name", sorted(_outputs()))
def test_outputs_are_read_only(name):
    elem = _outputs()[name]
    for blk in elem.blocks:
        assert not blk.flags.writeable
        with pytest.raises(ValueError):
            blk[0, 0] = 1.0
    with pytest.raises(ValueError):
        elem.to_hs()[0] = 1.0


def test_blocks_are_views_of_the_coefficient_vector():
    a = q.random_element(q.AlgebraShape([2, 1]), 3)
    vec = a.to_hs()
    assert all(np.shares_memory(blk, vec) for blk in a.blocks)
    assert np.array_equal(np.concatenate([blk.reshape(-1) for blk in a.blocks]), vec)


def test_writes_to_inputs_and_outputs_do_not_reach_elements():
    shape = q.AlgebraShape([2, 1])
    src = np.arange(5.0) + 1j
    a = q.from_hs(shape, src)
    src[:] = 0
    assert np.array_equal(a.to_hs(), np.arange(5.0) + 1j)

    vec = a.to_hs()
    with pytest.raises(ValueError):
        vec[0] = 99
    copy = np.array(vec)
    copy[0] = 99
    assert a.to_hs()[0] == 1j

    blocks = [np.eye(2, dtype=complex), np.ones((1, 1), dtype=complex)]
    b = q.AlgebraElement(shape, blocks)
    blocks[0][0, 0] = 7
    assert b.blocks[0][0, 0] == 1


# ---------------------------------------------------------------------------
# NaN-safe reductions: a NaN outside the first block must not be dropped
# ---------------------------------------------------------------------------


def _nan_in_second_block():
    shape = q.AlgebraShape([2, 1])
    return q.AlgebraElement(shape, [np.eye(2) / 3, np.array([[np.nan]])])


def test_hermiticity_deviation_propagates_nan():
    bad = _nan_in_second_block()
    assert math.isnan(bad.hermiticity_deviation())
    assert not bad.is_self_adjoint()
    assert not bad.is_virtual_state()


def test_max_abs_diff_propagates_nan():
    bad = _nan_in_second_block()
    clean = q.identity_element(bad.shape) / 3
    assert math.isnan(q.max_abs_diff(bad, clean))
    assert math.isnan(q.max_abs_diff(clean, bad))


def test_spectrum_rejects_nan():
    with pytest.raises(ValueError, match="not self-adjoint"):
        q.spectrum(_nan_in_second_block())
