"""Finite-dimensional operator algebras realized as direct sums of matrix blocks.

An algebra is a list of block dimensions ``(n_1, ..., n_k)``; its elements are
block-diagonal complex matrices.  A classical algebra is one whose blocks are
all 1x1, so its elements are diagonal and its states are probability vectors.
Tensor products of algebras are again block algebras, with one block per
tuple of factor blocks, ordered lexicographically.

Coordinates: every element has a vector of coefficients in the orthonormal
trace-inner-product basis of matrix units, ordered (block, row, column) with
blocks ascending and entries row-major inside each block.  All superoperator
matrices in this package are written in that basis.

Storage: an element *is* its coefficient vector, one read-only flat complex
array; ``to_hs`` returns it and ``blocks`` are read-only ``(n, n)`` views into
it, built on first use.  Kernels never loop over blocks in Python.  Blocks of
equal size form a size class (:attr:`AlgebraShape.size_classes`), which one
fancy index gathers into an ``(count, n, n)`` stack; on a tensor product the
class of a block is the tuple of its factors' block sizes.  Elementwise
arithmetic works on the whole vector, and ``spectrum``, ``partial_trace`` and
the bloom step do one gather, one contraction and one scatter per class, with
the index arrays cached per shape or per factor tuple.  Classical algebras and
single-block algebras have a single class, whose gather is a plain reshape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_ATOL = 1e-9

__all__ = [
    "DEFAULT_ATOL",
    "AlgebraShape",
    "AlgebraElement",
    "FactoredElement",
    "tensor_shape",
    "product_shape",
    "hs_kron_permutation",
    "from_hs",
    "tensor_elements",
    "partial_trace",
    "spectrum",
    "max_abs_diff",
    "identity_element",
    "zero_element",
    "basis_element",
    "classical_state",
    "delta_state",
    "random_element",
    "random_hermitian",
    "random_state",
    "random_faithful_state",
    "random_virtual_state",
    "haar_unitary",
    "as_rng",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _block_entries(starts: np.ndarray, size: int) -> np.ndarray | slice:
    """Coefficient index of the blocks starting at ``starts``, each ``size`` entries long.

    A slice when the blocks are consecutive in the vector (indexing is then a
    view), otherwise a flat index array, blocks in the order of ``starts``.
    """
    starts = np.asarray(starts).reshape(-1)
    first = int(starts[0])
    if np.array_equal(starts, first + size * np.arange(starts.size)):
        return slice(first, first + size * starts.size)
    return _read_only((starts[:, None] + np.arange(size)).reshape(-1))


def _mixed_radix(terms: Sequence[np.ndarray]) -> np.ndarray:
    """All sums ``t_1[i_1] + ... + t_k[i_k]``, lexicographic in (i_1, ..., i_k)."""
    acc = np.zeros(1, dtype=np.intp)
    for t in terms:
        acc = np.add.outer(acc, t).reshape(-1)
    return acc


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions ``(n_1, ..., n_k)`` of a direct sum of matrix algebras.

    Everything derived from the block list (offsets, size classes, index
    vectors) is computed on first use and kept on the instance.
    """

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        blocks = tuple(int(n) for n in blocks)
        if not blocks:
            raise ValueError("an algebra needs at least one block")
        if min(blocks) < 1:
            raise ValueError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def total_dim(self) -> int:
        """Dimension of the algebra as a complex vector space (sum of n_i^2)."""
        return int(self._offsets[-1])

    @cached_property
    def hilbert_dim(self) -> int:
        """Dimension of the Hilbert space the algebra acts on (sum of n_i)."""
        return sum(self.blocks)

    @cached_property
    def is_classical(self) -> bool:
        """True when every block is 1x1 (commutative, diagonal algebra)."""
        return max(self.blocks) == 1

    @property
    def is_matrix_algebra(self) -> bool:
        return len(self.blocks) == 1

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Start of each block in the coefficient vector, then the total length."""
        sizes = np.asarray(self.blocks, dtype=np.intp)
        offs = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes * sizes, out=offs[1:])
        return _read_only(offs)

    @cached_property
    def hs_offsets(self) -> tuple[int, ...]:
        """Start offset of each block in the coefficient vector."""
        return tuple(self._offsets[:-1].tolist())

    @cached_property
    def size_classes(self) -> tuple[tuple[int, np.ndarray, slice | np.ndarray], ...]:
        """``(n, block indices, coefficient index)`` per distinct block size n, ascending.

        ``vec[index].reshape(-1, n, n)`` stacks the size-n blocks of a
        coefficient vector in block order.
        """
        sizes = np.asarray(self.blocks, dtype=np.intp)
        out = []
        for n in np.unique(sizes).tolist():
            idx = _read_only(np.flatnonzero(sizes == n))
            out.append((n, idx, _block_entries(self._offsets[idx], n * n)))
        return tuple(out)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Ascending positions of the diagonal matrix units in the coefficient vector."""
        parts = [
            (self._offsets[idx][:, None] + np.arange(n) * (n + 1)).reshape(-1)
            for n, idx, _ in self.size_classes
        ]
        return _read_only(np.sort(np.concatenate(parts)))

    @cached_property
    def _dagger(self) -> np.ndarray:
        perm = np.empty(self.total_dim, dtype=np.intp)
        for n, idx, _ in self.size_classes:
            starts = self._offsets[idx][:, None]
            transposed = np.arange(n * n).reshape(n, n).T.reshape(-1)
            perm[(starts + np.arange(n * n)).reshape(-1)] = (starts + transposed).reshape(-1)
        return _read_only(perm)

    def hs_slice(self, block: int) -> slice:
        off = self.hs_offsets[block]
        n = self.blocks[block]
        return slice(off, off + n * n)

    def hs_index(self, block: int, row: int, col: int) -> int:
        n = self.blocks[block]
        return self.hs_offsets[block] + row * n + col

    def dagger_permutation(self) -> np.ndarray:
        """Index permutation sending the coefficient of E_ij to that of E_ji (read-only)."""
        return self._dagger

    def trace_vector(self) -> np.ndarray:
        """Coefficient vector of the trace functional (1 on diagonal units)."""
        vec = np.zeros(self.total_dim)
        vec[self._diagonal] = 1.0
        return vec

    def __repr__(self) -> str:
        return f"AlgebraShape({list(self.blocks)})"


def tensor_shape(a: AlgebraShape, b: AlgebraShape) -> AlgebraShape:
    """Shape of the tensor product: blocks n_i * m_j in lexicographic (i, j) order."""
    return product_shape((a, b))


def product_shape(factors: Sequence[AlgebraShape]) -> AlgebraShape:
    """Shape of the tensor product of the factors; one shared instance per factor tuple."""
    return _product_shape(tuple(factors))


@lru_cache(maxsize=256)
def _product_shape(factors: tuple[AlgebraShape, ...]) -> AlgebraShape:
    if not factors:
        raise ValueError("empty factor list")
    if len(factors) == 1:
        return factors[0]
    sizes = np.ones(1, dtype=np.int64)
    for f in factors:
        sizes = np.multiply.outer(sizes, f.blocks).reshape(-1)
    return AlgebraShape(sizes.tolist())


@lru_cache(maxsize=64)
def hs_kron_permutation(a: AlgebraShape, b: AlgebraShape) -> np.ndarray:
    """Permutation p with coeffs_product(x (x) y) = kron(coeffs(x), coeffs(y))[p].

    Documents the fixed basis convention of tensor products: the coefficient
    vector of the product algebra is a reshuffle of the Kronecker product of
    the factor coefficient vectors.  The result is cached and read-only.
    """
    tb = b.total_dim
    prod = tensor_shape(a, b)
    perm = np.empty(prod.total_dim, dtype=np.intp)
    for n, ia, _ in a.size_classes:
        for m, ib, _ in b.size_classes:
            # axes (i, j, r1, r2, c1, c2): block pair, then product-block entry
            # (r1 r2, c1 c2) row-major
            i = ia[:, None, None, None, None, None]
            j = ib[None, :, None, None, None, None]
            r1 = np.arange(n)[:, None, None, None]
            r2 = np.arange(m)[:, None, None]
            c1 = np.arange(n)[:, None]
            c2 = np.arange(m)
            pos = prod._offsets[i * b.num_blocks + j] + (r1 * m + r2) * (n * m) + c1 * m + c2
            kron = (a._offsets[i] + r1 * n + c1) * tb + (b._offsets[j] + r2 * m + c2)
            perm[pos.reshape(-1)] = kron.reshape(-1)
    return _read_only(perm)


class AlgebraElement:
    """Block-diagonal complex matrix over an :class:`AlgebraShape`.

    Immutable value; all arithmetic returns new elements.  The data is the
    read-only coefficient vector (see the module docstring).
    """

    __slots__ = ("shape", "_vec", "_blocks")

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray], *, _trust: bool = False):
        """Copy one ``(n, n)`` array per block of ``shape`` into a new element.

        With ``_trust`` (internal), ``blocks`` is instead a freshly computed,
        read-only coefficient vector of the right length, adopted as is.
        """
        self.shape = shape
        self._blocks = None
        if _trust:
            self._vec = blocks
            return
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if len(blocks) != shape.num_blocks:
            raise ValueError(
                f"expected {shape.num_blocks} blocks, got {len(blocks)}"
            )
        for n, blk in zip(shape.blocks, blocks):
            if blk.shape != (n, n):
                raise ValueError(f"block of size {blk.shape} does not match {n}x{n}")
        self._vec = _read_only(np.concatenate([b.reshape(-1) for b in blocks]))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks, as read-only ``(n, n)`` views of the coefficient vector."""
        if self._blocks is None:
            vec = self._vec
            self._blocks = tuple(
                vec[off : off + n * n].reshape(n, n)
                for off, n in zip(self.shape.hs_offsets, self.shape.blocks)
            )
        return self._blocks

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def _stacks(self) -> Iterator[tuple[int, slice | np.ndarray, np.ndarray]]:
        """``(n, coefficient index, (count, n, n) stack)`` per size class."""
        for n, _, index in self.shape.size_classes:
            yield n, index, self._vec[index].reshape(-1, n, n)

    def _binary(self, other: "AlgebraElement", op) -> "AlgebraElement":
        """Combine the coefficient vectors of two elements of the same shape."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return _element(self.shape, op(self._vec, other._vec))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return _element(self.shape, -self._vec)

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use @ for the blockwise operator product")
        return _element(self.shape, scalar * self._vec)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        """Blockwise operator product."""

        def blockwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            out = np.empty_like(a)
            for n, _, index in self.shape.size_classes:
                out[index] = np.matmul(a[index].reshape(-1, n, n), b[index].reshape(-1, n, n)).reshape(-1)
            return out

        return self._binary(other, blockwise)

    def dagger(self) -> "AlgebraElement":
        out = self._vec[self.shape._dagger]
        return _element(self.shape, np.conjugate(out, out=out))

    def trace(self) -> complex:
        return complex(self._vec[self.shape._diagonal].sum())

    def hs_inner(self, other: "AlgebraElement") -> complex:
        """Trace inner product tr(self^dag other); conjugate-linear in self."""
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return complex(np.vdot(self._vec, other._vec))

    def hs_norm(self) -> float:
        return math.sqrt(max(self.hs_inner(self).real, 0.0))

    def to_hs(self) -> np.ndarray:
        """Coefficient vector in the matrix-unit basis (block, row-major); read-only, not a copy."""
        return self._vec

    def to_dense(self) -> np.ndarray:
        """Full block-diagonal matrix on the algebra's Hilbert space."""
        n = self.shape.hilbert_dim
        out = np.zeros((n, n), dtype=complex)
        pos = 0
        for blk in self.blocks:
            d = blk.shape[0]
            out[pos : pos + d, pos : pos + d] = blk
            pos += d
        return out

    def hermiticity_deviation(self) -> float:
        """Largest entry of |A - A^dag|; NaN if any coefficient is NaN."""
        # np.max propagates NaN, where Python's max(acc, nan) would keep acc
        return float(np.max([
            np.abs(stack - stack.conj().swapaxes(1, 2)).max() for _, _, stack in self._stacks()
        ]))

    def is_self_adjoint(self, tol: float = DEFAULT_ATOL) -> bool:
        return self.hermiticity_deviation() <= tol

    def is_virtual_state(self, tol: float = DEFAULT_ATOL) -> bool:
        """Self-adjoint with unit trace; positivity not required."""
        return self.is_self_adjoint(tol) and abs(self.trace() - 1.0) <= tol

    def is_state(self, tol: float = DEFAULT_ATOL) -> bool:
        if not self.is_virtual_state(tol):
            return False
        return spectrum(self, tol=tol)[0] >= -tol

    def is_unitary(self, tol: float = DEFAULT_ATOL) -> bool:
        return all(
            np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(n)).max() <= tol
            for n, _, stack in self._stacks()
        )

    def __repr__(self) -> str:
        return f"AlgebraElement(shape={list(self.shape.blocks)}, trace={self.trace():.4g})"


def _element(shape: AlgebraShape, vec: np.ndarray) -> AlgebraElement:
    """Adopt a freshly computed coefficient vector, without validation or copy."""
    return AlgebraElement(shape, _read_only(vec), _trust=True)


def from_hs(shape: AlgebraShape, vec: np.ndarray) -> AlgebraElement:
    """Inverse of :meth:`AlgebraElement.to_hs`; copies ``vec``."""
    vec = np.array(vec, dtype=complex).reshape(-1)
    if vec.size != shape.total_dim:
        raise ValueError(f"vector of length {vec.size} does not match {shape}")
    return _element(shape, vec)


def zero_element(shape: AlgebraShape) -> AlgebraElement:
    return _element(shape, np.zeros(shape.total_dim, dtype=complex))


def identity_element(shape: AlgebraShape) -> AlgebraElement:
    return from_hs(shape, shape.trace_vector())


def basis_element(shape: AlgebraShape, index: int) -> AlgebraElement:
    """The index-th matrix unit in the fixed coordinate order."""
    vec = np.zeros(shape.total_dim, dtype=complex)
    vec[index] = 1.0
    return _element(shape, vec)


def classical_state(probabilities: Sequence[float]) -> AlgebraElement:
    """Probability vector as a state on the classical algebra with one block per outcome."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    return from_hs(AlgebraShape([1] * p.size), p)


def delta_state(shape: AlgebraShape, outcome: int) -> AlgebraElement:
    """Point-mass state on a classical algebra."""
    if not shape.is_classical:
        raise ValueError("delta states live on classical algebras")
    return basis_element(shape, outcome)


def spectrum(a: AlgebraElement, tol: float = DEFAULT_ATOL) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint element, all blocks merged."""
    dev = a.hermiticity_deviation()
    if not dev <= tol:
        raise ValueError(f"element is not self-adjoint (deviation {dev:.3g})")
    vals = np.concatenate([np.linalg.eigvalsh(stack).reshape(-1) for _, _, stack in a._stacks()])
    return np.sort(vals)


def max_abs_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest coefficient of |a - b|; NaN if either has a NaN coefficient."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a.to_hs() - b.to_hs()).max())


# ---------------------------------------------------------------------------
# random generators (deterministic given a seed)
# ---------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_element(shape: AlgebraShape, seed=None) -> AlgebraElement:
    rng = as_rng(seed)
    return AlgebraElement(shape, [_ginibre(rng, n, n) for n in shape.blocks])


def random_hermitian(shape: AlgebraShape, seed=None) -> AlgebraElement:
    rng = as_rng(seed)
    blocks = []
    for n in shape.blocks:
        g = _ginibre(rng, n, n)
        blocks.append((g + g.conj().T) / 2)
    return AlgebraElement(shape, blocks)


def random_state(shape: AlgebraShape, seed=None) -> AlgebraElement:
    """Random density operator: normalized Gram blocks with random block weights."""
    rng = as_rng(seed)
    raw = []
    for n in shape.blocks:
        g = _ginibre(rng, n, n)
        raw.append(g @ g.conj().T)
    weights = rng.random(shape.num_blocks) + 0.1
    weights = weights / weights.sum()
    blocks = [w * b / np.trace(b).real for w, b in zip(weights, raw)]
    return AlgebraElement(shape, blocks)


def random_faithful_state(shape: AlgebraShape, seed=None, mix: float = 0.25) -> AlgebraElement:
    """Random full-rank state: convex mixture with the maximally mixed state."""
    rho = random_state(shape, seed)
    mixed = identity_element(shape) / shape.hilbert_dim
    return (1.0 - mix) * rho + mix * mixed


def random_virtual_state(shape: AlgebraShape, seed=None, skew: float = 0.5) -> AlgebraElement:
    """Self-adjoint unit-trace element that is generically not positive."""
    rng = as_rng(seed)
    rho = random_state(shape, rng)
    h = random_hermitian(shape, rng)
    h = h - (h.trace().real / shape.hilbert_dim) * identity_element(shape)
    return rho + skew * h


def haar_unitary(shape: AlgebraShape, seed=None) -> AlgebraElement:
    """Blockwise Haar-random unitary via QR with phase-fixed diagonal."""
    rng = as_rng(seed)
    blocks = []
    for n in shape.blocks:
        q, r = np.linalg.qr(_ginibre(rng, n, n))
        d = np.diag(r)
        blocks.append(q * (d / np.abs(d)))
    return AlgebraElement(shape, blocks)


# ---------------------------------------------------------------------------
# elements of tensor products
# ---------------------------------------------------------------------------


class FactoredElement:
    """Element of a tensor product of algebras, tagged with its factor list.

    The data is the flattened element over the product shape (one block per
    tuple of factor blocks, lexicographic); the factor list makes partial
    traces well-defined.
    """

    __slots__ = ("factors", "element")

    def __init__(self, factors: Sequence[AlgebraShape], element: AlgebraElement):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a factored element needs at least one factor")
        if element.shape != product_shape(factors):
            raise ValueError(
                f"element shape {element.shape} does not match product of {list(factors)}"
            )
        self.factors = factors
        self.element = element

    @classmethod
    def from_element(cls, element: AlgebraElement) -> "FactoredElement":
        return cls((element.shape,), element)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def product(self) -> AlgebraShape:
        return self.element.shape

    def flatten(self) -> AlgebraElement:
        return self.element

    def as_element(self) -> AlgebraElement:
        if len(self.factors) != 1:
            raise ValueError("as_element requires a single factor")
        return self.element

    def with_factors(self, factors: Sequence[AlgebraShape]) -> "FactoredElement":
        """Relabel the factor grouping; the flat product shape must be unchanged."""
        return FactoredElement(factors, self.element)

    def block_tuples(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield (flat block index, tuple of factor block indices) in order."""
        ranges = [range(f.num_blocks) for f in self.factors]
        for flat, tup in enumerate(itertools.product(*ranges)):
            yield flat, tup

    def tuple_block(self, tup: Sequence[int]) -> np.ndarray:
        flat = 0
        for f, b in zip(self.factors, tup):
            flat = flat * f.num_blocks + b
        return self.element.block(flat)

    def trace(self) -> complex:
        return self.element.trace()

    def dagger(self) -> "FactoredElement":
        return FactoredElement(self.factors, self.element.dagger())

    def __add__(self, other: "FactoredElement") -> "FactoredElement":
        if self.factors != other.factors:
            raise ValueError("factor lists differ")
        return FactoredElement(self.factors, self.element + other.element)

    def __sub__(self, other: "FactoredElement") -> "FactoredElement":
        if self.factors != other.factors:
            raise ValueError("factor lists differ")
        return FactoredElement(self.factors, self.element - other.element)

    def __mul__(self, scalar):
        return FactoredElement(self.factors, self.element * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        dims = [list(f.blocks) for f in self.factors]
        return f"FactoredElement(factors={dims})"


def tensor_elements(x: FactoredElement, y: FactoredElement) -> FactoredElement:
    """Tensor product; blocks are Kronecker products in lexicographic tuple order."""
    perm = hs_kron_permutation(x.product, y.product)
    vec = np.kron(x.element.to_hs(), y.element.to_hs())[perm]
    shape = tensor_shape(x.product, y.product)
    return FactoredElement(x.factors + y.factors, _element(shape, vec))


def tensor_many(elements: Sequence[FactoredElement]) -> FactoredElement:
    return reduce(tensor_elements, elements)


def _radix_strides(factors: Sequence[AlgebraShape]) -> list[int]:
    """Weight of each factor's block index in the flat index of a product block."""
    strides, acc = [], 1
    for f in reversed(factors):
        strides.append(acc)
        acc *= f.num_blocks
    return strides[::-1]


@lru_cache(maxsize=256)
def _trace_plan(
    factors: tuple[AlgebraShape, ...], keep: tuple[int, ...]
) -> tuple[tuple[AlgebraShape, ...], AlgebraShape, tuple[tuple[np.ndarray, slice | np.ndarray], ...]]:
    """Index arrays of :func:`partial_trace`, one (gather, scatter) pair per class.

    For a class (a choice of block size per factor), ``vec[gather]`` has one
    row per output coefficient it feeds and one column per diagonal entry of
    the traced legs, over all traced block tuples; summing the columns gives
    the reduced coefficients, which land at ``scatter`` in the output vector.
    """
    kept = tuple(factors[i] for i in keep)
    traced = [i for i in range(len(factors)) if i not in keep]
    in_offs = product_shape(factors)._offsets
    out_shape = product_shape(kept)
    strides = _radix_strides(factors)
    out_strides = dict(zip(keep, _radix_strides(kept)))
    classes = []
    for members in itertools.product(*[f.size_classes for f in factors]):
        n = [c[0] for c in members]
        blocks = [c[1] for c in members]
        dim = math.prod(n)
        leg = [math.prod(n[i + 1 :]) for i in range(len(n))]  # weight of a row index
        dim_kept = math.prod(n[i] for i in keep)
        leg_kept = {i: math.prod(n[j] for j in keep if j > i) for i in keep}

        blk_kept = _mixed_radix([blocks[i] * strides[i] for i in keep])
        blk_traced = _mixed_radix([blocks[i] * strides[i] for i in traced])
        base = in_offs[blk_kept[:, None] + blk_traced[None, :]]
        rows = _mixed_radix([np.arange(n[i]) * leg[i] * dim for i in keep])
        cols = _mixed_radix([np.arange(n[i]) * leg[i] for i in keep])
        entries_kept = np.add.outer(rows, cols).reshape(-1)
        # a traced leg contributes only where its row and column indices agree
        entries_traced = _mixed_radix([np.arange(n[i]) * leg[i] * (dim + 1) for i in traced])
        gather = (
            base[:, None, :, None]
            + entries_kept[None, :, None, None]
            + entries_traced[None, None, None, :]
        ).reshape(blk_kept.size * entries_kept.size, -1)

        out_blk = _mixed_radix([blocks[i] * out_strides[i] for i in keep])
        out_rows = _mixed_radix([np.arange(n[i]) * leg_kept[i] * dim_kept for i in keep])
        out_cols = _mixed_radix([np.arange(n[i]) * leg_kept[i] for i in keep])
        scatter = np.add.outer(out_shape._offsets[out_blk], np.add.outer(out_rows, out_cols))
        # each output coefficient is a run of length 1
        classes.append((_read_only(gather), _block_entries(scatter, 1)))
    return kept, out_shape, tuple(classes)


def partial_trace(x: FactoredElement, keep: Iterable[int]) -> FactoredElement:
    """Trace out every factor not in ``keep``; kept factors stay in their order."""
    keep = sorted(set(keep))
    n = x.num_factors
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == n:
        return x

    kept, out_shape, classes = _trace_plan(x.factors, tuple(keep))
    vec = x.element.to_hs()
    out = np.zeros(out_shape.total_dim, dtype=complex)
    for gather, scatter in classes:
        out[scatter] += vec[gather].sum(axis=1)
    return FactoredElement(kept, _element(out_shape, out))
