"""Blooms: maps that attach a channel's output correlations to its input.

The single-map bloom composes canonical broadcasting with the channel on the
second leg.  Chains of channels bloom into maps from the initial algebra to
the full tensor product, either by the right-nested recursion or by repeatedly
attaching one factor at a time (the left-nested closed form); every complete
parenthesization of the target product gives an equivalent expression, and
all of them are exposed here for cross-checking.

The work happens in :func:`bloom_step`, which attaches one factor to a
factored element without materializing any operator on the doubled product
algebra: writing broadcasting as half the anti-commutator with the factor
swap turns the step into a small tensor contraction against the channel's
action on matrix units of the last factor.  Blocks are batched by size class
(see :mod:`qsot.algebra`): each class is one gather, two broadcast matrix
products and one scatter, with the indices cached per factor tuple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    FactoredElement,
    _block_entries,
    _element,
    _read_only,
    basis_element,
    product_shape,
    tensor_shape,
)
from .chanmap import Chain, LinearOperatorMap, identity_map, is_tp

__all__ = [
    "bloom_step",
    "bloom_apply",
    "bloom1",
    "bloom_chain_recursive",
    "bloom_chain_closed",
    "ParenTree",
    "all_parenthesizations",
    "right_comb",
    "left_comb",
    "catalan",
    "bloom_tree",
]


class _StepClass(NamedTuple):
    """Index ranges and shapes of one class of a bloom step (see :func:`_step_plan`).

    The two products run over the batch axes (h, b, t, C, x, r), legs of
    size 1 dropped; the first multiplies X[h, b, C, x, D, y] by u[b, t, w, y,
    r, z] over y into (h, b, t, C, x, r, D, wz), the second X[h, b, C, y, D,
    w] by u[b, t, y, x, r, z] over y into (h, b, t, C, xr, Dw, z), the same
    memory layout.
    """

    x_index: slice | np.ndarray  # input coefficients, axes (h, b, C, x, D, y)
    x_shape: tuple[int, ...]
    a1_shape: tuple[int, ...]
    a2_shape: tuple[int, ...]
    u1: slice  # range of the gathered map entries, axes (b, t, r, y, w, z)
    u1_shape: tuple[int, ...]
    u2: slice  # axes (b, t, x, r, y, z)
    u2_shape: tuple[int, ...]
    out_index: slice | np.ndarray  # output coefficients, axes (h, b, t, C, x, r, D, w, z)
    out_shape: tuple[int, ...]


class _StepPlan(NamedTuple):
    factors: tuple[AlgebraShape, ...]
    shape: AlgebraShape
    u_rows: np.ndarray  # the map matrix entries every class needs, in one gather
    u_cols: np.ndarray
    classes: tuple[_StepClass, ...]


def _batch(size: dict[str, int], axes: str, present: str) -> tuple[int, ...]:
    """Operand shape over the batch ``axes`` of a broadcast product.

    Axes in ``present`` keep their size, the others are 1; axes of size 1 in
    every operand are dropped.
    """
    return tuple(size[a] if a in present else 1 for a in axes if size[a] > 1)


def _unit_action_index(
    source: AlgebraShape, target: AlgebraShape, srcs: np.ndarray, tgts: np.ndarray, order: str
) -> tuple[np.ndarray, np.ndarray]:
    """Flat row and column indices into a map's matrix, over the axes in ``order``.

    The entry at (b, t, w, y, r, z) is (r, z) of the map applied to the unit
    E_wy of source block srcs[b], in target block tgts[t]; ``order`` is a
    permutation of "btwyrz", and the indices run over it lexicographically.
    """
    d, m = source.blocks[srcs[0]], target.blocks[tgts[0]]
    sizes = dict(b=srcs.size, t=tgts.size, w=d, y=d, r=m, z=m)
    ax = dict(zip(order, np.ix_(*[np.arange(sizes[c]) for c in order])))
    rows = target._offsets[tgts][ax["t"]] + ax["r"] * m + ax["z"]
    cols = source._offsets[srcs][ax["b"]] + ax["w"] * d + ax["y"]
    full = tuple(sizes[c] for c in order)
    return np.broadcast_to(rows, full).reshape(-1), np.broadcast_to(cols, full).reshape(-1)


@lru_cache(maxsize=256)
def _step_plan(factors: tuple[AlgebraShape, ...], target: AlgebraShape) -> _StepPlan:
    """Gather/scatter indices of :func:`bloom_step`, one entry per class.

    A class fixes the block size Dh of the head (all factors but the last),
    d of the last factor and m of the target.  Its h head blocks and b
    source blocks give an (h, b) grid of input blocks, and with its t target
    blocks an (h, b, t) grid of output blocks.
    """
    source = factors[-1]
    head = product_shape(factors[:-1]) if len(factors) > 1 else AlgebraShape([1])
    in_shape = product_shape(factors)
    out_factors = factors + (target,)
    out_shape = product_shape(out_factors)
    classes, u_parts = [], []

    def u_range(srcs: np.ndarray, tgts: np.ndarray, order: str) -> slice:
        start = sum(rows.size for rows, _ in u_parts)
        u_parts.append(_unit_action_index(source, target, srcs, tgts, order))
        return slice(start, start + u_parts[-1][0].size)

    for dh, heads, _ in head.size_classes:
        for d, srcs, _ in source.size_classes:
            in_blk = heads[:, None] * source.num_blocks + srcs[None, :]
            x_index = _block_entries(in_shape._offsets[in_blk], (dh * d) ** 2)
            for m, tgts, _ in target.size_classes:
                out_blk = in_blk[:, :, None] * target.num_blocks + tgts[None, None, :]
                # batch axes of the products are hbtCxr and hbtCv, v = (x, r)
                size = dict(h=heads.size, b=srcs.size, t=tgts.size, C=dh, x=d, r=m, v=d * m)
                classes.append(_StepClass(
                    x_index=x_index,
                    x_shape=(heads.size, srcs.size, dh, d, dh, d),
                    a1_shape=_batch(size, "hbtCxr", "hbCx") + (dh, d),
                    a2_shape=_batch(size, "hbtCv", "hbC") + (dh * d, d),
                    u1=u_range(srcs, tgts, "btrywz"),
                    u1_shape=_batch(size, "hbtCxr", "btr") + (d, d * m),
                    u2=u_range(srcs, tgts, "btyrwz"),
                    u2_shape=_batch(size, "hbtCv", "btv") + (d, m),
                    out_index=_block_entries(out_shape._offsets[out_blk], (dh * d * m) ** 2),
                    out_shape=_batch(size, "hbtCxr", "hbtCxr") + (dh, d * m),
                ))
    u_rows, u_cols = (_read_only(np.concatenate(part)) for part in zip(*u_parts))
    return _StepPlan(out_factors, out_shape, u_rows, u_cols, tuple(classes))


def bloom_step(x: FactoredElement, e: LinearOperatorMap) -> FactoredElement:
    """Attach one factor: bloom of (e after the trace onto the last factor).

    ``e`` must consume the last factor of ``x``.  With a single factor the
    trace is the identity, so this is the plain bloom of ``e`` applied to x.
    """
    if e.source != x.factors[-1]:
        raise ValueError(
            f"map source {e.source} does not match last factor {x.factors[-1]}"
        )
    plan = _step_plan(x.factors, e.target)
    vec = x.element.to_hs()
    # u[b, t, w, y, r, z]: entry (r, z) of e applied to the unit E_wy of
    # source block b, in target block t; halved for the anti-commutator
    u = 0.5 * e.matrix[plan.u_rows, plan.u_cols]
    out = np.empty(plan.shape.total_dim, dtype=complex)
    for c in plan.classes:
        xs = vec[c.x_index].reshape(c.x_shape)
        # half the anti-commutator with the swap, fused with the channel:
        # rows (C, x, r), cols (D, w, z); the traced legs collapse to a single
        # contraction over the last-factor index y,
        # sum_y X[C,x,D,y] u[w,y,r,z] + sum_y X[C,y,D,w] u[y,x,r,z]
        in_place = isinstance(c.out_index, slice)
        term = out[c.out_index].reshape(c.out_shape) if in_place else np.empty(c.out_shape, complex)
        np.matmul(xs.reshape(c.a1_shape), u[c.u1].reshape(c.u1_shape), out=term)
        term += np.matmul(
            xs.transpose(0, 1, 2, 4, 5, 3).reshape(c.a2_shape), u[c.u2].reshape(c.u2_shape)
        ).reshape(c.out_shape)
        if not in_place:
            out[c.out_index] = term.reshape(-1)
    return FactoredElement(plan.factors, _element(plan.shape, out))


def bloom_apply(chain: Chain, rho: AlgebraElement) -> FactoredElement:
    """Evaluate the chain bloom on an element by attaching factors left to right."""
    if rho.shape != chain.algebras[0]:
        raise ValueError("initial element does not live in the chain's first algebra")
    acc = FactoredElement.from_element(rho)
    for m in chain.maps:
        acc = bloom_step(acc, m)
    return acc


def bloom1(e: LinearOperatorMap, warn_non_tp: bool = True) -> LinearOperatorMap:
    """Bloom of a single map: broadcast, then apply the map on the second leg."""
    if warn_non_tp:
        ok, dev = is_tp(e)
        if not ok:
            warnings.warn(
                f"blooming a map that is not trace-preserving (deviation {dev:.3g})",
                stacklevel=2,
            )
    target = tensor_shape(e.source, e.target)
    cols = np.empty((target.total_dim, e.source.total_dim), dtype=complex)
    for k in range(e.source.total_dim):
        x = FactoredElement.from_element(basis_element(e.source, k))
        cols[:, k] = bloom_step(x, e).flatten().to_hs()
    return LinearOperatorMap(e.source, target, cols)


def bloom_chain_recursive(chain: Chain) -> LinearOperatorMap:
    """Right-nested chain bloom: bloom of (bloom of the tail, after the head)."""
    if len(chain) == 1:
        return bloom1(chain.maps[0], warn_non_tp=False)
    tail = bloom_chain_recursive(chain[1:])
    return bloom1(tail @ chain.maps[0], warn_non_tp=False)


def bloom_chain_closed(chain: Chain) -> LinearOperatorMap:
    """Left-nested chain bloom: attach one factor per step, evaluated columnwise."""
    source = chain.algebras[0]
    target = product_shape(chain.algebras)
    cols = np.empty((target.total_dim, source.total_dim), dtype=complex)
    for k in range(source.total_dim):
        cols[:, k] = bloom_apply(chain, basis_element(source, k)).flatten().to_hs()
    return LinearOperatorMap(source, target, cols)


# ---------------------------------------------------------------------------
# general parenthesizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParenTree:
    """Full binary tree; leaves, left to right, are the factors of the product."""

    left: "ParenTree | None" = None
    right: "ParenTree | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a node has either two children or none")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def num_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.num_leaves + self.right.num_leaves


LEAF = ParenTree()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _trees(n_leaves: int) -> tuple[ParenTree, ...]:
    if n_leaves == 1:
        return (LEAF,)
    out = []
    for k in range(1, n_leaves):
        for lt in _trees(k):
            for rt in _trees(n_leaves - k):
                out.append(ParenTree(lt, rt))
    return tuple(out)


def all_parenthesizations(n_leaves: int) -> tuple[ParenTree, ...]:
    """Every full binary tree on the given leaves; there are catalan(n-1) of them."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    return _trees(n_leaves)


def right_comb(n_leaves: int) -> ParenTree:
    t = LEAF
    for _ in range(n_leaves - 1):
        t = ParenTree(LEAF, t)
    return t


def left_comb(n_leaves: int) -> ParenTree:
    t = LEAF
    for _ in range(n_leaves - 1):
        t = ParenTree(t, LEAF)
    return t


def _tree_apply(
    tree: ParenTree,
    algebras: Sequence[AlgebraShape],
    maps: Sequence[LinearOperatorMap],
    x: FactoredElement,
) -> FactoredElement:
    """Evaluate the tree-shaped bloom on an element of the first algebra."""
    if tree.is_leaf:
        return x
    k = tree.left.num_leaves  # left subtree covers algebras[0:k]
    xl = _tree_apply(tree.left, algebras[:k], maps[: k - 1], x)
    g = _tree_map(tree.right, algebras[k:], maps[k:])
    step = g @ maps[k - 1]
    out = bloom_step(xl, step)
    return out.with_factors(tuple(algebras))


def _tree_map(
    tree: ParenTree,
    algebras: Sequence[AlgebraShape],
    maps: Sequence[LinearOperatorMap],
) -> LinearOperatorMap:
    if tree.is_leaf:
        return identity_map(algebras[0])
    source = algebras[0]
    target = product_shape(algebras)
    cols = np.empty((target.total_dim, source.total_dim), dtype=complex)
    for i in range(source.total_dim):
        x = FactoredElement.from_element(basis_element(source, i))
        cols[:, i] = _tree_apply(tree, algebras, maps, x).flatten().to_hs()
    return LinearOperatorMap(source, target, cols)


def bloom_tree(chain: Chain, tree: ParenTree) -> LinearOperatorMap:
    """Chain bloom evaluated along an arbitrary parenthesization of the target.

    The right comb reproduces the recursive form and the left comb the closed
    form; all trees agree, which the test suite checks pairwise.
    """
    algebras = chain.algebras
    if tree.num_leaves != len(algebras):
        raise ValueError(
            f"tree has {tree.num_leaves} leaves but the chain spans {len(algebras)} algebras"
        )
    return _tree_map(tree, algebras, chain.maps)
