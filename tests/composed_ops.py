"""Composed tape ops: transpose, the elementwise ops and the reductions
that the fused nodes of ``cagu.autodiff`` replaced in the model.

The model records none of them, so they live with the tests, in two roles:
references that fused nodes are checked against bit for bit (``attention``
against softmax(scale(matmul(q, transpose(k)))) v, ``unmixing_loss``
against sub, square, sum, mul, the norms, divide and mean,
``patch_mean_linear`` against mean, transpose and matmul), and scalar
reductions, chiefly ``sum``, that turn an op's output into a gradient-check
loss. Each records its node through ``cagu.autodiff``'s own helpers, as a
package op does. A binary op computes no gradient for an operand that does
not require one.
"""

from __future__ import annotations

import numpy as np

from cagu.autodiff import (DIVIDE_FLOOR, Tensor, _accumulate, _check_axis,
                           _record, _unbroadcast)
from cagu.errors import NumericDomainError, ShapeError


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {x.shape}")

    def bwd(g):
        _accumulate(x, g.T)

    return _record("transpose", (x,), x.data.T.copy(), bwd)


# ---------------------------------------------------------------------------
# elementwise

def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _record("mul", (a, b), out, bwd)


def divide(a: Tensor, b: Tensor) -> Tensor:
    if np.min(np.abs(b.data)) < DIVIDE_FLOOR:
        raise NumericDomainError(
            f"divide: divisor magnitude below {DIVIDE_FLOOR}")
    out = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
                        fresh=True)

    return _record("divide", (a, b), out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        _accumulate(x, g * c, fresh=True)

    return _record("scale", (x,), x.data * c, bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        _accumulate(x, g * out, fresh=True)

    return _record("exp", (x,), out, bwd)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def bwd(g):
        _accumulate(x, g * 0.5 / out, fresh=True)

    return _record("sqrt", (x,), out, bwd)


def square(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, g * 2.0 * x.data, fresh=True)

    return _record("square", (x,), x.data * x.data, bwd)


# ---------------------------------------------------------------------------
# reductions

def sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    if axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(_check_axis(a, x.ndim, "sum") for a in axes)
    else:
        axes = None
    out = np.sum(x.data, axis=axes, keepdims=keepdims)

    def bwd(g):
        if axes is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return _record("sum", (x,), out, bwd)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for a in axes:
            count *= x.shape[_check_axis(a, x.ndim, "mean")]
    return scale(sum(x, axis=axis, keepdims=keepdims), 1.0 / count)
