"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape machine: every kernel computes its numpy forward immediately
and, when an active tape exists and an input wants gradients, appends a
node holding a backward closure. ``backward`` replays the tape in reverse,
accumulating gradients additively across fan-out.

All kernels are deterministic: reductions use numpy's fixed evaluation
order, and the window (stencil) kernels accumulate shifted slices in a fixed
offset order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError, ShapeError

ARCCOS_EPS = 1e-7      # safety clamp half-width on arccos inputs
DIVIDE_FLOOR = 1e-12   # smallest legal divisor magnitude
LEAKY_SLOPE = 0.01     # negative slope used by every LeakyReLU in the network


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``data`` is stored shaped (row-major); ``data.size`` always equals the
    product of ``shape``. ``grad`` is ``None`` until ``backward`` reaches
    this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # Light operator sugar; the named kernel functions below do the work.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    """One recorded operation: op name, operands, result, backward closure."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; forward order is topological order."""

    _active: Optional["Tape"] = None

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ContractError("tapes do not nest; one training context at a time")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn: Callable[[np.ndarray], None]):
        self.nodes.append(Node(op, inputs, output, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(np.float64, copy=True)
    else:
        t.grad += g


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a forward result, recording a node when gradients are wanted."""
    tape = Tape._active
    wants_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=wants_grad)
    if wants_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor):
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    Gradients accumulate additively across fan-out. Nodes whose output never
    received a gradient (not upstream of the loss) are skipped.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)


def first_nonfinite(tape: Tape) -> Optional[str]:
    """Name of the earliest recorded op with a non-finite output, if any."""
    for i, node in enumerate(tape.nodes):
        if not np.all(np.isfinite(node.output.data)):
            return f"{node.op} (node {i} of {len(tape.nodes)})"
    return None


# ---------------------------------------------------------------------------
# broadcasting helpers

def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_axis(axis: int, ndim: int, op: str) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} invalid for {ndim}-d tensor")
    return axis % ndim


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record("matmul", (a, b), out, bwd)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {x.shape}")

    def bwd(g):
        _accumulate(x, g.T)

    return _record("transpose", (x,), x.data.T.copy(), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        _accumulate(x, g.reshape(x.shape))

    return _record("reshape", (x,), x.data.reshape(shape), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    axis = _check_axis(axis, parts[0].ndim, "concat")
    out = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(p, piece)

    return _record("concat", parts, out, bwd)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``[start:stop)`` along ``axis``."""
    axis = _check_axis(axis, x.ndim, "narrow")
    idx = tuple(slice(None) if d != axis else slice(start, stop)
                for d in range(x.ndim))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        _accumulate(x, gx)

    return _record("narrow", (x,), x.data[idx].copy(), bwd)


# ---------------------------------------------------------------------------
# elementwise suite

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _record("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record("mul", (a, b), out, bwd)


def divide(a: Tensor, b: Tensor) -> Tensor:
    if np.min(np.abs(b.data)) < DIVIDE_FLOOR:
        raise NumericDomainError(
            f"divide: divisor magnitude below {DIVIDE_FLOOR}")
    out = a.data / b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record("divide", (a, b), out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        _accumulate(x, g * c)

    return _record("scale", (x,), x.data * c, bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        _accumulate(x, g * out)

    return _record("exp", (x,), out, bwd)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def bwd(g):
        _accumulate(x, g * 0.5 / out)

    return _record("sqrt", (x,), out, bwd)


def square(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, g * 2.0 * x.data)

    return _record("square", (x,), x.data * x.data, bwd)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    out = np.maximum(x.data, floor)

    def bwd(g):
        _accumulate(x, g * (x.data > floor))

    return _record("clamp_min", (x,), out, bwd)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record("relu", (x,), out, bwd)


def leaky_relu(x: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    slope = float(slope)
    pos = x.data > 0.0
    out = np.where(pos, x.data, slope * x.data)

    def bwd(g):
        _accumulate(x, g * np.where(pos, 1.0, slope))

    return _record("leaky_relu", (x,), out, bwd)


def arccos(x: Tensor) -> Tensor:
    """arccos with a safety clamp of the input to [-1+eps, 1-eps].

    The clamp's derivative is pass-through strictly inside the interval and
    zero where the input was clipped, so spectra that align exactly do not
    produce infinite gradients.
    """
    lo, hi = -1.0 + ARCCOS_EPS, 1.0 - ARCCOS_EPS
    clipped = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)
    out = np.arccos(clipped)

    def bwd(g):
        _accumulate(x, g * np.where(inside, -1.0 / np.sqrt(1.0 - clipped * clipped), 0.0))

    return _record("arccos", (x,), out, bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(axis, x.ndim, "softmax")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        _accumulate(x, out * (g - dot))

    return _record("softmax", (x,), out, bwd)


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


def l2_norm(x: Tensor, axis: int) -> Tensor:
    """Euclidean norm along ``axis``; subgradient 0 at the origin."""
    axis = _check_axis(axis, x.ndim, "l2_norm")
    out = np.sqrt(np.sum(x.data * x.data, axis=axis))

    def bwd(g):
        safe = np.where(out > 0.0, out, 1.0)
        gx = np.expand_dims(g / safe, axis) * x.data
        gx[np.broadcast_to(np.expand_dims(out == 0.0, axis), x.shape)] = 0.0
        _accumulate(x, gx)

    return _record("l2_norm", (x,), out, bwd)


# ---------------------------------------------------------------------------
# convolution (stride 1; im2col/col2im with fixed slice order)

def _im2col(xp: np.ndarray, k: int, out_h: int, out_w: int) -> np.ndarray:
    """(..., C, Hp, Wp) -> (..., C*k*k, out_h*out_w)."""
    lead = xp.shape[:-3]
    c = xp.shape[-3]
    cols = np.empty(lead + (c, k, k, out_h, out_w), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[..., i, j, :, :] = xp[..., i:i + out_h, j:j + out_w]
    return cols.reshape(lead + (c * k * k, out_h * out_w))


def _col2im(gcols: np.ndarray, c: int, k: int, hp: int, wp: int,
            out_h: int, out_w: int) -> np.ndarray:
    lead = gcols.shape[:-2]
    gcols = gcols.reshape(lead + (c, k, k, out_h, out_w))
    gxp = np.zeros(lead + (c, hp, wp), dtype=gcols.dtype)
    for i in range(k):
        for j in range(k):
            gxp[..., i:i + out_h, j:j + out_w] += gcols[..., i, j, :, :]
    return gxp


def _conv_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                  padding: int):
    batched = x.ndim == 4
    c_out, c_in, k, k2 = w.shape
    if k != k2:
        raise ShapeError(f"conv2d: kernel must be square, got {w.shape}")
    if x.shape[-3] != c_in:
        raise ShapeError(
            f"conv2d: input channels {x.shape} do not match kernel {w.shape}")
    pad = [(0, 0)] * (x.ndim - 2) + [(padding, padding), (padding, padding)]
    xp = np.pad(x, pad) if padding else x
    out_h = xp.shape[-2] - k + 1
    out_w = xp.shape[-1] - k + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"conv2d: kernel {w.shape} too large for input {x.shape}")
    cols = _im2col(xp, k, out_h, out_w)
    w2 = w.reshape(c_out, c_in * k * k)
    out = w2 @ cols  # broadcasts over the batch axis when present
    if b is not None:
        out = out + b[:, None]
    lead = (x.shape[0],) if batched else ()
    return out.reshape(lead + (c_out, out_h, out_w)), cols, xp.shape


def _conv_backward(g: np.ndarray, x: Tensor, w: Tensor, b: Optional[Tensor],
                   cols: np.ndarray, xp_shape, padding: int):
    c_out, c_in, k, _ = w.shape
    batched = g.ndim == 4
    out_h, out_w = g.shape[-2], g.shape[-1]
    g2 = g.reshape(g.shape[:-3] + (c_out, out_h * out_w))
    w2 = w.data.reshape(c_out, c_in * k * k)
    if batched:
        gw = np.einsum("noL,ncL->oc", g2, cols, optimize=True)
        gb = g2.sum(axis=(0, 2))
    else:
        gw = g2 @ cols.T
        gb = g2.sum(axis=1)
    _accumulate(w, gw.reshape(w.shape))
    if b is not None:
        _accumulate(b, gb)
    if x.requires_grad:
        gcols = w2.T @ g2  # (..., C*k*k, L)
        hp, wp = xp_shape[-2], xp_shape[-1]
        gxp = _col2im(gcols, c_in, k, hp, wp, out_h, out_w)
        if padding:
            sl = (Ellipsis, slice(padding, hp - padding), slice(padding, wp - padding))
            gxp = gxp[sl]
        _accumulate(x, gxp)


def conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor], padding: int = 0) -> Tensor:
    """Cross-correlation of a C_in x H x W map with C_out kernels, stride 1."""
    if x.ndim != 3:
        raise ShapeError(f"conv2d expects C x H x W input, got {x.shape}")
    out, cols, xp_shape = _conv_forward(x.data, w.data,
                                        None if bias is None else bias.data, padding)

    def bwd(g):
        _conv_backward(g, x, w, bias, cols, xp_shape, padding)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _record("conv2d", inputs, out, bwd)


def conv2d_batched(x: Tensor, w: Tensor, bias: Optional[Tensor],
                   padding: int = 0) -> Tensor:
    """conv2d over a stack of independent N x C x H x W inputs."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d_batched expects N x C x H x W input, got {x.shape}")
    out, cols, xp_shape = _conv_forward(x.data, w.data,
                                        None if bias is None else bias.data, padding)

    def bwd(g):
        _conv_backward(g, x, w, bias, cols, xp_shape, padding)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _record("conv2d_batched", inputs, out, bwd)


# ---------------------------------------------------------------------------
# patch tiling

def _patch_grid(height: int, width: int, m: int):
    return -(-height // m), -(-width // m)


def tile_patches(x: Tensor, m: int) -> Tensor:
    """C x H x W -> n x C x m x m non-overlapping patches, row-major patch
    order, bottom/right edge patches zero-padded to full size."""
    if x.ndim != 3:
        raise ShapeError(f"tile_patches expects C x H x W, got {x.shape}")
    c, h, w = x.shape
    gh, gw = _patch_grid(h, w, m)
    hp, wp = gh * m, gw * m
    xp = np.zeros((c, hp, wp), dtype=x.data.dtype)
    xp[:, :h, :w] = x.data
    blocks = (xp.reshape(c, gh, m, gw, m)
                .transpose(1, 3, 0, 2, 4)
                .reshape(gh * gw, c, m, m))

    def bwd(g):
        gp = (g.reshape(gh, gw, c, m, m)
               .transpose(2, 0, 3, 1, 4)
               .reshape(c, hp, wp))
        _accumulate(x, gp[:, :h, :w])

    return _record("tile_patches", (x,), blocks.copy(), bwd)


def untile_patches(blocks: Tensor, height: int, width: int) -> Tensor:
    """Inverse of ``tile_patches``: n x C x m x m -> C x height x width,
    cropping any padded overhang."""
    if blocks.ndim != 4:
        raise ShapeError(f"untile_patches expects n x C x m x m, got {blocks.shape}")
    n, c, m, m2 = blocks.shape
    if m != m2:
        raise ShapeError(f"untile_patches: patches must be square, got {blocks.shape}")
    gh, gw = _patch_grid(height, width, m)
    if n != gh * gw:
        raise ShapeError(
            f"untile_patches: {n} patches cannot tile {height}x{width} with m={m}")
    full = (blocks.data.reshape(gh, gw, c, m, m)
                       .transpose(2, 0, 3, 1, 4)
                       .reshape(c, gh * m, gw * m))

    def bwd(g):
        gp = np.zeros((c, gh * m, gw * m), dtype=g.dtype)
        gp[:, :height, :width] = g
        _accumulate(blocks, gp.reshape(c, gh, m, gw, m)
                              .transpose(1, 3, 0, 2, 4)
                              .reshape(n, c, m, m))

    return _record("untile_patches", (blocks,), full[:, :height, :width].copy(), bwd)


# ---------------------------------------------------------------------------
# window stencil kernels (shifted slices over the last two axes, fixed order)

def _span(n: int, d: int):
    """Slices of i and of i + d over range(n), both kept inside it."""
    lo = max(0, -d)
    hi = max(lo, n - max(d, 0))
    return slice(lo, hi), slice(lo + d, hi + d)


def _window(shape, radius: int) -> list:
    """(pixel i, neighbour i + o) index pairs over the last two axes of
    ``shape`` for every window offset o, in row-major window order without
    the centre; reversing the list negates the offsets. Pairs are empty where
    the offset leaves the grid."""
    pairs = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if dr or dc:
                (ri, rj), (ci, cj) = _span(shape[-2], dr), _span(shape[-1], dc)
                pairs.append(((Ellipsis, ri, ci), (Ellipsis, rj, cj)))
    return pairs


def window_sqdist(x: Tensor, radius: int) -> Tensor:
    """Squared distance to every window neighbour: (C, H, W) -> (n_off, H, W),
    out[o, i] = |x[:, i] - x[:, i + o]|^2, zero where i + o is off the grid.
    Offsets o and -o share distances, so half the window is computed and
    mirrored; the backward pass recomputes differences from ``x``."""
    if x.ndim != 3:
        raise ShapeError(f"window_sqdist expects C x H x W, got {x.shape}")
    window = _window(x.shape, radius)
    last = len(window) - 1
    out = np.zeros((len(window),) + x.shape[1:])
    for o, (here, there) in enumerate(window[:len(window) // 2]):
        d = x.data[here] - x.data[there]
        out[o][here] = np.einsum("chw,chw->hw", d, d)
        out[last - o][there] = out[o][here]

    def bwd(g):
        gx = np.zeros_like(x.data)
        for o, (here, there) in enumerate(window[:len(window) // 2]):
            d = x.data[here] - x.data[there]
            d *= 2.0 * (g[o][here] + g[last - o][there])
            gx[here] += d
            gx[there] -= d
        _accumulate(x, gx)

    return _record("window_sqdist", (x,), out, bwd)


def neighbour_shift(x: Tensor, radius: int) -> Tensor:
    """Every pixel's window neighbours: (H, W) -> (n_off, H, W),
    out[o, i] = x[i + o], zero where i + o is off the grid."""
    if x.ndim != 2:
        raise ShapeError(f"neighbour_shift expects H x W, got {x.shape}")
    window = _window(x.shape, radius)
    out = np.zeros((len(window),) + x.shape)
    for o, (here, there) in enumerate(window):
        out[o][here] = x.data[there]

    def bwd(g):
        gx = np.zeros_like(x.data)
        for o, (here, there) in enumerate(window):
            gx[there] += g[o][here]
        _accumulate(x, gx)

    return _record("neighbour_shift", (x,), out, bwd)


def stencil_matvec(loops: Tensor, weights: Tensor, z: Tensor, radius: int) -> Tensor:
    """Window operator applied to every channel: (C, H, W) -> (C, H, W),
    out[:, i] = loops[i] z[:, i] + sum_o weights[o, i] z[:, i + o]."""
    n_off = (2 * radius + 1) ** 2 - 1
    if (loops.ndim != 2 or z.shape[1:] != loops.shape
            or weights.shape != (n_off,) + loops.shape):
        raise ShapeError(f"stencil_matvec: loops {loops.shape} and weights "
                         f"{weights.shape} do not fit z {z.shape} at radius {radius}")
    window = _window(z.shape, radius)
    out = loops.data * z.data
    for o, (here, there) in enumerate(window):
        out[here] += weights.data[o][here] * z.data[there]

    def bwd(g):
        if loops.requires_grad:
            _accumulate(loops, np.einsum("chw,chw->hw", g, z.data))
        if weights.requires_grad:
            gw = np.zeros_like(weights.data)
            for o, (here, there) in enumerate(window):
                gw[o][here] = np.einsum("chw,chw->hw", g[here], z.data[there])
            _accumulate(weights, gw)
        if z.requires_grad:
            gz = loops.data * g
            for o, (here, there) in enumerate(window):
                gz[there] += weights.data[o][here] * g[here]
            _accumulate(z, gz)

    return _record("stencil_matvec", (loops, weights, z), out, bwd)


# ---------------------------------------------------------------------------
# gradient verification

def finite_diff_check(f: Callable[[Tensor], Tensor], params: Tensor,
                      h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    ``f`` must be a deterministic scalar function of ``params``; the tensor's
    data is perturbed in place (and restored) one coordinate at a time.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ContractError(f"finite_diff_check: h={h} outside [1e-6, 1e-4]")
    params.zero_grad()
    prior = params.requires_grad
    params.requires_grad = True
    with Tape() as tape:
        loss = f(params)
    if loss.data.size != 1:
        raise ContractError("finite_diff_check: f must return a scalar")
    backward(tape, loss)
    params.requires_grad = prior
    analytic = (np.zeros_like(params.data) if params.grad is None
                else params.grad.copy())
    params.zero_grad()

    flat = params.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        hi = f(params).item()
        flat[i] = saved - h
        lo = f(params).item()
        flat[i] = saved
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericDomainError("finite_diff_check: f produced non-finite value")
        numeric = (hi - lo) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-8)
        if err > worst:
            worst = err
    return worst
