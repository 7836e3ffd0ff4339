"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape machine: every kernel computes its numpy forward immediately
and, when an active tape exists and an input wants gradients, appends a
node holding a backward closure. ``backward`` consumes the tape: it pops the
nodes in reverse and releases each node before its closure runs, so an
output that no closure reads is freed before its producer's backward, the
arrays a closure saved as soon as it has run, and an intermediate gradient
once its producer has run (unless the caller holds the tensor).
Gradients accumulate additively across fan-out. A tensor's first gradient
is held as given. A closure flags each array it made and hands over whole,
and a tensor owns such an array: a second gradient is summed into the one
the tensor owns, the first or else the second, and into a new array only
when neither was handed over. Later ones add into the owned array in place.
Each sum keeps its operands and their order, so where it lands moves no bit.

There is one convolution op, ``conv2d``, a stack of layers as one node, and
one convolution kernel, which keeps the image size: one GEMM per kernel tap
over the padded, flattened C x H x W image, where every tap is one
contiguous shift (a 1x1 layer is a single tap over the image itself). The
two tokenizers read the C x H x W map and tile it privately: a convolution
of each patch alone followed by a linear layer is one folded matrix,
``patch_linear``, and a 1x1 convolution (the same kernel, on the map padded
to whole patches), patch mean and linear layer is one node,
``patch_mean_linear``. The window (stencil) kernels use the
convolution's padded flat layout, ``_Flat``, and work through the channels
in cache-sized blocks. A block's padded planes lie one after another in one
buffer, and where a plane is small (``SPAN_BYTES``) each elementwise pass
over the block is one 1-D slice, a span, from the first plane's first pixel
to the last plane's last, with the operator image tiled under the block's
planes; larger planes are passed plane by plane. Either way each pixel
takes the same products in the same order, and sums over channels run one
channel after another, so no bit depends on the block width or on the span.
The whole normalised pixel graph, from the feature map's window
distances to the self-loops and adjacency stacked as one operator, is one
node, ``window_graph``. The graph's channel projection, K-hop propagation
(the window operator applied K times) and hop mix into a residual update
are one node, ``propagate``, whose backward carries one hop-sized gradient
back through the hops. Scaled dot-product attention is one node that reads
the keys in cache-sized blocks with an online softmax. A layer, matmul plus
its bias and its LeakyReLU if it has one, is one node; so is a stack of
conv layers, each with its bias and LeakyReLU if it has them, ``conv2d``, a
linear layer whose rows are patch blocks put onto the grid,
``linear_untile``, with the "same" convolution after it if given one, and
the unmixing loss (squared error plus spectral angle), which keeps six
H x W arrays and recomputes r - y in backward, band block by band block.
Each op hands every layer (weight, bias) it computes to one hook,
``_activate``, which applies the LeakyReLU and, under ``Standardize``,
first calibrates the layer if it has a bias.

Beside those nine fused nodes the module has add, softmax, concat, narrow
and reshape: fourteen ops, the ones a training step records. The composed
ops the fused nodes replaced, and are checked against bit for bit
(transpose, the elementwise ops and the reductions), are test references in
``tests/composed_ops.py``, which record through ``_record`` as these do.

A node keeps only what its backward reads, and where it can, an array that
is alive anyway: its inputs and its output. An activated layer keeps no
pre-activation, the conv and propagation kernels pad their inputs again in
backward instead of keeping padded copies, ``propagate`` keeps z_1 ...
z_{K-1} only (one GEMM rebuilds z0, and one stencil pass z_K),
``window_graph`` no distances (backward recomputes the differences) but its
feature term, ``conv2d`` no inner map (backward rebuilds them from its
input, with the forward's numpy calls), ``linear_untile`` no block
matrix and, with a convolution, no map on the grid, the tokenizers no tiles
and ``patch_mean_linear`` no per-pixel response, but the patch means, and
attention no token-by-token array, but each row's log-sum-exp.

All kernels are deterministic: reductions use numpy's fixed evaluation
order, the window kernels accumulate shifts in a fixed offset order and sum
over channels one after another, and attention takes its key blocks in
order, so repeated runs are bit-identical. The window kernels' bits do not
depend on ``CACHE_BYTES`` or ``SPAN_BYTES``; the convolutions' do, since
``CACHE_BYTES`` sets the width of their GEMMs, which BLAS rounds
differently at different widths.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError, ShapeError

ARCCOS_EPS = 1e-7      # safety clamp half-width on arccos inputs
CACHE_BYTES = 1 << 20  # budget of the block temporaries of a window, tap or attention kernel
DEAD_UNIT_STD = 1e-3   # a calibrated unit whose std is below this is dead
DIVIDE_FLOOR = 1e-12   # smallest legal divisor magnitude
LEAKY_SLOPE = 0.01     # negative slope used by every LeakyReLU in the network
# A window kernel runs a channel block as one span where its padded planes
# are at most this large, and plane by plane where they are larger: on a
# 2-core Xeon with one BLAS thread, spans made a 50x50 grid's window kernels
# about 20% faster (21 KiB planes at radius 1) and a 56x56 grid's (27 KiB)
# about 14% slower, where the tiled operator no longer pays for itself.
SPAN_BYTES = 24 << 10

# glibc's malloc serves a block above its mmap threshold (128 KiB at start)
# by mmap, and on freeing one of at most 32 MiB raises that threshold to the
# block's size and its heap-trim threshold to twice that (mallopt(3)). One
# untouched block just under the cap, freed at once, pins them near 30 and
# 60 MiB for the process, so a training step's arrays come from a heap that
# is not trimmed and faulted back in every epoch. Elsewhere it is one
# allocation, never touched.
np.empty(30 << 20, dtype=np.uint8)


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``data`` is stored shaped (row-major); ``data.size`` always equals the
    product of ``shape``. ``grad`` is ``None`` until ``backward`` reaches
    this tensor. ``grad`` may share memory with another tensor's gradient
    until this tensor's second contribution arrives; ``_owned`` is the array
    that ``_accumulate`` allocated for it, the only one it adds into in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "_owned", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._owned: Optional[np.ndarray] = None

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
        self.grad = self._owned = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class ParameterGroup:
    """Base of the dataclasses that hold one stage's parameters: every field
    holding a Tensor is a parameter, named ``<prefix>.<field>`` in field
    order."""

    prefix = ""

    def named(self) -> Dict[str, Tensor]:
        return {f"{self.prefix}.{f.name}": value
                for f in dataclasses.fields(self)
                if isinstance(value := getattr(self, f.name), Tensor)}


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
        self.consumed = False  # set by ``backward``, which empties ``nodes``

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ContractError("tapes do not nest; one training context at a time")
        if Standardize._active is not None:
            raise ContractError("no tape may record while layers are calibrated")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn: Callable[[np.ndarray], None]):
        self.nodes.append(Node(op, inputs, output, backward_fn))


class Standardize:
    """LSUV scale calibration (Mishkin & Matas, "All you need is a good
    init", 2015) of every biased layer that an op computes while it is active.

    An op that computes a layer (weight, bias) hands its response to
    ``apply``, which rescales that layer in place, exactly since it is linear
    in (weight, bias), so its response has zero mean and unit std per unit,
    and returns the standardised response; an op that only reads a bias
    leaves it alone. Units lie on the first axis of a conv response and the
    last of a matmul's. A unit whose std is below ``DEAD_UNIT_STD`` is dead:
    it is recentred, not rescaled.
    It and ``Tape`` refuse to open inside each other, so calibration never
    touches a training step.
    """

    _active: Optional["Standardize"] = None

    def __enter__(self) -> "Standardize":
        if Standardize._active is not None:
            raise ContractError("calibration contexts do not nest")
        if Tape._active is not None:
            raise ContractError("cannot calibrate layers while a tape records")
        Standardize._active = self
        return self

    def __exit__(self, *exc):
        Standardize._active = None
        return False

    def apply(self, w: Tensor, b: Tensor, out: np.ndarray) -> np.ndarray:
        """Standardise ``out``, the response of the layer (``w``, ``b``)."""
        unit = 0 if w.ndim == 4 else out.ndim - 1
        axes = tuple(i for i in range(out.ndim) if i != unit)
        mu = out.mean(axis=axes, keepdims=True)
        sd = out.std(axis=axes, keepdims=True)
        sd = np.where(sd < DEAD_UNIT_STD, 1.0, sd)  # a dead unit keeps its scale
        scale = sd.ravel()
        w.data /= scale.reshape(-1, 1, 1, 1) if w.ndim == 4 else scale
        b.data = (b.data - mu.ravel()) / scale
        return np.divide(np.subtract(out, mu, out=out), sd, out=out)  # fresh: in place


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False):
    """Add ``g`` to ``t.grad``, copy on write.

    A gradient is held as given, which is safe because no backward closure
    writes into its incoming gradient or into an array it has handed on.
    ``fresh`` says the closure made ``g`` and hands it over whole, shared
    with nothing, so ``t`` may own it. A second contribution is summed as
    ``t.grad + g`` into ``g`` when fresh, else into a new array; the
    array ``t`` owns takes later ones in place.
    """
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float64)  # a 0-d product may be a numpy scalar
    if t.grad is None:
        t.grad, t._owned = g, (g if fresh else None)
    elif t.grad is t._owned:
        t.grad += g
    else:
        t.grad = t._owned = np.add(t.grad, g, out=g if fresh else None)


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a forward result, recording a node when gradients are wanted."""
    tape = Tape._active
    wants_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=wants_grad)
    if wants_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


def _activate(out: np.ndarray, w: Tensor, b: Optional[Tensor],
              leaky: bool = False) -> np.ndarray:
    """The response ``out`` of the layer (``w``, ``b``) that an op computes:
    under ``Standardize`` the layer, if it has a bias, is calibrated and
    ``out`` standardised in place, then ``out`` goes through the LeakyReLU
    in place when ``leaky``. So calibration sees the pre-activation and no
    node keeps it; the op's backward first takes the gradient back through
    the activation, ``_leaky_grad``."""
    if Standardize._active is not None and b is not None:
        out = Standardize._active.apply(w, b, out)
    if leaky:
        np.maximum(out, LEAKY_SLOPE * out, out=out)
    return out


def _leaky_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``g`` taken back through the LeakyReLU whose output is ``out``: the
    output is > 0 exactly where its input is."""
    return g * np.where(out > 0.0, 1.0, LEAKY_SLOPE)


def backward(tape: Tape, loss: Tensor):
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``,
    consuming the tape.

    Nodes are popped in reverse order and each is released before its
    closure runs, which keeps only the output's gradient and its own saved
    arrays: an output that no closure reads (and the caller does not hold)
    dies before its producer's backward, and the saved arrays are freed once
    the closure has run. Gradients accumulate additively across fan-out.
    Nodes whose output never received a gradient (not upstream of the loss)
    are skipped. A consumed tape is empty, and a second ``backward`` on it
    raises ``ContractError``.
    """
    if tape.consumed:
        raise ContractError("backward already consumed this tape")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape.consumed = True
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g, backward_fn = node.output.grad, node.backward_fn
        del node  # the output goes now, unless something else holds it
        if g is not None:
            backward_fn(g)


def first_nonfinite(tape: Tape) -> Optional[str]:
    """Name of the earliest recorded op with a non-finite output, if any;
    ask before ``backward``, which empties the tape."""
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

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None,
           leaky: bool = False) -> Tensor:
    """a @ b, plus ``bias`` on every row when given, then a LeakyReLU when
    ``leaky``: a layer as one node, which keeps no product without the bias
    and no pre-activation. Under ``Standardize`` a biased layer (b, bias) is
    calibrated, units last."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (b.shape[1],):
        raise ShapeError(f"matmul: bias {bias.shape} does not fit {b.shape[1]} columns")
    out = a.data @ b.data
    if bias is not None:
        out += bias.data
    out = _activate(out, b, bias, leaky)
    activated = out if leaky else None  # only the LeakyReLU's gradient reads it

    def bwd(g):
        if activated is not None:
            g = _leaky_grad(g, activated)
        _accumulate(a, g @ b.data.T, fresh=True)
        _accumulate(b, a.data.T @ g, fresh=True)
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.shape), fresh=True)

    return _record("matmul", (a, b) if bias is None else (a, b, bias), out, bwd)


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
        _accumulate(x, gx, fresh=True)

    return _record("narrow", (x,), x.data[idx].copy(), bwd)


# ---------------------------------------------------------------------------
# add, softmax and attention (add computes no gradient for an operand that
# does not require one)

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _record("add", (a, b), out, bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(axis, x.ndim, "softmax")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        _accumulate(x, out * (g - dot), fresh=True)

    return _record("softmax", (x,), out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(q k^T / sqrt(d)) v of queries
    q (n, d) over keys k (m, d) and values v (m, d_v), as one node.

    The keys are read in blocks of CACHE_BYTES // (8 n) columns, so no
    n x block temporary exceeds CACHE_BYTES, with a running row max and sum
    (the online softmax of Rabe & Staats, "Self-attention does not need
    O(n^2) memory", 2021, and Dao et al., "FlashAttention", 2022). The node
    keeps the output and each row's log-sum-exp; backward rebuilds each
    block's probabilities from them. Blocks go in a fixed order. The output
    is kept normalised by the running sum, so with one block the forward
    rounds exactly as softmax(scale(matmul(q, transpose(k)))) times v does,
    with the composed ``scale`` and ``transpose`` of ``tests/composed_ops.py``.
    """
    if (q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1]
            or k.shape[0] != v.shape[0] or q.shape[0] < 1 or k.shape[0] < 1):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} "
                         "are not (n, d), (m, d), (m, d_v) with n, m >= 1")
    n, m = q.shape[0], k.shape[0]
    c = 1.0 / math.sqrt(q.shape[1])
    step = max(1, CACHE_BYTES // (8 * n))
    spans = [(j, min(j + step, m)) for j in range(0, m, step)]
    width = min(step, m)

    def block(buf, j0, j1):  # a contiguous n x (j1 - j0) view of ``buf``
        return buf[:n * (j1 - j0)].reshape(n, j1 - j0)

    def logits(buf, kt, j0, j1):  # kt: k^T made contiguous, as transpose does
        s = np.matmul(q.data, kt[:, j0:j1], out=block(buf, j0, j1))
        s *= c
        return s

    kt, buf = k.data.T.copy(), np.empty(n * width)
    row_max, row_sum = np.full(n, -np.inf), np.zeros(n)
    out = np.zeros((n, v.shape[1]))
    for j0, j1 in spans:
        p = logits(buf, kt, j0, j1)
        new_max = np.maximum(row_max, np.max(p, axis=1))
        p -= new_max[:, None]
        np.exp(p, out=p)
        carried = row_sum * np.exp(row_max - new_max)  # 0 on the first block
        row_sum = carried + np.sum(p, axis=1)
        p /= row_sum[:, None]
        out *= (carried / row_sum)[:, None]
        out += p @ v.data[j0:j1]
        row_max = new_max
    lse = (row_max + np.log(row_sum))[:, None]

    def bwd(g):
        delta = np.sum(g * out, axis=1, keepdims=True)  # rowsum(dO * O)
        gq, gk, gv = np.zeros_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        kt, p_buf, gs_buf = k.data.T.copy(), np.empty(n * width), np.empty(n * width)
        for j0, j1 in spans:
            p = logits(p_buf, kt, j0, j1)
            p -= lse
            np.exp(p, out=p)
            np.matmul(p.T, g, out=gv[j0:j1])
            # gradient of the probabilities, then of the scaled logits
            gs = np.matmul(g, v.data[j0:j1].T, out=block(gs_buf, j0, j1))
            gs -= delta
            gs *= p
            gq += gs @ k.data[j0:j1]
            np.matmul(gs.T, q.data, out=gk[j0:j1])
        gq *= c
        gk *= c
        _accumulate(q, gq, fresh=True)
        _accumulate(k, gk, fresh=True)
        _accumulate(v, gv, fresh=True)

    return _record("attention", (q, k, v), out, bwd)


# ---------------------------------------------------------------------------
# unmixing loss

def unmixing_loss(observed: Tensor, reconstructed: Tensor, guard: float
                  ) -> Tensor:
    """Mean squared pixel error plus mean spectral angle of bands x H x W
    scenes, as one node differentiated in ``reconstructed`` only.

    The cosine of each pixel's angle is <y, r> / (|y| |r| + guard), clamped
    to [-1+eps, 1-eps] before the arccos; the clamp passes gradient strictly
    inside and none where it clipped, so spectra that align exactly get no
    infinite gradient, and a zero-norm reconstructed pixel has subgradient 0
    through its norm. The node keeps six H x W arrays beside its inputs;
    backward recomputes r - y in band blocks within CACHE_BYTES beside the
    gradient. The arithmetic and its order are those of the composed ops
    sub, square, sum, mul, the two norms, divide, arccos and mean (the
    references in ``tests/composed_ops.py``), so values and gradients are
    theirs bit for bit.
    """
    if observed.requires_grad:
        raise ContractError("unmixing_loss: the observed scene takes no gradient")
    if observed.ndim != 3 or observed.shape != reconstructed.shape:
        raise ShapeError(f"unmixing_loss: scenes {observed.shape} and "
                         f"{reconstructed.shape} are not one bands x H x W shape")
    y, r = observed.data, reconstructed.data
    c = 1.0 / (y.shape[1] * y.shape[2])
    buf = np.multiply(y, y)
    obs_norm = np.sqrt(np.sum(buf, axis=0))
    if np.min(obs_norm) == 0.0:
        raise NumericDomainError("observed scene has a zero-norm pixel spectrum")
    np.subtract(r, y, out=buf)
    re = np.sum(np.multiply(buf, buf, out=buf)) * c
    inner = np.sum(np.multiply(y, r, out=buf), axis=0)
    rec_norm = np.sqrt(np.sum(np.multiply(r, r, out=buf), axis=0))
    denom = obs_norm * rec_norm + guard
    if np.min(np.abs(denom)) < DIVIDE_FLOOR:
        raise NumericDomainError(f"divide: divisor magnitude below {DIVIDE_FLOOR}")
    lo, hi = -1.0 + ARCCOS_EPS, 1.0 - ARCCOS_EPS
    cosine = inner / denom
    clipped = np.clip(cosine, lo, hi)
    inside = (cosine > lo) & (cosine < hi)
    out = re + np.sum(np.arccos(clipped)) * c

    def bwd(g):
        # gradient of the angle term at each pixel's cosine, then at the
        # inner product and at the denominator
        ga = g * c * np.where(inside, -1.0 / np.sqrt(1.0 - clipped * clipped), 0.0)
        g_inner = ga / denom
        g_rec_norm = -ga * inner / (denom * denom) * obs_norm
        safe = np.where(rec_norm > 0.0, rec_norm, 1.0)
        gr = np.multiply(g_rec_norm / safe, r)  # through |r|
        gr[:, rec_norm == 0.0] = 0.0
        step = min(len(y), max(1, CACHE_BYTES // (8 * g_inner.size)))
        scratch = np.empty((step,) + g_inner.shape)  # one band block
        for b in (slice(b0, b0 + step) for b0 in range(0, len(y), step)):
            term = scratch[:len(y[b])]
            np.multiply(g_inner, y[b], out=term)  # through <y, r>
            gr[b] += term
            np.subtract(r[b], y[b], out=term)  # through the squared error
            term *= g * c * 2.0
            gr[b] += term
        _accumulate(reconstructed, gr, fresh=True)

    return _record("unmixing_loss", (observed, reconstructed), np.asarray(out), bwd)


# ---------------------------------------------------------------------------
# "same" convolution (stride 1): one GEMM per kernel tap over the image in
# the ``_Flat`` layout of the window stencil kernels

def _tap_gemm(taps: Sequence[np.ndarray], src: np.ndarray,
              shifts: Sequence[int], out: np.ndarray) -> np.ndarray:
    """out[:, q] = sum_t taps[t] @ src[:, q + shifts[t]], in tap order, one
    column block at a time, with temporaries within CACHE_BYTES; a lone tap
    is one GEMM. ``out`` is contiguous, the runs alone (``_Flat.crop_runs``
    reads the image off it): one block is summed in ``out`` itself, several
    each in a buffer, then copied in. (Adding into a strided slice of a
    padded buffer runs one loop per row, ~3x slower at 30x30, for the same
    bits.) The column blocks are the GEMMs' widths, and BLAS rounds a GEMM
    differently at different widths, so the bits, unlike the window
    kernels', depend on the block width."""
    rows, n = out.shape
    if len(taps) == 1:
        return np.matmul(taps[0], src[:, shifts[0]:shifts[0] + n], out=out)
    step = min(n, max(1, CACHE_BYTES // (16 * rows)))
    tmp_buf = np.empty((rows, step))
    acc_buf = out if step == n else np.empty((rows, step))  # one block: in place
    for q0 in range(0, n, step):
        q1 = min(q0 + step, n)
        acc, tmp = acc_buf[:, :q1 - q0], tmp_buf[:, :q1 - q0]
        for t, (tap, s) in enumerate(zip(taps, shifts)):
            np.matmul(tap, src[:, s + q0:s + q1], out=tmp if t else acc)
            if t:
                acc += tmp
        if acc_buf is not out:
            out[:, q0:q1] = acc
    return out


def _is_identity(w: np.ndarray) -> bool:
    """Whether the C x C x k x k kernel ``w`` maps every channel to itself."""
    c, _, k, _ = w.shape
    eye = np.zeros(w.shape)
    eye[range(c), range(c), k // 2, k // 2] = 1.0
    return np.array_equal(w, eye)


def _taps(w: np.ndarray) -> np.ndarray:
    """(k^2, C_out, C_in): a C_out x C_in x k x k kernel's taps in window
    order."""
    c_out, c_in, k, _ = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, c_out, c_in)


def _conv(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """conv2d's forward arithmetic: the C_out x H x W response to x of
    kernel w and bias b, before any activation."""
    c_out, _, k, _ = w.shape
    flat = _Flat(x.shape[1], x.shape[2], k // 2)
    acc = np.empty((c_out, flat.run))
    _tap_gemm(_taps(w), flat.pad(x), [flat.start + s for s in flat.window], acc)
    out = flat.crop_runs(acc)
    if b is not None:
        return np.add(out, b[:, None, None], out=out if k == 1 else None)
    return out.copy() if k > 1 else out


def _conv_grad(make_x: Callable[[], np.ndarray], w: Tensor,
               bias: Optional[Tensor], g: np.ndarray,
               want_x: bool) -> Optional[np.ndarray]:
    """conv2d's backward arithmetic for output gradient g of the conv of x:
    accumulates the gradients of ``w`` and ``bias``, and returns x's, a
    C_in x H x W view, when ``want_x``. ``make_x()`` gives x, which is
    padded here, not kept padded, and dropped once w's gradient is made: a
    map that ``make_x`` builds dies before x's gradient is allocated (an
    array argument would live on in the caller's frame through the call)."""
    x = make_x()
    c_out, c_in, k, _ = w.shape
    flat = _Flat(x.shape[1], x.shape[2], k // 2)
    gf, xf = flat.pad(g), flat.pad(x)
    gw = np.stack([flat.at(gf) @ flat.at(xf, s).T for s in flat.window], axis=-1)
    del xf, x
    _accumulate(w, gw.reshape(w.shape), fresh=True)
    if bias is not None:
        _accumulate(bias, g.reshape(c_out, -1).sum(axis=1), fresh=True)
    if not want_x:
        return None
    gx = np.empty((c_in, flat.run))
    _tap_gemm(_taps(w.data).transpose(0, 2, 1), gf,
              [flat.start - s for s in flat.window], gx)
    return flat.crop_runs(gx)


def conv2d(x: Tensor, layers: Sequence[tuple], leaky: Sequence[bool],
           standardize: Optional[tuple] = None) -> Tensor:
    """A stack of "same" convolution layers over a C x H x W map, as one
    node. ``layers`` are (weight, bias or None) pairs in order, each weight
    C_out x C_in x k x k with k odd: stride 1 and zero padding k // 2, so
    every map is H x W. Each response goes through a LeakyReLU where
    ``leaky`` says so. Given ``standardize`` = (mean, factor), the stack
    reads the map (x - mean) * factor.

    A layer pads its input once into the ``_Flat`` layout of radius k // 2,
    where tap t of a pixel reads ``window[t]`` further on: each tap is one
    GEMM over the run, whose padding columns hold junk that is cropped. A
    1x1 layer has no padding and takes the map itself, a view, as its flat
    layout. The input gradient is the same sum over the padded output
    gradient with the window mirrored.

    The node keeps its input only, which its producer's node holds anyway.
    Forward drops each inner map once the next is made; backward rebuilds
    them from the input with the same numpy calls, frees each once read,
    and pads each layer's input again. So a stack's values and gradients
    are a chain of one-layer nodes' bit for bit. Under ``Standardize`` each
    biased layer is calibrated in order, as its own node would be.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv2d expects C x H x W input, got {x.shape}")
    c = x.shape[0]
    for i, (w, b) in enumerate(layers):
        k = w.shape[-1] if w.ndim == 4 else 0
        b_shape = None if b is None else b.shape
        if w.shape[1:] != (c, k, k) or k % 2 == 0 or b_shape not in (None, w.shape[:1]):
            raise ShapeError(f"conv2d: layer {i}, kernel {w.shape} (odd, square, "
                             f"C_in x k x k) and bias {b_shape}, does not fit a "
                             f"{c}-channel map (input {x.shape})")
        c = w.shape[0]
    if not layers or len(leaky) != len(layers):
        raise ShapeError(f"conv2d: {len(layers)} layers and {len(leaky)} "
                         "activation flags")

    def maps():  # the input map, then each layer's output, made one by one
        h = x.data if standardize is None else (x.data - standardize[0]) * standardize[1]
        yield h
        for (w, b), act in zip(layers, leaky):
            h = _activate(_conv(h, w.data, None if b is None else b.data), w, b, act)
            yield h

    for out in maps():
        pass

    def bwd(g):
        hs = list(itertools.islice(maps(), len(layers))) + [out]
        for i in range(len(layers) - 1, -1, -1):
            w, b = layers[i]
            if leaky[i]:
                g = _leaky_grad(g, hs[i + 1])
            hs[i + 1] = None
            g = _conv_grad(lambda: hs[i], w, b, g, i > 0 or x.requires_grad)
        if g is not None:
            _accumulate(x, g if standardize is None else g * standardize[1],
                        fresh=True)

    inputs = (x,) + tuple(t for layer in layers for t in layer if t is not None)
    return _record("conv2d", inputs, out, bwd)


# ---------------------------------------------------------------------------
# patch tiling

def _to_blocks(a: np.ndarray, m: int) -> np.ndarray:
    """C x H x W -> n x C x m x m, zero-padded to whole patches."""
    c, h, w = a.shape
    gh, gw = -(-h // m), -(-w // m)
    if (gh * m, gw * m) != (h, w):
        a = np.pad(a, ((0, 0), (0, gh * m - h), (0, gw * m - w)))
    return a.reshape(c, gh, m, gw, m).transpose(1, 3, 0, 2, 4).reshape(gh * gw, c, m, m)


def _from_blocks(blocks: np.ndarray, c: int, m: int, height: int, width: int
                 ) -> np.ndarray:
    """Inverse of ``_to_blocks`` (blocks of any shape), overhang cropped."""
    gh, gw = -(-height // m), -(-width // m)
    full = (blocks.reshape(gh, gw, c, m, m).transpose(2, 0, 3, 1, 4)
                  .reshape(c, gh * m, gw * m))
    return np.ascontiguousarray(full[:, :height, :width])


def linear_untile(x: Tensor, w: Tensor, b: Tensor, m: int, height: int,
                  width: int, conv_w: Optional[Tensor] = None,
                  conv_b: Optional[Tensor] = None) -> Tensor:
    """x @ w + b, a C x m x m block per row, put onto the height x width grid
    (row-major patch order, any overhang cropped), then, given ``conv_w``
    and ``conv_b``, conv2d's "same" convolution of that map: one node, in
    which the n x C m^2 response dies. With the convolution the node keeps
    no map either: backward rebuilds the one on the grid with the same GEMM
    and scatter, for the kernel's gradient.
    Under ``Standardize`` it calibrates ``b``'s layer, units last as in
    matmul, and not the convolution, which it skips when it is the identity
    (the kernel ``_is_identity`` and the bias zero): the convolution would
    return the map bit for bit."""
    cm2 = w.shape[1] if w.ndim == 2 else 0
    if (x.ndim != 2 or w.shape != (x.shape[1], cm2) or b.shape != (cm2,) or m < 1
            or cm2 % (m * m) or x.shape[0] != -(-height // m) * -(-width // m)):
        raise ShapeError(f"linear_untile: rows {x.shape}, map {w.shape} and bias "
                         f"{b.shape} cannot tile {height}x{width} with m={m}")
    c = cm2 // (m * m)
    if conv_w is not None:
        k = conv_w.shape[2] if conv_w.ndim == 4 else 0
        b_shape = None if conv_b is None else conv_b.shape
        if conv_w.shape[1:] != (c, k, k) or k % 2 == 0 or b_shape != conv_w.shape[:1]:
            raise ShapeError(f"linear_untile: kernel {conv_w.shape} (odd, square) "
                             f"and bias {b_shape} do not fit {c} channels")

    def untiled():
        blocks = x.data @ w.data
        blocks += b.data
        return _from_blocks(_activate(blocks, w, b), c, m, height, width)

    skip = (conv_w is None or Standardize._active is not None
            and not np.any(conv_b.data) and _is_identity(conv_w.data))
    out = untiled() if skip else _conv(untiled(), conv_w.data, conv_b.data)

    def bwd(g):
        if conv_w is not None:
            g = _conv_grad(untiled, conv_w, conv_b, g, True)
        gb = _to_blocks(g, m).reshape(-1, cm2)
        # w's gradient, the largest array the step keeps to its end, is
        # made first and with the map's gradient gone, which leaves the
        # heap the same room for it every epoch
        del g
        _accumulate(w, x.data.T @ gb, fresh=True)
        _accumulate(x, gb @ w.data.T, fresh=True)
        _accumulate(b, _unbroadcast(gb, b.shape), fresh=True)

    inputs = (x, w, b) if conv_w is None else (x, w, b, conv_w, conv_b)
    return _record("linear_untile", inputs, out, bwd)


# ---------------------------------------------------------------------------
# per-patch linear map: a convolution of each patch alone, then a linear layer

def _patch_taps(k: int, m: int) -> list:
    """(i, j, src, dst) of each tap (i, j) of a "same" k x k convolution of an
    m x m patch: the (row, column) slices of the pixels it reads and of the
    output pixels they reach. Taps that read no pixel are left out."""
    span = {d: (slice(max(d, 0), m + min(d, 0)), slice(max(-d, 0), m - max(d, 0)))
            for d in range(1 - m, m)}  # output pixel p reads pixel p + d
    r = k // 2
    return [(i, j, *zip(span[i - r], span[j - r])) for i in range(k) for j in range(k)
            if i - r in span and j - r in span]


def patch_linear(x: Tensor, conv_w: Tensor, conv_b: Tensor, fc_w: Tensor,
                 fc_b: Tensor, m: int) -> Tensor:
    """Map C x H x W -> tokens (n, D), one per m x m patch in row-major order,
    edge patches zero-padded: each patch through its own "same" convolution
    (``conv_w`` O x C x k x k, ``conv_b``), flattened, then ``fc_w``
    (O m^2 x D) and ``fc_b``. Both are linear, so the op is flat(x) @ W + b,
    with flat(x) the n x C m^2 tiles and W (C m^2 x D) folded tap by tap on
    pixel-major arrays (m x m x units x D). The node keeps W and the weights'
    tap and pixel-major copies, and no tiles: backward tiles the map again,
    and puts the tiles' gradient onto the grid. Under ``Standardize`` the
    conv's response over every patch pixel calibrates the conv first, then
    the tokens the linear layer."""
    # a wrong rank gives shapes that cannot match
    c, height, width = x.shape if x.ndim == 3 else (0, 0, 0)
    o, c_in, k, k2 = conv_w.shape if conv_w.ndim == 4 else (0, 0, 0, -1)
    if ((c_in, k, conv_b.shape, fc_b.shape) != (c, k2, (o,), fc_w.shape[1:])
            or k % 2 == 0 or m < 1 or fc_w.shape[:1] != (o * m * m,)):
        raise ShapeError(f"patch_linear: map {x.shape} in {m} x {m} patches, conv "
                         f"{conv_w.shape} {conv_b.shape} and map {fc_w.shape} "
                         f"{fc_b.shape} do not fit")
    taps, tiles = _patch_taps(k, m), _to_blocks(x.data, m)  # tiles: n x C x m x m
    n = tiles.shape[0]
    if Standardize._active is not None:  # the response, m x m x O x n
        xt, part = tiles.transpose(2, 3, 1, 0).copy(), np.empty((m, m, o, n))
        cw, response = conv_w.data.transpose(2, 3, 0, 1).copy(), np.empty((m, m, o, n))
        response[...] = conv_b.data[:, None]
        for i, j, src, dst in taps:  # one buffer for every tap's product
            response[dst] += np.matmul(cw[i, j], xt[src], out=part[dst])
        _activate(response.transpose(2, 0, 1, 3), conv_w, conv_b)
    f = np.ascontiguousarray(fc_w.data.reshape(o, m, m, -1).transpose(1, 2, 0, 3))
    cw, w = conv_w.data.transpose(2, 3, 1, 0).copy(), np.zeros((m, m, c, f.shape[3]))
    for i, j, src, dst in taps:
        w[src] += np.matmul(cw[i, j], f[dst])
    w = w.transpose(2, 0, 1, 3).reshape(c * m * m, -1)
    out = tiles.reshape(n, -1) @ w + fc_b.data
    out += conv_b.data @ f.sum(axis=(0, 1))
    out = _activate(out, fc_w, fc_b)

    def bwd(g):
        xf = _to_blocks(x.data, m).reshape(n, -1)  # the tiles again
        gw = (xf.T @ g).reshape(c, m, m, -1).transpose(1, 2, 0, 3).copy()
        del xf
        gb, gcw = g.sum(axis=0), np.zeros(conv_w.shape)
        gf = np.tile(np.multiply.outer(conv_b.data, gb), (m, m, 1, 1))
        for i, j, src, dst in taps:
            gf[dst] += np.matmul(cw[i, j].T, gw[src])
            gcw[:, :, i, j] = np.matmul(f[dst], gw[src].swapaxes(2, 3)).sum(axis=(0, 1))
        _accumulate(x, _from_blocks(g @ w.T, c, m, height, width), fresh=True)
        _accumulate(conv_w, gcw, fresh=True)
        _accumulate(conv_b, f.sum(axis=(0, 1)) @ gb, fresh=True)
        _accumulate(fc_w, gf.transpose(2, 0, 1, 3).reshape(fc_w.shape), fresh=True)
        _accumulate(fc_b, gb, fresh=True)

    return _record("patch_linear", (x, conv_w, conv_b, fc_w, fc_b), out, bwd)


def patch_mean_linear(x: Tensor, conv_w: Tensor, conv_b: Tensor, fc_w: Tensor,
                      fc_b: Tensor, m: int) -> Tensor:
    """Map C x H x W -> tokens (n, D), one per m x m patch in row-major order:
    the map zero-padded to whole patches, through a 1x1 convolution (``conv_w``
    O x C x 1 x 1, ``conv_b``), averaged over each patch, then ``fc_w``
    (O x D) and ``fc_b``. One node, which keeps the n x O patch means and
    neither the padded map nor its response. The convolution is conv2d's
    own, ``_conv`` forward and ``_conv_grad`` backward on the padded map,
    and the rest takes the steps of mean, transpose and matmul (``mean`` and
    ``transpose`` as composed in ``tests/composed_ops.py``), the same numpy
    calls in the same order, so values and gradients are those ops' bit for
    bit; the map's gradient is cropped from the padded grid's. Under
    ``Standardize`` the conv's response over every pixel of the padded grid
    calibrates the conv first, then the tokens the linear layer."""
    c, h, w = x.shape if x.ndim == 3 else (0, 0, 0)
    o = conv_w.shape[0] if conv_w.ndim == 4 else 0
    if (conv_w.shape != (o, c, 1, 1) or conv_b.shape != (o,) or m < 1
            or fc_w.shape[:1] != (o,) or fc_b.shape != fc_w.shape[1:]):
        raise ShapeError(f"patch_mean_linear: map {x.shape} in {m} x {m} patches, "
                         f"conv {conv_w.shape} {conv_b.shape} and map {fc_w.shape} "
                         f"{fc_b.shape} do not fit")
    gh, gw = -(-h // m), -(-w // m)
    padding = ((0, 0), (0, gh * m - h), (0, gw * m - w))
    c_m2 = 1.0 / (m * m)

    def padded():  # the map on the patch grid, a view when it is whole
        return np.pad(x.data, padding) if gh * m - h or gw * m - w else x.data

    response = _activate(_conv(padded(), conv_w.data, conv_b.data), conv_w, conv_b)
    means = np.sum(response.reshape(o, gh, m, gw, m), axis=(2, 4)) * c_m2
    rows = means.reshape(o, gh * gw).T.copy()  # n x O
    out = rows @ fc_w.data
    out += fc_b.data
    out = _activate(out, fc_w, fc_b)

    def bwd(g):
        # the linear map, the rows' transpose, the mean: one value per patch
        g_means = (g @ fc_w.data.T).T.reshape(o, gh, gw) * c_m2
        _accumulate(fc_w, rows.T @ g, fresh=True)
        _accumulate(fc_b, _unbroadcast(g, fc_b.shape), fresh=True)
        g_resp = np.broadcast_to(np.expand_dims(g_means, (2, 4)),
                                 (o, gh, m, gw, m)).copy().reshape(o, gh * m, gw * m)
        # the 1x1 conv, on the padded map
        gx = _conv_grad(padded, conv_w, conv_b, g_resp, True)
        del g_resp
        _accumulate(x, np.ascontiguousarray(gx[:, :h, :w]), fresh=True)

    return _record("patch_mean_linear", (x, conv_w, conv_b, fc_w, fc_b), out, bwd)


# ---------------------------------------------------------------------------
# window stencil kernels (zero-padded flat images, one shift per offset,
# fixed offset order, channels in cache-sized blocks)

class _Flat:
    """Zero-padded flat layout of an H x W grid for a window of radius r.

    Padding an image by r on every side and flattening it puts pixel (y, x)
    at (y + r) * Wp + x + r, with Wp = W + 2r, and its window neighbour
    (y + dr, x + dc) ``dr * Wp + dc`` further on, in the padding (so zero)
    when it is off the grid. ``at(a, shift)`` is that shifted slice over the
    run from the first pixel to the last; the padding columns inside the run
    hold junk, which ``crop`` drops. ``window`` runs over the window's
    (dr, dc) ``offsets`` in row-major order, so reversing it negates it;
    ``shifts`` is ``window`` without the centre. ``conv2d`` reads its taps
    from the layout too.

    The window kernels take the channels in ``blocks``, each a contiguous
    (rows, Hp*Wp) buffer of padded planes, one after another. Where a plane
    is at most ``SPAN_BYTES`` the layout ``spans``: ``lanes`` of a block is
    one 1-D slice, from the first plane's first pixel to the last plane's
    last, (rows - 1) * Hp*Wp + run long, and the same slice ``shift``
    further on is every plane's neighbour at that shift. A per-pixel image
    (the operator) is ``tile``d under the block's planes once per call, the
    blocks narrow enough that the tile fits in CACHE_BYTES, and products go
    to a ``scratch`` laid out as the planes. The positions
    between two planes' runs are padding or cropped junk, like the padding
    columns inside a run, and a scatter adds only zeros from them to a pixel.
    Larger planes are passed as ``at``'s (rows, run) views, one loop per
    plane, under the image itself, with products in rows of one run. Each
    pixel takes the same products in the same order both ways, and the sums
    over channels run one after another (``_add_rows``), so no bit depends
    on the block width or on spanning.
    """

    def __init__(self, height: int, width: int, radius: int):
        self.height, self.width, self.radius = height, width, radius
        self.hp, self.wp = height + 2 * radius, width + 2 * radius
        self.start = radius * self.wp + radius
        self.run = (height - 1) * self.wp + width
        self.offsets = [(dr, dc) for dr in range(-radius, radius + 1)
                        for dc in range(-radius, radius + 1)]
        self.window = [dr * self.wp + dc for dr, dc in self.offsets]
        self.shifts = [s for s in self.window if s]
        self.spans = self.hp * self.wp * 8 <= SPAN_BYTES

    def blocks(self, channels: int, planes: int, tiled: int = 0) -> list:
        """(first, stop) channel of every block, in order, each block small
        enough that ``planes`` padded images per channel fit in CACHE_BYTES,
        and so, where the layout spans, does a ``tile`` of ``tiled`` planes
        over it; the first block is the widest."""
        planes = max(planes, tiled if self.spans else 0)
        step = max(1, CACHE_BYTES // (planes * self.hp * self.wp * 8))
        return [(c, min(c + step, channels)) for c in range(0, channels, step)]

    def buffer(self, channels: int) -> np.ndarray:
        return np.zeros((channels, self.hp * self.wp))

    def lanes(self, block: np.ndarray, rows: int, shift: int = 0) -> np.ndarray:
        """The runs of the first ``rows`` planes of ``block``, a contiguous
        (n, Hp*Wp) array, ``shift`` further on: where the layout ``spans``,
        one 1-D slice from the first plane's first pixel to the last plane's
        last, padding between the planes included; else ``at``'s (rows, run)
        view."""
        if not self.spans:
            return self.at(block[:rows], shift)
        lo = self.start + shift
        return block.reshape(-1)[lo:lo + (rows - 1) * self.hp * self.wp + self.run]

    def scratch(self, rows: int) -> np.ndarray:
        """Room for products on the lanes of ``rows`` planes, contiguous:
        (rows, Hp*Wp) where the layout spans, else (rows, run). Either way
        ``scratch[:k, :run]`` holds the runs of the first k."""
        return np.empty((rows, self.hp * self.wp if self.spans else self.run))

    def scratch_lanes(self, scratch: np.ndarray, rows: int) -> np.ndarray:
        """The lanes of the first ``rows`` planes in a ``scratch``, one 1-D
        slice of it where the layout spans, else its first ``rows`` rows."""
        if not self.spans:
            return scratch[:rows]
        return scratch.reshape(-1)[:(rows - 1) * scratch.shape[1] + self.run]

    def tile(self, planes: np.ndarray, rows: int) -> np.ndarray:
        """(n, Hp*Wp) -> (n, rows, Hp*Wp), each plane repeated for ``rows``
        channels where the layout ``spans``, else (n, 1, Hp*Wp), a view:
        ``lanes(tile[o], k)`` lies on ``lanes`` of a k-channel block, k <=
        rows, with plane o under each of its planes."""
        return np.repeat(planes[:, None], rows, axis=1) if self.spans else planes[:, None]

    def pad(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(..., H, W) -> (..., Hp*Wp); ``out``'s padding must be zero. At
        radius 0 with no ``out`` it is ``a`` flattened, a view of a
        contiguous ``a``."""
        if out is None and not self.radius:
            return a.reshape(a.shape[:-2] + (-1,))
        if out is None:
            out = np.zeros(a.shape[:-2] + (self.hp * self.wp,))
        self.crop(out)[...] = a
        return out

    def valid(self) -> np.ndarray:
        """(n_off, H, W): True at [o, i] where pixel i + shifts[o] is on the
        grid."""
        return self.neighbours(np.ones((self.height, self.width))) > 0.0

    def neighbours(self, a: np.ndarray) -> np.ndarray:
        """(H, W) -> (n_off, H, W): out[o, i] = a[i + shifts[o]], zero where
        that pixel is off the grid."""
        af, out = self.pad(a), self.buffer(len(self.shifts))
        for o, shift in enumerate(self.shifts):
            self.at(out[o])[...] = self.at(af, shift)
        return self.crop(out)

    def at(self, flat: np.ndarray, shift: int = 0) -> np.ndarray:
        lo = self.start + shift
        return flat[..., lo:lo + self.run]

    def crop_runs(self, runs: np.ndarray) -> np.ndarray:
        """(C, run) -> (C, H, W): the pixels of a contiguous array that
        holds each plane's run alone, as ``at`` of a padded one would, a
        view."""
        return np.lib.stride_tricks.as_strided(
            runs, (len(runs), self.height, self.width), (runs.strides[0], self.wp * 8, 8))

    def crop(self, flat: np.ndarray) -> np.ndarray:
        """(..., Hp*Wp) -> (..., H, W), a view."""
        r = self.radius
        return flat.reshape(flat.shape[:-1] + (self.hp, self.wp))[
            ..., r:r + self.height, r:r + self.width]


def _add_rows(acc: np.ndarray, stack: np.ndarray):
    """acc += rows 1.. of ``stack``, added one after another: the order in
    which ``np.einsum("chw,chw->hw")`` sums over channels. Row 0 is scratch."""
    stack[0] = acc
    np.sum(stack, axis=0, out=acc)


def _window_sqdist(flat: _Flat, x: np.ndarray) -> np.ndarray:
    """Squared distance to every window neighbour: (C, H, W) -> (n_off, H, W),
    out[o, i] = |x[:, i] - x[:, i + o]|^2 where i + o is on the grid, finite
    junk elsewhere. Offsets o and -o share distances, so half the window is
    computed and mirrored."""
    half, last = len(flat.shifts) // 2, len(flat.shifts) - 1
    blocks = flat.blocks(x.shape[0], 2)
    width = blocks[0][1]
    dist, xb, stack = flat.buffer(last + 1), flat.buffer(width), flat.scratch(width + 1)
    for c0, c1 in blocks:
        rows = c1 - c0
        xk = flat.pad(x[c0:c1], xb[:rows])
        xs, sq = flat.lanes(xk, rows), flat.scratch_lanes(stack[1:], rows)
        for o, shift in enumerate(flat.shifts[:half]):
            np.subtract(xs, flat.lanes(xk, rows, shift), out=sq)
            np.multiply(sq, sq, out=sq)
            _add_rows(flat.at(dist[o]), stack[:rows + 1, :flat.run])
    for o, shift in enumerate(flat.shifts[:half]):
        flat.at(dist[last - o])[...] = flat.at(dist[o], -shift)
    return np.ascontiguousarray(flat.crop(dist))


def _window_sqdist_grad(flat: _Flat, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient in x of sum(g * _window_sqdist(flat, x)), for g zero
    where i + o is off the grid, from the differences recomputed channel
    block by channel block. An edge's two directions are summed first."""
    half, last = len(flat.shifts) // 2, len(flat.shifts) - 1
    gf, coef = flat.pad(g), flat.buffer(half)  # zero where off the grid, as g
    for o, shift in enumerate(flat.shifts[:half]):
        flat.at(coef[o])[...] = 2.0 * (flat.at(gf[o]) + flat.at(gf[last - o], shift))
    blocks, gx = flat.blocks(x.shape[0], 2, half), np.empty_like(x)
    width = blocks[0][1]
    ct = flat.tile(coef, width)
    xb, gb, diff = flat.buffer(width), flat.buffer(width), flat.scratch(width)
    for c0, c1 in blocks:
        rows = c1 - c0
        xk, gk = flat.pad(x[c0:c1], xb[:rows]), gb[:rows]
        gk.fill(0.0)
        xs, gs = flat.lanes(xk, rows), flat.lanes(gk, rows)
        d = flat.scratch_lanes(diff, rows)
        for o, shift in enumerate(flat.shifts[:half]):
            np.subtract(xs, flat.lanes(xk, rows, shift), out=d)
            d *= flat.lanes(ct[o], rows)
            gs += d
            to = flat.lanes(gk, rows, shift)
            np.subtract(to, d, out=to)
        gx[c0:c1] = flat.crop(gk)
    return gx


def window_graph(features: Tensor, height: int, width: int, radius: int,
                 sigma_f: float, sigma_g: float) -> Tensor:
    """The normalised window graph of a C x H.W feature map, read as
    C x H x W, as one node: (n_off + 1, H, W), the self-loops 1 / d at 0,
    then the adjacency w / sqrt(d_i d_{i+o}) of each offset in ``_Flat.shifts``
    order, zero where i + o is off the grid. The edge from pixel i to i + o,
    o = (dr, dc), weighs exp(-|x_i - x_{i+o}|^2 / sigma_f) times one constant
    per offset, exp(-(dr^2 + dc^2) / sigma_g^2); d = 1 + sum_o w. The node
    keeps the feature term, the degree's root and its inverse; backward
    recomputes the differences. It rounds as the composed ops it replaced."""
    c, hw = features.shape if features.ndim == 2 else (0, -1)
    if hw != height * width:
        raise ShapeError(f"window_graph: features {features.shape} are not "
                         f"C x {height}*{width}")
    flat = _Flat(height, width, radius)
    x, scale_f = features.data.reshape(c, height, width), -1.0 / sigma_f
    feat = _window_sqdist(flat, x)
    np.exp(np.multiply(feat, scale_f, out=feat), out=feat)
    d2 = np.array([dr * dr + dc * dc for dr, dc in flat.offsets if dr or dc], float)
    spatial = np.exp(-d2 / (sigma_g * sigma_g))[:, None, None]
    w = feat * (spatial * flat.valid())
    root = np.sqrt(1.0 + np.sum(w, axis=0))
    inv = 1.0 / root
    out = np.concatenate([(inv * inv)[None], inv * flat.neighbours(inv) * w])

    def bwd(g):
        gl, ga, shifted = g[0], g[1:], flat.neighbours(inv)
        masked = spatial * flat.valid()
        gm = np.multiply(feat, masked)  # w, then w ga: at inv_i inv_{i+o}
        gm *= ga
        # inv's gradient via loops = inv inv (once per factor), inv_i, inv_{i+o}
        g_inv = gl * inv + gl * inv + np.sum(gm * shifted, axis=0)
        gm *= inv
        gf, gn = flat.pad(gm), flat.buffer(1)[0]
        for o, shift in enumerate(flat.shifts):
            to = flat.at(gn, shift)
            np.add(to, flat.at(gf[o]), out=to)
        g_inv += flat.crop(gn)
        gw = np.multiply(inv, shifted, out=gm)  # w's gradient, in place
        gw *= ga
        gw += -g_inv / (root * root) * 0.5 / root  # through the degree
        for factor in (masked, feat, scale_f):  # masked: no junk distance takes any
            gw *= factor
        _accumulate(features, _window_sqdist_grad(flat, x, gw).reshape(c, hw),
                    fresh=True)

    return _record("window_graph", (features,), out, bwd)


def _stencil_matvec(flat: _Flat, ot: np.ndarray, blocks: list, z: np.ndarray,
                    times: Optional[np.ndarray] = None) -> np.ndarray:
    """S z for every channel of z (C, H, W): (S z)[:, i] = loops[i] z[:, i]
    + sum_o weights[o, i] z[:, i + o], channel block by channel block, from
    the padded operator tiled over the widest block, ``ot``. Given ``times``
    (C, H, W), it returns ``times`` multiplied by S z in place, and makes
    no S z array."""
    out = np.empty_like(z) if times is None else times
    width = blocks[0][1]
    zb, ob, prod = flat.buffer(width), flat.buffer(width), flat.scratch(width)
    for c0, c1 in blocks:
        rows = c1 - c0
        zk, acc = flat.pad(z[c0:c1], zb[:rows]), ob[:rows]
        s, p = flat.lanes(acc, rows), flat.scratch_lanes(prod, rows)
        np.multiply(flat.lanes(ot[0], rows), flat.lanes(zk, rows), out=s)
        for o, shift in enumerate(flat.shifts, 1):
            np.multiply(flat.lanes(ot[o], rows), flat.lanes(zk, rows, shift), out=p)
            s += p
        if times is None:
            out[c0:c1] = flat.crop(acc)
        else:
            out[c0:c1] *= flat.crop(acc)
    return out


def propagate(operator: Tensor, proj: Tensor, alphas: Tensor, x: Tensor,
              beta: float) -> Tensor:
    """Projection, K-hop propagation and residual hop mix as one node,
    K = len(alphas): z0 = proj @ x (x C x H.W, read as C x H x W), z_t =
    S z_{t-1} for every channel with the window operator of ``operator``
    (n_off + 1, H, W), loops then weights as ``window_graph`` stacks them,
    whose first extent (2r + 1)^2 gives the window radius r >= 1,
    S z[:, i] = loops[i] z[:, i] + sum_o weights[o, i] z[:, i + o], then
    x + beta * sum_t alphas[t-1] z_t: terms summed in order, scaled by beta,
    x added last. The node keeps z_1 ... z_{K-1}: no array holds z_K, which
    is made channel block by channel block inside its own term of the mix,
    and rebuilt the same way inside its term of alphas' gradient (from z0,
    rebuilt by the same GEMM, when K = 1). Backward pads (and, where the
    layout spans, tiles) the operator again and walks the hops from K down
    to 1 with one gradient array r, channel block by channel block: the
    block's share of the operator's gradient, then S^T r plus the hop's own
    term, written over r's block. Each hop is dropped once read for the
    last time; z0 is rebuilt for the operator's gradient at the last hop."""
    beta = float(beta)
    c, hw = x.shape if x.ndim == 2 else (0, -1)  # a wrong rank cannot fit
    side = math.isqrt(operator.shape[0]) if operator.ndim == 3 else 0
    grid, radius = operator.shape[1:], side // 2
    if (side < 3 or side % 2 == 0 or side * side != operator.shape[0]
            or hw != grid[0] * grid[1] or proj.shape != (c, c)
            or alphas.ndim != 1 or alphas.size < 1):
        raise ShapeError(f"propagate: operator {operator.shape} (a window of "
                         f"(2r+1)^2 >= 9 images), proj {proj.shape}, alphas "
                         f"{alphas.shape} and x {x.shape} do not fit")
    flat, shape, a = _Flat(*grid, radius), (c,) + grid, alphas.data
    # S z takes z, its sum and products (3 planes a channel), backward's hop
    # loop r, z, three padded planes and products (6); where the layout
    # spans, the operator's side^2 planes set both, so one tile serves both
    blocks = flat.blocks(c, 3, side * side)
    hop_blocks = flat.blocks(c, 6, side * side)
    z, zs = (proj.data @ x.data).reshape(shape), [None]  # z0 is not kept
    # the tile comes after z0: made before it, it left fresh desk runs some
    # epochs of 40-70 page faults, the heap laid out anew
    ot = flat.tile(flat.pad(operator.data), blocks[0][1])
    for _ in a[1:]:  # z_1 ... z_{K-1}, kept for backward
        z = _stencil_matvec(flat, ot, blocks, z)
        zs.append(z)
    # z_K is made only inside its own term, block by block: no array holds it
    if a.size == 1:
        out = _stencil_matvec(flat, ot, blocks, z, times=np.full(shape, a[0]))
    else:
        out, term = zs[1] * a[0], np.empty(shape)
        for t in range(1, a.size):
            if t + 1 < a.size:
                np.multiply(zs[t + 1], a[t], out=term)
            else:
                term.fill(a[t])
                _stencil_matvec(flat, ot, blocks, z, times=term)
            out += term
    del ot  # the node keeps no tile: backward tiles the operator again
    out *= beta
    out = out.reshape(x.shape)
    out += x.data

    def bwd(g):
        _accumulate(x, g)
        gs, ga = g.reshape(shape), np.empty(a.size)
        ot = flat.tile(flat.pad(operator.data), blocks[0][1])
        if zs[-1] is None:  # K = 1: z_K is built from z0
            zs[0] = (proj.data @ x.data).reshape(shape)
        r = np.empty_like(gs)
        for t in range(a.size):  # beta g z_t, summed as onto a (1,) operand
            np.multiply(gs, beta, out=r)
            if t + 1 < a.size:
                r *= zs[t + 1]
            else:  # z_K, rebuilt block by block as r's factor
                _stencil_matvec(flat, ot, blocks, zs[-1], times=r)
            ga[t] = _unbroadcast(r, (1,))[0]
        _accumulate(alphas, ga, fresh=True)
        np.multiply(gs, beta, out=r)
        r *= a[-1]
        width = hop_blocks[0][1]
        gb, zb, sb = flat.buffer(width), flat.buffer(width), flat.buffer(width)
        stack = flat.scratch(width + 1)  # row 0: the sum so far, then products
        for t in range(a.size, 0, -1):
            gop = flat.buffer(side * side) if operator.requires_grad else None
            if t == 1 and gop is not None and zs[0] is None:
                zs[0] = (proj.data @ x.data).reshape(shape)
            for c0, c1 in hop_blocks:
                rows, rk = c1 - c0, r[c0:c1]
                gk = flat.pad(rk, gb[:rows])
                gl, p = flat.lanes(gk, rows), flat.scratch_lanes(stack[1:], rows)
                if gop is not None:
                    zk = flat.pad(zs[t - 1][c0:c1], zb[:rows])
                    for o, shift in enumerate([0] + flat.shifts):
                        np.multiply(gl, flat.lanes(zk, rows, shift), out=p)
                        _add_rows(flat.at(gop[o]), stack[:rows + 1, :flat.run])
                # S^T r; outside the runs only padding, never read
                np.multiply(flat.lanes(ot[0], rows), gl, out=flat.lanes(sb, rows))
                for o, shift in enumerate(flat.shifts, 1):
                    np.multiply(flat.lanes(ot[o], rows), gl, out=p)
                    to = flat.lanes(sb, rows, shift)
                    np.add(to, p, out=to)
                if t > 1:  # z_{t-1}'s own term in the mix, then S^T r
                    np.multiply(gs[c0:c1], beta, out=rk)
                    rk *= a[t - 2]
                    rk += flat.crop(sb[:rows])
                else:
                    rk[...] = flat.crop(sb[:rows])
            zs.pop()  # z_{t-1}: walked
            if gop is not None:
                _accumulate(operator, flat.crop(gop), fresh=True)
        # proj's and x's gradients outlive the step's backward: made with
        # the tile gone, they leave the heap the same room every epoch
        del ot
        gz = r.reshape(c, hw)
        _accumulate(proj, gz @ x.data.T, fresh=True)
        _accumulate(x, proj.data.T @ gz, fresh=True)

    return _record("propagate", (operator, proj, alphas, x), out, bwd)


# ---------------------------------------------------------------------------
# gradient verification

def finite_diff_check(f: Callable[[Tensor], Tensor], params: Tensor,
                      h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    ``f`` must be a deterministic scalar function of ``params``; the tensor's
    data is perturbed in place one coordinate at a time (restored, even if f
    raises, as is ``requires_grad``).
    """
    if not 1e-6 <= h <= 1e-4:
        raise ContractError(f"finite_diff_check: h={h} outside [1e-6, 1e-4]")
    params.zero_grad()
    prior = params.requires_grad
    params.requires_grad = True
    try:
        with Tape() as tape:
            loss = f(params)
        if loss.data.size != 1:
            raise ContractError("finite_diff_check: f must return a scalar")
        backward(tape, loss)
    finally:
        params.requires_grad = prior
    analytic = (np.zeros_like(params.data) if params.grad is None
                else params.grad.copy())
    params.zero_grad()

    flat = params.data.flat  # the array itself, in C order, even when strided
    worst = 0.0
    for i in range(params.data.size):
        saved = flat[i]
        try:
            flat[i] = saved + h
            hi = f(params).item()
            flat[i] = saved - h
            lo = f(params).item()
        finally:
            flat[i] = saved
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericDomainError("finite_diff_check: f produced non-finite value")
        numeric = (hi - lo) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-8)
        if err > worst:
            worst = err
    return worst
