"""Content-adaptive pixel graph: construction and propagation.

Edge weights combine a feature kernel exp(-|df|^2 / sigma_f) with a spatial
kernel exp(-|dg|^2 / sigma_g^2) over a Chebyshev window of the given radius;
the scales enter asymmetrically (sigma_f plain, sigma_g squared). Self-loops
are added and the adjacency is symmetrically normalized. All of that is one
tape node, ``autodiff.window_graph``, which returns the self-loops and the
adjacency stacked as one operator; the static grid graph is the same node
on a constant map with no spatial decay, so one path builds every graph.
Propagation projects the channels, applies the normalized adjacency K times,
K being the size of the learned hop logits ``GraphMixParams.mix_logits``,
and mixes the hop results with softmax weights, feeding a residual update
x + beta * y; the projection, the hops and their mix are one tape node,
``autodiff.propagate``. The graph is rebuilt from current features every
forward pass, so gradients flow through the edge weights. The window is a
fixed stencil on the pixel grid: the graph is one image per window offset,
and every stage works on shifted slices.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterGroup, Tensor
from .errors import ConfigError, ShapeError


def default_sigmas(radius: int) -> Tuple[float, float]:
    """Kernel scales used when none are given: sigma_f=1, sigma_g=(2r)^2."""
    return 1.0, float((2 * radius) ** 2)


def grid_positions(height: int, width: int) -> np.ndarray:
    """Integer (row, col) coordinates for every pixel, shape (2, N)."""
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return np.stack([rows.ravel(), cols.ravel()]).astype(np.float64)


def _grid_shape(positions: np.ndarray, n: int) -> Tuple[int, int]:
    """(height, width) of the row-major grid that ``positions`` must be."""
    if positions.shape != (2, n):
        raise ShapeError(
            f"positions {positions.shape} do not match {n} pixels")
    width = int(np.count_nonzero(positions[0] == 0.0))
    if width < 1 or n % width or not np.array_equal(
            positions, grid_positions(n // width, width)):
        raise ShapeError("positions must be a full row-major pixel grid, "
                         "as grid_positions(height, width) returns")
    return n // width, width


@dataclass(frozen=True)
class ContentGraph:
    """Windowed pixel graph on a height x width grid, in stencil form.

    Offset o runs over the (2r+1)^2 - 1 window offsets in row-major window
    order. ``operator``, the output of the one ``autodiff.window_graph``
    node, is D^-1/2 (A + I) D^-1/2 as (n_off + 1, H, W) images: its
    diagonal, 1 / degree, then at 1 + o the entry of the edge from pixel i
    to i + o. ``valid[o]`` is True where i + o lies on the grid; elsewhere
    the operator is zero.
    """

    height: int
    width: int
    radius: int
    operator: Tensor        # (n_off + 1, H, W)

    @property
    def valid(self) -> np.ndarray:
        """(n_off, H, W) bool: True where pixel i + o is on the grid."""
        return ad._Flat(self.height, self.width, self.radius).valid()

    @property
    def edge_rows(self) -> np.ndarray:
        """Source pixel of every directed off-diagonal edge, offset-major.
        The benchmark's tracer counts ``graph.edges`` from it."""
        _, row, col = np.nonzero(self.valid)
        return row * self.width + col

    def dense_adjacency(self) -> np.ndarray:
        """Dense copy of the normalized adjacency (tests, small scenes)."""
        flat = ad._Flat(self.height, self.width, self.radius)
        shifts = np.array([dr * self.width + dc for dr, dc in flat.offsets if dr or dc])
        offset, row, col = np.nonzero(flat.valid())
        a, rows = np.diag(self.operator.data[0].ravel()), row * self.width + col
        a[rows, rows + shifts[offset]] = self.operator.data[1:][offset, row, col]
        return a

    def fingerprint(self) -> str:
        """Stable digest of structure and (rounded) normalized weights."""
        digest = hashlib.sha256()
        digest.update(np.int64([self.height, self.width, self.radius]).tobytes())
        digest.update(np.round(self.operator.data[1:], 12).tobytes())
        digest.update(np.round(self.operator.data[0], 12).tobytes())
        return digest.hexdigest()[:16]


def build_graph(features: Tensor, positions: np.ndarray, radius: int,
                sigma_f: float, sigma_g: float) -> ContentGraph:
    """Content-adaptive graph over pixels from transformer features, one node.

    ``features`` is (channels, N); ``positions`` is (2, N) and must be the
    row-major grid ``grid_positions(height, width)``. Edge weights are
    differentiable in the features. A scale may be +inf, which switches
    its kernel off. A radius above max(height, width) - 1 adds no
    neighbour, and is refused (radius 1 is accepted on any grid).
    """
    if not sigma_f > 0 or not sigma_g > 0:  # NaN too
        raise ConfigError(f"kernel scales must be positive, got "
                          f"sigma_f={sigma_f}, sigma_g={sigma_g}")
    if radius < 1:
        raise ConfigError(f"window radius must be at least 1, got {radius}")
    if features.ndim != 2:
        raise ShapeError(f"features must be channels x N, got {features.shape}")
    height, width = _grid_shape(positions, features.shape[1])
    widest = max(height, width, 2) - 1  # radius 1 is always a window
    if radius > widest:
        raise ConfigError(f"window radius {radius} is wider than the {height}x"
                          f"{width} scene, where it may be at most {widest}")
    return ContentGraph(height, width, radius, ad.window_graph(
        features, height, width, radius, sigma_f, sigma_g))


@functools.lru_cache(maxsize=8)
def build_static_grid_graph(height: int, width: int, radius: int
                            ) -> ContentGraph:
    """Feature-independent grid graph: every in-window weight fixed to 1,
    as the content graph of a constant map with no spatial decay. It is
    built once per (height, width, radius) and shared by every caller, so
    its operator is read-only."""
    graph = build_graph(Tensor(np.zeros((1, height * width))),
                        grid_positions(height, width), radius, 1.0, np.inf)
    graph.operator.data.setflags(write=False)
    return graph


@dataclass
class GraphMixParams(ParameterGroup):
    """Learned propagation parameters: channel projection, hop-mixing logits,
    and the residual strength."""

    graph_proj: Tensor  # (channels, channels)
    mix_logits: Tensor  # (K,), softmax -> convex hop weights; K is its size
    beta: float

    prefix = "graph"

    @classmethod
    def initialize(cls, rng: np.random.Generator, channels: int, k_steps: int,
                   beta: float) -> "GraphMixParams":
        if k_steps < 1:
            raise ConfigError(f"k_steps must be at least 1, got {k_steps}")
        return cls(
            graph_proj=Tensor(np.asarray(
                rng.uniform(-np.sqrt(6.0 / channels), np.sqrt(6.0 / channels),
                            (channels, channels))), requires_grad=True),
            mix_logits=Tensor(np.zeros(k_steps), requires_grad=True),
            beta=beta,
        )

    def mix_weights(self) -> np.ndarray:
        """Current convex hop weights (numpy, for logging/invariants)."""
        e = np.exp(self.mix_logits.data - self.mix_logits.data.max())
        return e / e.sum()


def propagate(graph: ContentGraph, params: GraphMixParams, x: Tensor) -> Tensor:
    """K-hop propagation with learned convex mixing and residual injection.

    z0 = proj @ x, z_t = z_{t-1} @ A_hat, y = sum_t alpha_t z_t (t >= 1),
    returns x + beta * y, with K the size of ``params.mix_logits``. A_hat
    is symmetric, so each hop applies the stencil to every channel image;
    the projection, the K hops and the mix are one node, which keeps no z0.
    """
    alphas = ad.softmax(params.mix_logits, axis=0)
    return ad.propagate(graph.operator, params.graph_proj, alphas, x,
                        params.beta)
