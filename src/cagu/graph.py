"""Content-adaptive pixel graph: construction, normalization, propagation.

Edge weights combine a feature kernel exp(-|df|^2 / sigma_f) with a spatial
kernel exp(-|dg|^2 / sigma_g^2) over a Chebyshev window of the given radius;
the scales enter asymmetrically (sigma_f plain, sigma_g squared). Self-loops
are added and the adjacency is symmetrically normalized. Propagation
projects the channels, applies the normalized adjacency K times and mixes
the hop results with softmax weights, feeding a residual update
x + beta * y; the projection, the hops and their mix are one tape node,
``autodiff.propagate``. The graph is rebuilt from current features every
forward pass, so gradients flow through the edge weights. The window is a
fixed stencil on the pixel grid: the graph is one weight image per window
offset, and every stage works on shifted slices.
"""

from __future__ import annotations

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


@dataclass
class ContentGraph:
    """Windowed pixel graph on a height x width grid, in stencil form.

    Offset o runs over the (2r+1)^2 - 1 window offsets in row-major window
    order. ``weights[o]`` is an image holding, at pixel i, the raw weight of
    the edge from i to its neighbour i + o; ``adjacency[o]`` holds the same
    entries of D^-1/2 (A + I) D^-1/2 and ``loops`` its diagonal, 1 / degree.
    ``valid[o]`` is True where i + o lies on the grid; elsewhere both weight
    images are zero.
    """

    height: int
    width: int
    radius: int
    valid: np.ndarray       # (n_off, H, W) bool
    weights: Tensor         # (n_off, H, W)
    adjacency: Tensor       # (n_off, H, W)
    loops: Tensor           # (H, W)

    @property
    def n_nodes(self) -> int:
        return self.height * self.width

    @property
    def edge_rows(self) -> np.ndarray:
        """Source pixel of every directed off-diagonal edge, offset-major."""
        pixels = np.arange(self.n_nodes).reshape(self.height, self.width)
        return np.broadcast_to(pixels, self.valid.shape)[self.valid]

    def _dense(self, stencil: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
        r = self.radius
        shifts = np.array([dr * self.width + dc for dr in range(-r, r + 1)
                           for dc in range(-r, r + 1) if dr or dc])
        a = np.diag(diagonal)
        rows = self.edge_rows
        a[rows, rows + shifts[np.nonzero(self.valid)[0]]] = stencil[self.valid]
        return a

    def dense_weights(self) -> np.ndarray:
        """Dense copy of the raw off-diagonal weights (tests, small scenes)."""
        return self._dense(self.weights.data, np.zeros(self.n_nodes))

    def dense_adjacency(self) -> np.ndarray:
        """Dense copy of the normalized adjacency (tests, small scenes)."""
        return self._dense(self.adjacency.data, self.loops.data.ravel())

    def fingerprint(self) -> str:
        """Stable digest of structure and (rounded) normalized weights."""
        digest = hashlib.sha256()
        digest.update(np.int64([self.height, self.width, self.radius]).tobytes())
        digest.update(np.round(self.adjacency.data, 12).tobytes())
        digest.update(np.round(self.loops.data, 12).tobytes())
        return digest.hexdigest()[:16]


def _window_valid(height: int, width: int, radius: int) -> np.ndarray:
    """True at [o, i] where pixel i + o is on the grid."""
    if radius < 1:
        raise ConfigError(f"window radius must be at least 1, got {radius}")
    return ad.neighbour_shift(Tensor(np.ones((height, width))), radius).data > 0.0


def _normalize(valid: np.ndarray, weights: Tensor, radius: int
               ) -> ContentGraph:
    """Add self-loops and apply D^-1/2 (A + I) D^-1/2."""
    _, height, width = valid.shape
    degree = ad.add(Tensor(np.ones((height, width))), ad.sum(weights, axis=0))
    inv_sqrt = ad.divide(Tensor(np.ones((height, width))), ad.sqrt(degree))
    adjacency = ad.mul(weights, ad.mul(inv_sqrt,
                                       ad.neighbour_shift(inv_sqrt, radius)))
    return ContentGraph(height, width, radius, valid, weights, adjacency,
                        loops=ad.mul(inv_sqrt, inv_sqrt))


def build_graph(features: Tensor, positions: np.ndarray, radius: int,
                sigma_f: float, sigma_g: float) -> ContentGraph:
    """Content-adaptive graph over pixels from transformer features.

    ``features`` is (channels, N); ``positions`` is (2, N) and must be the
    row-major grid ``grid_positions(height, width)``. Edge weights are
    differentiable in the features.
    """
    if sigma_f <= 0 or sigma_g <= 0:
        raise ConfigError(f"kernel scales must be positive, got "
                          f"sigma_f={sigma_f}, sigma_g={sigma_g}")
    if features.ndim != 2:
        raise ShapeError(f"features must be channels x N, got {features.shape}")
    height, width = _grid_shape(positions, features.shape[1])

    valid = _window_valid(height, width, radius)
    gdist2 = ad.window_sqdist(Tensor(positions.reshape(2, height, width)), radius)
    spatial_term = Tensor(np.exp(-gdist2.data / (sigma_g * sigma_g)) * valid)
    fmap = ad.reshape(features, (features.shape[0], height, width))
    feat_term = ad.exp(ad.scale(ad.window_sqdist(fmap, radius), -1.0 / sigma_f))
    weights = ad.mul(feat_term, spatial_term)
    return _normalize(valid, weights, radius)


def build_static_grid_graph(height: int, width: int, radius: int
                            ) -> ContentGraph:
    """Feature-independent grid graph: every in-window weight fixed to 1."""
    valid = _window_valid(height, width, radius)
    return _normalize(valid, Tensor(valid.astype(np.float64)), radius)


@dataclass
class GraphMixParams(ParameterGroup):
    """Learned propagation parameters: channel projection, hop-mixing logits,
    and the residual strength."""

    graph_proj: Tensor  # (channels, channels)
    mix_logits: Tensor  # (k_steps,), softmax -> convex hop weights
    k_steps: int
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
            k_steps=k_steps,
            beta=beta,
        )

    def mix_weights(self) -> np.ndarray:
        """Current convex hop weights (numpy, for logging/invariants)."""
        e = np.exp(self.mix_logits.data - self.mix_logits.data.max())
        return e / e.sum()


def propagate(graph: ContentGraph, params: GraphMixParams, x: Tensor) -> Tensor:
    """K-hop propagation with learned convex mixing and residual injection.

    z0 = proj @ x, z_t = z_{t-1} @ A_hat, y = sum_t alpha_t z_t (t >= 1),
    returns x + beta * y. A_hat is symmetric, so each hop applies the
    stencil to every channel image; the projection, the K hops and the mix
    are one node, which keeps no z0.
    """
    if params.k_steps < 1:
        raise ConfigError(f"k_steps must be at least 1, got {params.k_steps}")
    alphas = ad.softmax(params.mix_logits, axis=0)
    return ad.propagate(graph.loops, graph.adjacency, params.graph_proj, alphas,
                        x, params.beta, graph.radius)
