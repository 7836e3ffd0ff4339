"""Spectral compression and patch tokenization.

The band axis is squeezed through three 1x1 convolutions, then the feature
map is cut into non-overlapping m x m patches (edge patches zero-padded).
Each patch yields one spectral token (1x1 conv, patch-average pool, linear
map: one ``patch_mean_linear``) and one spatial token (3x3 conv inside the
patch, flatten, linear map: one ``patch_linear``), so both sequences stay
strictly patch-local. Both ops read the map itself and tile it privately,
so the tokenizer records two tape nodes and keeps no tiles. ``tokenize``
returns the pair (spectral, spatial) of n_patches x token_dim tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterGroup, Tensor
from .errors import ConfigError, ShapeError


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def centered_he_uniform(rng: np.random.Generator, shape, fan_in: int
                        ) -> np.ndarray:
    """He-scale init with zero-sum rows per output unit.

    LeakyReLU outputs carry a positive mean; random row sums turn that mean
    into per-channel offsets that can leave every pre-activation of a narrow
    layer negative (and the stack effectively dead). Centering each output
    unit's weights removes the response to the constant component.
    """
    w = he_uniform(rng, shape, fan_in)
    flat = w.reshape(shape[0], -1)
    return (flat - flat.mean(axis=1, keepdims=True)).reshape(shape)


def compression_schedule(bands: int, channels: int) -> Tuple[int, int, int]:
    """Channel counts after each 1x1 conv: bands/2, bands/4 (ceil), then C."""
    return -(-bands // 2), -(-bands // 4), channels


@dataclass
class FrontendParams(ParameterGroup):
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    conv3_w: Tensor
    conv3_b: Tensor
    spe_conv_w: Tensor
    spe_conv_b: Tensor
    spe_fc_w: Tensor   # channels -> token dim
    spe_fc_b: Tensor
    spa_conv_w: Tensor  # 3x3, channels -> token dim
    spa_conv_b: Tensor
    spa_fc_w: Tensor   # token_dim * m^2 -> token dim
    spa_fc_b: Tensor
    patch_size: int

    prefix = "frontend"

    @classmethod
    def initialize(cls, rng: np.random.Generator, bands: int, channels: int,
                   token_dim: int, patch_size: int) -> "FrontendParams":
        if bands < 4:
            raise ConfigError(f"compression needs at least 4 bands, got {bands}")
        if patch_size < 1:
            raise ConfigError(f"patch_size must be positive, got {patch_size}")
        c1, c2, c3 = compression_schedule(bands, channels)

        def conv(c_out, c_in, k):
            w = Tensor(centered_he_uniform(rng, (c_out, c_in, k, k), c_in * k * k),
                       requires_grad=True)
            b = Tensor(np.zeros(c_out), requires_grad=True)
            return w, b

        conv1_w, conv1_b = conv(c1, bands, 1)
        conv2_w, conv2_b = conv(c2, c1, 1)
        conv3_w, conv3_b = conv(c3, c2, 1)
        spe_conv_w, spe_conv_b = conv(channels, channels, 1)
        spa_conv_w, spa_conv_b = conv(token_dim, channels, 3)
        flat = token_dim * patch_size * patch_size
        return cls(
            conv1_w, conv1_b, conv2_w, conv2_b, conv3_w, conv3_b,
            spe_conv_w, spe_conv_b,
            Tensor(he_uniform(rng, (channels, token_dim), channels),
                   requires_grad=True),
            Tensor(np.zeros(token_dim), requires_grad=True),
            spa_conv_w, spa_conv_b,
            Tensor(he_uniform(rng, (flat, token_dim), flat), requires_grad=True),
            Tensor(np.zeros(token_dim), requires_grad=True),
            patch_size,
        )


def compress(params: FrontendParams, image: Tensor) -> Tensor:
    """bands x H x W -> channels x H x W via the three-conv squeeze.

    The input is standardized by scene-level scalar constants before the
    first convolution: reflectance is nonnegative with a large mean, which
    would otherwise drive whole channels negative at init and let the
    LeakyReLU stack collapse the signal.
    """
    if image.ndim != 3:
        raise ShapeError(f"compress expects bands x H x W, got {image.shape}")
    if image.shape[0] < 4:
        raise ConfigError(f"compress needs at least 4 bands, got {image.shape[0]}")
    mu = float(image.data.mean())
    sd = float(image.data.std())
    h = ad.scale(ad.sub(image, Tensor(mu)),
                 1.0 / (sd if sd > 0 else 1.0))
    h = ad.conv2d(h, params.conv1_w, params.conv1_b, leaky=True)
    h = ad.conv2d(h, params.conv2_w, params.conv2_b, leaky=True)
    return ad.conv2d(h, params.conv3_w, params.conv3_b, leaky=True)


def tokenize(params: FrontendParams, fmap: Tensor) -> Tuple[Tensor, Tensor]:
    """channels x H x W -> (spectral, spatial), each one token_dim row per
    patch in row-major patch order, from the map zero-padded to the patch
    grid and from its patches."""
    m = params.patch_size
    _, height, width = fmap.shape
    if m > min(height, width):
        raise ConfigError(f"patch size {m} exceeds image extent {height}x{width}")
    spectral = ad.patch_mean_linear(fmap, params.spe_conv_w, params.spe_conv_b,
                                    params.spe_fc_w, params.spe_fc_b, m)
    spatial = ad.patch_linear(fmap, params.spa_conv_w, params.spa_conv_b,
                              params.spa_fc_w, params.spa_fc_b, m)
    return spectral, spatial
