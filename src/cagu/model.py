"""Full network assembly: parameters, scene-calibrated init (LSUV, one
``forward`` under ``autodiff.Standardize``), forward pass, and the training
loss. ``forward`` is the one place that sequences the stages.

The stages hand each other plain tensors: ``tokenize`` returns the
(spectral, spatial) pair that ``exchange_and_attend`` takes, and the graph
stage reads the channel count off the fused map itself."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from .attention import AttentionParams, exchange_and_attend, fuse_and_restore
from .autodiff import Tensor
from .config import TrainConfig
from .errors import ConfigError
from .frontend import FrontendParams, compress, tokenize
from .graph import (ContentGraph, GraphMixParams, build_graph,
                    build_static_grid_graph, default_sigmas, grid_positions,
                    propagate)
from .hsi import HsiCube
from .vca import vca_extract


@dataclass
class ModelParams:
    """The complete named-parameter set of the network."""

    frontend: FrontendParams
    attention: AttentionParams
    graph_mix: GraphMixParams
    decoder: dec.DecoderParams

    def named_parameters(self) -> Dict[str, Tensor]:
        return {**self.frontend.named(), **self.attention.named(),
                **self.graph_mix.named(), **self.decoder.named()}

    @classmethod
    def initialize(cls, rng: np.random.Generator, bands: int,
                   n_endmembers: int, config: TrainConfig) -> "ModelParams":
        frontend = FrontendParams.initialize(
            rng, bands, config.channels, config.token_dim, config.patch_size)
        attention = AttentionParams.initialize(
            rng, config.token_dim, config.fused_channels, config.patch_size)
        graph_mix = GraphMixParams.initialize(
            rng, config.fused_channels, config.k_steps, config.beta)
        decoder = dec.DecoderParams.initialize(
            rng, config.fused_channels, n_endmembers, bands)
        return cls(frontend, attention, graph_mix, decoder)

    @classmethod
    def template(cls, bands: int, n_endmembers: int, config: TrainConfig
                 ) -> "ModelParams":
        """``initialize``'s tree, with its names, shapes and config checks,
        drawing nothing: every drawn tensor is zero. It is not random
        because its caller overwrites every value (a checkpoint's arrays),
        and a draw of the whole network would cost more than the copy."""
        return cls.initialize(_ZeroDraw(), bands, n_endmembers, config)


class _ZeroDraw:
    """Stands in for the generator: the init helpers reach it only through
    ``uniform`` and ``normal``, and here both return zeros of ``size``."""

    @staticmethod
    def uniform(low, high, size) -> np.ndarray:
        return np.zeros(size)

    @staticmethod
    def normal(loc, scale, size) -> np.ndarray:
        return np.zeros(size)


def initialize_from_scene(cube: HsiCube, config: TrainConfig) -> ModelParams:
    """Seeded parameter init with the decoder's endmember kernel set from
    vertex-component extraction on the scene.

    After the random draw, layer scales are calibrated on the scene itself
    (zero-mean, unit-std pre-activations per unit, LSUV style): the band
    funnel can get arbitrarily narrow, and uncalibrated draws routinely
    leave whole layers dead or vanishing there. One ``forward`` with the graph
    bypassed calibrates every biased layer but the seam conv, which starts as
    the identity.
    """
    p = config.n_endmembers or cube.n_endmembers
    if p is None:
        raise ConfigError(
            "endmember count unknown: set n_endmembers or provide ground truth")
    # first, so a bad count fails before calibrating; it has its own rng
    extraction = vca_extract(cube, p, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    params = ModelParams.initialize(rng, cube.bands, p, config)
    _calibrate_scales(params, cube, config)
    params.decoder.set_endmembers(extraction.endmembers)
    return params


def _calibrate_scales(params: ModelParams, cube: HsiCube, config: TrainConfig):
    """One ``forward`` of the scene through the freshly drawn network, under
    ``ad.Standardize``: each op calibrates the biased layers it computes."""
    # With the graph bypassed: the decoder is calibrated on the fused map,
    # and the graph stage is skipped for cost (the full pass takes 29-32 ms
    # against 19-21 at 100x100 on one thread of an AMD EPYC, both with the
    # seam conv skipped as the identity it starts as). That is not exact:
    # propagate returns x + beta * sum_t alpha_t A^t (proj x) with a random
    # proj, which at desk init moves the map by 42% (relative L2) and its
    # per-channel std from 1.02 to 1.11.
    with ad.Standardize():
        forward(params, Tensor(cube.data), replace(config, ablation_mode="none"))


@dataclass
class ForwardOutputs:
    abundances: Tensor       # endmembers x H x W, simplex per pixel
    reconstruction: Tensor   # bands x H x W
    graph: Optional[ContentGraph]


def forward(params: ModelParams, observed: Tensor, config: TrainConfig
            ) -> ForwardOutputs:
    """One full pass: compress, tokenize, attend, fuse, refine, decode.

    With ``ablation_mode == "none"`` or ``beta == 0`` the graph stage is
    skipped exactly: the residual update x + beta*y contributes nothing and
    no graph-side parameter receives gradient, so the bypass is algebraically
    identical to running it.
    """
    _, height, width = observed.shape
    m = config.patch_size
    fmap = compress(params.frontend, observed)
    spe_seq, spa_seq = exchange_and_attend(params.attention,
                                           *tokenize(params.frontend, fmap, m))
    fused = fuse_and_restore(params.attention, spe_seq, spa_seq, m, height,
                             width)

    graph = None
    refined = fused
    if config.ablation_mode != "none" and config.beta != 0.0:
        flat = ad.reshape(fused, (fused.shape[0], height * width))
        if config.ablation_mode == "static":
            graph = build_static_grid_graph(height, width, config.radius)
        else:
            sigma_f, sigma_g = default_sigmas(config.radius)
            graph = build_graph(flat, grid_positions(height, width),
                                config.radius, sigma_f, sigma_g)
        refined = ad.reshape(propagate(graph, params.graph_mix, flat),
                             fused.shape)

    abundances, reconstruction = dec.decode(params.decoder, refined)
    return ForwardOutputs(abundances, reconstruction, graph)


def training_loss(params: ModelParams, observed: Tensor, config: TrainConfig):
    outputs = forward(params, observed, config)
    return dec.loss(observed, outputs.reconstruction), outputs
