"""Full network assembly: parameters, scene-calibrated init (LSUV, run
through the stage functions of ``forward`` under ``autodiff.Standardize``),
forward pass, and the training loss.

The stages hand each other plain tensors: ``tokenize`` returns the
(spectral, spatial) pair that ``exchange_and_attend`` takes, and the graph
stage reads the channel count off the fused map itself."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from .attention import (AttentionParams, exchange_and_attend, fuse_and_restore,
                        fuse_tokens)
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


def initialize_from_scene(cube: HsiCube, config: TrainConfig) -> ModelParams:
    """Seeded parameter init with the decoder's endmember kernel set from
    vertex-component extraction on the scene.

    After the random draw, layer scales are calibrated on the scene itself
    (zero-mean, unit-std pre-activations per unit, LSUV style): the band
    funnel can get arbitrarily narrow, and uncalibrated draws routinely
    leave whole layers dead or vanishing there. One pass through the stage
    functions of ``forward`` calibrates every biased layer but the seam conv.
    """
    p = config.n_endmembers or cube.n_endmembers
    if p is None:
        raise ConfigError(
            "endmember count unknown: set n_endmembers or provide ground truth")
    # first, so a bad count fails before calibrating; it has its own rng
    extraction = vca_extract(cube, p, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    params = ModelParams.initialize(rng, cube.bands, p, config)
    _calibrate_scales(params, cube)
    params.decoder.set_endmembers(extraction.endmembers)
    return params


def _calibrate_scales(params: ModelParams, cube: HsiCube):
    """One pass of the scene through the freshly drawn network, under
    ``ad.Standardize`` over every biased layer (``*_b``/``*_bN`` with its
    ``*_w``/``*_wN``), through the stage functions ``forward`` calls."""
    named = params.named_parameters()
    layers = []
    for name, bias in named.items():
        match = re.fullmatch(r"(.*)_b(\d*)", name)
        if match:
            layers.append((named[f"{match[1]}_w{match[2]}"], bias))
    with ad.Standardize(layers):
        spectral, spatial = tokenize(
            params.frontend, compress(params.frontend, Tensor(cube.data)))
        spe_seq, spa_seq = exchange_and_attend(params.attention, spectral,
                                               spatial)
        # Not the whole ``forward``: the decoder is calibrated on the map
        # before the seam conv and the graph stage, which are skipped for
        # cost (the full pass took 130 ms against 79 at 100x100, one
        # thread). Skipping the seam conv is exact: it starts as the
        # identity, and is left so. Skipping the graph is not: propagate
        # returns x + beta * sum_t alpha_t A^t (proj x) with a random proj,
        # which at desk init moves the map by 42% (relative L2) and its
        # per-channel std from 1.02 to 1.11.
        fused = fuse_tokens(params.attention, spe_seq, spa_seq,
                            cube.height, cube.width)
        dec.decode(params.decoder, fused)


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
    fmap = compress(params.frontend, observed)
    spe_seq, spa_seq = exchange_and_attend(params.attention,
                                           *tokenize(params.frontend, fmap))
    fused = fuse_and_restore(params.attention, spe_seq, spa_seq, height, width)

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
