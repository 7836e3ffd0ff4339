"""Full network assembly: parameters, forward pass, and the training loss."""

from __future__ import annotations

from dataclasses import dataclass
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
        out: Dict[str, Tensor] = {}
        out.update(self.frontend.named())
        out.update(self.attention.named())
        out.update(self.graph_mix.named())
        out.update(self.decoder.named())
        return out

    @classmethod
    def initialize(cls, rng: np.random.Generator, bands: int,
                   n_endmembers: int, config: TrainConfig) -> "ModelParams":
        frontend = FrontendParams.initialize(
            rng, bands, config.channels, config.token_dim, config.token_dim,
            config.patch_size)
        attention = AttentionParams.initialize(
            rng, config.token_dim, config.token_dim, config.fused_channels,
            config.patch_size)
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
    leave whole layers dead or vanishing there.
    """
    p = config.n_endmembers or cube.n_endmembers
    if p is None:
        raise ConfigError(
            "endmember count unknown: set n_endmembers or provide ground truth")
    rng = np.random.default_rng(config.seed)
    params = ModelParams.initialize(rng, cube.bands, p, config)
    _calibrate_scales(params, cube, config)
    extraction = vca_extract(cube, p, seed=config.seed)
    params.decoder.set_endmembers(extraction.endmembers)
    return params


_SD_FLOOR = 1e-3  # below this a unit is considered dead; scale left alone


def _standardize_unit(w: Tensor, b: Tensor, out: np.ndarray, axes) -> np.ndarray:
    """Rescale a linear layer in place so its response to this input has
    zero mean and unit std per output unit; returns the adjusted response.

    Exactness: conv/matmul are linear in (w, b), so dividing the unit's
    weights by sd and recentering its bias reproduces (out - mu) / sd.
    """
    mu = out.mean(axis=axes, keepdims=True)
    sd = np.maximum(out.std(axis=axes, keepdims=True), _SD_FLOOR)
    unit_shape = [n for i, n in enumerate(out.shape) if i not in axes]
    scale = sd.reshape(unit_shape)
    shift = mu.reshape(unit_shape)
    if w.ndim == 4:    # conv kernel (C_out, C_in, k, k)
        w.data /= scale.reshape(-1, 1, 1, 1)
    else:              # linear map (fan_in, fan_out)
        w.data /= scale.reshape(1, -1)
    b.data = (b.data - shift.ravel()) / scale.ravel()
    return (out - mu) / sd


def _calibrate_scales(params: ModelParams, cube: HsiCube, config: TrainConfig):
    """One forward pass through the freshly drawn network, rescaling each
    learned linear stage to healthy activation statistics."""
    fe, at, dc = params.frontend, params.attention, params.decoder
    m = config.patch_size
    height, width = cube.height, cube.width
    data = cube.data
    sd = float(data.std())
    x = Tensor((data - data.mean()) / (sd if sd > 0 else 1.0))

    spatial = (1, 2)
    h = x
    for w, b in ((fe.conv1_w, fe.conv1_b), (fe.conv2_w, fe.conv2_b),
                 (fe.conv3_w, fe.conv3_b)):
        out = ad.conv2d(h, w, b).data
        h = Tensor(_leaky(_standardize_unit(w, b, out, spatial)))
    fmap = h

    blocks = ad.tile_patches(fmap, m)
    batch_spatial = (0, 2, 3)
    spe = ad.conv2d(blocks, fe.spe_conv_w, fe.spe_conv_b).data
    spe = _standardize_unit(fe.spe_conv_w, fe.spe_conv_b, spe, batch_spatial)
    pooled = spe.mean(axis=(2, 3))
    spe_tok = _standardize_unit(fe.spe_fc_w, fe.spe_fc_b,
                                pooled @ fe.spe_fc_w.data + fe.spe_fc_b.data, (0,))

    spa = ad.conv2d(blocks, fe.spa_conv_w, fe.spa_conv_b, padding=1).data
    spa = _standardize_unit(fe.spa_conv_w, fe.spa_conv_b, spa, batch_spatial)
    flat = spa.reshape(spa.shape[0], -1)
    spa_tok = _standardize_unit(fe.spa_fc_w, fe.spa_fc_b,
                                flat @ fe.spa_fc_w.data + fe.spa_fc_b.data, (0,))

    def branch(tokens, cls, wq, wk, wv, mlp_w1, mlp_b1, mlp_w2, mlp_b2):
        seq = np.vstack([cls.data, tokens])
        d = seq.shape[1]
        logits = (seq @ wq.data) @ (seq @ wk.data).T / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        seq = attn @ (seq @ wv.data) + seq
        seq = seq[1:]
        hid = _standardize_unit(mlp_w1, mlp_b1,
                                seq @ mlp_w1.data + mlp_b1.data, (0,))
        hid = _leaky(hid)
        return _standardize_unit(mlp_w2, mlp_b2,
                                 hid @ mlp_w2.data + mlp_b2.data, (0,))

    spe_out = branch(spe_tok, at.cls_spa, at.spe_wq, at.spe_wk, at.spe_wv,
                     at.spe_mlp_w1, at.spe_mlp_b1, at.spe_mlp_w2, at.spe_mlp_b2)
    spa_out = branch(spa_tok, at.cls_spe, at.spa_wq, at.spa_wk, at.spa_wv,
                     at.spa_mlp_w1, at.spa_mlp_b1, at.spa_mlp_w2, at.spa_mlp_b2)
    joint = np.concatenate([spe_out, spa_out], axis=1)
    fused_blocks = _standardize_unit(at.fuse_w, at.fuse_b,
                                     joint @ at.fuse_w.data + at.fuse_b.data, (0,))
    n_tokens = fused_blocks.shape[0]
    fused = ad.untile_patches(
        Tensor(fused_blocks.reshape(n_tokens, config.fused_channels, m, m)),
        height, width).data
    # seam conv starts as the identity, and the graph stage preserves scale
    # (normalized adjacency, convex mixing); the trunk is calibrated on the
    # pre-graph features.
    h = Tensor(fused)
    for idx, (w, b) in enumerate(((dc.trunk1_w, dc.trunk1_b),
                                  (dc.trunk2_w, dc.trunk2_b),
                                  (dc.trunk3_w, dc.trunk3_b),
                                  (dc.trunk4_w, dc.trunk4_b))):
        out = ad.conv2d(h, w, b).data
        out = _standardize_unit(w, b, out, spatial)
        h = Tensor(_leaky(out) if idx < 3 else out)
    logits = ad.conv2d(h, dc.abun_w, dc.abun_b, padding=1).data
    _standardize_unit(dc.abun_w, dc.abun_b, logits, spatial)


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, ad.LEAKY_SLOPE * x)


@dataclass
class ForwardOutputs:
    fused: Tensor            # transformer features, fused_channels x H x W
    refined: Tensor          # after graph refinement (== fused when bypassed)
    abundances: Tensor       # endmembers x H x W, simplex per pixel
    reconstruction: Tensor   # bands x H x W
    graph: Optional[ContentGraph]


def forward(params: ModelParams, observed: Tensor, config: TrainConfig,
            static_graph: Optional[ContentGraph] = None) -> ForwardOutputs:
    """One full pass: compress, tokenize, attend, fuse, refine, decode.

    With ``ablation_mode == "none"`` or ``beta == 0`` the graph stage is
    skipped exactly: the residual update x + beta*y contributes nothing and
    no graph-side parameter receives gradient, so the bypass is algebraically
    identical to running it.
    """
    _, height, width = observed.shape
    fmap = compress(params.frontend, observed)
    tokens = tokenize(params.frontend, fmap)
    spe_seq, spa_seq = exchange_and_attend(params.attention, tokens)
    fused = fuse_and_restore(params.attention, spe_seq, spa_seq, height, width)

    graph = None
    bypass = config.ablation_mode == "none" or config.beta == 0.0
    if bypass:
        refined = fused
    else:
        n = height * width
        flat = ad.reshape(fused, (config.fused_channels, n))
        if config.ablation_mode == "static":
            graph = static_graph
            if graph is None or (graph.height, graph.width) != (height, width):
                graph = build_static_grid_graph(height, width, config.radius)
        else:
            sigma_f, sigma_g = default_sigmas(config.radius)
            graph = build_graph(flat, grid_positions(height, width),
                                config.radius, sigma_f, sigma_g)
        refined_flat = propagate(graph, params.graph_mix, flat)
        refined = ad.reshape(refined_flat,
                             (config.fused_channels, height, width))

    abundances, reconstruction = dec.decode(params.decoder, refined)
    return ForwardOutputs(fused, refined, abundances, reconstruction, graph)


def training_loss(params: ModelParams, observed: Tensor, config: TrainConfig,
                  static_graph: Optional[ContentGraph] = None):
    outputs = forward(params, observed, config, static_graph)
    return dec.loss(observed, outputs.reconstruction), outputs
