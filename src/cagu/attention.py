"""Dual-branch self-attention with cross-branch class-token exchange.

``exchange_and_attend`` takes the tokenizer's (spectral, spatial) pair.
Each branch prepends the *other* branch's learned class token, runs one
single-head scaled dot-product attention block with a residual connection,
then (after dropping class rows) an MLP. The two branches are concatenated
per token, projected to per-pixel features for the token's patch,
scattered back to image shape and seam-smoothed with one 3x3 convolution,
all by one op, ``autodiff.linear_untile``.

The attention itself is the one tape op ``autodiff.attention``: it never
holds the token-by-token weights, so its memory grows linearly with the
token count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterGroup, Tensor
from .errors import ConfigError, ShapeError
from .frontend import he_uniform

CLS_INIT_STD = 0.02


@dataclass
class AttentionParams(ParameterGroup):
    cls_spe: Tensor  # (1, dim) class token owned by the spectral branch
    cls_spa: Tensor  # (1, dim) class token owned by the spatial branch
    spe_wq: Tensor
    spe_wk: Tensor
    spe_wv: Tensor
    spa_wq: Tensor
    spa_wk: Tensor
    spa_wv: Tensor
    spe_mlp_w1: Tensor
    spe_mlp_b1: Tensor
    spe_mlp_w2: Tensor
    spe_mlp_b2: Tensor
    spa_mlp_w1: Tensor
    spa_mlp_b1: Tensor
    spa_mlp_w2: Tensor
    spa_mlp_b2: Tensor
    fuse_w: Tensor  # (2*dim, fused_channels * m^2)
    fuse_b: Tensor
    seam_w: Tensor  # 3x3 conv smoothing patch-block seams
    seam_b: Tensor

    prefix = "attention"

    @classmethod
    def initialize(cls, rng: np.random.Generator, token_dim: int,
                   fused_channels: int, patch_size: int) -> "AttentionParams":
        dim = token_dim
        hidden = 2 * dim

        def square_proj():
            return Tensor(he_uniform(rng, (dim, dim), dim), requires_grad=True)

        def mlp():
            return (Tensor(he_uniform(rng, (dim, hidden), dim), requires_grad=True),
                    Tensor(np.zeros(hidden), requires_grad=True),
                    Tensor(he_uniform(rng, (hidden, dim), hidden), requires_grad=True),
                    Tensor(np.zeros(dim), requires_grad=True))

        cls_spe = Tensor(rng.normal(0.0, CLS_INIT_STD, (1, dim)), requires_grad=True)
        cls_spa = Tensor(rng.normal(0.0, CLS_INIT_STD, (1, dim)), requires_grad=True)
        spe_q, spe_k, spe_v = square_proj(), square_proj(), square_proj()
        spa_q, spa_k, spa_v = square_proj(), square_proj(), square_proj()
        spe_mlp = mlp()
        spa_mlp = mlp()
        block = fused_channels * patch_size * patch_size
        fuse_w = Tensor(he_uniform(rng, (2 * dim, block), 2 * dim), requires_grad=True)
        fuse_b = Tensor(np.zeros(block), requires_grad=True)
        seam_w = Tensor(identity_kernel(fused_channels, 3), requires_grad=True)
        seam_b = Tensor(np.zeros(fused_channels), requires_grad=True)
        return cls(cls_spe, cls_spa, spe_q, spe_k, spe_v, spa_q, spa_k, spa_v,
                   *spe_mlp, *spa_mlp, fuse_w, fuse_b, seam_w, seam_b)


def identity_kernel(channels: int, k: int) -> np.ndarray:
    """Conv kernel acting as the identity map (center spike per channel)."""
    w = np.zeros((channels, channels, k, k))
    mid = k // 2
    for c in range(channels):
        w[c, c, mid, mid] = 1.0
    return w


def _attend_branch(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    out = ad.attention(ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv))
    return ad.add(out, x)  # residual around the attention block


def exchange_and_attend(params: AttentionParams, spectral: Tensor,
                        spatial: Tensor) -> Tuple[Tensor, Tensor]:
    """Prepend the opposite branch's class token to each token sequence
    (n_patches x token_dim) and run one attention block per branch (with
    residual)."""
    if spectral.shape[1] != spatial.shape[1]:
        raise ConfigError("token dims differ between branches: "
                          f"{spectral.shape} vs {spatial.shape}")
    seq_spe = ad.concat([params.cls_spa, spectral], axis=0)
    seq_spa = ad.concat([params.cls_spe, spatial], axis=0)
    out_spe = _attend_branch(seq_spe, params.spe_wq, params.spe_wk, params.spe_wv)
    out_spa = _attend_branch(seq_spa, params.spa_wq, params.spa_wk, params.spa_wv)
    return out_spe, out_spa


def _mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return ad.matmul(ad.matmul(x, w1, b1, leaky=True), w2, b2)


def fuse_and_restore(params: AttentionParams, spe_seq: Tensor, spa_seq: Tensor,
                     m: int, height: int, width: int) -> Tensor:
    """Fuse the two attended sequences into a fused_channels x H x W map of
    m x m patch blocks.

    Class rows are dropped, branch MLPs applied, features concatenated per
    token, then projected to one fused block per patch, scattered back onto
    the pixel grid and smoothed across block seams by a 3x3 conv, all three
    one node, ``autodiff.linear_untile``, which raises ShapeError unless the
    tokens tile the grid. Under ``Standardize`` the node calibrates the fuse
    layer only: it skips the seam conv, which starts as the identity, and
    never hands it to the calibration hook, so the seam is left as drawn.
    """
    if spe_seq.shape[0] != spa_seq.shape[0]:
        raise ShapeError(
            f"sequence lengths differ: {spe_seq.shape} vs {spa_seq.shape}")
    rows = spe_seq.shape[0]  # the class row, then one token per patch

    spe = _mlp(ad.narrow(spe_seq, 0, 1, rows),
               params.spe_mlp_w1, params.spe_mlp_b1,
               params.spe_mlp_w2, params.spe_mlp_b2)
    spa = _mlp(ad.narrow(spa_seq, 0, 1, rows),
               params.spa_mlp_w1, params.spa_mlp_b1,
               params.spa_mlp_w2, params.spa_mlp_b2)
    joint = ad.concat([spe, spa], axis=1)
    return ad.linear_untile(joint, params.fuse_w, params.fuse_b, m, height,
                            width, params.seam_w, params.seam_b)
