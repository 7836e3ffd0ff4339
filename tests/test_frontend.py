"""Spectral compression and patch tokenization contracts."""

import numpy as np
import pytest

import composed_ops as co
from cagu import autodiff as ad
from cagu.autodiff import Tensor, finite_diff_check
from cagu.errors import ConfigError
from cagu.frontend import (FrontendParams, compress, compression_schedule,
                           tokenize)


def make_params(bands=8, channels=6, dim=6, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return FrontendParams.initialize(rng, bands, channels, dim, m)


def test_compression_schedule_halves_then_quarters():
    assert compression_schedule(8, 5) == (4, 2, 5)
    assert compression_schedule(60, 32) == (30, 15, 32)
    assert compression_schedule(7, 3) == (4, 2, 3)  # ceilings


def test_compress_preserves_spatial_extent():
    params = make_params()
    out = compress(params, Tensor(np.random.default_rng(1).random((8, 9, 7))))
    assert out.shape == (6, 9, 7)


def test_compress_zero_input_zero_biases_gives_zero():
    params = make_params()
    out = compress(params, Tensor(np.zeros((8, 4, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((6, 4, 4)))


def test_compress_single_pixel_matches_hand_composition():
    params = make_params()
    spectrum = np.random.default_rng(2).random(8)
    image = Tensor(spectrum.reshape(8, 1, 1))
    out = compress(params, image)

    def lrelu(v):
        return np.where(v > 0, v, 0.01 * v)

    # apply the three channel maps by hand (conv kernels are 1x1)
    mu, sd = spectrum.mean(), spectrum.std()
    h = (spectrum - mu) / sd
    for w, b in ((params.conv1_w, params.conv1_b),
                 (params.conv2_w, params.conv2_b),
                 (params.conv3_w, params.conv3_b)):
        h = lrelu(w.data[:, :, 0, 0] @ h + b.data)
    np.testing.assert_allclose(out.data[:, 0, 0], h, atol=1e-12)


def test_compress_requires_four_bands():
    params = make_params()
    with pytest.raises(ConfigError):
        compress(params, Tensor(np.zeros((3, 4, 4))))


def test_tokenize_patch_count():
    params = make_params()
    fmap = Tensor(np.random.default_rng(3).random((6, 8, 8)))
    spectral, spatial = tokenize(params, fmap, 4)  # a 2 x 2 patch grid
    assert spectral.shape == (4, 6)
    assert spatial.shape == (4, 6)


def test_tokenize_edge_patches_padded():
    params = make_params(m=4)
    fmap = Tensor(np.random.default_rng(4).random((6, 9, 10)))
    spectral, spatial = tokenize(params, fmap, 4)  # a 3 x 3 patch grid
    assert spectral.shape[0] == spatial.shape[0] == 9


def test_tokenize_patch_too_large():
    params = make_params(m=4)
    with pytest.raises(ConfigError):
        tokenize(params, Tensor(np.zeros((6, 3, 3))), 4)


def _same_conv(x, w, b):
    """Direct "same" conv of one patch (C, m, m), one einsum per tap."""
    k = w.shape[-1]
    r = k // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r)))
    out = b[:, None, None] + sum(
        np.einsum("oc,chw->ohw", w[:, :, i, j], xp[:, i:i + x.shape[1], j:j + x.shape[2]])
        for i in range(k) for j in range(k))
    return out, xp


def _same_conv_grads(xp, w, g):
    """Gradients (padded x, w, b) of sum(_same_conv * g)."""
    k, (m1, m2) = w.shape[-1], g.shape[1:]
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            gw[:, :, i, j] = np.einsum("ohw,chw->oc", g, xp[:, i:i + m1, j:j + m2])
            gxp[:, i:i + m1, j:j + m2] += np.einsum("oc,ohw->chw", w[:, :, i, j], g)
    return gxp, gw, g.sum(axis=(1, 2))


def reference_tokens(params, fmap, m, d_spe, d_spa):
    """Tokens of ``fmap`` and the gradients of sum(spectral * d_spe) +
    sum(spatial * d_spa), patch by patch: reference convs on each
    zero-padded m x m patch, a mean, a flatten and the linear maps."""
    c, h, w = fmap.shape
    gh, gw = -(-h // m), -(-w // m)
    grid = np.zeros((c, gh * m, gw * m))
    grid[:, :h, :w] = fmap
    cells = [np.s_[:, y * m:(y + 1) * m, x * m:(x + 1) * m]
             for y in range(gh) for x in range(gw)]
    p = {name.split(".")[1]: t.data for name, t in params.named().items()}
    spe = [_same_conv(grid[cell], p["spe_conv_w"], p["spe_conv_b"]) for cell in cells]
    spa = [_same_conv(grid[cell], p["spa_conv_w"], p["spa_conv_b"]) for cell in cells]
    pooled = np.stack([out.mean(axis=(1, 2)) for out, _ in spe])
    flat = np.stack([out.ravel() for out, _ in spa])
    tokens = (pooled @ p["spe_fc_w"] + p["spe_fc_b"],
              flat @ p["spa_fc_w"] + p["spa_fc_b"])
    grads = {"spe_fc_w": pooled.T @ d_spe, "spe_fc_b": d_spe.sum(axis=0),
             "spa_fc_w": flat.T @ d_spa, "spa_fc_b": d_spa.sum(axis=0)}
    g_grid = np.zeros_like(grid)
    for branch, convs, g_out in (
            ("spe", spe, [np.broadcast_to(row[:, None, None] / (m * m), (c, m, m))
                          for row in d_spe @ p["spe_fc_w"].T]),
            ("spa", spa, (d_spa @ p["spa_fc_w"].T).reshape(len(cells), -1, m, m))):
        grads[f"{branch}_conv_w"] = 0.0
        grads[f"{branch}_conv_b"] = 0.0
        for cell, (_, xp), g in zip(cells, convs, g_out):
            gxp, gwt, gbt = _same_conv_grads(xp, p[f"{branch}_conv_w"], g)
            r = p[f"{branch}_conv_w"].shape[-1] // 2
            g_grid[cell] += gxp[:, r:r + m, r:r + m]
            grads[f"{branch}_conv_w"] = grads[f"{branch}_conv_w"] + gwt
            grads[f"{branch}_conv_b"] = grads[f"{branch}_conv_b"] + gbt
    return tokens, grads, g_grid[:, :h, :w]


@pytest.mark.parametrize("c,h,w,m", [(5, 30, 30, 4), (4, 9, 10, 4), (3, 7, 5, 2),
                                     (3, 8, 8, 4)])
def test_tokenize_matches_per_patch_oracle(c, h, w, m):
    rng = np.random.default_rng(h * 10 + w)
    params = make_params(channels=c, dim=3, m=m, seed=h + w)
    for t in params.named().values():  # live biases, so padding matters
        if t.ndim == 1:
            t.data = rng.normal(size=t.shape)
    fmap = Tensor(rng.normal(size=(c, h, w)))
    n = -(-h // m) * -(-w // m)
    d_spe, d_spa = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    (want_spe, want_spa), want_grads, want_gx = reference_tokens(
        params, fmap.data, m, d_spe, d_spa)
    fmap.requires_grad = True
    for t in params.named().values():
        t.zero_grad()
    with ad.Tape() as tape:
        spectral, spatial = tokenize(params, fmap, m)
        loss = ad.add(co.sum(co.mul(spectral, Tensor(d_spe))),
                      co.sum(co.mul(spatial, Tensor(d_spa))))
    ad.backward(tape, loss)
    np.testing.assert_allclose(spectral.data, want_spe, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spatial.data, want_spa, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fmap.grad, want_gx, rtol=0, atol=1e-12)
    for name, want in want_grads.items():
        np.testing.assert_allclose(getattr(params, name).grad, want, rtol=0,
                                   atol=1e-12, err_msg=name)


def test_spectral_token_pooling_invariant_to_pixel_order():
    params = make_params()
    rng = np.random.default_rng(5)
    fmap = rng.random((6, 4, 4))
    shuffled = fmap.reshape(6, 16)[:, rng.permutation(16)].reshape(6, 4, 4)
    spe_a, _ = tokenize(params, Tensor(fmap), 4)
    spe_b, _ = tokenize(params, Tensor(shuffled), 4)
    np.testing.assert_allclose(spe_a.data, spe_b.data, atol=1e-12)


def test_tokens_are_patch_local():
    params = make_params()
    rng = np.random.default_rng(6)
    base = rng.random((6, 8, 8))
    poked = base.copy()
    poked[:, 5:, :] += rng.random((6, 3, 8))  # patches 2 and 3 only
    # (spectral, spatial) of each map, branch by branch
    for a, b in zip(tokenize(params, Tensor(base), 4),
                    tokenize(params, Tensor(poked), 4)):
        a, b = a.data, b.data
        np.testing.assert_array_equal(a[:2], b[:2])   # top-row patches
        assert not np.allclose(a[2:], b[2:])


def test_frontend_gradients_pass_finite_differences():
    # Use the production init path: scale calibration keeps pre-activations
    # well away from the LeakyReLU kinks that central differences straddle.
    from cagu.config import TrainConfig
    from cagu.model import initialize_from_scene
    from cagu.train import make_desk_scene

    config = TrainConfig(channels=4, token_dim=4, fused_channels=4,
                         patch_size=2, k_steps=2).validate()
    cube = make_desk_scene(40.0, 3, dict(height=4, width=4, bands=6,
                                         endmembers=2))
    params = initialize_from_scene(cube, config).frontend
    image = Tensor(cube.data)
    rng = np.random.default_rng(9)
    spe_dir = Tensor(rng.normal(size=(4, 4)))
    spa_dir = Tensor(rng.normal(size=(4, 4)))

    def loss(_):
        spectral, spatial = tokenize(params, compress(params, image),
                                     config.patch_size)
        return ad.add(co.sum(co.mul(spectral, spe_dir)),
                      co.sum(co.mul(spatial, spa_dir)))

    # h trades rounding noise (shrinks with h) against LeakyReLU kink
    # straddling (grows with h); 2e-5 is comfortably inside both margins for
    # this fixed scene.
    for name, tensor in params.named().items():
        err = finite_diff_check(loss, tensor, h=2e-5)
        assert err < 1e-4, f"{name}: {err}"
