"""Scene calibration of the initial parameters: LSUV through the forward pass."""

import re
from dataclasses import replace

import numpy as np
import pytest

from cagu import autodiff as ad
from cagu import model as mdl
from cagu.autodiff import Tensor
from cagu.config import TrainConfig
from cagu.model import forward, initialize_from_scene
from cagu.train import make_desk_scene

SCENE = dict(height=8, width=8, bands=12, endmembers=2)


@pytest.fixture(scope="module")
def calibrated():
    config = TrainConfig(channels=6, token_dim=6, fused_channels=6,
                         patch_size=2, k_steps=2, beta=0.0).validate()
    cube = make_desk_scene(60.0, 0, SCENE)
    return config, cube, initialize_from_scene(cube, config)


@pytest.fixture
def layer_io(monkeypatch, calibrated):
    """Input and output of every biased layer in one real ``forward``
    (graph bypassed), keyed by the bias's parameter name; an activated
    layer's output is its pre-activation, each layer of a ``conv2d``
    stack is read off a one-layer conv2d of its own, ``patch_linear``'s conv
    off each patch's own "same" conv, n x O x m x m, ``patch_mean_linear``'s
    off the map zero-padded to whole patches, ``linear_untile``'s layer off
    its n x C m^2 response before the scatter, and its seam conv off the
    map on the grid."""
    config, cube, params = calibrated
    names = {id(t): name for name, t in params.named_parameters().items()}
    seen = {}
    conv2d, matmul, patch_linear = ad.conv2d, ad.matmul, ad.patch_linear
    patch_mean_linear, linear_untile = ad.patch_mean_linear, ad.linear_untile

    def conv(x, w, b, leaky=False):  # one layer
        return conv2d(Tensor(x), [(w, b)], (leaky,)).data

    def padded(x, m):  # C x H x W zero-padded to whole m x m patches
        _, h, w = x.shape
        return np.pad(x, ((0, 0), (0, -h % m), (0, -w % m)))

    def traced_conv2d(x, layers, leaky, standardize=None):
        h = x.data if standardize is None else (x.data - standardize[0]) * standardize[1]
        for (w, b), act in zip(layers, leaky):
            if b is not None:
                seen[names[id(b)]] = (h, conv(h, w, b))
            h = conv(h, w, b, act)
        return conv2d(x, layers, leaky, standardize)

    def traced_matmul(a, b, bias=None, leaky=False):
        if bias is not None:
            seen[names[id(bias)]] = (a.data, matmul(a, b, bias).data)
        return matmul(a, b, bias, leaky)

    def traced_patch_linear(x, conv_w, conv_b, fc_w, fc_b, m):
        out = patch_linear(x, conv_w, conv_b, fc_w, fc_b, m)
        grid = padded(x.data, m)
        patches = [grid[:, i:i + m, j:j + m] for i in range(0, grid.shape[1], m)
                   for j in range(0, grid.shape[2], m)]
        response = np.stack([conv(p, conv_w, conv_b) for p in patches])
        seen[names[id(conv_b)]] = (x.data, response)
        seen[names[id(fc_b)]] = (x.data, out.data)
        return out

    def traced_patch_mean_linear(x, conv_w, conv_b, fc_w, fc_b, m):
        out = patch_mean_linear(x, conv_w, conv_b, fc_w, fc_b, m)
        grid = padded(x.data, m)
        seen[names[id(conv_b)]] = (grid, conv(grid, conv_w, conv_b))
        seen[names[id(fc_b)]] = (x.data, out.data)
        return out

    def traced_linear_untile(x, w, b, m, height, width, conv_w=None, conv_b=None):
        seen[names[id(b)]] = (x.data, matmul(x, w, b).data)
        out = linear_untile(x, w, b, m, height, width, conv_w, conv_b)
        if conv_b is not None:
            grid = linear_untile(x, w, b, m, height, width)
            seen[names[id(conv_b)]] = (grid.data, out.data)
        return out

    monkeypatch.setattr(ad, "conv2d", traced_conv2d)
    monkeypatch.setattr(ad, "matmul", traced_matmul)
    monkeypatch.setattr(ad, "patch_linear", traced_patch_linear)
    monkeypatch.setattr(ad, "patch_mean_linear", traced_patch_mean_linear)
    monkeypatch.setattr(ad, "linear_untile", traced_linear_untile)
    forward(params, Tensor(cube.data), config)
    return params, seen


def test_every_calibrated_layer_reads_standardised_in_forward(layer_io):
    params, seen = layer_io
    biases = {name for name in params.named_parameters()
              if re.fullmatch(r".*_b\d*", name)}
    assert set(seen) == biases
    for name, (_, out) in seen.items():
        if name == "attention.seam_b":  # not calibrated: starts as identity
            continue
        unit = out.ndim - 3 if out.ndim > 2 else 1
        axes = tuple(i for i in range(out.ndim) if i != unit)
        np.testing.assert_allclose(out.mean(axis=axes), 0.0, atol=1e-9,
                                   err_msg=name)
        np.testing.assert_allclose(out.std(axis=axes), 1.0, atol=1e-9,
                                   err_msg=name)


def test_seam_conv_returns_its_input_bit_for_bit_at_init(layer_io):
    _, seen = layer_io
    x, out = seen["attention.seam_b"]
    assert out.tobytes() == x.tobytes()


def test_calibration_is_one_forward_with_the_graph_bypassed(monkeypatch,
                                                            calibrated):
    config, cube, _ = calibrated
    seen = []
    real_forward = forward

    def recording_forward(params, observed, run_config):
        seen.append((run_config.ablation_mode, ad.Standardize._active is not None))
        return real_forward(params, observed, run_config)

    monkeypatch.setattr(mdl, "forward", recording_forward)
    initialize_from_scene(cube, replace(config, ablation_mode="dynamic"))
    assert seen == [("none", True)]


def test_calibration_that_skips_the_identity_seam_conv_matches_one_that_runs_it(
        monkeypatch):
    # under Standardize the fuse node skips its seam conv, the identity at
    # init; made to run it, calibration gives the same bytes
    config = TrainConfig(channels=8, token_dim=8, fused_channels=8).validate()
    cube = make_desk_scene(60.0, 1, dict(height=12, width=10, bands=16))
    kernels, real_conv = [], ad._conv

    def recording_conv(x, w, b):
        kernels.append(w.shape)
        return real_conv(x, w, b)

    monkeypatch.setattr(ad, "_conv", recording_conv)
    results = []
    for runs_seam_conv in (False, True):
        if runs_seam_conv:
            monkeypatch.setattr(ad, "_is_identity", lambda w: False)
        kernels.clear()
        params = initialize_from_scene(cube, config)
        assert ((8, 8, 3, 3) in kernels) == runs_seam_conv
        results.append({name: t.data.tobytes()
                        for name, t in params.named_parameters().items()})
    assert results[0] == results[1]


def test_calibration_reaches_every_biased_layer_but_the_seam_once_in_order(
        monkeypatch):
    # each op calibrates the biased layers it computes: every *_w / *_b
    # (*_wN / *_bN) pair once, in forward order, but the seam conv, which
    # starts as the identity; the layers with no bias are left as drawn
    config = TrainConfig()
    cube = make_desk_scene(60.0, 0, dict(height=30, width=30, bands=60,
                                         endmembers=3))
    names, drawn, after, calls = {}, {}, {}, []
    real_apply, real_calibrate = ad.Standardize.apply, mdl._calibrate_scales

    def recording_apply(self, w, b, out):
        calls.append((names[id(w)], names[id(b)]))
        return real_apply(self, w, b, out)

    def recording_calibrate(params, cube, config):
        named = params.named_parameters()
        names.update({id(t): name for name, t in named.items()})
        drawn.update({name: t.data.tobytes() for name, t in named.items()})
        real_calibrate(params, cube, config)
        after.update({name: t.data.tobytes() for name, t in named.items()})

    monkeypatch.setattr(ad.Standardize, "apply", recording_apply)
    monkeypatch.setattr(mdl, "_calibrate_scales", recording_calibrate)
    initialize_from_scene(cube, config)
    layers = [(f"{m[1]}_w{m[2]}", name) for name in drawn
              if (m := re.fullmatch(r"(.*)_b(\d*)", name))]
    assert ("attention.seam_w", "attention.seam_b") in layers
    assert calls == [layer for layer in layers if layer[1] != "attention.seam_b"]
    calibrated = {name for layer in calls for name in layer}
    unchanged = {name for name in drawn if drawn[name] == after[name]}
    assert unchanged == set(drawn) - calibrated
    assert {"decoder.endmember_w", "attention.spe_wq", "attention.spa_wv",
            "attention.seam_w", "attention.seam_b"} <= unchanged
