"""Scene calibration of the initial parameters: LSUV through the forward pass."""

import re

import numpy as np
import pytest

from cagu import autodiff as ad
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
    layer's output is its pre-activation, ``patch_linear``'s conv is read
    off each patch's own "same" conv, n x O x m x m, and ``linear_untile``'s
    layer off its n x C m^2 response before the scatter."""
    config, cube, params = calibrated
    names = {id(t): name for name, t in params.named_parameters().items()}
    seen = {}
    conv2d, matmul, patch_linear = ad.conv2d, ad.matmul, ad.patch_linear
    linear_untile = ad.linear_untile

    def traced_conv2d(x, w, bias, leaky=False):
        if bias is not None:
            seen[names[id(bias)]] = (x.data, conv2d(x, w, bias).data)
        return conv2d(x, w, bias, leaky)

    def traced_matmul(a, b, bias=None, leaky=False):
        if bias is not None:
            seen[names[id(bias)]] = (a.data, matmul(a, b, bias).data)
        return matmul(a, b, bias, leaky)

    def traced_patch_linear(x, conv_w, conv_b, fc_w, fc_b):
        out = patch_linear(x, conv_w, conv_b, fc_w, fc_b)
        response = np.stack([conv2d(Tensor(p), conv_w, conv_b).data for p in x.data])
        seen[names[id(conv_b)]] = (x.data, response)
        seen[names[id(fc_b)]] = (x.data, out.data)
        return out

    def traced_linear_untile(x, w, b, m, height, width):
        seen[names[id(b)]] = (x.data, matmul(x, w, b).data)
        return linear_untile(x, w, b, m, height, width)

    monkeypatch.setattr(ad, "conv2d", traced_conv2d)
    monkeypatch.setattr(ad, "matmul", traced_matmul)
    monkeypatch.setattr(ad, "patch_linear", traced_patch_linear)
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
