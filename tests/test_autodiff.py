"""Kernel oracles and gradient properties for the autodiff engine."""

import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import composed_ops as co
from cagu import autodiff as ad
from cagu.attention import identity_kernel
from cagu.autodiff import Tape, Tensor, backward, finite_diff_check
from cagu.errors import ContractError, NumericDomainError, ShapeError


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape))


def grad_of(build, *leaves):
    """Run ``build`` under a tape and return the leaves' gradients."""
    for leaf in leaves:
        leaf.requires_grad = True
        leaf.zero_grad()
    with Tape() as tape:
        loss = build()
    backward(tape, loss)
    return [leaf.grad for leaf in leaves]


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    b = rand((3, 4), seed=1)
    out = ad.matmul(Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zero_annihilates():
    out = ad.matmul(Tensor(np.zeros((2, 3))), rand((3, 4), seed=2))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_hand_expanded():
    # dot products expanded by hand: 1*5+2*6=17, 3*5+4*6=39
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(rand((2, 3)), rand((4, 5)))
    with pytest.raises(ShapeError, match="bias"):
        ad.matmul(rand((2, 3)), rand((3, 4)), rand((3,)))


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 4), (7, 6, 2)])
def test_matmul_bias_matches_add_of_matmul_bit_for_bit(shape):
    n, k, m = shape
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    arrays = [rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)]
    direction = Tensor(rng.normal(size=(n, m)))
    results = []
    for fused in (True, False):
        a, b, bias = (Tensor(x.copy(), requires_grad=True) for x in arrays)
        with Tape() as tape:
            out = (ad.matmul(a, b, bias) if fused
                   else ad.add(ad.matmul(a, b), bias))
            loss = co.sum(co.mul(out, direction))
        assert len(tape.nodes) == (3 if fused else 4)
        backward(tape, loss)
        results.append([out.data, a.grad, b.grad, bias.grad])
    for fused, composed in zip(*results):
        assert fused.tobytes() == composed.tobytes()


# ---------------------------------------------------------------------------
# conv2d

def conv(x, w, b, leaky=False):
    """One conv2d layer: a stack of one."""
    return ad.conv2d(x, [(w, b)], (leaky,))


def conv2d_reference(x, w, b, padding):
    """Direct-summation oracle."""
    c_out, c_in, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = xp.shape[1] - k + 1
    ow = xp.shape[2] - k + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                out[o, i, j] = np.sum(w[o] * xp[:, i:i + k, j:j + k]) + b[o]
    return out


def test_conv2d_identity_kernel():
    x = rand((3, 5, 5), seed=3)
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_kernel_constant_bias():
    x = rand((2, 4, 4), seed=4)
    out = conv(x, Tensor(np.zeros((3, 2, 1, 1))), Tensor(np.full(3, 2.5)))
    np.testing.assert_array_equal(out.data, np.full((3, 4, 4), 2.5))


def test_conv2d_box_kernel_center():
    x = Tensor(np.ones((1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv(x, w, Tensor(np.zeros(1)))
    assert out.data[0, 1, 1] == 9.0
    np.testing.assert_allclose(
        out.data, conv2d_reference(x.data, w.data, np.zeros(1), 1), atol=1e-12)


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv2d_matches_reference(k, padding):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 6, 5)))
    w = Tensor(rng.normal(size=(4, 3, k, k)))
    b = Tensor(rng.normal(size=4))
    out = conv(x, w, b)
    np.testing.assert_allclose(
        out.data, conv2d_reference(x.data, w.data, b.data, padding), atol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv(rand((2, 4, 4)), Tensor(np.zeros((3, 5, 1, 1))),
                  Tensor(np.zeros(3)))


def conv2d_reference_grads(x, w, g, padding):
    """Direct-summation oracle of the gradients (x, w, b) of sum(conv2d * g)."""
    c_out, _, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for o in range(c_out):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                gw[o] += g[o, i, j] * xp[:, i:i + k, j:j + k]
                gxp[:, i:i + k, j:j + k] += g[o, i, j] * w[o]
    return (gxp[:, padding:padding + h, padding:padding + wd], gw,
            g.sum(axis=(1, 2)))


# Full images that take the per-tap GEMMs (k > 1), with the oracle's
# padding k // 2: (c_in, c_out, height, width, k, padding)
TAP_CASES = [(3, 2, 6, 5, 3, 1), (2, 3, 7, 6, 5, 2), (3, 4, 1, 6, 3, 1),
             (3, 4, 6, 1, 3, 1), (2, 3, 2, 5, 3, 1), (2, 3, 5, 2, 5, 2),
             (2, 2, 1, 1, 3, 1)]


def _tap_case(c_in, c_out, h, w, k, seed):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(c_in, h, w))),
            Tensor(rng.normal(size=(c_out, c_in, k, k))),
            Tensor(rng.normal(size=c_out)), rng)


@pytest.mark.parametrize("c_in,c_out,h,w,k,padding", TAP_CASES)
def test_tap_conv2d_matches_reference(c_in, c_out, h, w, k, padding):
    x, kern, bias, rng = _tap_case(c_in, c_out, h, w, k, 60 + h * 7 + w + k)
    out = conv(x, kern, bias)
    np.testing.assert_allclose(
        out.data, conv2d_reference(x.data, kern.data, bias.data, padding),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        conv(x, kern, None).data,
        conv2d_reference(x.data, kern.data, np.zeros(c_out), padding),
        rtol=0, atol=1e-12)
    g = rng.normal(size=out.shape)
    grads = grad_of(lambda: co.sum(co.mul(conv(x, kern, bias), Tensor(g))),
                    x, kern, bias)
    for got, want in zip(grads, conv2d_reference_grads(x.data, kern.data, g,
                                                       padding)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def tap_gemm_in_place(taps, src, shifts, out):
    """The taps' sum over one column block as it was once made: every tap's
    product added into ``out`` itself, a strided slice."""
    n, tmp = out.shape[1], np.empty(out.shape)
    for t, (tap, s) in enumerate(zip(taps, shifts)):
        np.matmul(tap, src[:, s:s + n], out=tmp if t else out)
        if t:
            out += tmp
    return out


@pytest.mark.parametrize("c,side,k", [(64, 30, 3), (6, 7, 5), (3, 12, 3)])
def test_tap_gemm_sums_in_a_buffer_as_it_did_in_place(c, side, k):
    # where it is added up moves no bit of a column block's sum
    x, kern, _, _ = _tap_case(c, c, side, side, k, seed=side)
    flat = ad._Flat(side, side, k // 2)
    assert flat.run <= ad.CACHE_BYTES // (16 * c)  # one column block
    args = (ad._taps(kern.data), flat.pad(x.data), [flat.start + s for s in flat.window])
    got, want = (tap_sum(*args, flat.at(flat.buffer(c)))
                 for tap_sum in (ad._tap_gemm, tap_gemm_in_place))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c_in,c_out,h,w,k,padding", TAP_CASES)
def test_tap_conv2d_gradcheck(c_in, c_out, h, w, k, padding):
    x, kern, bias, rng = _tap_case(c_in, c_out, h, w, k, 80 + h * 7 + w + k)
    shape = conv(x, kern, bias).shape  # the oracle's, padded by k // 2
    assert shape == (c_out, h + 2 * padding - k + 1, w + 2 * padding - k + 1)
    direction = Tensor(rng.normal(size=shape))

    def loss(t, which):
        args = {"x": x, "w": kern, "b": bias, which: t}
        return co.sum(co.mul(conv(args["x"], args["w"], args["b"]), direction))

    for which, leaf in (("x", x), ("w", kern), ("b", bias)):
        assert finite_diff_check(lambda t: loss(t, which), leaf, h=1e-6) < 1e-4


@pytest.mark.parametrize("shape", [(3, 2, 2, 2), (3, 2, 3, 1), (3, 2, 1, 3),
                                   (3, 2, 1), (3, 2, 1, 1, 1)])
def test_conv2d_rejects_even_or_nonsquare_kernel(shape):
    with pytest.raises(ShapeError, match="odd, square"):
        conv(rand((2, 5, 5)), rand(shape), rand(3))


def test_conv2d_rejects_stacked_input():
    with pytest.raises(ShapeError, match="C x H x W"):
        conv(rand((4, 2, 3, 3)), rand((3, 2, 1, 1)), rand(3))


# Per-patch linear maps: each m x m patch of an image through its own "same"
# conv, flattened, then one linear map: (c_in, c_out, height, width, k, m)
PATCH_CASES = [(3, 4, 8, 12, 3, 4), (2, 3, 6, 4, 3, 2), (3, 2, 6, 9, 3, 3),
               (2, 3, 4, 6, 3, 1), (3, 4, 8, 8, 1, 4), (2, 2, 10, 5, 5, 5),
               (2, 3, 4, 4, 3, 4)]


def per_patch_reference(x, kern, bias, g, m):
    """Output and gradients (x, w, b) of sum(conv2d * g), with the
    direct-summation oracles applied to every m x m patch on its own."""
    pad = kern.shape[-1] // 2
    out, gx = np.zeros(g.shape), np.zeros(x.shape)
    gw = np.zeros(kern.shape)
    for y0 in range(0, x.shape[1], m):
        for x0 in range(0, x.shape[2], m):
            cell = np.s_[:, y0:y0 + m, x0:x0 + m]
            out[cell] = conv2d_reference(x[cell], kern, bias, pad)
            gxp, gwp, _ = conv2d_reference_grads(x[cell], kern, g[cell], pad)
            gx[cell] = gxp
            gw += gwp
    return out, (gx, gw, g.sum(axis=(1, 2)))


def tile(a, m):
    """C x H x W -> n x C x m x m patches, row-major patch order, the bottom
    and right edge patches zero-padded to full size."""
    c, h, w = a.shape
    a = np.pad(a, ((0, 0), (0, -h % m), (0, -w % m)))
    gh, gw = a.shape[1] // m, a.shape[2] // m
    return a.reshape(c, gh, m, gw, m).transpose(1, 3, 0, 2, 4).reshape(-1, c, m, m)


def untile(blocks, height, width):
    """The inverse of ``tile``, any padded overhang cropped."""
    _, c, m, _ = blocks.shape
    gh, gw = -(-height // m), -(-width // m)
    grid = blocks.reshape(gh, gw, c, m, m).transpose(2, 0, 3, 1, 4)
    return grid.reshape(c, gh * m, gw * m)[:, :height, :width].copy()


def tile_patches_reference(x, m):
    """The patch tiling tape op that the tokenizer nodes made private."""
    def bwd(g):
        ad._accumulate(x, untile(g, *x.shape[1:]))

    return ad._record("tile_patches", (x,), tile(x.data, m), bwd)


def untile_patches_reference(blocks, height, width):
    """The inverse of ``tile_patches_reference`` as a tape op."""
    def bwd(g):
        ad._accumulate(blocks, tile(g, blocks.shape[2]))

    return ad._record("untile_patches", (blocks,), untile(blocks.data, height, width),
                      bwd)


def _patch_linear_case(c_in, c_out, h, w, k, m, seed):
    """An image as an array, the five tensor inputs of patch_linear (the
    image first), the rng."""
    image, kern, bias, rng = _tap_case(c_in, c_out, h, w, k, seed)
    fc_w, fc_b = Tensor(rng.normal(size=(c_out * m * m, 3))), Tensor(rng.normal(size=3))
    return image.data, [image, kern, bias, fc_w, fc_b], rng


@pytest.mark.parametrize("c_in,c_out,h,w,k,m", PATCH_CASES)
def test_patch_linear_matches_per_patch_reference(c_in, c_out, h, w, k, m):
    seed = 90 + h * 7 + w + k + m
    image, args, rng = _patch_linear_case(c_in, c_out, h, w, k, m, seed)
    x, kern, bias, fc_w, fc_b = args
    n = -(-h // m) * -(-w // m)
    d = rng.normal(size=(n, 3))  # the tokens' gradient
    g = untile((d @ fc_w.data.T).reshape(-1, c_out, m, m), h, w)
    conv, (gx, gk, gb) = per_patch_reference(image, kern.data, bias.data, g, m)
    flat = tile(conv, m).reshape(n, -1)
    np.testing.assert_allclose(ad.patch_linear(*args, m).data,
                               flat @ fc_w.data + fc_b.data, rtol=0, atol=1e-12)
    grads = grad_of(lambda: co.sum(co.mul(ad.patch_linear(*args, m), Tensor(d))), *args)
    want = (gx, gk, gb, flat.T @ d, d.sum(axis=0))
    for got, expected in zip(grads, want):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c_in,c_out,h,w,k,m", PATCH_CASES)
def test_patch_linear_gradcheck(c_in, c_out, h, w, k, m):
    _, args, rng = _patch_linear_case(c_in, c_out, h, w, k, m, 110 + h * 7 + w + k + m)
    direction = Tensor(rng.normal(size=(-(-h // m) * -(-w // m), 3)))
    for slot, leaf in enumerate(args):
        def loss(t):
            return co.sum(co.mul(ad.patch_linear(*args[:slot], t, *args[slot + 1:], m),
                                 direction))
        assert finite_diff_check(loss, leaf, h=1e-6) < 1e-4, slot


@pytest.mark.parametrize("slot,shape", [
    (0, (2, 6, 6, 1)), (0, (2, 36)), (0, (3, 6, 6)),   # map
    (1, (5, 2, 2, 2)), (1, (5, 2, 3, 1)), (2, (4,)),   # conv
    (3, (44, 6)), (3, (45, 6, 1)), (4, (5,))])         # linear map
def test_patch_linear_rejects_shapes_that_do_not_fit(slot, shape):
    shapes = [(2, 6, 5), (5, 2, 3, 3), (5,), (45, 6), (6,)]
    assert ad.patch_linear(*map(rand, shapes), 3).shape == (4, 6)
    for m in (0, 2):  # patches that the linear map does not fit
        with pytest.raises(ShapeError, match="patch_linear"):
            ad.patch_linear(*map(rand, shapes), m)
    shapes[slot] = shape
    with pytest.raises(ShapeError, match="patch_linear"):
        ad.patch_linear(*map(rand, shapes), 3)


# A 1x1 conv, a patch mean and a linear map: (c_in, c_out, height, width, m),
# whole patches, and not
PATCH_MEAN_CASES = [(3, 4, 8, 12, 4), (5, 5, 30, 30, 4), (2, 3, 7, 5, 2),
                    (3, 2, 4, 6, 1), (4, 3, 5, 5, 5)]


def _patch_mean_linear_case(c_in, c_out, h, w, m, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape)) for shape in
            ((c_in, h, w), (c_out, c_in, 1, 1), (c_out,), (c_out, 3), (3,))]


def patch_mean_linear_reference(x, conv_w, conv_b, fc_w, fc_b, m):
    """The spectral tokens as the ops that ``patch_mean_linear`` replaced:
    the map tiled and put back onto the patch grid when it is not whole,
    the 1x1 conv, the patch mean, the transpose and the biased matmul."""
    c, h, w = x.shape
    gh, gw = -(-h // m), -(-w // m)
    patches = tile_patches_reference(x, m)
    grid = x if (gh * m, gw * m) == (h, w) else untile_patches_reference(
        patches, gh * m, gw * m)
    spe = conv(grid, conv_w, conv_b)
    pooled = co.mean(ad.reshape(spe, (conv_w.shape[0], gh, m, gw, m)), axis=(2, 4))
    pooled = co.transpose(ad.reshape(pooled, (conv_w.shape[0], gh * gw)))
    return ad.matmul(pooled, fc_w, fc_b)


@pytest.mark.parametrize("c_in,c_out,h,w,m", PATCH_MEAN_CASES)
def test_patch_mean_linear_matches_the_composed_ops_bit_for_bit(c_in, c_out, h, w, m):
    arrays = [t.data for t in _patch_mean_linear_case(c_in, c_out, h, w, m, h * w + m)]
    direction = rand((-(-h // m) * -(-w // m), 3), seed=m)
    results = []
    for op in (ad.patch_mean_linear, patch_mean_linear_reference):
        args = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = op(*args, m)
            # the map's other consumer hands it a gradient first, as the
            # spatial tokens do
            loss = ad.add(co.sum(co.mul(out, direction)),
                          co.sum(co.scale(args[0], 3.0)))
        backward(tape, loss)
        results.append([out.data] + [t.grad for t in args])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (c_in, c_out, h, w, m)


@pytest.mark.parametrize("c_in,c_out,h,w,m", PATCH_MEAN_CASES[2:])
def test_patch_mean_linear_gradcheck(c_in, c_out, h, w, m):
    args = _patch_mean_linear_case(c_in, c_out, h, w, m, 7 * h + w)
    direction = rand((-(-h // m) * -(-w // m), 3), seed=h)
    for slot, leaf in enumerate(args):
        def loss(t):
            return co.sum(co.mul(ad.patch_mean_linear(
                *args[:slot], t, *args[slot + 1:], m), direction))
        assert finite_diff_check(loss, leaf, h=1e-6) < 1e-4, slot


def test_patch_mean_linear_rejects_shapes_that_do_not_fit():
    good = [(2, 6, 5), (4, 2, 1, 1), (4,), (4, 6), (6,)]
    assert ad.patch_mean_linear(*map(rand, good), 3).shape == (4, 6)
    for slot, shape in ((0, (2, 30)), (0, (3, 6, 5)), (1, (4, 2, 3, 3)), (1, (4, 2)),
                        (2, (5,)), (3, (5, 6)), (3, (4, 6, 1)), (4, (5,))):
        shapes = good[:slot] + [shape] + good[slot + 1:]
        with pytest.raises(ShapeError, match="patch_mean_linear"):
            ad.patch_mean_linear(*map(rand, shapes), 3)
    with pytest.raises(ShapeError, match="patch_mean_linear"):
        ad.patch_mean_linear(*map(rand, good), 0)


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_closed_form():
    out = ad.softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.09003057, 0.24472847, 0.66524096],
                               atol=1e-5)


def test_softmax_two_point_shift():
    c = 1.7
    out = ad.softmax(Tensor([0.4, 0.4 + c]), axis=0)
    np.testing.assert_allclose(
        out.data, [1 / (1 + np.exp(c)), np.exp(c) / (1 + np.exp(c))], atol=1e-12)


@given(arrays(np.float64, st.integers(2, 8),
              elements=st.floats(-50, 50)),
       st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariant_and_normalized(vals, shift):
    base = ad.softmax(Tensor(vals), axis=0)
    shifted = ad.softmax(Tensor(vals + shift), axis=0)
    assert abs(base.data.sum() - 1.0) < 1e-10
    np.testing.assert_allclose(base.data, shifted.data, atol=1e-12)


# ---------------------------------------------------------------------------
# elementwise suite

def test_exp_zero():
    assert co.exp(Tensor(np.zeros(3))).data.tolist() == [1.0, 1.0, 1.0]


def test_divide_floor_error():
    with pytest.raises(NumericDomainError):
        co.divide(Tensor([1.0]), Tensor([1e-13]))


# ---------------------------------------------------------------------------
# activated layers: the LeakyReLU inside conv2d and matmul

def test_leaky_relu_values():
    x = Tensor([[-2.0, 0.5, 3.0]])
    np.testing.assert_allclose(ad.matmul(x, Tensor(np.eye(3)), leaky=True).data,
                               [[-0.02, 0.5, 3.0]])
    image = Tensor(x.data.reshape(1, 1, 3))
    out = conv(image, Tensor(np.ones((1, 1, 1, 1))), None, leaky=True)
    np.testing.assert_allclose(out.data.ravel(), [-0.02, 0.5, 3.0])


# layer(inputs..., leaky) and the shapes of its inputs
ACTIVATED = {
    "conv2d": (conv, [(3, 6, 5), (4, 3, 3, 3), (4,)]),
    "matmul": (lambda a, b, bias, leaky: ad.matmul(a, b, bias, leaky=leaky),
               [(7, 3), (3, 4), (4,)]),
}


@pytest.mark.parametrize("name", sorted(ACTIVATED))
def test_activated_layer_matches_the_layer_then_the_activation_bit_for_bit(name):
    layer, shapes = ACTIVATED[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.normal(size=shape) for shape in shapes]
    pre = layer(*(Tensor(a) for a in arrays), False).data
    direction = rng.normal(size=pre.shape)
    # the activation's own backward, applied to the direction by hand
    through = direction * np.where(pre > 0.0, 1.0, ad.LEAKY_SLOPE)
    grads = []
    for leaky, d in ((True, direction), (False, through)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = layer(*leaves, leaky)
            loss = co.sum(co.mul(out, Tensor(d)))
        assert len(tape.nodes) == 3
        if leaky:
            want = np.maximum(pre, ad.LEAKY_SLOPE * pre)
            assert np.any(pre < 0.0) and out.data.tobytes() == want.tobytes()
        backward(tape, loss)
        grads.append([leaf.grad for leaf in leaves])
    for fused, composed in zip(*grads):
        assert fused.tobytes() == composed.tobytes()


@pytest.mark.parametrize("name", sorted(ACTIVATED))
def test_activated_layer_gradients(name):
    layer, shapes = ACTIVATED[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()) + 1)
    for _ in range(5):
        args = [Tensor(rng.normal(size=shape)) for shape in shapes]
        direction = Tensor(rng.normal(size=layer(*args, True).shape))
        for slot in range(3):
            def loss(t):
                return co.sum(co.mul(layer(*args[:slot], t, *args[slot + 1:], True),
                                     direction))
            assert finite_diff_check(loss, args[slot], h=1e-6) < 1e-4, slot


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_sum_gives_ones():
    x = rand(5, seed=6)
    (g,) = grad_of(lambda: co.sum(x), x)
    np.testing.assert_array_equal(g, np.ones(5))


def test_backward_quadratic():
    x = rand(4, seed=7)
    (g,) = grad_of(lambda: co.sum(co.mul(x, x)), x)
    np.testing.assert_allclose(g, 2 * x.data, atol=1e-12)


def test_backward_fanout_accumulates():
    x = rand(3, seed=8)
    (g,) = grad_of(lambda: ad.add(co.sum(x), co.sum(x)), x)
    np.testing.assert_array_equal(g, 2 * np.ones(3))


def test_self_add_doubles_without_touching_the_output_gradient():
    x = rand(4, seed=40)
    x.requires_grad = True
    with Tape() as tape:
        y = ad.add(x, x)  # hands the same array to x twice
        loss = co.sum(y)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
    np.testing.assert_array_equal(y.grad, np.ones(4))
    assert not np.shares_memory(x.grad, y.grad)
    err = finite_diff_check(lambda t: co.sum(co.mul(ad.add(t, t), t)), rand(4, seed=41))
    assert err < 1e-6


def test_shared_first_gradient_is_not_changed_by_a_later_contribution():
    # add() hands one array to both a and b; a then receives two more
    # contributions, b none, and the add's output keeps its own gradient
    rng = np.random.default_rng(42)
    a, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
    d, e, f = (Tensor(rng.normal(size=5)) for _ in range(3))
    seen = {}

    def build():
        s = ad.add(a, b)
        seen["s"] = s
        return ad.add(ad.add(co.sum(co.mul(s, d)), co.sum(co.mul(a, e))),
                      co.sum(co.mul(a, f)))

    ga, gb = grad_of(build, a, b)
    np.testing.assert_allclose(ga, d.data + e.data + f.data, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(gb, d.data)
    np.testing.assert_array_equal(seen["s"].grad, d.data)


def test_tensor_feeding_reshape_and_add():
    rng = np.random.default_rng(43)
    other = Tensor(rng.normal(size=(3, 4)))
    d1, d2 = Tensor(rng.normal(size=12)), Tensor(rng.normal(size=(3, 4)))

    def f(t):
        flat = ad.reshape(t, (12,))  # hands on a view of its gradient
        both = ad.add(t, other)      # hands on its gradient itself
        return ad.add(co.sum(co.mul(flat, d1)), co.sum(co.mul(both, d2)))

    x = Tensor(rng.normal(size=(3, 4)))
    gx, g_other = grad_of(lambda: f(x), x, other)
    np.testing.assert_allclose(gx, d1.data.reshape(3, 4) + d2.data, atol=1e-15)
    np.testing.assert_array_equal(g_other, d2.data)
    assert finite_diff_check(f, Tensor(x.data.copy())) < 1e-6


def test_parameter_used_twice():
    rng = np.random.default_rng(44)
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3)))

    def f(w):  # (3, 3) weight used by two matmuls and a square
        return ad.add(co.sum(co.square(ad.matmul(a, w))),
                      ad.add(co.sum(ad.matmul(b, w)), co.sum(co.square(w))))

    w = Tensor(rng.normal(size=(3, 3)))
    assert finite_diff_check(f, w) < 1e-6
    (g,) = grad_of(lambda: f(w), w)
    expected = (2 * a.data.T @ (a.data @ w.data) + b.data.sum(axis=0)[:, None]
                + 2 * w.data)
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = rand((2, 2), seed=9)
    x.requires_grad = True
    with Tape() as tape:
        y = co.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_tape_topological_order():
    x = rand(3, seed=10)
    x.requires_grad = True
    with Tape() as tape:
        y = co.exp(x)
        z = co.mul(y, x)
        co.sum(z)
    seen = {id(x)}
    for node in tape.nodes:
        for inp in node.inputs:
            assert id(inp) in seen or not inp.requires_grad
        seen.add(id(node.output))


def test_backward_visits_each_node_once():
    x = rand(3, seed=11)
    x.requires_grad = True
    calls = []
    with Tape() as tape:
        y = co.mul(x, x)
        loss = co.sum(y)
        out = Tensor(loss.data, requires_grad=True)
        tape.record("probe", (loss,), out, lambda g: calls.append(1))
    backward(tape, out)
    assert calls == [1]


def test_backward_releases_each_node_before_its_closure_runs():
    # an output that no closure reads dies before its producer's backward
    seen = []

    def probe(t):
        def bwd(g):
            seen.append(ref())
            ad._accumulate(t, 2.0 * g, fresh=True)

        out = ad._record("probe", (t,), 2.0 * t.data, bwd)
        ref = weakref.ref(out)
        return out

    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = co.sum(probe(x))
    backward(tape, loss)
    assert seen == [None]
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(45)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with Tape() as tape:
        held = ad.matmul(x, w)
        loss = co.sum(co.square(co.exp(held)))
    dropped = [weakref.ref(node.output) for node in tape.nodes
               if node.output is not held and node.output is not loss]
    closures = [weakref.ref(node.backward_fn) for node in tape.nodes]
    assert len(dropped) == 2 and len(closures) == 4
    backward(tape, loss)
    assert tape.nodes == []
    assert all(ref() is None for ref in dropped + closures)
    expected = 2.0 * np.exp(2.0 * held.data)
    np.testing.assert_allclose(held.grad, expected, rtol=1e-15)
    np.testing.assert_allclose(x.grad, expected @ w.data.T, rtol=1e-14)
    gx, gw = x.grad.copy(), w.grad.copy()
    with pytest.raises(ContractError, match="consumed"):
        backward(tape, loss)
    np.testing.assert_array_equal(x.grad, gx)
    np.testing.assert_array_equal(w.grad, gw)


# ---------------------------------------------------------------------------
# unmixing loss: the fused node against the composed ops it replaced

def _composed_l2_norm(x):
    """The deleted ``ad.l2_norm`` over axis 0: subgradient 0 at the origin."""
    out = np.sqrt(np.sum(x.data * x.data, axis=0))

    def bwd(g):
        safe = np.where(out > 0.0, out, 1.0)
        gx = np.expand_dims(g / safe, 0) * x.data
        gx[np.broadcast_to(np.expand_dims(out == 0.0, 0), x.shape)] = 0.0
        ad._accumulate(x, gx)

    return ad._record("l2_norm", (x,), out, bwd)


def _composed_arccos(x):
    """The deleted ``ad.arccos``: clamped to [-1+eps, 1-eps], gradient zero
    where the input was clipped."""
    lo, hi = -1.0 + ad.ARCCOS_EPS, 1.0 - ad.ARCCOS_EPS
    clipped = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def bwd(g):
        ad._accumulate(x, g * np.where(inside, -1.0 / np.sqrt(1.0 - clipped * clipped), 0.0))

    return ad._record("arccos", (x,), np.arccos(clipped), bwd)


def composed_unmixing_loss(observed, reconstructed, guard):
    """The loss as composed tape ops before it became one node."""
    obs_norm = _composed_l2_norm(observed)
    _, height, width = observed.shape
    re_term = co.scale(co.sum(co.square(co.sub(reconstructed, observed))),
                       1.0 / (height * width))
    inner = co.sum(co.mul(observed, reconstructed), axis=0)
    denom = ad.add(co.mul(obs_norm, _composed_l2_norm(reconstructed)), Tensor(guard))
    sad_term = co.mean(_composed_arccos(co.divide(inner, denom)))
    return ad.add(re_term, sad_term)


def loss_scene(seed, bands=7, height=5, width=6):
    """Positive observed spectra; a reconstruction with clipped pixels
    (r = 2y, cosine ~1), anti-aligned ones (r = -y, cosine ~-1) and one
    zero-norm pixel among random ones."""
    rng = np.random.default_rng(seed)
    y = rng.random((bands, height, width)) + 0.05
    r = rng.normal(0.5, 0.5, (bands, height, width))
    r[:, 0, :2] = 2.0 * y[:, 0, :2]
    r[:, 1, 1:3] = -y[:, 1, 1:3]
    r[:, height - 1, width - 1] = 0.0
    return y, r


def loss_and_gradient(loss_fn, y, r, g=1.0):
    rec = Tensor(r.copy(), requires_grad=True)
    with Tape() as tape:
        total = co.scale(loss_fn(Tensor(y), rec, 1e-8), g)
    backward(tape, total)
    return total.data, rec.grad


@pytest.mark.parametrize("seed", range(4))
def test_unmixing_loss_matches_composed_ops_bit_for_bit(seed):
    y, r = loss_scene(seed, bands=5 + seed, height=4 + seed, width=6)
    g = [1.0, 0.5, 3.0, -2.0][seed]  # an upstream gradient that is not 1
    value, grad = loss_and_gradient(ad.unmixing_loss, y, r, g)
    ref_value, ref_grad = loss_and_gradient(composed_unmixing_loss, y, r, g)
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def test_unmixing_loss_is_one_node_keeping_per_pixel_arrays():
    y, r = loss_scene(5, bands=40, height=16, width=16)
    rec = Tensor(r, requires_grad=True)
    with Tape() as tape:
        ad.unmixing_loss(Tensor(y), rec, 1e-8)
    assert [node.op for node in tape.nodes] == ["unmixing_loss"]
    kept, _ = kept_bytes(lambda: ad.unmixing_loss(Tensor(y), rec, 1e-8))
    assert kept <= 6 * 16 * 16 * 8 + (4 << 10), kept  # six H x W arrays


def test_unmixing_loss_clamp_passes_no_gradient_where_clipped():
    y, _ = loss_scene(6)
    n = y.shape[1] * y.shape[2]
    for r in (2.0 * y, -y):  # every pixel aligned, or anti-aligned
        value, grad = loss_and_gradient(ad.unmixing_loss, y, r)
        angle = 0.0 if r[0, 0, 0] > 0 else np.pi
        re_term = np.sum((r - y) ** 2) / n
        assert abs(value - re_term - angle) < 1e-3
        # only the squared error is differentiated
        np.testing.assert_allclose(grad, 2.0 * (r - y) / n, rtol=1e-14, atol=0)


def test_unmixing_loss_zero_norm_reconstruction_has_norm_subgradient_zero():
    y, r = loss_scene(7)
    value, grad = loss_and_gradient(ad.unmixing_loss, y, r)
    assert np.all(np.isfinite(grad))
    # at r = 0 the cosine is 0: the angle term reaches r through <y, r>
    # only, divided by the guard, and the squared error adds 2 (r - y) / n
    n = y.shape[1] * y.shape[2]
    pixel = y[:, -1, -1]
    expected = -1.0 / n / 1e-8 * pixel - 2.0 * pixel / n
    np.testing.assert_allclose(grad[:, -1, -1], expected, rtol=1e-12)


def test_unmixing_loss_gradients():
    rng = np.random.default_rng(34)
    for _ in range(5):
        b, h, w = (int(v) for v in rng.integers(2, 5, size=3))
        y = Tensor(rng.random((b, h, w)) + 0.1)
        r = Tensor(rng.random((b, h, w)) + 0.1)  # no pixel clipped
        err = finite_diff_check(lambda t: ad.unmixing_loss(y, t, 1e-8), r, h=1e-6)
        assert err < 1e-5, err


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3),
                                    st.integers(1, 3)),
              elements=st.floats(-100, 100)))
@settings(max_examples=50, deadline=None)
def test_unmixing_loss_is_finite_for_any_reconstruction(r):
    y = np.random.default_rng(35).random(r.shape) + 0.01
    value, grad = loss_and_gradient(ad.unmixing_loss, y, r)
    assert np.isfinite(value) and np.all(np.isfinite(grad))


def test_unmixing_loss_rejects_bad_scenes():
    y, r = loss_scene(8)
    with pytest.raises(ShapeError):
        ad.unmixing_loss(Tensor(y), Tensor(r[:, :, 1:]), 1e-8)
    with pytest.raises(ShapeError):
        ad.unmixing_loss(Tensor(y[0]), Tensor(r[0]), 1e-8)
    with pytest.raises(ContractError):
        ad.unmixing_loss(Tensor(y, requires_grad=True), Tensor(r), 1e-8)
    y[:, 2, 3] = 0.0
    with pytest.raises(NumericDomainError, match="zero-norm"):
        ad.unmixing_loss(Tensor(y), Tensor(r), 1e-8)
    with pytest.raises(NumericDomainError, match="divisor"):
        ad.unmixing_loss(Tensor(np.ones((2, 1, 1))), Tensor(np.zeros((2, 1, 1))), 0.0)


# ---------------------------------------------------------------------------
# gradient accumulation: the hand-over of a closure's own array

def test_accumulate_sums_into_a_handed_over_array():
    t = Tensor(np.zeros(3), requires_grad=True)
    shared, own, later = np.ones(3), np.full(3, 2.0), np.full(3, 4.0)
    ad._accumulate(t, shared)
    assert t.grad is shared
    ad._accumulate(t, own, fresh=True)  # summed into the closure's array
    assert t.grad is own
    ad._accumulate(t, later)  # into the array t now owns, in place
    assert t.grad is own
    np.testing.assert_array_equal(t.grad, np.full(3, 7.0))
    np.testing.assert_array_equal(shared, np.ones(3))
    np.testing.assert_array_equal(later, np.full(3, 4.0))


def test_accumulate_owns_a_handed_over_first_gradient_and_copies_shared_ones():
    t = Tensor(np.zeros(2), requires_grad=True)
    own, shared = np.ones(2), np.full(2, 3.0)
    ad._accumulate(t, own, fresh=True)
    ad._accumulate(t, shared)
    assert t.grad is own
    np.testing.assert_array_equal(own, np.full(2, 4.0))
    np.testing.assert_array_equal(shared, np.full(2, 3.0))
    u = Tensor(np.zeros(2), requires_grad=True)
    a, b = np.ones(2), np.full(2, 2.0)
    ad._accumulate(u, a)
    ad._accumulate(u, b)  # neither handed over: a new array
    assert u.grad is not a and u.grad is not b
    np.testing.assert_array_equal(u.grad, np.full(2, 3.0))
    np.testing.assert_array_equal(a, np.ones(2))
    np.testing.assert_array_equal(b, np.full(2, 2.0))


def test_a_scalar_handed_over_after_a_shared_gradient():
    # add hands its gradient to x first; scale's 0-d product g * c is a
    # numpy scalar, which the hand-over must still sum into
    x = Tensor(3.0)
    (g,) = grad_of(lambda: ad.add(co.scale(x, 2.0), x), x)
    assert g == 3.0


def test_propagate_sums_into_a_gradient_x_owns():
    # x's other consumer runs its backward first, so x owns its gradient
    # when propagation adds its two shares into it, the residual's and then
    # the projection's: in the composed ops' order, bit for bit
    rng = np.random.default_rng(36)
    loops, weights = rng.normal(size=(5, 6)), rng.normal(size=(8, 5, 6))
    proj, x_data = rng.normal(size=(3, 3)), rng.normal(size=(3, 30))
    d1, d2 = Tensor(rng.normal(size=(3, 30))), Tensor(rng.normal(size=(3, 30)))
    operator = np.concatenate([loops[None], weights])

    def grad(op, other):
        x = Tensor(x_data.copy(), requires_grad=True)
        with Tape() as tape:
            out = op(Tensor(operator), Tensor(proj), Tensor([1.0]), x, 1.0)
            loss = co.sum(co.mul(out, d1))
            if other:
                loss = ad.add(loss, co.sum(co.mul(co.scale(x, 3.0), d2)))
        backward(tape, loss)
        return x.grad

    both = grad(ad.propagate, True)
    assert both.tobytes() == grad(propagate_reference, True).tobytes()
    np.testing.assert_allclose(both, grad(ad.propagate, False) + 3.0 * d2.data,
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# standardisation hook (LSUV calibration)

def _unit_stats(out: np.ndarray, unit: int):
    axes = tuple(i for i in range(out.ndim) if i != unit)
    return out.mean(axis=axes), out.std(axis=axes)


def test_standardize_calibrates_a_conv_layer_in_place():
    x = rand((2, 5, 6), seed=30, scale=3.0)
    w, b = rand((4, 2, 3, 3), seed=31), rand(4, seed=32)
    with ad.Standardize():
        out = conv(x, w, b)
    mu, sd = _unit_stats(out.data, 0)
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(sd, 1.0, atol=1e-12)
    # the rescaled layer itself now gives the standardised response
    np.testing.assert_allclose(conv(x, w, b).data, out.data, atol=1e-12)


def test_standardize_calibrates_the_pre_activation_of_an_activated_layer():
    x = rand((2, 5, 6), seed=48, scale=3.0)
    w, b = rand((4, 2, 3, 3), seed=49), rand(4, seed=50)
    with ad.Standardize():
        out = conv(x, w, b, leaky=True)
    pre = conv(x, w, b).data  # the rescaled layer, not activated
    mu, sd = _unit_stats(pre, 0)
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(sd, 1.0, atol=1e-12)
    np.testing.assert_allclose(out.data, np.maximum(pre, ad.LEAKY_SLOPE * pre),
                               atol=1e-12)
    assert np.any(pre < 0.0)  # the activation changed the response


def test_standardize_calibrates_a_linear_layer_and_leaves_other_ops():
    x = rand((7, 3), seed=33, scale=2.0)
    w, b = rand((3, 4), seed=34), rand(4, seed=35)
    w0 = w.data.copy()
    with ad.Standardize():
        raw = ad.matmul(x, w)
        assert w.data.tobytes() == w0.tobytes()  # a layer without a bias
        out = ad.matmul(x, w, b)
    np.testing.assert_array_equal(raw.data, x.data @ w0)
    mu, sd = _unit_stats(out.data, 1)
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(sd, 1.0, atol=1e-12)
    np.testing.assert_allclose(ad.matmul(x, w, b).data, out.data, atol=1e-12)


def test_standardize_calibrates_a_biased_matmul_as_the_composed_layer():
    x = rand((9, 3), seed=38, scale=2.0)
    layers = [(rand((3, 4), seed=39), rand(4, seed=40)) for _ in range(2)]
    (w, b), (w2, b2) = layers
    w2.data, b2.data = w.data.copy(), b.data.copy()
    with ad.Standardize() as calibration:
        fused = ad.matmul(x, w, b)
        # the composed layer's response, calibrated by hand: add only reads b2
        composed = calibration.apply(w2, b2, ad.add(ad.matmul(x, w2), b2).data)
    for got, want in ((fused.data, composed), (w.data, w2.data), (b.data, b2.data)):
        assert got.tobytes() == want.tobytes()
    mu, sd = _unit_stats(fused.data, 1)
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(sd, 1.0, atol=1e-12)


def test_standardize_recentres_a_dead_unit_without_rescaling():
    # unit 0 only sees the constant input column: its response is constant
    x = Tensor(np.column_stack([np.full(6, 2.0), np.arange(6.0)]))
    w = Tensor(np.array([[0.5, 0.0], [0.0, 3.0]]))
    b = Tensor(np.array([1.0, -1.0]))
    with ad.Standardize():
        out = ad.matmul(x, w, b)
    np.testing.assert_array_equal(w.data[:, 0], [0.5, 0.0])
    assert b.data[0] == -1.0  # 0.5 * 2 + 1 recentred to 0
    np.testing.assert_array_equal(out.data[:, 0], 0.0)
    sd = 3.0 * np.arange(6.0).std()
    np.testing.assert_allclose(w.data[:, 1], [0.0, 3.0 / sd])
    np.testing.assert_allclose(out.data[:, 1].std(), 1.0)


def test_standardize_leaves_a_bias_that_an_op_only_reads():
    x = rand((3, 4), seed=44)
    w, b = rand((4, 4), seed=45), rand(4, seed=46)
    w0, b0 = w.data.copy(), b.data.copy()
    with ad.Standardize():
        outs = [ad.reshape(b, (2, 2)), ad.add(x, b), co.mul(x, b)]
    for out, want in zip(outs, (b0.reshape(2, 2), x.data + b0, x.data * b0)):
        assert out.data.tobytes() == want.tobytes()
    assert w.data.tobytes() == w0.tobytes() and b.data.tobytes() == b0.tobytes()


def test_standardize_calibrates_both_layers_of_a_patch_linear():
    image, args, _ = _patch_linear_case(*PATCH_CASES[0], seed=47)
    with ad.Standardize():
        out = ad.patch_linear(*args, 4)
    # the calibrated conv, patch by patch, and the tokens read standardised
    response, _ = per_patch_reference(image, args[1].data, args[2].data,
                                      np.zeros((4,) + image.shape[1:]), 4)
    for mu, sd in (_unit_stats(response, 0), _unit_stats(out.data, 1)):
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(sd, 1.0, atol=1e-12)
    np.testing.assert_allclose(ad.patch_linear(*args, 4).data, out.data, atol=1e-12)


@pytest.mark.parametrize("h,w", [(8, 12), (7, 5)])
def test_standardize_calibrates_both_layers_of_a_patch_mean_linear(h, w):
    # the conv over every pixel of the padded grid, as the composed ops did,
    # then the tokens, bit for bit with them
    arrays = [t.data for t in _patch_mean_linear_case(3, 4, h, w, 2, seed=h + w)]
    results = []
    for op in (ad.patch_mean_linear, patch_mean_linear_reference):
        args = [Tensor(a.copy()) for a in arrays]
        with ad.Standardize():
            out = op(*args, 2)
        results.append([out.data] + [t.data for t in args[1:]])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (h, w)
    x, conv_w, conv_b = results[0][0], *results[0][1:3]
    grid = np.pad(arrays[0], ((0, 0), (0, h % 2), (0, w % 2)))
    response = np.einsum("oc,chw->ohw", conv_w[:, :, 0, 0], grid) + conv_b[:, None, None]
    for mu, sd in (_unit_stats(response, 0), _unit_stats(x, 1)):
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(sd, 1.0, atol=1e-12)


def test_standardize_calibrates_a_linear_untile_on_its_block_response():
    # units lie on the last axis of the n x C m^2 response, as for the
    # matmul it fuses, not on the channels of the map it returns
    x = rand((6, 3), seed=89, scale=2.0)
    layers = [(rand((3, 8), seed=90), rand(8, seed=91)) for _ in range(2)]
    (w, b), (w2, b2) = layers
    w2.data, b2.data = w.data.copy(), b.data.copy()
    with ad.Standardize():
        fused = ad.linear_untile(x, w, b, 2, 3, 5)
        composed = untile_patches_reference(
            ad.reshape(ad.matmul(x, w2, b2), (6, 2, 2, 2)), 3, 5)
    for got, want in ((fused.data, composed.data), (w.data, w2.data),
                      (b.data, b2.data)):
        assert got.tobytes() == want.tobytes()
    mu, sd = _unit_stats(x.data @ w.data + b.data, 1)
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(sd, 1.0, atol=1e-12)


def test_standardize_refuses_to_nest_and_any_tape():
    w, b = rand((2, 2), seed=37), Tensor(np.zeros(2))
    with ad.Standardize():
        with pytest.raises(ContractError):
            with ad.Standardize():
                pass
        with pytest.raises(ContractError):
            with Tape():
                pass
    with Tape():
        with pytest.raises(ContractError):
            with ad.Standardize():
                pass
    assert ad.Standardize._active is None and Tape._active is None


# ---------------------------------------------------------------------------
# finite-difference oracle

def test_finite_diff_quadratic_at_three():
    x = Tensor([3.0])
    err = finite_diff_check(lambda t: co.sum(co.mul(t, t)), x, h=1e-5)
    assert err < 1e-6  # analytic derivative is 6


def test_finite_diff_constant_function():
    x = Tensor([1.0, 2.0])
    err = finite_diff_check(lambda t: co.sum(co.mul(t, Tensor([0.0, 0.0]))), x)
    assert err == 0.0


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ContractError):
        finite_diff_check(lambda t: co.sum(t), Tensor([1.0]), h=1e-2)


def test_finite_diff_rejects_nonfinite_objective():
    x = Tensor([800.0])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericDomainError):
            finite_diff_check(lambda t: co.sum(co.exp(co.exp(t))), x)


def test_finite_diff_perturbs_a_tensor_that_is_not_contiguous():
    x = Tensor(np.arange(6.0).reshape(2, 3).T)  # a transposed view
    assert not x.data.flags.c_contiguous
    assert finite_diff_check(lambda t: co.sum(co.mul(t, t)), x) < 1e-6
    assert x.data.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]


def test_finite_diff_restores_the_tensor_when_f_raises():
    x, seen = Tensor([1.0, 2.0]), []
    with pytest.raises(ContractError, match="scalar"):  # in the taped call
        finite_diff_check(lambda t: co.scale(t, 2.0), x)
    assert not x.requires_grad and Tape._active is None

    def f(t):  # raises on its third call, which sees x[0] - h
        seen.append(t.data.tolist())
        if len(seen) == 3:
            raise NumericDomainError("third call")
        return co.sum(co.mul(t, t))

    with pytest.raises(NumericDomainError, match="third call"):
        finite_diff_check(f, x)
    assert seen[2] == [1.0 - 1e-5, 2.0] and x.data.tolist() == [1.0, 2.0]
    assert not x.requires_grad


# Every differentiable kernel against central differences, >= 10 random
# shapes each (fixed seeds).

def _shapes2d(rng, n):
    return [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(n)]


def _probe(build, x, h=1e-6):
    direction = Tensor(np.random.default_rng(99).normal(size=build(x).shape))
    return finite_diff_check(lambda t: co.sum(co.mul(build(t), direction)), x, h=h)


KERNELS = {
    "exp": lambda t: co.exp(t),
    "sqrt": lambda t: co.sqrt(ad.add(co.mul(t, t), Tensor(np.full(t.shape, 0.5)))),
    "square": lambda t: co.square(t),
    "leaky_relu": lambda t: ad.matmul(t, Tensor(np.eye(t.shape[1])), leaky=True),
    "softmax": lambda t: ad.softmax(t, axis=-1),
    "sum_axis": lambda t: co.sum(t, axis=0),
    "mean": lambda t: co.mean(t),
    "scale": lambda t: co.scale(t, -1.7),
    "reshape": lambda t: ad.reshape(t, (t.size,)),
    "transpose": lambda t: co.transpose(t),
    "narrow": lambda t: ad.narrow(t, 0, 0, max(1, t.shape[0] - 1)),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_gradients_match_finite_differences(name):
    build = KERNELS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for shape in _shapes2d(rng, 10):
        x = Tensor(rng.normal(0.0, 1.0, shape))
        assert _probe(build, x) < 1e-4, f"{name} failed at shape {shape}"


@pytest.mark.parametrize("name,builder", [
    ("add", lambda a, b: ad.add(a, b)),
    ("sub", lambda a, b: co.sub(a, b)),
    ("mul", lambda a, b: co.mul(a, b)),
    ("divide", lambda a, b: co.divide(a, ad.add(co.square(b), Tensor(np.full(b.shape, 0.5))))),
    ("matmul", lambda a, b: ad.matmul(a, co.transpose(b))),
    ("concat", lambda a, b: ad.concat([a, b], axis=0)),
])
def test_binary_kernel_gradients(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for shape in _shapes2d(rng, 10):
        a = Tensor(rng.normal(size=shape))
        b = Tensor(rng.normal(size=shape))
        direction = Tensor(rng.normal(size=builder(a, b).shape))

        def loss_a(t):
            return co.sum(co.mul(builder(t, b), direction))

        def loss_b(t):
            return co.sum(co.mul(builder(a, t), direction))

        assert finite_diff_check(loss_a, a, h=1e-6) < 1e-4
        assert finite_diff_check(loss_b, b, h=1e-6) < 1e-4


def test_constant_operand_gets_no_gradient():
    # the constants' gradients, 1e200 * 1e200 here, would overflow if made
    x = Tensor(np.full(3, 1e200))
    c, d = Tensor(np.full(3, 1e-200)), Tensor(np.full(3, 1e200))
    with np.errstate(over="raise"):
        (g,) = grad_of(lambda: co.sum(co.mul(co.mul(x, c), d)), x)
    np.testing.assert_allclose(g, np.ones(3), rtol=1e-15)
    assert c.grad is None and d.grad is None
    rng = np.random.default_rng(46)
    k1, k2 = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=3))
    k3 = Tensor(np.full((2, 3), 0.5))

    def f(t):  # every binary op with one constant operand
        return co.sum(co.divide(co.sub(k1, co.mul(t, k2)),
                                ad.add(k3, co.square(t))))

    assert finite_diff_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-6
    assert k1.grad is None and k2.grad is None and k3.grad is None


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv2d_gradients(k, padding):
    rng = np.random.default_rng(42 + k)
    for _ in range(10):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(k, 6)), int(rng.integers(k, 6))
        x = Tensor(rng.normal(size=(c_in, h, w)))
        kern = Tensor(rng.normal(size=(c_out, c_in, k, k)))
        bias = Tensor(rng.normal(size=c_out))
        direction = Tensor(rng.normal(size=conv(x, kern, bias).shape))

        def loss(t, which):
            args = {"x": x, "w": kern, "b": bias, which: t}
            return co.sum(co.mul(conv(args["x"], args["w"], args["b"]), direction))

        grads = grad_of(lambda: loss(x, "x"), x, kern, bias)
        for got, want in zip(grads, conv2d_reference_grads(
                x.data, kern.data, direction.data, padding)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for which, leaf in (("x", x), ("w", kern), ("b", bias)):
            assert finite_diff_check(lambda t: loss(t, which), leaf, h=1e-6) < 1e-4


def test_graph_kernel_gradients():
    rng = np.random.default_rng(77)
    for _ in range(10):
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, radius = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n_off = (2 * radius + 1) ** 2 - 1
        x = Tensor(rng.normal(size=(c, h, w)))
        operator = Tensor(rng.normal(size=(n_off + 1, h, w)))
        features = Tensor(rng.normal(size=(c, h * w)))
        op_direction = Tensor(rng.normal(size=(n_off + 1, h, w)))
        direction = Tensor(rng.normal(size=(c, h, w)))

        # sigma_f = E|x_i - x_j|^2 keeps the weights live, around 1/e
        err = finite_diff_check(
            lambda t: co.sum(co.mul(ad.window_graph(t, h, w, radius, 2.0 * c, 4.0),
                                    op_direction)),
            features, h=1e-6)
        assert err < 1e-4

        def matvec_loss(t, which):
            args = {"operator": operator, "z": x, which: t}
            return co.sum(co.mul(one_hop(args["operator"], args["z"]),
                                 direction))

        for which, leaf in (("operator", operator), ("z", x)):
            err = finite_diff_check(lambda t: matvec_loss(t, which), leaf, h=1e-6)
            assert err < 1e-4, which


def one_hop(operator, z):
    """S z, the window operator once on every channel: propagation of z with
    the identity projection, one hop of weight 1 and beta 1, less the
    residual z (exact up to the rounding of that sum)."""
    x = ad.reshape(z, (z.shape[0], z.size // z.shape[0]))
    out = ad.propagate(operator, Tensor(np.eye(z.shape[0])), Tensor([1.0]), x, 1.0)
    return ad.reshape(co.sub(out, x), z.shape)


def window_oracle(h, w, radius):
    """((dr, dc), i, j) for every pixel i with an in-grid neighbour j = i + o,
    offsets in row-major window order."""
    offsets = [(dr, dc) for dr in range(-radius, radius + 1)
               for dc in range(-radius, radius + 1) if dr or dc]
    for o, (dr, dc) in enumerate(offsets):
        for r in range(h):
            for col in range(w):
                if 0 <= r + dr < h and 0 <= col + dc < w:
                    yield o, (r, col), (r + dr, col + dc)


def window_graph_oracle(x, radius, sigma_f, sigma_g):
    """``window_graph``'s operator by a loop over the window, and the raw
    weights it normalises, zero off the grid."""
    _, h, w = x.shape
    n_off = (2 * radius + 1) ** 2 - 1
    weights = np.zeros((n_off, h, w))
    for o, i, j in window_oracle(h, w, radius):
        d, g = x[:, i[0], i[1]] - x[:, j[0], j[1]], np.subtract(i, j)
        weights[o][i] = np.exp(-(d @ d) / sigma_f) * np.exp(-(g @ g) / sigma_g ** 2)
    degree = 1.0 + weights.sum(axis=0)
    out = np.zeros((n_off + 1, h, w))
    out[0] = 1.0 / degree
    for o, i, j in window_oracle(h, w, radius):
        out[1 + o][i] = weights[o][i] / np.sqrt(degree[i] * degree[j])
    return out, weights


@pytest.mark.parametrize("h,w,radius", [(7, 5, 2), (1, 6, 2), (6, 1, 2),
                                        (2, 3, 3), (4, 4, 1)])
def test_stencil_kernels_match_loop_oracle(h, w, radius):
    rng = np.random.default_rng(h * 10 + w)
    n_off = (2 * radius + 1) ** 2 - 1
    x = rng.normal(size=(3, h, w))
    weights = rng.normal(size=(n_off, h, w))
    loops = rng.normal(size=(h, w))
    matvec = loops * x
    for o, i, j in window_oracle(h, w, radius):
        matvec[:, i[0], i[1]] += weights[o][i] * x[:, j[0], j[1]]
    # sigma_f = E|x_i - x_j|^2 keeps the weights live, around 1/e
    np.testing.assert_allclose(
        ad.window_graph(Tensor(x.reshape(3, -1)), h, w, radius, 6.0, 2.0).data,
        window_graph_oracle(x, radius, 6.0, 2.0)[0], rtol=1e-12, atol=1e-15)
    operator = np.concatenate([loops[None], weights])
    np.testing.assert_allclose(one_hop(Tensor(operator), Tensor(x)).data,
                               matvec, atol=1e-12)


def directional_error(loss, leaf, rng, n_dirs=3, h=1e-4):
    """Largest relative gap between the reverse-mode directional derivative
    of ``loss`` at ``leaf`` and its central difference, over random
    directions. Exact up to rounding for losses at most quadratic in
    ``leaf``, and cheap at any size."""
    (grad,) = grad_of(lambda: loss(leaf), leaf)
    saved = leaf.data.copy()
    worst = 0.0
    for _ in range(n_dirs):
        v = rng.normal(size=saved.shape)
        leaf.data = saved + h * v
        hi = loss(leaf).item()
        leaf.data = saved - h * v
        lo = loss(leaf).item()
        leaf.data = saved
        numeric = (hi - lo) / (2 * h)
        analytic = float(np.sum(grad * v))
        worst = max(worst, abs(analytic - numeric)
                    / (abs(analytic) + abs(numeric) + 1e-8))
    return worst


def record_blocks(monkeypatch):
    """The block list of every ``_Flat.blocks`` call from now on, in a list
    that the caller may clear."""
    seen, blocks = [], ad._Flat.blocks

    def recording(self, *args):
        seen.append(blocks(self, *args))
        return seen[-1]

    monkeypatch.setattr(ad._Flat, "blocks", recording)
    return seen


def several_with_a_partial_last(blocks):
    return len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]


@pytest.mark.parametrize("radius", [1, 2])
def test_stencil_kernels_across_channel_blocks(monkeypatch, radius):
    c, h, w = 71, 40, 40
    seen = record_blocks(monkeypatch)
    rng = np.random.default_rng(radius)
    n_off = (2 * radius + 1) ** 2 - 1
    x = rng.normal(size=(c, h, w))
    operator = rng.normal(size=(n_off + 1, h, w))
    matvec = operator[0] * x
    for o, i, j in window_oracle(h, w, radius):
        matvec[:, i[0], i[1]] += operator[1 + o][i] * x[:, j[0], j[1]]
    # the median squared distance is about 2c, so sigma_f = 2c / ln(1 / 0.3)
    # puts the median feature term near 0.3: every weight is live
    sigma_f, sigma_g = 2.0 * c / np.log(1.0 / 0.3), float((2 * radius) ** 2)
    graph = ad.window_graph(Tensor(x.reshape(c, -1)), h, w, radius, sigma_f, sigma_g)
    oracle, raw = window_graph_oracle(x, radius, sigma_f, sigma_g)
    np.testing.assert_allclose(graph.data, oracle, rtol=1e-12, atol=1e-15)
    assert 0.2 < np.median(raw[ad._Flat(h, w, radius).valid()]) < 0.4
    np.testing.assert_allclose(one_hop(Tensor(operator), Tensor(x)).data,
                               matvec, atol=1e-12)

    op_direction = Tensor(rng.normal(size=(n_off + 1, h, w)))
    direction = Tensor(rng.normal(size=(c, h * w)))
    assert directional_error(
        lambda t: co.sum(co.mul(ad.window_graph(t, h, w, radius, sigma_f, sigma_g),
                                op_direction)),
        Tensor(x.reshape(c, -1).copy()), rng) < 1e-6
    # two hops: quadratic in the operator, and backward's gradient array
    # crosses every block once per hop
    args = {"operator": Tensor(operator), "proj": Tensor(rng.normal(size=(c, c)) / c),
            "x": Tensor(x.reshape(c, -1))}
    alphas = Tensor([0.3, 0.7])
    for which in args:
        def loss(t):
            kw = dict(args, **{which: t})
            return co.sum(co.mul(ad.propagate(kw["operator"], kw["proj"], alphas,
                                              kw["x"], 0.5),
                                 direction))
        leaf = Tensor(args[which].data.copy())
        assert directional_error(loss, leaf, rng) < 1e-6, which
    # the premise: several blocks, the last one partial, in every kernel
    assert len(seen) > 3 and all(several_with_a_partial_last(b) for b in seen)


# (height, width, radius, a CACHE_BYTES that cuts 64 channels into several
# blocks with a partial last one in every window kernel): 8 KiB planes at
# 30x30, 1.4 KiB ones at 7x12 and radius 2
BLOCK_WIDTH_CASES = ((30, 30, 1, 90 * 8192), (7, 12, 2, 90 * 1408))


def window_kernel_bytes(h, w, radius, k, c=64):
    """Output and gradients, as bytes, of propagate with K = k and of
    window_graph, each on a fixed draw of c channels."""
    rng = np.random.default_rng(h + w + k)
    n_op = (2 * radius + 1) ** 2
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((n_op, h, w), (c, c), (k,), (c, h * w), (c, h * w))]
    operator, proj, alphas, x, features = leaves
    directions = [Tensor(rng.normal(size=shape)) for shape in ((c, h * w), (n_op, h, w))]
    with Tape() as tape:
        outs = [ad.propagate(operator, proj, alphas, x, 0.3),
                ad.window_graph(features, h, w, radius, 2.0 * c, 4.0)]
        loss = ad.add(*(co.sum(co.mul(out, d)) for out, d in zip(outs, directions)))
    backward(tape, loss)
    return [t.data.tobytes() for t in outs] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("h,w,radius,partial", BLOCK_WIDTH_CASES)
def test_window_kernels_bits_do_not_depend_on_block_width(monkeypatch, h, w, radius,
                                                           partial, k):
    # one channel a block, several with a partial last one, all in one; each
    # with the block run as one span and plane by plane. (conv2d is not here:
    # CACHE_BYTES cuts its taps' GEMMs into column blocks, and BLAS rounds
    # a GEMM differently at different widths)
    seen = record_blocks(monkeypatch)
    results = []
    for budget, premise in ((1, lambda b: len(b) == 64),
                            (partial, several_with_a_partial_last),
                            (1 << 40, lambda b: len(b) == 1)):
        for span_bytes in (1 << 40, 0):
            monkeypatch.setattr(ad, "CACHE_BYTES", budget)
            monkeypatch.setattr(ad, "SPAN_BYTES", span_bytes)
            seen.clear()
            results.append(window_kernel_bytes(h, w, radius, k))
            assert len(seen) >= 3 and all(premise(b) for b in seen), (budget, seen)
    for got in results[1:]:
        assert got == results[0]


def stencil_matvec_reference(loops, weights, z, radius):
    """The window operator as the tape op that ``propagate`` replaced, copied
    whole: channels in blocks, and z's share of backward added into a
    gradient z already owns."""
    n_off = (2 * radius + 1) ** 2 - 1
    flat = ad._Flat(z.shape[1], z.shape[2], radius)
    lf, wf = flat.pad(loops.data), flat.pad(weights.data)
    out = np.empty_like(z.data)
    blocks = flat.blocks(z.shape[0], 3)
    width = blocks[0][1]
    zb, ob, prod = flat.buffer(width), flat.buffer(width), np.empty((width, flat.run))
    for c0, c1 in blocks:
        zk, acc, p = flat.pad(z.data[c0:c1], zb[:c1 - c0]), ob[:c1 - c0], prod[:c1 - c0]
        np.multiply(flat.at(lf), flat.at(zk), out=flat.at(acc))
        for o, shift in enumerate(flat.shifts):
            np.multiply(flat.at(wf[o]), flat.at(zk, shift), out=p)
            flat.at(acc)[...] += p
        out[c0:c1] = flat.crop(acc)

    def bwd(g):
        gl = flat.buffer(1)[0] if loops.requires_grad else None
        gw = flat.buffer(n_off) if weights.requires_grad else None
        sink = z.grad if z.requires_grad and z.grad is z._owned else None
        gz = np.empty_like(z.data) if z.requires_grad and sink is None else None
        blocks = flat.blocks(z.shape[0], 4)
        width = blocks[0][1]
        gb, zb, gzb = flat.buffer(width), flat.buffer(width), flat.buffer(width)
        stack = np.empty((width + 1, flat.run))
        for c0, c1 in blocks:
            rows = c1 - c0
            gk, p = flat.pad(g[c0:c1], gb[:rows]), stack[1:rows + 1]
            zk = flat.pad(z.data[c0:c1], zb[:rows])
            if gl is not None:
                np.multiply(flat.at(gk), flat.at(zk), out=p)
                ad._add_rows(flat.at(gl), stack[:rows + 1])
            if gw is not None:
                for o, shift in enumerate(flat.shifts):
                    np.multiply(flat.at(gk), flat.at(zk, shift), out=p)
                    ad._add_rows(flat.at(gw[o]), stack[:rows + 1])
            if z.requires_grad:
                gzk = gzb[:rows]
                np.multiply(flat.at(lf), flat.at(gk), out=flat.at(gzk))
                for o, shift in enumerate(flat.shifts):
                    np.multiply(flat.at(wf[o]), flat.at(gk), out=p)
                    flat.at(gzk, shift)[...] += p
                if sink is None:
                    gz[c0:c1] = flat.crop(gzk)
                else:
                    sink[c0:c1] += flat.crop(gzk)
        if gl is not None:
            ad._accumulate(loops, flat.crop(gl), fresh=True)
        if gw is not None:
            ad._accumulate(weights, flat.crop(gw), fresh=True)
        if gz is not None:
            ad._accumulate(z, gz, fresh=True)

    return ad._record("stencil_matvec", (loops, weights, z), out, bwd)


def hop_mix_reference(x, alphas, hops, beta):
    """x + beta * sum_t alphas[t] hops[t] as the tape op that ``propagate``
    replaced, copied whole: every hop's gradient handed over at once."""
    a, shape = alphas.data, hops[0].shape
    out = hops[0].data * a[0]
    term = np.empty_like(out)
    for t in range(1, len(hops)):
        np.multiply(hops[t].data, a[t], out=term)
        out += term
    out *= beta
    out = out.reshape(x.shape)
    out += x.data

    def bwd(g):
        ad._accumulate(x, g)
        gs = g.reshape(shape)
        ga = np.empty(len(hops))
        for t, h in enumerate(hops):
            gh = np.multiply(gs, beta)
            gh *= h.data
            ga[t] = ad._unbroadcast(gh, (1,))[0]
            np.multiply(gs, beta, out=gh)
            gh *= a[t]
            ad._accumulate(h, gh, fresh=True)
        ad._accumulate(alphas, ga, fresh=True)

    return ad._record("hop_mix", (x, alphas, *hops), out, bwd)


def propagate_reference(operator, proj, alphas, x, beta):
    """``ad.propagate`` as the composed ops it replaced: the operator split
    into loops and weights, the projection's matmul, the stencil K times and
    the hop mix."""
    radius = math.isqrt(operator.shape[0]) // 2
    loops = ad.reshape(ad.narrow(operator, 0, 0, 1), operator.shape[1:])
    weights = ad.narrow(operator, 0, 1, operator.shape[0])
    z = ad.reshape(ad.matmul(proj, x), (x.shape[0],) + loops.shape)
    hops = []
    for _ in range(alphas.size):
        z = stencil_matvec_reference(loops, weights, z, radius)
        hops.append(z)
    return hop_mix_reference(x, alphas, hops, beta)


def test_propagate_matches_stencil_and_hop_mix_bit_for_bit():
    # the second case holds more channels than one block, forward or backward
    for c, h, w, radius, k in ((3, 4, 5, 1, 3), (70, 40, 40, 2, 2), (3, 5, 4, 1, 1)):
        blocks = ad._Flat(h, w, radius).blocks(c, 6, (2 * radius + 1) ** 2)
        assert (len(blocks) > 1) == (c > 3)
        rng = np.random.default_rng(c + k)
        n_off = (2 * radius + 1) ** 2 - 1
        arrays = [rng.normal(size=shape) for shape in
                  ((h, w), (n_off, h, w), (c, c), (k,), (c, h * w))]
        arrays[:2] = [np.concatenate([arrays[0][None], arrays[1]])]
        direction = Tensor(rng.normal(size=(c, h * w)))
        for learned in (True, False):  # an operator with gradients, or static
            results = []
            for op in (ad.propagate, propagate_reference):
                operator, proj, logits, x = (
                    Tensor(a.copy(), requires_grad=learned or i > 0)
                    for i, a in enumerate(arrays))
                with Tape() as tape:
                    alphas = ad.softmax(logits, axis=0)
                    out = op(operator, proj, alphas, x, 0.3)
                    # x's other consumer hands it a gradient it owns first
                    loss = ad.add(co.sum(co.mul(out, direction)),
                                  co.sum(co.scale(x, 3.0)))
                backward(tape, loss)
                results.append([out.data] + [
                    t.grad for t in (operator, proj, logits, x) if t.requires_grad])
            assert len(results[0]) == len(results[1]) == (5 if learned else 4)
            for a, b in zip(*results):
                assert a.tobytes() == b.tobytes(), (c, learned)


def test_propagate_gradients():
    rng = np.random.default_rng(32)
    for k in (1, 2, 3):
        for learned in (True, False):  # an operator with gradients, or static
            c, h, w = (int(v) for v in rng.integers(1, 4, size=3))
            radius = int(rng.integers(1, 3))
            n_off = (2 * radius + 1) ** 2 - 1
            args = [Tensor(rng.normal(size=shape), requires_grad=learned and i < 1)
                    for i, shape in enumerate(((n_off + 1, h, w), (c, c), (k,),
                                               (c, h * w)))]
            beta = float(rng.uniform(0.1, 2.0))
            direction = Tensor(rng.normal(size=(c, h * w)))
            for slot in range(4) if learned else range(1, 4):
                def loss(t):
                    return co.sum(co.mul(ad.propagate(
                        *args[:slot], t, *args[slot + 1:], beta), direction))
                err = finite_diff_check(loss, args[slot], h=1e-6)
                assert err < 1e-4, (k, learned, slot, err)


def _propagate_operands():
    good = [Tensor(np.ones(shape)) for shape in ((9, 3, 3), (2, 2), (2,), (2, 9))]
    assert ad.propagate(*good, 0.5).shape == (2, 9)
    return good


def _assert_propagate_rejects(good, slot, shape):
    with pytest.raises(ShapeError, match="propagate"):
        ad.propagate(*good[:slot], Tensor(np.ones(shape)), *good[slot + 1:], 0.5)


def test_stencil_matvec_rejects_mismatched_weights():
    # the stencil operands of ad.propagate: the stacked operator (loops,
    # then weights) and the projection that makes z0
    good = _propagate_operands()
    for slot, shape in ((0, (9, 3, 4)), (0, (1, 3, 3)), (0, (8, 3, 3)), (0, (9, 9)),
                        (1, (2, 3)), (1, (3, 3)), (1, (2, 2, 1))):
        _assert_propagate_rejects(good, slot, shape)
    # the first extent, loops and the window's offsets, is (2r+1)^2 for a
    # radius r >= 1: an even square is no window
    _assert_propagate_rejects(good, 0, (16, 3, 3))


def test_hop_mix_rejects_mismatched_shapes():
    # the hop mix operands of ad.propagate: alphas and x, which the
    # projection also reads
    good = _propagate_operands()
    for slot, shape in ((2, (0,)), (2, (1, 2)), (3, (2, 8)), (3, (3, 9)),
                        (3, (2, 3, 3)), (3, (18,))):
        _assert_propagate_rejects(good, slot, shape)


def test_patch_kernel_gradients():
    # the tiling references: untile is tile's adjoint, as the tokenizer
    # nodes' and linear_untile's backwards take it
    rng = np.random.default_rng(88)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        x = Tensor(rng.normal(size=(c, h, w)))
        blocks = tile_patches_reference(x, m)
        direction = Tensor(rng.normal(size=blocks.shape))
        err = finite_diff_check(
            lambda t: co.sum(co.mul(tile_patches_reference(t, m), direction)), x,
            h=1e-6)
        assert err < 1e-4

        blk = Tensor(rng.normal(size=blocks.shape))
        direction2 = Tensor(rng.normal(size=(c, h, w)))
        err = finite_diff_check(
            lambda t: co.sum(co.mul(untile_patches_reference(t, h, w), direction2)),
            blk, h=1e-6)
        assert err < 1e-4


def test_tile_untile_inverse():
    # the private tiling of the patch ops, and the test-side references
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5, 7))
    blocks = ad._to_blocks(x, 3)
    assert blocks.tobytes() == tile(x, 3).tobytes()
    np.testing.assert_array_equal(ad._from_blocks(blocks, 2, 3, 5, 7), x)
    np.testing.assert_array_equal(untile(blocks, 5, 7), x)


LINEAR_UNTILE_GRIDS = ((4, 6), (5, 7))  # whole 2 x 2 patches, and not


def _linear_untile_operands(h, w, seed, m=2, c=3, d=4):
    rng = np.random.default_rng(seed)
    n = -(-h // m) * -(-w // m)
    return [Tensor(rng.normal(size=shape)) for shape in ((n, d), (d, c * m * m),
                                                          (c * m * m,))]


def test_linear_untile_matches_matmul_reshape_untile_bit_for_bit():
    for h, w in LINEAR_UNTILE_GRIDS:
        arrays = [t.data for t in _linear_untile_operands(h, w, seed=h)]
        n = arrays[0].shape[0]
        direction = rand((3, h, w), seed=w)
        results = []
        for fused in (True, False):
            x, wt, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            with Tape() as tape:
                if fused:
                    out = ad.linear_untile(x, wt, b, 2, h, w)
                else:
                    out = untile_patches_reference(
                        ad.reshape(ad.matmul(x, wt, b), (n, 3, 2, 2)), h, w)
                loss = co.sum(co.mul(out, direction))
            backward(tape, loss)
            results.append([out.data, x.grad, wt.grad, b.grad])
        assert results[0][0].shape == (3, h, w)
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes(), (h, w)


def test_linear_untile_gradients():
    for h, w in LINEAR_UNTILE_GRIDS:
        args = _linear_untile_operands(h, w, seed=h + w)
        direction = rand((3, h, w), seed=h * w)
        for slot in range(3):
            def loss(t):
                return co.sum(co.mul(ad.linear_untile(
                    *args[:slot], t, *args[slot + 1:], 2, h, w), direction))
            err = finite_diff_check(loss, args[slot], h=1e-6)
            assert err < 1e-4, (h, w, slot, err)


def test_linear_untile_rejects_mismatched_shapes():
    good = _linear_untile_operands(3, 5, seed=0)  # 6 rows, 4 x 12 map
    assert ad.linear_untile(*good, 2, 3, 5).shape == (3, 3, 5)
    for slot, shape in ((0, (6, 4, 1)), (0, (5, 4)), (0, (6, 3)), (1, (4, 13)),
                        (1, (4, 12, 1)), (2, (13,)), (2, (12, 1))):
        with pytest.raises(ShapeError, match="linear_untile"):
            ad.linear_untile(*good[:slot], Tensor(np.ones(shape)), *good[slot + 1:],
                             2, 3, 5)
    for m, h, w in ((3, 3, 5), (0, 3, 5), (2, 5, 5)):  # 12 is not 9 C; 9 patches
        with pytest.raises(ShapeError, match="linear_untile"):
            ad.linear_untile(*good, m, h, w)


# ---------------------------------------------------------------------------
# conv2d stacks and the fuse layer with its seam conv, against the composed
# ops they replaced

STACK_GRIDS = ((30, 30), (32, 32), (100, 100), (7, 12))


def stack_reference(x, layers, leaky, standardize=None):
    """The stack as a chain of one-layer conv2d nodes, the first reading the
    map standardised by sub and scale."""
    h = x if standardize is None else co.scale(co.sub(x, Tensor(standardize[0])),
                                               standardize[1])
    for (w, b), act in zip(layers, leaky):
        h = conv(h, w, b, leaky=act)
    return h


def _stack_case(widths, h, w, seed, kernels=None):
    """A widths[0] x h x w map and layers through ``widths``, each of the
    (size, biased) pair in ``kernels`` (1x1 and biased without it); a layer
    without a bias has None in its place."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(widths[0], h, w)) * 3.0 + 1.0]
    kernels = kernels or [(1, True)] * (len(widths) - 1)
    for c_in, c_out, (k, biased) in zip(widths, widths[1:], kernels):
        arrays += [rng.normal(size=(c_out, c_in, k, k)) / np.sqrt(c_in * k * k),
                   rng.normal(size=c_out) * 0.1 if biased else None]
    return arrays


def _stack_args(arrays, requires_grad=False):
    ts = [None if a is None else Tensor(a.copy(), requires_grad=requires_grad)
          for a in arrays]
    return ts[0], list(zip(ts[1::2], ts[2::2]))


def _stack_results(op, arrays, leaky, standardize, direction):
    """Output and every gradient of ``op``'s stack over ``arrays``."""
    x, layers = _stack_args(arrays, requires_grad=True)
    with Tape() as tape:
        out = op(x, layers, leaky, standardize)
        # the map's other consumer hands it a gradient first
        loss = ad.add(co.sum(co.mul(out, direction)), co.sum(co.scale(x, 3.0)))
    backward(tape, loss)
    return [out.data, x.grad] + [t.grad for layer in layers for t in layer
                                 if t is not None]


# stacks of 1x1 layers: the front end's squeeze (standardised input, every
# layer activated) and the decoder's trunk (the last layer linear)
STACKS = (((60, 30, 15, 32), (True, True, True), (0.25, 1.5)),
          ((64, 32, 16, 3, 3), (True, True, True, False), None))

# stacks that mix kernel sizes: the decoder's head (its trunk, then the 3x3
# abundance layer), and 1x1, 3x3 and 5x5 layers with one bias left out
MIXED_STACKS = (((64, 32, 16, 3, 3, 3), ((1, True),) * 4 + ((3, True),),
                 (True, True, True, False, False)),
                ((6, 8, 5, 4, 3), ((1, True), (3, True), (1, False), (5, True)),
                 (True, False, True, False)))


@pytest.mark.parametrize("h,w", STACK_GRIDS)
@pytest.mark.parametrize("widths,leaky,standardize", STACKS)
def test_conv1x1_stack_matches_the_composed_layers_bit_for_bit(widths, leaky,
                                                               standardize, h, w):
    # a stack of 1x1 layers, as the front end and the decoder trunk run
    # one, through one conv2d node
    arrays = _stack_case(widths, h, w, seed=h + w)
    direction = rand((widths[-1], h, w), seed=w)
    got, want = (_stack_results(op, arrays, leaky, standardize, direction)
                 for op in (ad.conv2d, stack_reference))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes(), (widths, h, w)


@pytest.mark.parametrize("h,w", STACK_GRIDS)
@pytest.mark.parametrize("standardize", [None, (0.25, 1.5)])
@pytest.mark.parametrize("widths,kernels,leaky", MIXED_STACKS)
def test_conv2d_mixed_stack_matches_a_chain_of_one_layer_nodes_bit_for_bit(
        widths, kernels, leaky, standardize, h, w):
    arrays = _stack_case(widths, h, w, seed=2 * h + w, kernels=kernels)
    direction = rand((widths[-1], h, w), seed=h)
    got, want = (_stack_results(op, arrays, leaky, standardize, direction)
                 for op in (ad.conv2d, stack_reference))
    assert len(got) == len(want) == 2 + sum(1 + biased for _, biased in kernels)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes(), (widths, h, w)


@pytest.mark.parametrize("h,w", STACK_GRIDS)
@pytest.mark.parametrize("widths,leaky,standardize", STACKS)
def test_standardize_calibrates_every_layer_of_a_conv1x1_stack(widths, leaky,
                                                               standardize, h, w):
    # layer by layer, in order, as each one-layer node of the chain did
    arrays = _stack_case(widths, h, w, seed=3 * h + w)
    results = []
    for op in (ad.conv2d, stack_reference):
        x, layers = _stack_args(arrays)
        with ad.Standardize():
            out = op(x, layers, leaky, standardize)
        results.append([out.data] + [t.data for layer in layers for t in layer])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (widths, h, w)


@pytest.mark.parametrize("h,w", STACK_GRIDS)
@pytest.mark.parametrize("widths,kernels,leaky", MIXED_STACKS)
def test_standardize_calibrates_every_layer_of_a_mixed_stack_in_order(
        widths, kernels, leaky, h, w):
    arrays = _stack_case(widths, h, w, seed=5 * h + w, kernels=kernels)
    results = []
    for op in (ad.conv2d, stack_reference):
        x, layers = _stack_args(arrays)
        with ad.Standardize():
            out = op(x, layers, leaky, (0.25, 1.5))
        results.append([out.data] + [t.data for layer in layers for t in layer
                                     if t is not None])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (widths, h, w)
    # each biased layer, the 3x3 one included, was calibrated on what the
    # layers before it give once calibrated: its response is standardised
    h_map = (x.data - 0.25) * 1.5
    for (wt, b), act in zip(layers, leaky):
        pre = conv(Tensor(h_map), wt, b).data
        if b is not None:
            mu, sd = _unit_stats(pre, 0)
            np.testing.assert_allclose(mu, 0.0, atol=1e-9)
            np.testing.assert_allclose(sd, 1.0, atol=1e-9)
        h_map = np.maximum(pre, ad.LEAKY_SLOPE * pre) if act else pre


@pytest.mark.parametrize("widths,leaky,standardize", STACKS)
def test_conv1x1_stack_gradcheck(widths, leaky, standardize):
    # seed 5 puts a coordinate of x's gradient near zero, where the
    # difference quotient's rounding reaches 6.8e-4 relative, for the
    # composed layers too (ROADMAP item 4)
    arrays = _stack_case(tuple(max(2, c // 8) for c in widths), 3, 4, seed=9)
    direction = rand(arrays[-1].shape + (3, 4), seed=10)
    leaves = [Tensor(a) for a in arrays]
    for slot, leaf in enumerate(leaves):
        def loss(t):
            args = leaves[:slot] + [t] + leaves[slot + 1:]
            out = ad.conv2d(args[0], list(zip(args[1::2], args[2::2])), leaky,
                            standardize)
            return co.sum(co.mul(out, direction))
        assert finite_diff_check(loss, leaf, h=1e-6) < 1e-4, slot


def test_conv1x1_stack_rejects_layers_that_do_not_fit():
    # every layer is checked, the bias of each as None or one per output
    x, layers = _stack_args(_stack_case((4, 3, 2), 3, 5, seed=0))
    assert ad.conv2d(x, layers, (True, False)).shape == (2, 3, 5)
    unbiased = [layers[0], (layers[1][0], None)]
    assert ad.conv2d(x, unbiased, (True, False)).shape == (2, 3, 5)
    bad = [[(rand((3, 5, 1, 1)), layers[0][1]), layers[1]],   # reads 5 channels
           [(rand((3, 4, 2, 2)), layers[0][1]), layers[1]],   # even kernel
           [(layers[0][0], rand((2,))), layers[1]],           # bias of 2 units
           [(layers[0][0], rand((3, 1))), layers[1]],         # 2-d bias
           [layers[0], (rand((2, 2, 1, 1)), layers[1][1])],   # 2 of 3 channels
           [layers[0], (layers[1][0], rand((3,)))],           # bias of 3 units
           [layers[0], (rand((2, 3, 1)), layers[1][1])]]      # 3-d kernel
    for stack in bad:
        with pytest.raises(ShapeError, match="conv2d"):
            ad.conv2d(x, stack, (True, False))
    with pytest.raises(ShapeError, match="conv2d"):
        ad.conv2d(rand((4, 15)), layers, (True, False))
    for stack, leaky in ((layers, (True,)), ([], ())):
        with pytest.raises(ShapeError, match="conv2d"):
            ad.conv2d(x, stack, leaky)


# (grid, patch size): patches that overhang the grid, whole ones, the wide
# benchmark's grid, and a non-square grid
FUSE_CASES = ((30, 30, 4), (32, 32, 4), (100, 100, 4), (7, 12, 2))


def _fuse_case(h, w, m, seed, c=6, d=5):
    rng = np.random.default_rng(seed)
    n = -(-h // m) * -(-w // m)
    return [rng.normal(size=shape) for shape in (
        (n, d), (d, c * m * m), (c * m * m,), (c, c, 3, 3), (c,))]


@pytest.mark.parametrize("h,w,m", FUSE_CASES)
def test_linear_untile_with_a_conv_matches_linear_untile_then_conv2d_bit_for_bit(h, w, m):
    arrays = _fuse_case(h, w, m, seed=h * w)
    direction = rand((6, h, w), seed=h)
    results = []
    for fused in (True, False):
        x, wt, b, cw, cb = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        with Tape() as tape:
            if fused:
                out = ad.linear_untile(x, wt, b, m, h, w, cw, cb)
            else:
                out = conv(ad.linear_untile(x, wt, b, m, h, w), cw, cb)
            loss = co.sum(co.mul(out, direction))
        backward(tape, loss)
        results.append([out.data] + [t.grad for t in (x, wt, b, cw, cb)])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (h, w, m)


@pytest.mark.parametrize("h,w,m", FUSE_CASES)
def test_standardize_calibrates_the_fuse_layer_and_not_the_seam_conv(h, w, m):
    # the fuse layer as linear_untile alone calibrates it; the seam conv,
    # which has a bias too, starts as the identity and is left so, and so
    # returns the calibrated map bit for bit
    arrays = _fuse_case(h, w, m, seed=h + m)
    arrays[3], arrays[4] = identity_kernel(6, 3), np.zeros(6)
    results = []
    for fused in (True, False):
        x, wt, b, cw, cb = (Tensor(a.copy()) for a in arrays)
        with ad.Standardize():
            out = (ad.linear_untile(x, wt, b, m, h, w, cw, cb) if fused
                   else ad.linear_untile(x, wt, b, m, h, w))
        results.append([out.data] + [t.data for t in (wt, b, cw, cb)])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes(), (h, w, m)
    assert results[0][3].tobytes() == arrays[3].tobytes()


def test_standardize_convolves_a_seam_that_is_not_the_identity():
    # only the identity kernel with a zero bias is skipped: one entry off
    # the identity, or a bias, or any other kernel, is convolved as conv2d
    # convolves the calibrated map
    h, w, m = 7, 12, 2
    arrays = _fuse_case(h, w, m, seed=5)
    nudged = identity_kernel(6, 3)
    nudged[0, 1, 0, 0] = 1e-3
    seams = [(nudged, np.zeros(6)), (identity_kernel(6, 3), np.full(6, 0.5)),
             (arrays[3], arrays[4])]
    for cw_data, cb_data in seams:
        results = []
        for fused in (True, False):
            x, wt, b, cw, cb = (Tensor(a.copy()) for a in arrays[:3] + [cw_data, cb_data])
            with ad.Standardize():
                out = (ad.linear_untile(x, wt, b, m, h, w, cw, cb) if fused
                       else ad.linear_untile(x, wt, b, m, h, w))
            if not fused:  # the seam is not calibrated, only convolved
                out = conv(out, cw, cb)
            results.append([out.data] + [t.data for t in (wt, b, cw, cb)])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()


def test_linear_untile_with_a_conv_gradcheck():
    arrays = _fuse_case(5, 7, 2, seed=9, c=2, d=3)
    direction = rand((2, 5, 7), seed=10)
    leaves = [Tensor(a) for a in arrays]
    for slot, leaf in enumerate(leaves):
        def loss(t):
            args = leaves[:slot] + [t] + leaves[slot + 1:]
            return co.sum(co.mul(ad.linear_untile(*args[:3], 2, 5, 7, *args[3:]),
                                 direction))
        assert finite_diff_check(loss, leaf, h=1e-6) < 1e-4, slot


def test_linear_untile_rejects_a_conv_that_does_not_fit():
    x, wt, b, cw, cb = map(Tensor, _fuse_case(3, 5, 2, seed=0, c=3, d=4))
    assert ad.linear_untile(x, wt, b, 2, 3, 5, cw, cb).shape == (3, 3, 5)
    for kernel, bias in (((3, 2, 3, 3), (3,)), ((3, 3, 2, 2), (3,)),
                         ((3, 3, 3, 1), (3,)), ((3, 3, 3), (3,)), ((3, 3, 3, 3), (2,))):
        with pytest.raises(ShapeError, match="linear_untile"):
            ad.linear_untile(x, wt, b, 2, 3, 5, rand(kernel), rand(bias))
    with pytest.raises(ShapeError, match="linear_untile"):
        ad.linear_untile(x, wt, b, 2, 3, 5, cw, None)


def test_rebuilding_nodes_keep_no_inner_map():
    # what stays allocated after the forward: a conv2d stack keeps its
    # output and no inner map, the fuse node its output and not the map on
    # the grid that its conv read (composed, each is a node output: 3.5,
    # 18 and 1.0 maps of the output's size)
    x, layers = _stack_args(_stack_case((60, 30, 15, 32), 64, 64, seed=1), True)
    widths, kernels, head_leaky = MIXED_STACKS[0]
    head_x, head = _stack_args(_stack_case(widths, 64, 64, seed=3, kernels=kernels),
                               True)
    fuse = [Tensor(a, requires_grad=True) for a in _fuse_case(64, 64, 4, seed=2, c=16)]
    for build, out_bytes in (
            (lambda: ad.conv2d(x, layers, (True,) * 3, (0.5, 2.0)),
             32 * 64 * 64 * 8),
            (lambda: ad.conv2d(head_x, head, head_leaky), 3 * 64 * 64 * 8),
            (lambda: ad.linear_untile(*fuse[:3], 4, 64, 64, *fuse[3:]),
             16 * 64 * 64 * 8)):
        tracemalloc.start()
        try:
            with Tape():
                base = tracemalloc.get_traced_memory()[0]
                out = build()
                kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert kept < 1.1 * out_bytes, (kept, out_bytes)


# ---------------------------------------------------------------------------
# memory a node keeps for backward

def kept_bytes(build):
    """Bytes still allocated after ``build`` has recorded its nodes under a
    tape, beyond the nodes' outputs (inputs made beforehand are not
    counted); and the peak allocation while it ran, both in bytes."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build()
            now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return now - base - sum(n.output.data.nbytes for n in tape.nodes), peak - base


def test_conv2d_keeps_no_padded_copy_of_its_input():
    x = rand((8, 64, 64), seed=70)
    w, b = rand((8, 8, 3, 3), seed=71), rand((8,), seed=72)
    for t in (x, w, b):
        t.requires_grad = True
    kept, _ = kept_bytes(lambda: conv(x, w, b))
    assert kept < x.data.nbytes / 8, kept  # a padded copy is 1.06x the input


def propagate_kept_beyond_its_hop(c, side):
    """Bytes a K = 2 propagate node over c channels of a side x side grid
    keeps beyond its one hop, and its operator's size."""
    operator = rand((9, side, side), seed=74)
    proj, alphas = rand((c, c), seed=75), rand((2,), seed=80)
    x = rand((c, side * side), seed=81)
    for t in (operator, proj, alphas, x):
        t.requires_grad = True
    kept, _ = kept_bytes(lambda: ad.propagate(operator, proj, alphas, x, 0.5))
    hops = x.data.nbytes  # z_1, for backward; z0 and z_K are rebuilt
    return kept - hops, operator.data.nbytes


def test_propagate_keeps_no_padded_copy_of_its_operators():
    beyond, operator = propagate_kept_beyond_its_hop(4, 64)
    assert 0 <= beyond < operator / 8, beyond


def test_propagate_keeps_no_tile_of_its_operator():
    # at 30x30 forward tiles the operator under a block of 14 channels, 14
    # operators' worth, and the node keeps none of it
    flat = ad._Flat(30, 30, 1)
    assert flat.spans and flat.blocks(64, 3, 9)[0][1] == 14
    beyond, operator = propagate_kept_beyond_its_hop(64, 30)
    assert 0 <= beyond < operator / 8, beyond


def test_tokenizer_nodes_keep_no_tiles_and_no_per_pixel_map():
    x = rand((16, 62, 62), seed=88)  # not whole 4 x 4 patches: padded
    spa = [rand((8, 16, 3, 3), seed=89), rand((8,), seed=90), rand((128, 6), seed=91)]
    spe = [rand((8, 16, 1, 1), seed=92), rand((8,), seed=93), rand((8, 6), seed=94)]
    bias = rand((6,), seed=95)
    for t in (x, *spa, *spe, bias):
        t.requires_grad = True
    for build in (lambda: ad.patch_linear(x, *spa, bias, 4),
                  lambda: ad.patch_mean_linear(x, *spe, bias, 4)):
        kept, _ = kept_bytes(build)
        # the folded matrix and the weights' copies, or the patch means
        assert kept < x.data.nbytes / 8, kept


def patch_mean_linear_backward_peak(side, c=32, m=4):
    """Bytes a patch_mean_linear node over c channels of a side x side map
    allocates in its backward at the most, above what was live at entry."""
    args = [rand(shape, seed=96 + i) for i, shape in enumerate(
        ((c, side, side), (c, c, 1, 1), (c,), (c, 16), (16,)))]
    for t in args:
        t.requires_grad = True
    with Tape() as tape:
        ad.patch_mean_linear(*args, m)
    (node,) = tape.nodes
    g = rand(node.output.shape, seed=101).data
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        node.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - entry


def test_patch_mean_linear_backward_drops_the_padded_map_before_its_gradient():
    # 30x30 pads to the 4 x 4 patch grid, 32x32, in backward as in forward;
    # the padded copy dies once the kernel's gradient is made, before the
    # map's gradient is, so the peak is that of a map already whole
    padded, whole = (patch_mean_linear_backward_peak(side) for side in (30, 32))
    assert padded < 1.1 * whole, (padded, whole)


def test_window_graph_keeps_one_window_sized_array():
    h = w = 64
    x = rand((16, h * w), seed=89)
    x.requires_grad = True
    for radius in (1, 2):
        n_off = (2 * radius + 1) ** 2 - 1
        kept, _ = kept_bytes(lambda: ad.window_graph(x, h, w, radius, 32.0, 4.0))
        # the feature term, for backward; beside it the degree's root and
        # its inverse, one image each, and no padded or per-offset copy
        window, image = n_off * h * w * 8, h * w * 8
        assert 0 <= kept - window < 2 * image + image / 4, (radius, kept)


def test_propagate_backward_holds_one_hop_sized_gradient():
    # 64 channels x 100 x 100 with K = 3: a hop is 5.12 MB, and a separate
    # hop mix node hands all K hop gradients over at once. Traced from
    # before the forward, so the hops the node keeps are on the books, and
    # so are z_K rebuilt and backward's freeing of the hops it walked.
    rng = np.random.default_rng(82)
    c, h, w, k = 64, 100, 100, 3
    args = [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((9, h, w), (c, c), (k,), (c, h * w))]
    g = rng.normal(size=(c, h * w))
    hop = g.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            ad.propagate(*args, 0.5)
        (node,) = tape.nodes
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        node.backward_fn(g)  # the node, and so its output, is still held
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"\npropagate from before its forward: entry {(entry - base) / 1e6:+.2f} MB, "
          f"backward peak {(peak - base) / 1e6:+.2f} MB, "
          f"left live {(left - base) / 1e6:+.2f} MB")
    # the output and z_1 .. z_{K-1}, z_K being rebuilt in backward, and the
    # node's own Python objects (3.2 kB)
    assert entry - base <= k * hop + (64 << 10), (entry - base) / 1e6
    # beside those, backward's one gradient array r (z_K is rebuilt block by
    # block as a factor in it), z0 at the last hop, x's gradient, and the
    # operator's gradient and padded copy
    assert peak - base < 6 * hop, (peak - base) / 1e6
    # z_1 .. z_{K-1} are freed once walked, z_K's array holds x's gradient,
    # and what is new is the operator's gradient and the small ones
    operator_grad = args[0].data.nbytes
    assert left - base < 2 * hop + 2 * operator_grad, (left - base) / 1e6


def test_attention_keeps_no_token_by_token_array():
    n, d = 1500, 8  # 18 key blocks of 87 columns
    q, k, v = (rand((n, d), seed=s) for s in (77, 78, 79))
    for t in (q, k, v):
        t.requires_grad = True
    kept, peak = kept_bytes(lambda: ad.attention(q, k, v))
    assert kept < n * n * 8 / 4, kept
    assert kept < 4 * n * 8 + (16 << 10), kept  # the log-sum-exp of each row
    assert peak < ad.CACHE_BYTES + 8 * n * d * 4, peak  # one key block


def test_leaky_relu_keeps_no_mask():
    # an activated layer keeps neither its pre-activation nor a mask of it
    x, w, b = rand((16, 64, 64), seed=76), rand((16, 16, 1, 1), seed=83), rand((16,), seed=84)
    a, m, bias = rand((4096, 64), seed=85), rand((64, 64), seed=86), rand((64,), seed=87)
    for t in (x, w, b, a, m, bias):
        t.requires_grad = True
    for build, size in ((lambda: conv(x, w, b, leaky=True), x.data.nbytes),
                        (lambda: ad.matmul(a, m, bias, leaky=True), a.data.nbytes)):
        kept, _ = kept_bytes(build)
        assert kept < size / 64, kept  # a bool mask is 1/8 of the output


def test_only_an_activated_matmul_keeps_its_output_into_its_backward():
    # a linear layer's output is freed before its node's backward runs;
    # the LeakyReLU's gradient reads an activated layer's
    for leaky in (False, True):
        a, w = rand((6, 4), seed=88), rand((4, 5), seed=89)
        a.requires_grad = True
        with Tape() as tape:
            out = ad.matmul(a, w, leaky=leaky)
            loss = co.sum(out)
        alive, node = weakref.ref(out.data), tape.nodes[0]
        layer_bwd, seen = node.backward_fn, []
        node.backward_fn = lambda g: (seen.append(alive() is not None), layer_bwd(g))
        del out, node
        backward(tape, loss)
        assert seen == [leaky] and a.grad is not None


# ---------------------------------------------------------------------------
# determinism and finiteness

def test_kernels_deterministic():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 6))
    runs = []
    for _ in range(2):
        t = Tensor(x.copy())
        out = ad.softmax(ad.matmul(t, co.transpose(t)), axis=1)
        runs.append(co.sum(co.exp(out)).data.copy())
    assert runs[0].tobytes() == runs[1].tobytes()


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
              elements=st.floats(-100, 100)))
@settings(max_examples=50, deadline=None)
def test_forward_kernels_produce_no_nan(vals):
    x = Tensor(vals)
    for out in (ad.softmax(x, axis=1), ad.matmul(x, Tensor(np.eye(x.shape[1])), leaky=True),
                co.square(x),
                co.sum(x, axis=0)):
        assert not np.any(np.isnan(out.data))
