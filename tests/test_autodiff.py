"""Kernel oracles and gradient properties for the autodiff engine."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cagu import autodiff as ad
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


# ---------------------------------------------------------------------------
# conv2d

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
    out = ad.conv2d(x, Tensor(w), Tensor(np.zeros(3)), padding=0)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_kernel_constant_bias():
    x = rand((2, 4, 4), seed=4)
    out = ad.conv2d(x, Tensor(np.zeros((3, 2, 1, 1))), Tensor(np.full(3, 2.5)))
    np.testing.assert_array_equal(out.data, np.full((3, 4, 4), 2.5))


def test_conv2d_box_kernel_center():
    x = Tensor(np.ones((1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, Tensor(np.zeros(1)), padding=1)
    assert out.data[0, 1, 1] == 9.0
    np.testing.assert_allclose(
        out.data, conv2d_reference(x.data, w.data, np.zeros(1), 1), atol=1e-12)


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv2d_matches_reference(k, padding):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 6, 5)))
    w = Tensor(rng.normal(size=(4, 3, k, k)))
    b = Tensor(rng.normal(size=4))
    out = ad.conv2d(x, w, b, padding=padding)
    np.testing.assert_allclose(
        out.data, conv2d_reference(x.data, w.data, b.data, padding), atol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        ad.conv2d(rand((2, 4, 4)), Tensor(np.zeros((3, 5, 1, 1))),
                  Tensor(np.zeros(3)))


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
    assert ad.exp(Tensor(np.zeros(3))).data.tolist() == [1.0, 1.0, 1.0]


def test_arccos_identical_direction():
    out = ad.arccos(Tensor([1.0 - 1e-7]))
    assert 0.0 <= out.data[0] < 1e-3


def test_arccos_clamps_out_of_range():
    out = ad.arccos(Tensor([1.5, -1.5]))
    assert np.all(np.isfinite(out.data))
    (g,) = grad_of(lambda: ad.sum(ad.arccos(x)), (x := Tensor([1.5, -1.5])))
    np.testing.assert_array_equal(g, np.zeros(2))  # clamped: subgradient 0


def test_l2_norm_pythagorean():
    assert ad.l2_norm(Tensor([3.0, 4.0]), axis=0).data == 5.0


def test_divide_floor_error():
    with pytest.raises(NumericDomainError):
        ad.divide(Tensor([1.0]), Tensor([1e-13]))


def test_clamp_min_and_relu():
    x = Tensor([-2.0, 0.5, 3.0])
    np.testing.assert_array_equal(ad.clamp_min(x, 0.0).data, [0.0, 0.5, 3.0])
    np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.5, 3.0])
    np.testing.assert_allclose(ad.leaky_relu(x).data, [-0.02, 0.5, 3.0])


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_sum_gives_ones():
    x = rand(5, seed=6)
    (g,) = grad_of(lambda: ad.sum(x), x)
    np.testing.assert_array_equal(g, np.ones(5))


def test_backward_quadratic():
    x = rand(4, seed=7)
    (g,) = grad_of(lambda: ad.sum(ad.mul(x, x)), x)
    np.testing.assert_allclose(g, 2 * x.data, atol=1e-12)


def test_backward_fanout_accumulates():
    x = rand(3, seed=8)
    (g,) = grad_of(lambda: ad.add(ad.sum(x), ad.sum(x)), x)
    np.testing.assert_array_equal(g, 2 * np.ones(3))


def test_backward_rejects_non_scalar():
    x = rand((2, 2), seed=9)
    x.requires_grad = True
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_tape_topological_order():
    x = rand(3, seed=10)
    x.requires_grad = True
    with Tape() as tape:
        y = ad.exp(x)
        z = ad.mul(y, x)
        ad.sum(z)
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
        y = ad.mul(x, x)
        loss = ad.sum(y)
        out = Tensor(loss.data, requires_grad=True)
        tape.record("probe", (loss,), out, lambda g: calls.append(1))
    backward(tape, out)
    assert calls == [1]


# ---------------------------------------------------------------------------
# finite-difference oracle

def test_finite_diff_quadratic_at_three():
    x = Tensor([3.0])
    err = finite_diff_check(lambda t: ad.sum(ad.mul(t, t)), x, h=1e-5)
    assert err < 1e-6  # analytic derivative is 6


def test_finite_diff_constant_function():
    x = Tensor([1.0, 2.0])
    err = finite_diff_check(lambda t: ad.sum(ad.mul(t, Tensor([0.0, 0.0]))), x)
    assert err == 0.0


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ContractError):
        finite_diff_check(lambda t: ad.sum(t), Tensor([1.0]), h=1e-2)


def test_finite_diff_rejects_nonfinite_objective():
    x = Tensor([800.0])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericDomainError):
            finite_diff_check(lambda t: ad.sum(ad.exp(ad.exp(t))), x)


# Every differentiable kernel against central differences, >= 10 random
# shapes each (fixed seeds).

def _shapes2d(rng, n):
    return [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(n)]


def _probe(build, x, h=1e-6):
    direction = Tensor(np.random.default_rng(99).normal(size=build(x).shape))
    return finite_diff_check(lambda t: ad.sum(ad.mul(build(t), direction)), x, h=h)


KERNELS = {
    "exp": lambda t: ad.exp(t),
    "sqrt": lambda t: ad.sqrt(ad.add(ad.mul(t, t), Tensor(np.full(t.shape, 0.5)))),
    "square": lambda t: ad.square(t),
    "relu": lambda t: ad.relu(t),
    "leaky_relu": lambda t: ad.leaky_relu(t),
    "clamp_min": lambda t: ad.clamp_min(t, 0.1),
    "softmax": lambda t: ad.softmax(t, axis=-1),
    "sum_axis": lambda t: ad.sum(t, axis=0),
    "mean": lambda t: ad.mean(t),
    "l2_norm": lambda t: ad.l2_norm(ad.add(ad.square(t), Tensor(np.full(t.shape, 0.1))), axis=0),
    "scale": lambda t: ad.scale(t, -1.7),
    "reshape": lambda t: ad.reshape(t, (t.size,)),
    "transpose": lambda t: ad.transpose(t),
    "narrow": lambda t: ad.narrow(t, 0, 0, max(1, t.shape[0] - 1)),
    "arccos": lambda t: ad.arccos(ad.scale(ad.softmax(t, axis=0), 0.9)),
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
    ("sub", lambda a, b: ad.sub(a, b)),
    ("mul", lambda a, b: ad.mul(a, b)),
    ("divide", lambda a, b: ad.divide(a, ad.add(ad.square(b), Tensor(np.full(b.shape, 0.5))))),
    ("matmul", lambda a, b: ad.matmul(a, ad.transpose(b))),
    ("concat", lambda a, b: ad.concat([a, b], axis=0)),
])
def test_binary_kernel_gradients(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for shape in _shapes2d(rng, 10):
        a = Tensor(rng.normal(size=shape))
        b = Tensor(rng.normal(size=shape))
        direction = Tensor(rng.normal(size=builder(a, b).shape))

        def loss_a(t):
            return ad.sum(ad.mul(builder(t, b), direction))

        def loss_b(t):
            return ad.sum(ad.mul(builder(a, t), direction))

        assert finite_diff_check(loss_a, a, h=1e-6) < 1e-4
        assert finite_diff_check(loss_b, b, h=1e-6) < 1e-4


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv2d_gradients(k, padding):
    rng = np.random.default_rng(42 + k)
    for _ in range(10):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(k, 6)), int(rng.integers(k, 6))
        x = Tensor(rng.normal(size=(c_in, h, w)))
        kern = Tensor(rng.normal(size=(c_out, c_in, k, k)))
        bias = Tensor(rng.normal(size=c_out))
        direction = Tensor(rng.normal(size=ad.conv2d(x, kern, bias, padding).shape))

        def loss(t, which):
            args = {"x": x, "w": kern, "b": bias, which: t}
            return ad.sum(ad.mul(
                ad.conv2d(args["x"], args["w"], args["b"], padding), direction))

        for which, leaf in (("x", x), ("w", kern), ("b", bias)):
            assert finite_diff_check(lambda t: loss(t, which), leaf, h=1e-6) < 1e-4


def test_graph_kernel_gradients():
    rng = np.random.default_rng(77)
    for _ in range(10):
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, radius = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n_off = (2 * radius + 1) ** 2 - 1
        x = Tensor(rng.normal(size=(c, h, w)))
        img = Tensor(rng.normal(size=(h, w)))
        weights = Tensor(rng.normal(size=(n_off, h, w)))
        loops = Tensor(rng.normal(size=(h, w)))
        off_direction = Tensor(rng.normal(size=(n_off, h, w)))
        direction = Tensor(rng.normal(size=(c, h, w)))

        err = finite_diff_check(
            lambda t: ad.sum(ad.mul(ad.window_sqdist(t, radius), off_direction)),
            x, h=1e-6)
        assert err < 1e-4
        err = finite_diff_check(
            lambda t: ad.sum(ad.mul(ad.neighbour_shift(t, radius), off_direction)),
            img, h=1e-6)
        assert err < 1e-4

        def matvec_loss(t, which):
            args = {"loops": loops, "weights": weights, "z": x, which: t}
            return ad.sum(ad.mul(ad.stencil_matvec(
                args["loops"], args["weights"], args["z"], radius), direction))

        for which, leaf in (("loops", loops), ("weights", weights), ("z", x)):
            err = finite_diff_check(lambda t: matvec_loss(t, which), leaf, h=1e-6)
            assert err < 1e-4, which


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


@pytest.mark.parametrize("h,w,radius", [(7, 5, 2), (1, 6, 2), (6, 1, 2),
                                        (2, 3, 3), (4, 4, 1)])
def test_stencil_kernels_match_loop_oracle(h, w, radius):
    rng = np.random.default_rng(h * 10 + w)
    n_off = (2 * radius + 1) ** 2 - 1
    x = rng.normal(size=(3, h, w))
    img = rng.normal(size=(h, w))
    weights = rng.normal(size=(n_off, h, w))
    loops = rng.normal(size=(h, w))
    dist = np.zeros((n_off, h, w))
    shifted = np.zeros((n_off, h, w))
    matvec = loops * x
    for o, i, j in window_oracle(h, w, radius):
        d = x[:, i[0], i[1]] - x[:, j[0], j[1]]
        dist[o][i] = d @ d
        shifted[o][i] = img[j]
        matvec[:, i[0], i[1]] += weights[o][i] * x[:, j[0], j[1]]
    np.testing.assert_allclose(ad.window_sqdist(Tensor(x), radius).data, dist,
                               atol=1e-12)
    np.testing.assert_array_equal(ad.neighbour_shift(Tensor(img), radius).data,
                                  shifted)
    np.testing.assert_allclose(
        ad.stencil_matvec(Tensor(loops), Tensor(weights), Tensor(x), radius).data,
        matvec, atol=1e-12)


def test_stencil_matvec_rejects_mismatched_weights():
    with pytest.raises(ShapeError):
        ad.stencil_matvec(Tensor(np.ones((3, 3))), Tensor(np.ones((8, 3, 3))),
                          Tensor(np.ones((2, 3, 3))), 2)


def test_patch_kernel_gradients():
    rng = np.random.default_rng(88)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        x = Tensor(rng.normal(size=(c, h, w)))
        blocks = ad.tile_patches(x, m)
        direction = Tensor(rng.normal(size=blocks.shape))
        err = finite_diff_check(
            lambda t: ad.sum(ad.mul(ad.tile_patches(t, m), direction)), x, h=1e-6)
        assert err < 1e-4

        blk = Tensor(rng.normal(size=blocks.shape))
        direction2 = Tensor(rng.normal(size=(c, h, w)))
        err = finite_diff_check(
            lambda t: ad.sum(ad.mul(ad.untile_patches(t, h, w), direction2)),
            blk, h=1e-6)
        assert err < 1e-4


def test_tile_untile_inverse():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 5, 7)))
    back = ad.untile_patches(ad.tile_patches(x, 3), 5, 7)
    np.testing.assert_array_equal(back.data, x.data)


# ---------------------------------------------------------------------------
# determinism and finiteness

def test_kernels_deterministic():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 6))
    runs = []
    for _ in range(2):
        t = Tensor(x.copy())
        out = ad.softmax(ad.matmul(t, ad.transpose(t)), axis=1)
        runs.append(ad.sum(ad.exp(out)).data.copy())
    assert runs[0].tobytes() == runs[1].tobytes()


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
              elements=st.floats(-100, 100)))
@settings(max_examples=50, deadline=None)
def test_forward_kernels_produce_no_nan(vals):
    x = Tensor(vals)
    for out in (ad.softmax(x, axis=1), ad.leaky_relu(x), ad.square(x),
                ad.arccos(x), ad.sum(x, axis=0), ad.l2_norm(x, axis=1)):
        assert not np.any(np.isnan(out.data))
