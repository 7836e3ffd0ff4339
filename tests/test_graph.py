"""Graph construction, normalization, and propagation against dense oracles."""

import dataclasses

import numpy as np
import pytest

import composed_ops as co
from cagu.autodiff import Tensor, finite_diff_check
from cagu.errors import ConfigError, ShapeError
from cagu.graph import (GraphMixParams, build_graph, build_static_grid_graph,
                        default_sigmas, grid_positions, propagate)


def dense_weights(graph) -> np.ndarray:
    """Dense copy of a graph's raw off-diagonal weights, recovered as
    A_ij / (sqrt(loops_i) sqrt(loops_j))."""
    loops = graph.operator.data[0].ravel()
    root = np.sqrt(loops)
    return (graph.dense_adjacency() - np.diag(loops)) / np.outer(root, root)


def dense_normalized(weights: np.ndarray) -> np.ndarray:
    """Oracle: D^-1/2 (A + I) D^-1/2 from a dense off-diagonal weight matrix."""
    n = weights.shape[0]
    tilde = weights + np.eye(n)
    deg = tilde.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    return dinv[:, None] * tilde * dinv[None, :]


def dense_window_weights(features, positions, radius, sigma_f, sigma_g):
    """Oracle: edge weights by direct double loop."""
    n = features.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (abs(positions[0, i] - positions[0, j]) <= radius
                    and abs(positions[1, i] - positions[1, j]) <= radius):
                df = features[:, i] - features[:, j]
                dg = positions[:, i] - positions[:, j]
                out[i, j] = (np.exp(-(df @ df) / sigma_f)
                             * np.exp(-(dg @ dg) / sigma_g ** 2))
    return out


def random_graph(n_side=3, channels=4, seed=0, radius=1):
    rng = np.random.default_rng(seed)
    features = Tensor(rng.normal(size=(channels, n_side * n_side)))
    positions = grid_positions(n_side, n_side)
    sigma_f, sigma_g = default_sigmas(radius)
    return build_graph(features, positions, radius, sigma_f, sigma_g), features


def directed_pair(graph):
    """Raw weights of the two directed edges of a 1x2 grid graph."""
    dense = dense_weights(graph)
    return [dense[0, 1], dense[1, 0]]


def test_identical_feature_and_position_gives_unit_weight():
    # two neighbours sharing a feature vector: only the spatial factor remains
    features = Tensor(np.ones((3, 2)))
    graph = build_graph(features, grid_positions(1, 2), 1, 1.0, 4.0)
    np.testing.assert_allclose(directed_pair(graph),
                               [np.exp(-1.0 / 16.0)] * 2, atol=1e-15)


def test_feature_distance_equal_to_sigma_gives_inverse_e():
    features = Tensor(np.array([[0.0, 1.0]]))  # |df|^2 = 1 = sigma_f
    graph = build_graph(features, grid_positions(1, 2), 1, 1.0, 4.0)
    np.testing.assert_allclose(directed_pair(graph),
                               [np.exp(-1.0 - 1.0 / 16.0)] * 2, atol=1e-12)


@pytest.mark.parametrize("positions", [
    np.zeros((2, 2)),                              # coincident pixels
    grid_positions(2, 2)[:, ::-1].copy(),          # full grid, wrong order
    grid_positions(1, 4) * 2.0,                    # gaps between pixels
])
def test_non_grid_positions_rejected(positions):
    n = positions.shape[1]
    with pytest.raises(ShapeError, match="grid"):
        build_graph(Tensor(np.ones((2, n))), positions, 1, 1.0, 4.0)


def test_single_pixel_graph_is_identity():
    graph = build_graph(Tensor(np.ones((2, 1))), grid_positions(1, 1), 1,
                        1.0, 4.0)
    np.testing.assert_array_equal(graph.dense_adjacency(), [[1.0]])


def test_weights_match_double_loop_oracle():
    graph, features = random_graph(seed=3)
    oracle = dense_window_weights(features.data, grid_positions(3, 3), 1,
                                  *default_sigmas(1))
    np.testing.assert_allclose(dense_weights(graph), oracle, atol=1e-12)


def test_normalized_adjacency_matches_oracle_and_is_symmetric():
    graph, features = random_graph(seed=4)
    np.testing.assert_allclose(graph.dense_adjacency(),
                               dense_normalized(dense_weights(graph)),
                               atol=1e-12)
    adj = graph.dense_adjacency()
    assert np.max(np.abs(adj - adj.T)) < 1e-12


def test_spectral_radius_at_most_one():
    for seed in range(5):
        graph, _ = random_graph(seed=seed)
        adj = graph.dense_adjacency()
        v = np.random.default_rng(seed).normal(size=9)
        for _ in range(200):
            v = adj @ v
            v /= np.linalg.norm(v)
        assert v @ adj @ v <= 1.0 + 1e-8


def test_nonpositive_sigma_rejected():
    with pytest.raises(ConfigError):
        build_graph(Tensor(np.ones((2, 4))), grid_positions(2, 2), 1, 0.0, 1.0)


@pytest.mark.parametrize("sigmas", [(np.nan, 4.0), (1.0, np.nan)])
def test_nan_sigma_rejected(sigmas):
    # a NaN scale fails every comparison, so it would pass a "<= 0" test
    # and make every weight NaN
    with pytest.raises(ConfigError):
        build_graph(Tensor(np.ones((2, 4))), grid_positions(2, 2), 1, *sigmas)


def test_infinite_sigma_switches_its_kernel_off():
    features = Tensor(np.array([[0.0, 1.0]]))
    graph = build_graph(features, grid_positions(1, 2), 1, np.inf, np.inf)
    np.testing.assert_array_equal(directed_pair(graph), [1.0, 1.0])


@pytest.mark.parametrize("height,width", [(4, 4), (3, 5)])
def test_radius_wider_than_the_scene_rejected(height, width):
    # radius max(height, width) - 1 still adds neighbours; one more adds
    # none, and both builders refuse it (twice: the static graph's cache
    # keeps no exception)
    widest, features = max(height, width) - 1, Tensor(np.ones((2, height * width)))

    def dynamic(radius):
        return build_graph(features, grid_positions(height, width), radius,
                           1.0, 4.0)

    def static(radius):
        return build_static_grid_graph(height, width, radius)

    for build in (dynamic, static):
        assert (build(widest).edge_rows.size
                > build(widest - 1).edge_rows.size)
        for _ in range(2):
            with pytest.raises(ConfigError, match="wider than"):
                build(widest + 1)


def test_radius_one_is_accepted_on_a_single_pixel():
    # the smallest window has no neighbour on a 1x1 grid, and is built
    # anyway; a wider one is refused
    assert build_static_grid_graph(1, 1, 1).edge_rows.size == 0
    with pytest.raises(ConfigError, match="wider than"):
        build_static_grid_graph(1, 1, 2)


# ---------------------------------------------------------------------------
# static grid graph

def test_static_grid_degrees():
    graph = build_static_grid_graph(3, 3, 1)
    degrees = dense_weights(graph).sum(axis=1) + 1.0  # with self-loop
    assert degrees[4] == 9.0   # interior
    assert degrees[0] == 4.0   # corner
    assert degrees[1] == 6.0   # edge


def test_static_two_by_two_hand_computed():
    # 2x2 grid, r=1: every node sees every other -> A+I all-ones, degree 4,
    # so the normalized adjacency is 1/4 everywhere.
    graph = build_static_grid_graph(2, 2, 1)
    np.testing.assert_allclose(graph.dense_adjacency(), np.full((4, 4), 0.25),
                               atol=1e-15)
    row_sums = graph.dense_adjacency().sum(axis=1)
    np.testing.assert_allclose(row_sums, np.ones(4), atol=1e-12)


def test_static_graph_independent_of_features():
    a = build_static_grid_graph(3, 4, 1)
    b = build_static_grid_graph.__wrapped__(3, 4, 1)  # a second real build
    assert a is not b
    np.testing.assert_array_equal(a.operator.data, b.operator.data)
    assert not a.operator.requires_grad


def test_static_graph_is_built_once_per_grid_and_shared_read_only():
    a = build_static_grid_graph(3, 4, 1)
    assert build_static_grid_graph(3, 4, 1) is a
    assert build_static_grid_graph(4, 3, 1) is not a
    assert build_static_grid_graph(3, 4, 2) is not a
    assert not a.operator.data.flags.writeable
    with pytest.raises(ValueError):
        a.operator.data[0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.radius = 2


# ---------------------------------------------------------------------------
# propagation

def make_mix(channels=4, k_steps=3, beta=0.5, seed=5, logits=None):
    mix = GraphMixParams.initialize(np.random.default_rng(seed), channels,
                                    k_steps, beta)
    if logits is not None:
        mix.mix_logits.data = np.asarray(logits, dtype=np.float64)
    return mix


def test_beta_zero_returns_input_unchanged():
    graph, _ = random_graph(seed=6)
    mix = make_mix(beta=0.0)
    x = Tensor(np.random.default_rng(7).normal(size=(4, 9)))
    out = propagate(graph, mix, x)
    np.testing.assert_array_equal(out.data, x.data)


def test_single_hop_closed_form():
    # alpha concentrated on the first hop and identity projection:
    # out = x + beta * x @ A_hat
    graph, _ = random_graph(seed=8)
    mix = make_mix(k_steps=3, beta=0.7, logits=[40.0, 0.0, 0.0])
    mix.graph_proj.data = np.eye(4)
    x = Tensor(np.random.default_rng(9).normal(size=(4, 9)))
    out = propagate(graph, mix, x)
    expected = x.data + 0.7 * x.data @ graph.dense_adjacency()
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def dense_propagation(adj, mix, x):
    """Oracle: x + beta * sum_t alpha_t (proj @ x) @ adj^t by dense powers."""
    e = np.exp(mix.mix_logits.data - mix.mix_logits.data.max())
    alphas = e / e.sum()
    z = mix.graph_proj.data @ x
    mixed = np.zeros_like(z)
    for t in range(1, mix.mix_logits.size + 1):
        z = z @ adj
        mixed += alphas[t - 1] * z
    return x + mix.beta * mixed


@pytest.mark.parametrize("seed", range(10))
def test_propagation_matches_dense_matrix_powers(seed):
    rng = np.random.default_rng(seed)
    side = int(rng.integers(2, 8))  # up to 49 <= 64 pixels
    channels = int(rng.integers(2, 6))
    k = int(rng.integers(1, 4))
    features = Tensor(rng.normal(size=(channels, side * side)))
    graph = build_graph(features, grid_positions(side, side), 1,
                        *default_sigmas(1))
    mix = make_mix(channels=channels, k_steps=k, beta=0.4,
                   seed=seed, logits=rng.normal(size=k))
    x = Tensor(rng.normal(size=(channels, side * side)))
    out = propagate(graph, mix, x)
    np.testing.assert_allclose(out.data,
                               dense_propagation(graph.dense_adjacency(), mix,
                                                 x.data), atol=1e-10)


def test_propagate_shape_mismatch():
    graph, _ = random_graph()
    mix = make_mix()
    with pytest.raises(ShapeError):
        propagate(graph, mix, Tensor(np.zeros((4, 5))))


def test_k_steps_validation():
    with pytest.raises(ConfigError):
        GraphMixParams.initialize(np.random.default_rng(0), 4, 0, 0.5)


def test_mix_weights_on_simplex():
    mix = make_mix(logits=[3.0, -1.0, 0.5])
    w = mix.mix_weights()
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-10


def check_graph_gradients(height, width, radius):
    rng = np.random.default_rng(11)
    n = height * width
    features = Tensor(rng.normal(size=(3, n)))
    mix = make_mix(channels=3, k_steps=2, beta=0.5, seed=12)
    x = Tensor(rng.normal(size=(3, n)))
    direction = Tensor(rng.normal(size=(3, n)))
    positions = grid_positions(height, width)

    def loss(_):
        graph = build_graph(features, positions, radius,
                            *default_sigmas(radius))
        return co.sum(co.mul(propagate(graph, mix, x), direction))

    for name, leaf in (("features", features), ("proj", mix.graph_proj),
                       ("logits", mix.mix_logits), ("x", x)):
        err = finite_diff_check(loss, leaf, h=1e-5)
        assert err < 1e-4, f"{name}: {err}"


def test_gradients_flow_through_graph_construction():
    check_graph_gradients(3, 3, 1)


def test_gradients_flow_through_radius_two_graph():
    check_graph_gradients(3, 4, 2)


# ---------------------------------------------------------------------------
# stencil shapes: wider windows, non-square grids, grids smaller than the
# window (the 5x5 window of radius 2 spans more than the 2x3 grid both ways)

STENCIL_GRIDS = [(7, 5, 2), (1, 6, 2), (6, 1, 2), (2, 3, 2)]


@pytest.mark.parametrize("height,width,radius", STENCIL_GRIDS)
def test_dynamic_stencil_matches_double_loop_oracles(height, width, radius):
    rng = np.random.default_rng(10 * height + width)
    n = height * width
    features = Tensor(rng.normal(size=(3, n)))
    positions = grid_positions(height, width)
    sigmas = default_sigmas(radius)
    graph = build_graph(features, positions, radius, *sigmas)

    weights = dense_window_weights(features.data, positions, radius, *sigmas)
    np.testing.assert_allclose(dense_weights(graph), weights, atol=1e-12)
    adj = graph.dense_adjacency()
    np.testing.assert_allclose(adj, dense_normalized(weights), atol=1e-12)
    assert np.max(np.abs(adj - adj.T)) < 1e-12
    assert graph.edge_rows.size == np.count_nonzero(weights)

    mix = make_mix(channels=3, k_steps=3, beta=0.6, seed=n,
                   logits=rng.normal(size=3))
    x = Tensor(rng.normal(size=(3, n)))
    np.testing.assert_allclose(propagate(graph, mix, x).data,
                               dense_propagation(adj, mix, x.data), atol=1e-10)


@pytest.mark.parametrize("height,width,radius", STENCIL_GRIDS)
def test_static_stencil_matches_window_oracle(height, width, radius):
    n = height * width
    positions = grid_positions(height, width)
    # zero features and an infinite spatial scale leave a unit weight on
    # every in-window pair
    window = dense_window_weights(np.zeros((1, n)), positions, radius,
                                  1.0, np.inf)
    graph = build_static_grid_graph(height, width, radius)
    np.testing.assert_array_equal(dense_weights(graph), window)
    np.testing.assert_allclose(graph.dense_adjacency(),
                               dense_normalized(window), atol=1e-15)
    assert graph.edge_rows.size == np.count_nonzero(window)
