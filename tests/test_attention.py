"""Class-token exchange, attention oracle, fusion and restore."""

import numpy as np
import pytest

import composed_ops as co
from cagu import autodiff as ad
from cagu.autodiff import Tape, Tensor, backward, finite_diff_check
from cagu.attention import (AttentionParams, exchange_and_attend,
                            fuse_and_restore, identity_kernel)
from cagu.errors import ConfigError, ShapeError


def make_params(dim=4, fused=3, m=2, seed=0):
    return AttentionParams.initialize(np.random.default_rng(seed), dim, fused, m)


def make_tokens(n=4, dim=4, seed=1):
    """(spectral, spatial) sequences of ``n`` tokens, as ``tokenize`` returns."""
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(n, dim))),
            Tensor(rng.normal(size=(n, dim))))


def reference_attention(x, wq, wk, wv):
    """Loop-based oracle for single-head scaled dot-product attention."""
    q, k, v = x @ wq, x @ wk, x @ wv
    n, d = q.shape
    out = np.zeros_like(v)
    for i in range(n):
        logits = np.array([q[i] @ k[j] / np.sqrt(d) for j in range(n)])
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        for j in range(n):
            out[i] += w[j] * v[j]
    return out


def scaled_dot_attention(q, k, v):
    """Oracle of ``ad.attention`` from composed ops; returns (output,
    row-stochastic weights)."""
    logits = co.scale(ad.matmul(q, co.transpose(k)), 1.0 / np.sqrt(q.shape[1]))
    weights = ad.softmax(logits, axis=1)
    return ad.matmul(weights, v), weights


def attention_and_grads(attend, q, k, v, direction):
    """Output of ``attend(q, k, v)`` and the gradients of its inner product
    with ``direction`` with respect to q, k and v."""
    leaves = [Tensor(t.copy(), requires_grad=True) for t in (q, k, v)]
    with Tape() as tape:
        out = attend(*leaves)
        loss = co.sum(co.mul(out, Tensor(direction)))
    backward(tape, loss)
    return [out.data] + [t.grad for t in leaves]


def attention_inputs(n, m, d, d_v, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(0, scale, (n, d)), rng.normal(0, scale, (m, d)),
            rng.normal(size=(m, d_v)), rng.normal(size=(n, d_v)))


# key block widths: one block of 10 keys, two of 5, and 3 + 3 + 3 + 1
@pytest.mark.parametrize("block", [None, 5, 3], ids=["1-block", "2-blocks", "uneven"])
def test_attention_op_matches_composed_oracle(monkeypatch, block):
    n, m = 12, 10
    if block is not None:
        monkeypatch.setattr(ad, "CACHE_BYTES", 8 * n * block)
    q, k, v, direction = attention_inputs(n, m, 4, 3, seed=30)
    fused = attention_and_grads(ad.attention, q, k, v, direction)
    oracle = attention_and_grads(lambda *t: scaled_dot_attention(*t)[0],
                                 q, k, v, direction)
    for name, got, want in zip(("out", "dq", "dk", "dv"), fused, oracle):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n, d", [(10, 8), (65, 64), (100, 64)])
def test_attention_op_in_one_block_rounds_as_the_composed_ops(n, d):
    q, k, v, _ = attention_inputs(n, n, d, d, seed=34)
    fused = ad.attention(Tensor(q), Tensor(k), Tensor(v))
    composed, _ = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    assert fused.data.tobytes() == composed.data.tobytes()


@pytest.mark.parametrize("block", [None, 3])
def test_attention_op_finite_on_large_logits(monkeypatch, block):
    n, m = 12, 10
    if block is not None:
        monkeypatch.setattr(ad, "CACHE_BYTES", 8 * n * block)
    q, k, v, direction = attention_inputs(n, m, 4, 3, seed=31, scale=30.0)
    assert np.abs(q @ k.T / 2.0).max() > 1e3
    fused = attention_and_grads(ad.attention, q, k, v, direction)
    oracle = attention_and_grads(lambda *t: scaled_dot_attention(*t)[0],
                                 q, k, v, direction)
    for name, got, want in zip(("out", "dq", "dk", "dv"), fused, oracle):
        assert np.all(np.isfinite(got)), name
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=name)


def test_attention_op_gradients_across_key_blocks(monkeypatch):
    monkeypatch.setattr(ad, "CACHE_BYTES", 8 * 5 * 2)  # 5 queries, 2 keys a block
    q, k, v, direction = attention_inputs(5, 7, 3, 2, seed=32)
    args = [Tensor(q), Tensor(k), Tensor(v)]
    for slot in range(3):
        def loss(t, slot=slot):
            operands = list(args)
            operands[slot] = t
            return co.sum(co.mul(ad.attention(*operands), Tensor(direction)))
        assert finite_diff_check(loss, args[slot], h=1e-6) < 1e-6, slot


def test_attention_op_bit_identical_across_runs(monkeypatch):
    monkeypatch.setattr(ad, "CACHE_BYTES", 8 * 12 * 3)
    inputs = attention_inputs(12, 10, 4, 3, seed=33)
    first, second = (attention_and_grads(ad.attention, *inputs) for _ in range(2))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


@pytest.mark.parametrize("shapes", [((3, 4), (5, 4), (4, 2)), ((3, 4), (5, 3), (5, 2)),
                                    ((0, 4), (5, 4), (5, 2)), ((3, 4), (0, 4), (0, 2)),
                                    ((3, 4, 1), (5, 4), (5, 2))])
def test_attention_op_rejects_shapes_that_do_not_fit(shapes):
    with pytest.raises(ShapeError):
        ad.attention(*(Tensor(np.ones(s)) for s in shapes))


def test_zero_logits_average_value_rows():
    # W_Q = W_K = 0 makes every attention row uniform; with W_V = I the
    # output row is the mean of the value rows.
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3)))
    zero = Tensor(np.zeros((3, 3)))
    eye = Tensor(np.eye(3))
    q, k, v = ad.matmul(x, zero), ad.matmul(x, zero), ad.matmul(x, eye)
    out, weights = scaled_dot_attention(q, k, v)
    mean_rows = np.tile(x.data.mean(axis=0), (2, 1))
    np.testing.assert_allclose(out.data, mean_rows, atol=1e-12)
    np.testing.assert_allclose(ad.attention(q, k, v).data, mean_rows, atol=1e-12)
    np.testing.assert_allclose(weights.data, np.full((2, 2), 0.5), atol=1e-12)


def test_attention_rows_stochastic():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    _, weights = scaled_dot_attention(ad.matmul(x, w), ad.matmul(x, w),
                                      ad.matmul(x, w))
    np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(5),
                               atol=1e-10)


def test_exchange_matches_loop_oracle():
    params = make_params(seed=4)
    spectral, spatial = make_tokens(n=3, seed=5)
    out_spe, out_spa = exchange_and_attend(params, spectral, spatial)

    seq_spe = np.vstack([params.cls_spa.data, spectral.data])
    seq_spa = np.vstack([params.cls_spe.data, spatial.data])
    ref_spe = reference_attention(seq_spe, params.spe_wq.data,
                                  params.spe_wk.data, params.spe_wv.data) + seq_spe
    ref_spa = reference_attention(seq_spa, params.spa_wq.data,
                                  params.spa_wk.data, params.spa_wv.data) + seq_spa
    np.testing.assert_allclose(out_spe.data, ref_spe, atol=1e-10)
    np.testing.assert_allclose(out_spa.data, ref_spa, atol=1e-10)


def test_exchange_prepends_opposite_class_token():
    params = make_params(seed=6)
    # zero projections: attention output rows are all equal to the value mean
    for name in ("spe_wq", "spe_wk", "spe_wv", "spa_wq", "spa_wk", "spa_wv"):
        getattr(params, name).data[:] = 0.0
    out_spe, out_spa = exchange_and_attend(params, *make_tokens(seed=7))
    np.testing.assert_allclose(out_spe.data[0], params.cls_spa.data[0],
                               atol=1e-12)
    np.testing.assert_allclose(out_spa.data[0], params.cls_spe.data[0],
                               atol=1e-12)


def test_exchange_rejects_token_widths_that_differ():
    spectral, spatial = make_tokens(dim=4)
    with pytest.raises(ConfigError, match="token dims differ"):
        exchange_and_attend(make_params(dim=4), spectral,
                            Tensor(spatial.data[:, :3]))


def test_attention_permutation_equivariant_over_tokens():
    params = make_params(seed=8)
    tokens = make_tokens(n=4, seed=9)
    perm = [2, 0, 3, 1]
    permuted = [Tensor(t.data[perm]) for t in tokens]
    base_spe, base_spa = exchange_and_attend(params, *tokens)
    perm_spe, perm_spa = exchange_and_attend(params, *permuted)
    np.testing.assert_allclose(perm_spe.data[1:], base_spe.data[1:][perm],
                               atol=1e-12)
    np.testing.assert_allclose(perm_spa.data[1:], base_spa.data[1:][perm],
                               atol=1e-12)
    np.testing.assert_allclose(perm_spe.data[0], base_spe.data[0], atol=1e-12)


def identity_mlp(params, branch, dim):
    """Make one branch's MLP the exact identity: lrelu(x) - lrelu(-x) scaled."""
    w1 = np.hstack([np.eye(dim), -np.eye(dim)])
    w2 = np.vstack([np.eye(dim), -np.eye(dim)]) / (1 + ad.LEAKY_SLOPE)
    getattr(params, f"{branch}_mlp_w1").data = w1.copy()
    getattr(params, f"{branch}_mlp_b1").data = np.zeros(2 * dim)
    getattr(params, f"{branch}_mlp_w2").data = w2.copy()
    getattr(params, f"{branch}_mlp_b2").data = np.zeros(dim)


def test_identity_mlp_single_patch_scatter():
    dim, fused, m = 4, 3, 2
    params = make_params(dim=dim, fused=fused, m=m, seed=10)
    identity_mlp(params, "spe", dim)
    identity_mlp(params, "spa", dim)
    params.seam_w.data = identity_kernel(fused, 3)
    params.seam_b.data = np.zeros(fused)
    params.fuse_b.data = np.zeros(fused * m * m)
    # fuse map replicating one projection over every pixel of the patch
    proj = np.random.default_rng(11).normal(size=(2 * dim, fused))
    params.fuse_w.data = np.tile(proj[:, :, None], (1, 1, m * m)).reshape(
        2 * dim, fused * m * m)

    rng = np.random.default_rng(12)
    spe_seq = Tensor(rng.normal(size=(2, dim)))  # class row + one token
    spa_seq = Tensor(rng.normal(size=(2, dim)))
    out = fuse_and_restore(params, spe_seq, spa_seq, m, m, m)
    token = np.concatenate([spe_seq.data[1], spa_seq.data[1]])
    expected = token @ proj
    for i in range(m):
        for j in range(m):
            np.testing.assert_allclose(out.data[:, i, j], expected, atol=1e-12)


def test_fuse_output_shape():
    params = make_params(dim=4, fused=3, m=2, seed=13)
    rng = np.random.default_rng(14)
    spe = Tensor(rng.normal(size=(5, 4)))  # 4 tokens: 2x2 grid for 3x4, m=2
    spa = Tensor(rng.normal(size=(5, 4)))
    out = fuse_and_restore(params, spe, spa, 2, 3, 4)
    assert out.shape == (3, 3, 4)


def test_fuse_locality_pre_smoothing():
    # identity seam kernel = no smoothing, so each token owns its block
    params = make_params(dim=4, fused=3, m=2, seed=15)
    params.seam_w.data = identity_kernel(3, 3)
    params.seam_b.data = np.zeros(3)
    rng = np.random.default_rng(16)
    spe = Tensor(rng.normal(size=(5, 4)))  # 4 tokens, 2x2 patch grid
    spa = Tensor(rng.normal(size=(5, 4)))
    base = fuse_and_restore(params, spe, spa, 2, 4, 4)
    poked_spe = Tensor(spe.data.copy())
    poked_spe.data[2] += 1.0  # token index 1 -> patch (0, 1)
    poked = fuse_and_restore(params, poked_spe, spa, 2, 4, 4)
    diff = np.abs(poked.data - base.data).sum(axis=0)
    assert diff[:2, 2:].sum() > 0
    np.testing.assert_array_equal(diff[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(diff[2:, :], np.zeros((2, 4)))


def test_full_module_gradients_including_class_tokens():
    # probe at a generic point: O(1) tokens and class rows so every gradient
    # is well above finite-difference resolution
    params = make_params(dim=4, fused=3, m=2, seed=19)
    cls_rng = np.random.default_rng(18)
    params.cls_spe.data = cls_rng.normal(0.0, 0.5, params.cls_spe.shape)
    params.cls_spa.data = cls_rng.normal(0.0, 0.5, params.cls_spa.shape)
    tokens = make_tokens(n=4, dim=4, seed=20)
    direction = Tensor(np.random.default_rng(17).normal(size=(3, 4, 4)))

    def loss(_):
        spe, spa = exchange_and_attend(params, *tokens)
        fused = fuse_and_restore(params, spe, spa, 2, 4, 4)
        return co.sum(co.mul(fused, direction))

    for name in ("cls_spe", "cls_spa", "spe_wq", "spa_wk", "spe_wv",
                 "spe_mlp_w1", "spa_mlp_b1", "fuse_w", "seam_w", "seam_b"):
        err = finite_diff_check(loss, getattr(params, name), h=1e-5)
        assert err < 1e-4, f"{name}: {err}"
