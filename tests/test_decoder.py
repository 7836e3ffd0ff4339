"""Decoder head, training loss, and permutation-aligned metrics."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cagu import autodiff as ad
from cagu.autodiff import Tensor
from cagu.decoder import (DecoderParams, _best_alignment, decode, evaluate,
                          loss, metrics_csv_rows, spectral_angle,
                          trunk_schedule)
from cagu.errors import NumericDomainError, ShapeError


def make_params(fused=8, p=3, bands=12, seed=0):
    return DecoderParams.initialize(np.random.default_rng(seed), fused, p, bands)


def test_trunk_schedule():
    assert trunk_schedule(64, 3) == (32, 16, 3, 3)
    assert trunk_schedule(8, 2) == (4, 2, 2, 2)
    assert trunk_schedule(7, 2) == (4, 2, 2, 2)


def test_abundances_live_on_simplex():
    params = make_params()
    fused = Tensor(np.random.default_rng(1).normal(size=(8, 5, 6)))
    abund, recon = decode(params, fused)
    assert abund.shape == (3, 5, 6)
    assert recon.shape == (12, 5, 6)
    assert abund.data.min() >= 0.0
    np.testing.assert_allclose(abund.data.sum(axis=0), np.ones((5, 6)),
                               atol=1e-10)


def test_one_hot_abundance_selects_endmember_column():
    params = make_params()
    one_hot = np.zeros((3, 2, 2))
    one_hot[1, :, :] = 1.0
    recon = ad.conv2d(Tensor(one_hot), [(params.endmember_w, None)], (False,))
    column = params.endmember_matrix()[:, 1]
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(recon.data[:, i, j], column, atol=1e-12)


def test_reconstruction_matches_pixelwise_product_oracle():
    params = make_params()
    fused = Tensor(np.random.default_rng(2).normal(size=(8, 2, 2)))
    abund, recon = decode(params, fused)
    endmembers = params.endmember_matrix()
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(recon.data[:, i, j],
                                       endmembers @ abund.data[:, i, j],
                                       atol=1e-12)


def test_endmember_clamp():
    params = make_params()
    params.endmember_w.data -= 0.5
    params.clamp_endmembers()
    assert params.endmember_w.data.min() >= 0.0


# ---------------------------------------------------------------------------
# loss

def test_perfect_reconstruction_loss_near_zero():
    obs = Tensor(np.random.default_rng(3).random((6, 3, 3)) + 0.1)
    total = loss(obs, Tensor(obs.data.copy()))
    assert 0.0 <= total.item() < 1e-3  # arccos clamp keeps the angle tiny


def test_doubled_reconstruction_isolates_scale_term():
    obs_data = np.random.default_rng(4).random((6, 3, 3)) + 0.1
    obs = Tensor(obs_data)
    total = loss(obs, Tensor(2.0 * obs_data))
    # angle term vanishes; squared term = mean_p |I_p|^2
    expected_re = np.sum(obs_data ** 2) / 9
    assert abs(total.item() - expected_re) < 1e-3


def test_orthogonal_pixels_give_right_angle():
    obs = np.zeros((2, 1, 2))
    rec = np.zeros((2, 1, 2))
    obs[0, 0, :] = 1.0
    rec[1, 0, :] = 1.0
    total = loss(Tensor(obs), Tensor(rec))
    # squared error 2 per pixel, angle pi/2 per pixel
    assert abs(total.item() - (2.0 + np.pi / 2)) < 1e-4


def test_sad_invariant_to_per_pixel_rescaling():
    rng = np.random.default_rng(5)
    obs_data = rng.random((6, 4, 4)) + 0.1
    rec_data = rng.random((6, 4, 4)) + 0.1
    scales = rng.uniform(0.5, 2.0, size=(4, 4))
    base = loss(Tensor(obs_data), Tensor(rec_data)).item()
    scaled = loss(Tensor(obs_data), Tensor(rec_data * scales)).item()
    re_base = np.sum((rec_data - obs_data) ** 2) / 16
    re_scaled = np.sum((rec_data * scales - obs_data) ** 2) / 16
    assert abs((base - re_base) - (scaled - re_scaled)) < 1e-9


def test_zero_norm_observed_pixel_rejected():
    obs = np.ones((4, 2, 2))
    obs[:, 0, 0] = 0.0
    with pytest.raises(NumericDomainError):
        loss(Tensor(obs), Tensor(np.ones((4, 2, 2))))


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        loss(Tensor(np.ones((4, 2, 2))), Tensor(np.ones((4, 2, 3))))


# ---------------------------------------------------------------------------
# evaluation

def random_instance(rng, p=3, bands=10, side=4):
    gt_e = rng.random((bands, p)) + 0.05
    gt_a = rng.dirichlet(np.ones(p), size=side * side).T.reshape(p, side, side)
    return gt_e, gt_a


def test_exact_estimate_scores_zero():
    rng = np.random.default_rng(6)
    gt_e, gt_a = random_instance(rng)
    result = evaluate(gt_e, gt_a, gt_e, gt_a)
    np.testing.assert_allclose(result.per_endmember_sad, 0.0, atol=1e-6)
    assert result.rmse == 0.0
    assert result.mean_sad < 1e-6


def test_column_permutation_absorbed_by_alignment():
    rng = np.random.default_rng(7)
    gt_e, gt_a = random_instance(rng)
    perm = [2, 0, 1]
    result = evaluate(gt_e[:, perm], gt_a[perm], gt_e, gt_a)
    np.testing.assert_allclose(result.per_endmember_sad, 0.0, atol=1e-6)
    assert result.rmse < 1e-12
    base = evaluate(gt_e, gt_a, gt_e, gt_a)
    assert abs(result.mean_sad - base.mean_sad) < 1e-9


@pytest.mark.parametrize("seed", range(100))
def test_alignment_matches_brute_force_minimum(seed):
    rng = np.random.default_rng(seed)
    gt_e, gt_a = random_instance(rng)
    est_e = rng.random((10, 3)) + 0.05
    est_a = rng.dirichlet(np.ones(3), size=16).T.reshape(3, 4, 4)
    result = evaluate(est_e, est_a, gt_e, gt_a)
    best = min(
        sum(spectral_angle(gt_e[:, k], est_e[:, perm[k]]) for k in range(3))
        for perm in itertools.permutations(range(3)))
    assert abs(result.per_endmember_sad.sum() - best) < 1e-12


def test_alignment_beyond_eight_is_exact_without_warning():
    rng = np.random.default_rng(8)
    p = 9
    gt_e = rng.random((20, p)) + 0.05
    gt_a = rng.dirichlet(np.ones(p), size=4).T.reshape(p, 2, 2)
    perm = list(rng.permutation(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = evaluate(gt_e[:, perm], gt_a[perm], gt_e, gt_a)
    np.testing.assert_allclose(result.per_endmember_sad, 0.0, atol=1e-6)
    assert result.rmse < 1e-12


@pytest.mark.parametrize("p", range(1, 9))
def test_hungarian_matches_permutation_oracle(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(5):
        table = rng.random((p, p)) * np.pi
        if p > 2:
            table[rng.integers(p), :] = table[0, 0]  # ties
        perm = _best_alignment(table)
        assert sorted(perm) == list(range(p))
        best = min(sum(table[k, q[k]] for k in range(p))
                   for q in itertools.permutations(range(p)))
        assert abs(sum(table[k, perm[k]] for k in range(p)) - best) < 1e-12


def greedy_alignment(table):
    """Row by row, the cheapest column still free (the old fallback)."""
    free = list(range(table.shape[0]))
    perm = []
    for row in table:
        perm.append(min(free, key=lambda c: row[c]))
        free.remove(perm[-1])
    return tuple(perm)


def test_hungarian_beats_greedy_on_hand_made_table():
    # truth 0 is close to estimates 0 and 1, truth 1 only to estimate 0;
    # truths 2..8 each sit on their own estimate. Greedy hands estimate 0 to
    # truth 0 (0.1) and leaves truth 1 at 1.0, total 1.1; the optimum swaps
    # them: 0.2 + 0.1 = 0.3.
    table = np.ones((9, 9))
    table[0, 0], table[0, 1], table[1, 0] = 0.1, 0.2, 0.1
    for k in range(2, 9):
        table[k, k] = 0.0
    assert greedy_alignment(table) == (0, 1, 2, 3, 4, 5, 6, 7, 8)
    perm = _best_alignment(table)
    assert perm == (1, 0, 2, 3, 4, 5, 6, 7, 8)
    assert sum(table[k, perm[k]] for k in range(9)) == pytest.approx(0.3)


def test_metrics_csv_layout():
    rng = np.random.default_rng(9)
    gt_e, gt_a = random_instance(rng)
    result = evaluate(gt_e, gt_a, gt_e, gt_a)
    rows = metrics_csv_rows(result, "scene", 7, snr_db=40.0)
    assert rows[0] == "dataset,seed,snr_db,endmember,sad,rmse,mean_sad"
    assert len(rows) == 5  # header + 3 endmembers + mean row
    assert rows[-1].startswith("scene,7,40,mean,")


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_spectral_angle_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(8) + 0.01
    b = rng.random(8) + 0.01
    assert abs(spectral_angle(a, b) - spectral_angle(3.7 * a, b)) < 1e-6
