"""Vertex extraction: recovery, determinism, equivariance, degeneracy."""

import itertools

import numpy as np
import pytest

from cagu.decoder import spectral_angle
from cagu.errors import ConfigError, DegenerateSceneError
from cagu.hsi import HsiCube, SynthSpec, generate_synthetic
from cagu.vca import vca_extract


def pure_scene(seed=0, snr_db=80.0):
    return generate_synthetic(SynthSpec(height=16, width=16, bands=40,
                                        endmembers=3, snr_db=snr_db,
                                        seed=seed, purity_pixels=True))


def aligned_sads(est, truth):
    p = truth.shape[1]
    best = None
    for perm in itertools.permutations(range(p)):
        sads = [spectral_angle(truth[:, k], est[:, perm[k]]) for k in range(p)]
        if best is None or sum(sads) < sum(best):
            best = sads
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recovers_planted_endmembers(seed):
    cube = pure_scene(seed=seed)
    result = vca_extract(cube, 3, seed=seed)
    sads = aligned_sads(result.endmembers, cube.gt_endmembers)
    assert max(sads) < 0.05


def test_extracted_columns_are_exact_pixel_copies():
    cube = pure_scene()
    result = vca_extract(cube, 3, seed=5)
    flat = cube.data.reshape(cube.bands, -1)
    for k, pixel in enumerate(result.pixel_indices):
        np.testing.assert_array_equal(result.endmembers[:, k], flat[:, pixel])
    assert len(set(result.pixel_indices.tolist())) == 3


def test_segment_scene_selects_extremes():
    # pixels on the segment between two spectra; extremes are pixels 0 and N-1
    rng = np.random.default_rng(4)
    a = rng.random(12) + 0.2
    b = rng.random(12) + 0.2
    t = np.linspace(0.0, 1.0, 50)
    pixels = np.outer(a, 1 - t) + np.outer(b, t)
    cube = HsiCube(pixels.reshape(12, 5, 10))
    result = vca_extract(cube, 2, seed=0)
    assert set(result.pixel_indices.tolist()) == {0, 49}


def test_duplicate_pixel_scene_is_degenerate():
    cube = HsiCube(np.tile(np.linspace(0.2, 0.9, 8)[:, None, None], (1, 4, 4)))
    with pytest.raises(DegenerateSceneError):
        vca_extract(cube, 2, seed=0)


def test_more_endmembers_than_bands_rejected():
    cube = generate_synthetic(SynthSpec(10, 10, 9, 8, snr_db=30.0, seed=0))
    assert len(vca_extract(cube, 9, seed=0).pixel_indices) == 9
    with pytest.raises(ConfigError, match="10 endmembers do not fit 9 bands"):
        vca_extract(cube, 10, seed=0)


def test_scale_equivariance():
    cube = pure_scene(seed=3)
    base = vca_extract(cube, 3, seed=11)
    scaled = vca_extract(HsiCube(2.5 * cube.data), 3, seed=11)
    np.testing.assert_array_equal(base.pixel_indices, scaled.pixel_indices)
    np.testing.assert_allclose(scaled.endmembers, 2.5 * base.endmembers,
                               rtol=1e-12)


def test_deterministic_given_seed():
    cube = pure_scene(seed=6)
    a = vca_extract(cube, 3, seed=9)
    b = vca_extract(cube, 3, seed=9)
    np.testing.assert_array_equal(a.pixel_indices, b.pixel_indices)
