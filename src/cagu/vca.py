"""Vertex component analysis: pure-pixel endmember extraction.

Follows the classic simplex-vertex procedure: an SNR-dependent subspace
projection, then one extreme-pixel pick per endmember along directions
orthogonal to the simplex spanned so far. Output columns are exact copies
of observed pixel spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSceneError
from .hsi import HsiCube, unfold

_RANK_RTOL = 1e-9


@dataclass
class VcaResult:
    endmembers: np.ndarray     # (bands, count), columns copied from pixels
    pixel_indices: np.ndarray  # (count,) distinct pixel ids


def _estimate_snr_db(pixels: np.ndarray, mean: np.ndarray,
                     projected: np.ndarray) -> float:
    bands, n = pixels.shape
    p = projected.shape[0]
    power_total = np.sum(pixels * pixels) / n
    power_proj = np.sum(projected * projected) / n + np.sum(mean * mean)
    denom = power_total - power_proj
    if denom <= 0:
        return np.inf  # essentially noiseless
    return 10.0 * np.log10(max(power_proj - p / bands * power_total, 1e-300) / denom)


def vca_extract(cube: HsiCube, count: int, seed: int = 0) -> VcaResult:
    """Extract ``count`` endmembers as vertices of the data simplex.

    Deterministic given ``seed`` (the random direction draws are seeded);
    argmax ties break toward the lowest pixel index.
    """
    if count < 2:
        raise ConfigError(f"need at least 2 endmembers, got {count}")
    pixels = unfold(cube.data)
    bands, n = pixels.shape
    if count > min(bands, n):
        raise ConfigError(f"{count} endmembers do not fit {bands} bands, {n} pixels")
    if not np.all(np.isfinite(pixels)):
        raise ConfigError("cube contains non-finite values")

    mean = pixels.mean(axis=1, keepdims=True)
    centered = pixels - mean
    corr = (centered @ centered.T) / n
    basis, sing, _ = np.linalg.svd(corr)
    top = sing[0] if sing.size else 0.0
    rank = int(np.count_nonzero(sing > _RANK_RTOL * max(top, 1e-300)))
    if top <= 0.0 or rank < count - 1:
        raise DegenerateSceneError(
            f"projected data rank {rank} below {count - 1}; "
            "scene lacks spectral diversity")

    proj_p = basis[:, :count].T @ centered
    snr = _estimate_snr_db(pixels, mean, proj_p)
    snr_threshold = 15.0 + 10.0 * np.log10(count)

    if snr < snr_threshold:
        # Noisy regime: drop to count-1 dims around the mean, then lift with a
        # constant coordinate so the simplex has full affine dimension.
        x = proj_p[:count - 1, :]
        ceiling = np.sqrt(np.max(np.sum(x * x, axis=0)))
        work = np.vstack([x, np.full((1, n), ceiling)])
    else:
        # Clean regime: project onto the top-count subspace of the raw data
        # and scale each pixel projectively onto a hyperplane.
        basis_raw = np.linalg.svd((pixels @ pixels.T) / n)[0][:, :count]
        x = basis_raw.T @ pixels
        u = x.mean(axis=1, keepdims=True)
        denom = u.T @ x
        if np.min(np.abs(denom)) < 1e-300:
            raise DegenerateSceneError("projective scaling hit a zero direction")
        work = x / denom

    rng = np.random.default_rng(seed)
    simplex = np.zeros((count, count))
    simplex[-1, 0] = 1.0
    indices = np.empty(count, dtype=np.int64)
    for i in range(count):
        direction = np.zeros((count, 1))
        while np.linalg.norm(direction) < 1e-12:
            draw = rng.standard_normal((count, 1))
            direction = draw - simplex @ (np.linalg.pinv(simplex) @ draw)
        direction /= np.linalg.norm(direction)
        scores = np.abs(direction.T @ work).ravel()
        indices[i] = int(np.argmax(scores))  # first max: lowest-index tie break
        simplex[:, i] = work[:, indices[i]]

    if len(set(indices.tolist())) != count:
        raise DegenerateSceneError("extraction selected a pixel twice")
    return VcaResult(endmembers=pixels[:, indices].copy(),
                     pixel_indices=indices)
