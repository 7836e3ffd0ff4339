"""Abundance decoder head, training loss, and aligned evaluation metrics.

The decoder squeezes fused features to the endmember count through four
1x1 convolutions and refines with a 3x3 convolution (one tape node, a
``conv2d`` stack), and applies a per-pixel softmax, which enforces the
abundance constraints structurally. The final 1x1 convolution back to the
band count (a second ``conv2d`` node) has no bias; its kernel *is* the
endmember matrix, so the reconstruction is exactly endmembers times
abundances per pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterGroup, Tensor
from .errors import ShapeError
from .frontend import he_uniform

NORM_GUARD = 1e-8            # added to angle denominators


def trunk_schedule(fused_channels: int, n_endmembers: int
                   ) -> Tuple[int, int, int, int]:
    """Channel counts after the four 1x1 trunk layers: B/2, B/4, P, P."""
    return (-(-fused_channels // 2), -(-fused_channels // 4),
            n_endmembers, n_endmembers)


@dataclass
class DecoderParams(ParameterGroup):
    trunk1_w: Tensor
    trunk1_b: Tensor
    trunk2_w: Tensor
    trunk2_b: Tensor
    trunk3_w: Tensor
    trunk3_b: Tensor
    trunk4_w: Tensor
    trunk4_b: Tensor
    abun_w: Tensor       # 3x3, endmembers -> endmembers
    abun_b: Tensor
    endmember_w: Tensor  # (bands, endmembers, 1, 1); kernel reshaped is E

    prefix = "decoder"

    @classmethod
    def initialize(cls, rng: np.random.Generator, fused_channels: int,
                   n_endmembers: int, bands: int) -> "DecoderParams":
        c1, c2, c3, c4 = trunk_schedule(fused_channels, n_endmembers)

        def conv(c_out, c_in, k):
            w = Tensor(he_uniform(rng, (c_out, c_in, k, k), c_in * k * k),
                       requires_grad=True)
            b = Tensor(np.zeros(c_out), requires_grad=True)
            return w, b

        t1 = conv(c1, fused_channels, 1)
        t2 = conv(c2, c1, 1)
        t3 = conv(c3, c2, 1)
        t4 = conv(c4, c3, 1)
        abun = conv(n_endmembers, c4, 3)
        # Placeholder spectra; training replaces this with the extracted
        # endmembers via set_endmembers.
        endmember = Tensor(
            np.abs(he_uniform(rng, (bands, n_endmembers, 1, 1), n_endmembers)),
            requires_grad=True)
        return cls(*t1, *t2, *t3, *t4, *abun, endmember)

    def set_endmembers(self, spectra: np.ndarray):
        """Install an explicit endmember matrix (bands x endmembers)."""
        if spectra.shape != self.endmember_w.shape[:2]:
            raise ShapeError(
                f"endmember matrix {spectra.shape} does not fit kernel "
                f"{self.endmember_w.shape}")
        self.endmember_w.data = spectra.reshape(self.endmember_w.shape).copy()

    def endmember_matrix(self) -> np.ndarray:
        """Current endmember estimate as a (bands, endmembers) array."""
        return self.endmember_w.data.reshape(self.endmember_w.shape[:2]).copy()

    def clamp_endmembers(self):
        """Project the endmember kernel onto the nonnegative orthant."""
        np.maximum(self.endmember_w.data, 0.0, out=self.endmember_w.data)


def decode(params: DecoderParams, fused: Tensor) -> Tuple[Tensor, Tensor]:
    """fused channels x H x W -> (abundances P x H x W, reconstruction L x H x W)."""
    head = [(params.trunk1_w, params.trunk1_b), (params.trunk2_w, params.trunk2_b),
            (params.trunk3_w, params.trunk3_b), (params.trunk4_w, params.trunk4_b),
            (params.abun_w, params.abun_b)]
    logits = ad.conv2d(fused, head, (True, True, True, False, False))
    abundances = ad.softmax(logits, axis=0)
    reconstruction = ad.conv2d(abundances, [(params.endmember_w, None)], (False,))
    return abundances, reconstruction


def loss(observed: Tensor, reconstructed: Tensor) -> Tensor:
    """Reconstruction objective: mean squared pixel error plus the mean
    per-pixel spectral angle, summed unweighted, as one tape node.
    ShapeError unless both are one bands x H x W shape; NumericDomainError
    for a zero-norm observed pixel."""
    return ad.unmixing_loss(observed, reconstructed, NORM_GUARD)


# ---------------------------------------------------------------------------
# evaluation

def spectral_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two spectra (scale-invariant, exact for
    identical inputs; zero-norm inputs score the maximum angle)."""
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0:
        return float(np.pi)
    cosine = float(a @ b) / denom
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


@dataclass
class UnmixResult:
    """Aligned estimates and their metrics against ground truth."""

    endmembers: np.ndarray          # (bands, P), aligned column order
    abundances: np.ndarray          # (P, H, W), aligned row order
    per_endmember_sad: np.ndarray   # (P,) radians
    per_endmember_rmse: np.ndarray  # (P,) abundance-map error per endmember
    mean_sad: float
    rmse: float
    alignment: Tuple[int, ...]      # estimated column assigned to each truth column


def _best_alignment(sad_table: np.ndarray) -> Tuple[int, ...]:
    """Estimated column for each truth row with the least total SAD.

    The Hungarian algorithm (Kuhn 1955) in its shortest-augmenting-path form
    with row and column potentials, O(p^3): row i is added by growing a tree
    of tight edges until it reaches a free column, then flipping the path.
    Arrays are 1-based; column 0 is the virtual start of each search.
    """
    p = sad_table.shape[0]
    u = np.zeros(p + 1)                  # row potentials
    v = np.zeros(p + 1)                  # column potentials
    row_of = np.zeros(p + 1, dtype=int)  # row matched to each column, 0 = free
    way = np.zeros(p + 1, dtype=int)     # previous column on the path
    for i in range(1, p + 1):
        row_of[0] = i
        j0 = 0
        slack = np.full(p + 1, np.inf)
        used = np.zeros(p + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            reduced = np.concatenate(([np.inf], sad_table[i0 - 1] - u[i0] - v[1:]))
            tighter = ~used & (reduced < slack)
            slack[tighter] = reduced[tighter]
            way[tighter] = j0
            j1 = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    perm = [0] * p
    for j in range(1, p + 1):
        perm[row_of[j] - 1] = j - 1
    return tuple(perm)


def evaluate(est_endmembers: np.ndarray, est_abundances: np.ndarray,
             gt_endmembers: np.ndarray, gt_abundances: np.ndarray
             ) -> UnmixResult:
    """Permutation-aligned SAD per endmember and abundance RMSE.

    The alignment minimizes total pairwise SAD between estimated and true
    endmember columns (exact for any count) and reorders the
    abundance rows identically before computing the RMSE.
    """
    if est_endmembers.shape != gt_endmembers.shape:
        raise ShapeError(
            f"endmember shapes differ: {est_endmembers.shape} vs "
            f"{gt_endmembers.shape}")
    if est_abundances.shape != gt_abundances.shape:
        raise ShapeError(
            f"abundance shapes differ: {est_abundances.shape} vs "
            f"{gt_abundances.shape}")
    p = gt_endmembers.shape[1]
    sad_table = np.empty((p, p))
    for truth in range(p):
        for est in range(p):
            sad_table[truth, est] = spectral_angle(gt_endmembers[:, truth],
                                                   est_endmembers[:, est])
    perm = _best_alignment(sad_table)
    aligned_e = est_endmembers[:, list(perm)]
    aligned_a = est_abundances[list(perm), :, :]
    per_sad = np.array([sad_table[k, perm[k]] for k in range(p)])
    sq_err = (aligned_a - gt_abundances) ** 2
    per_rmse = np.sqrt(np.mean(sq_err, axis=(1, 2)))
    rmse = float(np.sqrt(np.mean(sq_err)))
    return UnmixResult(aligned_e, aligned_a, per_sad, per_rmse,
                       float(per_sad.mean()), rmse, perm)


def metrics_csv_rows(result: UnmixResult, dataset: str, seed,
                     snr_db: Optional[float] = None) -> list:
    """CSV lines in the shared metrics layout: one row per endmember plus a
    trailing 'mean' row."""
    snr = "" if snr_db is None else f"{snr_db:g}"
    rows = ["dataset,seed,snr_db,endmember,sad,rmse,mean_sad"]
    for k, sad in enumerate(result.per_endmember_sad):
        rows.append(f"{dataset},{seed},{snr},{k},{sad:.6f},"
                    f"{result.per_endmember_rmse[k]:.6f},{result.mean_sad:.6f}")
    rows.append(f"{dataset},{seed},{snr},mean,{result.mean_sad:.6f},"
                f"{result.rmse:.6f},{result.mean_sad:.6f}")
    return rows
