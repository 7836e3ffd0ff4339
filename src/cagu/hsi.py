"""Hyperspectral scene model, binary container format, synthetic generator.

A scene is a bands x height x width reflectance array, optionally paired
with ground-truth endmembers (one spectrum per column) and abundance maps.
The on-disk container stores float32 little-endian payloads behind a
"HSIC" magic; files round-trip byte-exactly.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError, ShapeError

CONTAINER_MAGIC = b"HSIC"
CONTAINER_VERSION = 1
_FLAG_ENDMEMBERS = 1
_FLAG_ABUNDANCES = 2


@dataclass
class HsiCube:
    """Observed scene plus optional ground truth.

    data: (bands, height, width) reflectance, roughly in [0, 1.5]
    gt_endmembers: (bands, n_endmembers), one pure spectrum per column
    gt_abundances: (n_endmembers, height, width), simplex per pixel
    """

    data: np.ndarray
    gt_endmembers: Optional[np.ndarray] = None
    gt_abundances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeError(f"cube data must be bands x H x W, got {self.data.shape}")
        if self.gt_endmembers is not None:
            self.gt_endmembers = np.asarray(self.gt_endmembers, dtype=np.float64)
            if self.gt_endmembers.ndim != 2 or self.gt_endmembers.shape[0] != self.bands:
                raise ShapeError(
                    f"endmembers {self.gt_endmembers.shape} do not match "
                    f"cube bands {self.bands}")
        if self.gt_abundances is not None:
            self.gt_abundances = np.asarray(self.gt_abundances, dtype=np.float64)
            if (self.gt_abundances.ndim != 3
                    or self.gt_abundances.shape[1:] != self.data.shape[1:]):
                raise ShapeError(
                    f"abundances {self.gt_abundances.shape} do not match "
                    f"cube extent {self.data.shape}")
        if (self.gt_endmembers is not None and self.gt_abundances is not None
                and self.gt_endmembers.shape[1] != self.gt_abundances.shape[0]):
            raise ShapeError("endmember count differs between ground truths")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    @property
    def n_endmembers(self) -> Optional[int]:
        if self.gt_endmembers is not None:
            return self.gt_endmembers.shape[1]
        if self.gt_abundances is not None:
            return self.gt_abundances.shape[0]
        return None

    def clean_signal(self) -> np.ndarray:
        """Noise-free cube implied by the ground truths (E times M)."""
        if self.gt_endmembers is None or self.gt_abundances is None:
            raise ConfigError("clean_signal needs both ground truths")
        flat = self.gt_endmembers @ unfold(self.gt_abundances)
        return fold(flat, self.height, self.width)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic scene."""

    height: int
    width: int
    bands: int
    endmembers: int
    snr_db: float = 30.0
    seed: int = 0
    dirichlet_alpha: float = 1.0
    purity_pixels: bool = True

    def __post_init__(self):
        if min(self.height, self.width, self.bands, self.endmembers) < 1:
            raise ConfigError("all extents must be positive")
        if self.endmembers < 2:
            raise ConfigError(f"need at least 2 endmembers, got {self.endmembers}")
        if self.bands <= self.endmembers:
            raise ConfigError(
                f"bands ({self.bands}) must exceed endmembers ({self.endmembers})")
        if self.purity_pixels and self.endmembers > self.height * self.width:
            raise ConfigError(f"{self.endmembers} pure pixels do not fit in "
                              f"{self.height}x{self.width} pixels")
        if not 0.0 <= self.snr_db <= 80.0:
            raise ConfigError(f"snr_db {self.snr_db} outside [0, 80]")
        if not 0 < self.dirichlet_alpha < np.inf:
            raise ConfigError("dirichlet_alpha must be positive and finite, "
                              f"got {self.dirichlet_alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _bump_spectra(rng: np.random.Generator, bands: int, count: int) -> np.ndarray:
    """Smooth nonnegative spectra: 3-5 Gaussian bumps each, peak value 1."""
    grid = np.arange(bands, dtype=np.float64)
    out = np.empty((bands, count))
    for p in range(count):
        n_bumps = int(rng.integers(3, 6))
        spectrum = np.zeros(bands)
        width_lo = max(1.0, bands / 20.0)
        width_hi = max(1.5 * width_lo, bands / 5.0)
        for _ in range(n_bumps):
            center = rng.uniform(0, bands - 1)
            width = rng.uniform(width_lo, width_hi)
            amp = rng.uniform(0.4, 1.0)
            spectrum += amp * np.exp(-0.5 * ((grid - center) / width) ** 2)
        out[:, p] = spectrum / spectrum.max()
    return out


def _box_smooth(maps: np.ndarray) -> np.ndarray:
    """One 3x3 box pass per channel, boundary-clipped (divide by live count)."""
    p, h, w = maps.shape
    acc = np.zeros_like(maps)
    cnt = np.zeros((h, w))
    ones = np.ones((h, w))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rs_dst = slice(max(dr, 0), h + min(dr, 0))
            cs_dst = slice(max(dc, 0), w + min(dc, 0))
            rs_src = slice(max(-dr, 0), h + min(-dr, 0))
            cs_src = slice(max(-dc, 0), w + min(-dc, 0))
            acc[:, rs_dst, cs_dst] += maps[:, rs_src, cs_src]
            cnt[rs_dst, cs_dst] += ones[rs_src, cs_src]
    return acc / cnt[None, :, :]


def generate_synthetic(spec: SynthSpec) -> HsiCube:
    """Seeded synthetic scene: bump endmembers, smoothed Dirichlet abundances,
    optional pure pixels, Gaussian noise at the requested SNR.

    Ground truths are stored pre-noise; generation is bit-reproducible for a
    given spec.
    """
    rng = np.random.default_rng(spec.seed)
    h, w, bands, p = spec.height, spec.width, spec.bands, spec.endmembers
    n = h * w

    endmembers = _bump_spectra(rng, bands, p)

    abund = rng.dirichlet(np.full(p, spec.dirichlet_alpha), size=n).T.reshape(p, h, w)
    abund = _box_smooth(abund)
    abund = abund / abund.sum(axis=0, keepdims=True)  # re-project to the simplex

    if spec.purity_pixels:
        pure = rng.choice(n, size=p, replace=False)
        flat = abund.reshape(p, n)
        for k, pixel in enumerate(pure):
            flat[:, pixel] = 0.0
            flat[k, pixel] = 1.0
        abund = flat.reshape(p, h, w)

    clean = fold(endmembers @ abund.reshape(p, n), h, w)
    signal_power = np.mean(clean * clean)
    noise_sigma = np.sqrt(signal_power / (10.0 ** (spec.snr_db / 10.0)))
    noise = rng.normal(0.0, noise_sigma, size=clean.shape)
    return HsiCube(clean + noise, gt_endmembers=endmembers, gt_abundances=abund)


def empirical_snr_db(cube: HsiCube) -> float:
    """SNR recomputed from the ground-truth clean signal and the residual."""
    clean = cube.clean_signal()
    residual = cube.data - clean
    return 10.0 * np.log10(np.mean(clean * clean) / np.mean(residual * residual))


# ---------------------------------------------------------------------------
# unfold / fold

def unfold(arr: np.ndarray) -> np.ndarray:
    """C x H x W -> C x N with column j holding pixel (j // W, j % W)."""
    if arr.ndim != 3:
        raise ShapeError(f"unfold expects C x H x W, got {arr.shape}")
    c, h, w = arr.shape
    return arr.reshape(c, h * w)


def fold(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of unfold."""
    if arr.ndim != 2:
        raise ShapeError(f"fold expects C x N, got {arr.shape}")
    if arr.shape[1] != height * width:
        raise ShapeError(
            f"fold: {arr.shape[1]} columns cannot fill {height}x{width}")
    return arr.reshape(arr.shape[0], height, width)


# ---------------------------------------------------------------------------
# container I/O

@contextmanager
def atomic_writer(path):
    """Binary handle on a temp file next to ``path``, which replaces ``path``
    only once the block has completed; if the block raises, the temp file
    is removed and any earlier file at ``path`` is left as it was.

    Replacing a file costs far more than writing a new one on ext4 with its
    default ``auto_da_alloc`` option, which forces a writeback of the new
    file before ``os.replace`` renames it over an existing one. Measured on
    one ext4 volume (2-core AMD EPYC), from the third replacement in a row
    on: 0.10-0.37 s for a 7.78 MB checkpoint, 0.04-0.07 s for 0.5 MB and
    0.20-0.34 s for 16 MB, against 1.2-2.5 ms for 7.78 MB to a fresh path.
    That writeback is what keeps the replace whole through a crash, so it
    stays: unlinking ``path`` first, renaming it aside or preallocating the
    temp file would each give it up, and open a window in which ``path``
    is missing or zero-filled."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``atomic_writer``."""
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def write_container(cube: HsiCube, path) -> None:
    """Serialize a cube; payloads are float32 little-endian."""
    flags = 0
    p = 0
    if cube.gt_endmembers is not None:
        flags |= _FLAG_ENDMEMBERS
        p = cube.gt_endmembers.shape[1]
    if cube.gt_abundances is not None:
        flags |= _FLAG_ABUNDANCES
        p = cube.gt_abundances.shape[0]
    header = CONTAINER_MAGIC + struct.pack(
        "<6I", CONTAINER_VERSION, flags, cube.bands, cube.height, cube.width, p)
    with atomic_writer(path) as fh:
        fh.write(header)
        fh.write(cube.data.astype("<f4").tobytes(order="C"))
        if cube.gt_endmembers is not None:
            fh.write(cube.gt_endmembers.astype("<f4").tobytes(order="F"))
        if cube.gt_abundances is not None:
            fh.write(cube.gt_abundances.astype("<f4").tobytes(order="C"))


class ByteReader:
    """Cursor over the bytes of one binary file that opens with ``magic``
    and a uint32 version. Each read takes the next field, or raises
    ``FormatError`` at the offset where that field starts, before anything
    is allocated for it. ``kind`` names the file in messages."""

    def __init__(self, blob: bytes, kind: str, magic: bytes):
        if blob[:len(magic)] != magic:
            raise FormatError(f"bad {kind} magic {blob[:len(magic)]!r}, "
                              f"expected {magic!r}", 0)
        self.blob = blob
        self.kind = kind
        self.offset = len(magic)

    def version(self, supported: int):
        start = self.offset
        (version,) = self.unpack("<I", "version")
        if version != supported:
            raise FormatError(f"unsupported {self.kind} version {version}",
                              start)

    def _advance(self, size: int, what: str) -> int:
        """Step over ``size`` bytes; returns the offset they start at."""
        start, left = self.offset, len(self.blob) - self.offset
        if size > left:  # never formats ``size``, which may be huge
            raise FormatError(f"{self.kind} truncated: {what} does not fit "
                              f"in the {left} bytes left", start)
        self.offset += size
        return start

    def read(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.blob[start:self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """Read-only view of the next ``count`` values of the float ``dtype``;
        FormatError at the first value that is not finite."""
        size = np.dtype(dtype).itemsize
        start = self._advance(count * size, what)
        values = np.frombuffer(self.blob, dtype, count, start)
        finite = np.isfinite(values)
        if not finite.all():
            raise FormatError(f"{what} holds a value that is not finite",
                              start + size * int(np.argmin(finite)))
        return values

    def end(self):
        if self.offset != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.offset} unexpected "
                              "trailing bytes", self.offset)


def read_container(path) -> HsiCube:
    """Parse a container file, reporting the byte offset of any defect,
    including a payload value that is not finite."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), "container", CONTAINER_MAGIC)
    reader.version(CONTAINER_VERSION)
    flags, bands, height, width, p = reader.unpack("<5I", "header")
    truths = _FLAG_ENDMEMBERS | _FLAG_ABUNDANCES
    if flags & ~truths:
        raise FormatError(f"unknown container flag bits {flags & ~truths:#x}", 8)
    if flags and p == 0:
        raise FormatError("ground-truth flag set but endmember count is 0", 8)
    if not flags and p:
        raise FormatError(f"endmember count {p} without ground truth", 24)

    def take(count, what):
        return reader.array("<f4", count, what).astype(np.float64)

    data = take(bands * height * width, "data").reshape(bands, height, width)
    endmembers = abundances = None
    if flags & _FLAG_ENDMEMBERS:
        endmembers = take(bands * p, "endmembers").reshape(p, bands).T.copy()
    if flags & _FLAG_ABUNDANCES:
        abundances = take(p * height * width, "abundances").reshape(p, height, width)
    reader.end()
    return HsiCube(data, gt_endmembers=endmembers, gt_abundances=abundances)


# ---------------------------------------------------------------------------
# PGM export (abundance maps)

def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; input values in [0, 1] map linearly onto 0..255."""
    levels = np.clip(np.rint(np.asarray(image, dtype=np.float64) * 255.0), 0, 255)
    h, w = image.shape
    with atomic_writer(path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.astype(np.uint8).tobytes())
