"""Scene generator, container format, and unfold/fold contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cagu.errors import ConfigError, FormatError, ShapeError
from damage import damage
from cagu.hsi import (HsiCube, SynthSpec, atomic_writer, empirical_snr_db,
                      fold, generate_synthetic, read_container, read_pgm,
                      unfold, write_container, write_pgm, write_text_atomic)


def small_spec(**overrides):
    base = dict(height=10, width=12, bands=24, endmembers=3, snr_db=30.0, seed=7)
    base.update(overrides)
    return SynthSpec(**base)


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("snr_db", [80.0, 20.0])
def test_generated_snr_recomputed_from_clean_signal(snr_db):
    cube = generate_synthetic(small_spec(height=24, width=24, snr_db=snr_db))
    assert abs(empirical_snr_db(cube) - snr_db) < 0.5


def test_purity_pixels_plants_exactly_p_pure_pixels():
    cube = generate_synthetic(small_spec(purity_pixels=True))
    flat = cube.gt_abundances.reshape(3, -1)
    assert int(np.sum(flat.max(axis=0) == 1.0)) == 3


def test_huge_dirichlet_alpha_flattens_abundances():
    cube = generate_synthetic(small_spec(dirichlet_alpha=1e6,
                                         purity_pixels=False))
    np.testing.assert_allclose(cube.gt_abundances, 1 / 3, atol=1e-2)


def test_abundances_on_simplex_after_smoothing():
    cube = generate_synthetic(small_spec(purity_pixels=False))
    abund = cube.gt_abundances
    assert abund.min() >= 0.0
    np.testing.assert_allclose(abund.sum(axis=0), 1.0, atol=1e-9)


def test_generation_reproducible_bitwise():
    a = generate_synthetic(small_spec())
    b = generate_synthetic(small_spec())
    assert a.data.tobytes() == b.data.tobytes()
    assert a.gt_endmembers.tobytes() == b.gt_endmembers.tobytes()
    assert a.gt_abundances.tobytes() == b.gt_abundances.tobytes()


def test_ground_truth_product_reconstructs_clean_cube():
    cube = generate_synthetic(small_spec(snr_db=80.0))
    clean = cube.clean_signal()
    direct = np.einsum("lp,phw->lhw", cube.gt_endmembers, cube.gt_abundances)
    np.testing.assert_allclose(clean, direct, atol=1e-12)


def test_bands_must_exceed_endmembers():
    with pytest.raises(ConfigError):
        small_spec(bands=3, endmembers=3)


def test_snr_range_enforced():
    with pytest.raises(ConfigError):
        small_spec(snr_db=90.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0])
def test_dirichlet_alpha_must_be_positive_and_finite(alpha):
    with pytest.raises(ConfigError, match="dirichlet_alpha"):
        small_spec(dirichlet_alpha=alpha)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        small_spec(seed=-1)


def test_pure_pixels_must_fit_in_the_scene():
    with pytest.raises(ConfigError, match="pure pixels"):
        SynthSpec(height=2, width=2, bands=8, endmembers=5)
    generate_synthetic(SynthSpec(height=2, width=2, bands=8, endmembers=4))
    generate_synthetic(SynthSpec(height=2, width=2, bands=8, endmembers=5,
                                 purity_pixels=False))


# ---------------------------------------------------------------------------
# container

def test_container_roundtrip_float32_exact(tmp_path):
    cube = generate_synthetic(small_spec())
    quantized = HsiCube(
        cube.data.astype(np.float32).astype(np.float64),
        cube.gt_endmembers.astype(np.float32).astype(np.float64),
        cube.gt_abundances.astype(np.float32).astype(np.float64))
    path = tmp_path / "scene.hsic"
    write_container(quantized, path)
    back = read_container(path)
    assert back.data.tobytes() == quantized.data.tobytes()
    assert back.gt_endmembers.tobytes() == quantized.gt_endmembers.tobytes()
    assert back.gt_abundances.tobytes() == quantized.gt_abundances.tobytes()


def test_container_file_roundtrip_byte_exact(tmp_path):
    cube = generate_synthetic(small_spec())
    first = tmp_path / "a.hsic"
    second = tmp_path / "b.hsic"
    write_container(cube, first)
    write_container(read_container(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "scene.hsic"
    write_container(generate_synthetic(small_spec()), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    broken = generate_synthetic(small_spec(seed=8))

    class Unwritable:  # fails after the header and the data are written
        shape = broken.gt_abundances.shape

        def astype(self, *_):
            raise MemoryError("out of memory")

    broken.gt_abundances = Unwritable()
    with pytest.raises(MemoryError):
        write_container(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scene.hsic"]


def test_atomic_writes_create_and_replace(tmp_path):
    path = tmp_path / "table.csv"
    write_text_atomic(path, "a,b\n")
    write_text_atomic(path, "c,d\n")
    write_pgm(tmp_path / "map.pgm", np.full((2, 2), 0.5))
    assert path.read_text() == "c,d\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.pgm", "table.csv"]


def test_container_without_ground_truth(tmp_path):
    cube = HsiCube(np.random.default_rng(0).random((5, 3, 4)))
    path = tmp_path / "plain.hsic"
    write_container(cube, path)
    back = read_container(path)
    assert back.gt_endmembers is None and back.gt_abundances is None
    assert back.data.shape == (5, 3, 4)


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.hsic"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError) as info:
        read_container(path)
    assert info.value.offset == 0


def test_truncated_payload_reports_offset(tmp_path):
    cube = generate_synthetic(small_spec())
    path = tmp_path / "trunc.hsic"
    write_container(cube, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:60])
    with pytest.raises(FormatError, match="truncated"):
        read_container(path)


def test_header_extent_overflow_is_truncation_error(tmp_path):
    import struct
    # header declares a huge cube with only 8 payload bytes
    header = b"HSIC" + struct.pack("<6I", 1, 0, 10_000, 10_000, 10_000, 0)
    path = tmp_path / "overflow.hsic"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated"):
        read_container(path)


@pytest.fixture(scope="module")
def container_blob(tmp_path_factory):
    """A small container with both ground truths."""
    path = tmp_path_factory.mktemp("scene") / "scene.hsic"
    write_container(generate_synthetic(small_spec(height=3, width=4, bands=6)),
                    path)
    return path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_containers_give_a_cube_or_format_error(tmp_path_factory,
                                                       container_blob, data):
    path = tmp_path_factory.mktemp("hsic") / "scene.hsic"
    # the header's uint32 fields: version, flags, bands, height, width, p
    path.write_bytes(damage(data, container_blob, (4, 8, 12, 16, 20, 24)))
    tracemalloc.start()
    try:
        cube = read_container(path)
    except FormatError:
        return
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * path.stat().st_size + (1 << 20)
    assert isinstance(cube, HsiCube) and cube.data.ndim == 3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("payload, index", [
    ("data", 0), ("data", 71), ("endmembers", 4), ("abundances", 23)])
def test_nonfinite_payload_value_raises_format_error(container_blob, tmp_path,
                                                     payload, index, value):
    import struct
    bands, height, width, p = 6, 3, 4, 3  # the container_blob scene
    start = {"data": 28, "endmembers": 28 + 4 * bands * height * width,
             "abundances": 28 + 4 * bands * (height * width + p)}[payload]
    at = start + 4 * index
    path = tmp_path / "scene.hsic"
    path.write_bytes(container_blob[:at] + struct.pack("<f", value)
                     + container_blob[at + 4:])
    with pytest.raises(FormatError, match=f"^{payload} holds a value that is "
                       "not finite") as info:
        read_container(path)
    assert info.value.offset == at


def test_trailing_garbage_rejected(tmp_path):
    cube = HsiCube(np.zeros((4, 2, 2)))
    path = tmp_path / "trail.hsic"
    write_container(cube, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        read_container(path)


# ---------------------------------------------------------------------------
# unfold / fold

def test_fold_unfold_inverse():
    arr = np.random.default_rng(1).random((3, 4, 5))
    np.testing.assert_array_equal(fold(unfold(arr), 4, 5), arr)


def test_unfold_column_order_row_major():
    arr = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # 1 x 2 x 2: a,b / c,d
    np.testing.assert_array_equal(unfold(arr), [[1.0, 2.0, 3.0, 4.0]])


def test_unfold_column_sums_match_pixel_sums():
    arr = np.random.default_rng(2).random((6, 3, 4))
    col_sums = unfold(arr).sum(axis=0)
    pixel_sums = arr.sum(axis=0).reshape(-1)
    np.testing.assert_allclose(col_sums, pixel_sums, atol=1e-12)


def test_fold_dimension_mismatch():
    with pytest.raises(ShapeError):
        fold(np.zeros((2, 10)), 3, 4)


# ---------------------------------------------------------------------------
# PGM

def test_pgm_roundtrip_within_quantization(tmp_path):
    img = np.random.default_rng(3).random((6, 9))
    path = tmp_path / "map.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.max(np.abs(back - img)) <= 1 / 255


def test_pgm_constant_half_is_128(tmp_path):
    path = tmp_path / "half.pgm"
    write_pgm(path, np.full((4, 4), 0.5))
    raw = path.read_bytes()
    assert raw.endswith(bytes([128] * 16))


def test_pgm_one_hot_maps(tmp_path):
    # a pure pixel renders 255 in its own map and 0 in the others
    maps = np.zeros((2, 3, 3))
    maps[0, 1, 1] = 1.0
    for k in range(2):
        path = tmp_path / f"m{k}.pgm"
        write_pgm(path, maps[k])
        back = read_pgm(path)
        assert back[1, 1] == (1.0 if k == 0 else 0.0)
        assert back.sum() == (1.0 if k == 0 else 0.0)


@pytest.mark.parametrize("level", [9, 10, 11, 12, 13, 32])
def test_pgm_roundtrip_when_first_pixel_is_a_whitespace_byte(tmp_path, level):
    img = np.random.default_rng(level).integers(0, 256, (2, 3)) / 255.0
    img[0, 0] = level / 255.0
    path = tmp_path / "map.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_pgm_reads_header_comments(tmp_path):
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P5 # made elsewhere\n2 1\n# depth\n100\n\x00\x64")
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 1.0]])


PGM_DEFECTS = {  # name: (file contents, byte offset of the defect)
    "empty": (b"", 0),
    "other_format": (b"P6\n1 1\n255\n\x00", 0),
    "magic_only": (b"P5", 2),
    "no_header_end": (b"P5\n2 3\n255", 10),
    "header_only": (b"P5\n2 3\n255\n", 11),
    "non_numeric_width": (b"P5\nx 3\n255\n" + bytes(6), 2),
    "junk_in_maxval": (b"P5\n2 3\n2x5\n" + bytes(6), 8),
    "short_payload": (b"P5\n2 3\n255\n" + bytes(5), 16),
    "trailing_byte": (b"P5\n2 3\n255\n" + bytes(7), 17),
    "maxval_zero": (b"P5\n2 3\n0\n" + bytes(6), 7),
    "maxval_beyond_8_bits": (b"P5\n2 3\n1000\n" + bytes(12), 7),
    "sample_above_maxval": (b"P5\n2 1\n99\n\x00\x64", 11),
    "absurd_width_digits": (b"P5\n1234567890 1\n255\n", 2),
}


@pytest.mark.parametrize("name", sorted(PGM_DEFECTS))
def test_pgm_malformed_raises_format_error_with_offset(tmp_path, name):
    blob, offset = PGM_DEFECTS[name]
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as info:
        read_pgm(path)
    assert info.value.offset == offset


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pgm_damaged_files_give_an_array_or_format_error(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    path = tmp_path_factory.mktemp("pgm") / "map.pgm"
    write_pgm(path, rng.random((data.draw(st.integers(1, 4)),
                                data.draw(st.integers(1, 4)))))
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    for _ in range(data.draw(st.integers(0, 3))):
        if blob:
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(
                st.integers(0, 255))
    path.write_bytes(bytes(blob))
    try:
        out = read_pgm(path)
    except FormatError:
        return
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert np.all((out >= 0.0) & (out <= 1.0))
