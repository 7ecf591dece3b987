"""Cube container round-trips, patching, augmentation, LR synthesis."""

import gc
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bicubic_direct, enumerate_windows

from hssr.errors import FormatError, ParameterError
from hssr.hsdata import (
    DatasetManifest,
    HSCube,
    atomic_write,
    augment,
    extract_patches,
    lr_counterpart,
    make_lr,
    random_smooth_cube,
    read_cube,
    read_cube_header,
    read_manifest,
    write_cube,
    write_manifest,
)


def inverse_code(code: int) -> int:
    """The augment code undoing `code`; flips are their own inverse."""
    return (4 - code) % 4 if code < 4 else code


class TestCubeFormat:
    def test_zero_cube_round_trip(self, tmp_path):
        cube = HSCube(np.zeros((2, 4, 4), np.float32), name="z")
        write_cube(cube, tmp_path / "z.hsc")
        back = read_cube(tmp_path / "z.hsc")
        np.testing.assert_array_equal(back.values, cube.values)
        assert back.bands == 2 and back.height == 4 and back.width == 4

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_cube(HSCube(np.zeros((2, 4, 4), np.float32)), tmp_path / "z.hsc")
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_makes_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.bin"
        atomic_write(path, [b"he", b"llo"])
        assert path.read_bytes() == b"hello"
        assert list(path.parent.iterdir()) == [path]  # no temp file left beside it
        atomic_write(path, [b"again"])  # the directories now exist
        assert path.read_bytes() == b"again"

    def test_random_round_trip_bit_exact(self, tmp_path, rng):
        vals = rng.random((31, 64, 64), dtype=np.float32)
        write_cube(HSCube(vals), tmp_path / "r.hsc")
        back = read_cube(tmp_path / "r.hsc")
        assert back.values.tobytes() == vals.tobytes()
        assert back.clamped == 0

    def test_truncated_payload_rejected(self, tmp_path):
        blob = b"HSC1" + struct.pack("<III", 3, 8, 8) + b"\x00" * 400
        (tmp_path / "t.hsc").write_bytes(blob)
        with pytest.raises(FormatError, match="truncated"):
            read_cube(tmp_path / "t.hsc")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "b.hsc").write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(FormatError, match="magic"):
            read_cube(tmp_path / "b.hsc")

    def test_zero_dim_rejected(self, tmp_path):
        (tmp_path / "d.hsc").write_bytes(b"HSC1" + struct.pack("<III", 0, 4, 4))
        with pytest.raises(FormatError, match="bands"):
            read_cube(tmp_path / "d.hsc")

    def test_overflow_header_rejected(self, tmp_path):
        blob = b"HSC1" + struct.pack("<III", 2 ** 31 - 1, 2 ** 31 - 1, 4)
        (tmp_path / "o.hsc").write_bytes(blob)
        with pytest.raises(FormatError, match="overflow"):
            read_cube(tmp_path / "o.hsc")

    def test_oversized_payload_rejected(self, tmp_path):
        blob = b"HSC1" + struct.pack("<III", 1, 2, 2) + b"\x00" * 20
        (tmp_path / "x.hsc").write_bytes(blob)
        with pytest.raises(FormatError, match="oversized"):
            read_cube(tmp_path / "x.hsc")

    def test_nan_payload_rejected(self, tmp_path):
        vals = np.full((1, 2, 2), np.nan, dtype="<f4")
        (tmp_path / "n.hsc").write_bytes(b"HSC1" + struct.pack("<III", 1, 2, 2) + vals.tobytes())
        with pytest.raises(FormatError, match="NaN"):
            read_cube(tmp_path / "n.hsc")

    def test_loader_clamps_and_counts(self, tmp_path):
        vals = np.array([[-0.5, 0.25], [1.75, 1.0]], dtype="<f4").reshape(1, 2, 2)
        (tmp_path / "c.hsc").write_bytes(b"HSC1" + struct.pack("<III", 1, 2, 2) + vals.tobytes())
        back = read_cube(tmp_path / "c.hsc")
        assert back.clamped == 2
        np.testing.assert_array_equal(back.values.reshape(-1), [0.0, 0.25, 1.0, 1.0])

    def test_loader_clamps_infinities_and_counts_them(self, tmp_path):
        vals = np.array([-np.inf, 0.5, np.inf, 1.0], dtype="<f4").reshape(1, 2, 2)
        (tmp_path / "c.hsc").write_bytes(b"HSC1" + struct.pack("<III", 1, 2, 2) + vals.tobytes())
        back = read_cube(tmp_path / "c.hsc")
        assert back.clamped == 2
        np.testing.assert_array_equal(back.values.reshape(-1), [0.0, 0.5, 1.0, 1.0])

    @pytest.mark.parametrize("blob,match", [
        (b"HSC1\x00", "too short"),
        (b"NOPE" + b"\x00" * 100, "magic"),
        (b"HSC1" + struct.pack("<III", 0, 4, 4), "bands"),
        (b"HSC1" + struct.pack("<III", 2 ** 31 - 1, 2 ** 31 - 1, 4), "overflow"),
        (b"HSC1" + struct.pack("<III", 3, 8, 8) + b"\x00" * 400, "truncated"),
        (b"HSC1" + struct.pack("<III", 1, 2, 2) + b"\x00" * 20, "oversized"),
    ])
    def test_header_reader_rejects_what_the_loader_rejects(self, tmp_path, blob, match):
        (tmp_path / "h.hsc").write_bytes(blob)
        for read in (read_cube, read_cube_header):
            with pytest.raises(FormatError, match=match):
                read(tmp_path / "h.hsc")

    def test_payload_shorter_than_the_checked_size_rejected(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the read
        (tmp_path / "s.hsc").write_bytes(b"HSC1" + struct.pack("<III", 1, 2, 2) + b"\x00" * 8)
        real = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            real(fd)[:6] + (16 + 16,) + real(fd)[7:]))
        with pytest.raises(FormatError, match="truncated"):
            read_cube(tmp_path / "s.hsc")

    def test_header_reader_reads_no_payload(self, tmp_path):
        # a NaN payload is the loader's to reject; the header is sound
        vals = np.full((2, 3, 5), np.nan, dtype="<f4")
        (tmp_path / "n.hsc").write_bytes(b"HSC1" + struct.pack("<III", 2, 3, 5) + vals.tobytes())
        assert read_cube_header(tmp_path / "n.hsc") == (2, 3, 5)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.5, 1.5)])
    def test_loader_peaks_within_a_mebibyte_of_the_payload(self, tmp_path, lo, hi):
        # the payload is read straight into the returned array; range and NaN
        # checks use reductions, and clamping counts band by band
        vals = np.random.default_rng(0).uniform(lo, hi, (31, 128, 128)).astype(np.float32)
        write_cube(HSCube(vals), tmp_path / "c.hsc")
        gc.collect()
        tracemalloc.start()
        try:
            cube = read_cube(tmp_path / "c.hsc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vals.nbytes + (1 << 20), peak
        np.testing.assert_array_equal(cube.values, np.clip(vals, 0.0, 1.0))
        assert cube.clamped == np.count_nonzero((vals < 0.0) | (vals > 1.0))

    def test_writer_rejects_non_finite(self, tmp_path):
        with pytest.raises(ParameterError):
            write_cube(HSCube(np.full((1, 2, 2), np.inf, np.float32)), tmp_path / "w.hsc")

    def test_writer_checks_finiteness_in_float32(self, tmp_path):
        vals = np.zeros((2, 3, 3))
        vals[1, 2, 2] = 1e39  # finite in float64, +inf once cast to float32
        with pytest.raises(ParameterError, match="float32"):
            write_cube(HSCube(vals), tmp_path / "w.hsc")
        assert list(tmp_path.iterdir()) == []

    def test_payload_is_little_endian_float32_of_any_input(self, tmp_path, rng):
        vals = rng.random((3, 5, 7))
        want = b"HSC1" + struct.pack("<III", 3, 5, 7) + vals.astype("<f4").tobytes()
        f32 = vals.astype(np.float32)
        for arr in (vals, f32, vals.astype(">f4"), np.asfortranarray(f32), f32.tolist()):
            write_cube(HSCube(arr), tmp_path / "c.hsc")
            assert (tmp_path / "c.hsc").read_bytes() == want

    def test_writer_temporaries_stay_band_sized(self, tmp_path, rng):
        # a float32 cube is written as it is: no payload copy, no whole-cube
        # finiteness map
        vals = rng.random((31, 128, 128), dtype=np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            write_cube(HSCube(vals), tmp_path / "c.hsc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vals[0].nbytes, peak
        assert read_cube(tmp_path / "c.hsc").values.tobytes() == vals.tobytes()

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12))
    def test_round_trip_property(self, b, h, w):
        import tempfile
        from pathlib import Path

        vals = np.random.default_rng(b * 100 + h * 10 + w).random((b, h, w), dtype=np.float32)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "c.hsc"
            write_cube(HSCube(vals), p)
            assert read_cube(p).values.tobytes() == vals.tobytes()


class TestManifest:
    def test_round_trip_with_metadata(self, tmp_path):
        man = DatasetManifest(scale=8, patch=16, stride=8, seed=99)
        man.entries = [("hr/train/a.hsc", "train"), ("hr/test/b.hsc", "test")]
        write_manifest(man, tmp_path / "m.txt")
        back = read_manifest(tmp_path / "m.txt")
        assert back.entries == man.entries
        assert (back.scale, back.patch, back.stride, back.seed) == (8, 16, 8, 99)

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "m.txt").write_text("# hello\n\ntrain hr/train/a.hsc\n")
        man = read_manifest(tmp_path / "m.txt")
        assert man.entries == [("hr/train/a.hsc", "train")]

    def test_bad_role_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("validate hr/a.hsc\n")
        with pytest.raises(FormatError, match="role"):
            read_manifest(tmp_path / "m.txt")

    def test_duplicate_path_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("train hr/a.hsc\ntest hr/a.hsc\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_manifest(tmp_path / "m.txt")

    def test_one_field_line_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("train\n")
        with pytest.raises(FormatError):
            read_manifest(tmp_path / "m.txt")

    def test_lr_counterpart(self):
        assert lr_counterpart("hr/train/a.hsc") == "lr/train/a.hsc"
        with pytest.raises(ParameterError):
            lr_counterpart("data/train/a.hsc")


class TestPatches:
    def test_exact_single_patch(self, rng):
        cube = HSCube(rng.random((3, 64, 64), dtype=np.float32), name="c")
        patches = extract_patches(cube, 64, 64)
        assert len(patches) == 1
        np.testing.assert_array_equal(patches[0].values, cube.values)

    def test_perfect_tiling(self, rng):
        cube = HSCube(rng.random((2, 64, 64), dtype=np.float32))
        patches = extract_patches(cube, 32, 32)
        assert len(patches) == 4
        rebuilt = np.zeros_like(cube.values)
        rebuilt[:, :32, :32] = patches[0].values
        rebuilt[:, :32, 32:] = patches[1].values
        rebuilt[:, 32:, :32] = patches[2].values
        rebuilt[:, 32:, 32:] = patches[3].values
        np.testing.assert_array_equal(rebuilt, cube.values)

    def test_edge_anchored_trailing_window(self, rng):
        cube = HSCube(rng.random((1, 70, 70), dtype=np.float32), name="c")
        patches = extract_patches(cube, 32, 32)
        assert len(patches) == 9
        assert patches[-1].name.endswith("y038x038")
        np.testing.assert_array_equal(patches[-1].values, cube.values[:, 38:, 38:])

    @given(st.integers(8, 40), st.integers(4, 12), st.integers(1, 12))
    def test_matches_enumeration_oracle(self, extent, patch, stride):
        if patch > extent:
            return
        cube = HSCube(np.zeros((1, extent, extent), np.float32))
        got = len(extract_patches(cube, patch, stride))
        starts = enumerate_windows(extent, patch, stride)
        assert got == len(starts) ** 2

    def test_too_large_patch_rejected(self, rng):
        with pytest.raises(ParameterError):
            extract_patches(HSCube(rng.random((1, 8, 8), dtype=np.float32)), 9, 1)


class TestAugment:
    def test_identity(self, rng):
        cube = HSCube(rng.random((2, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(augment(cube, 0).values, cube.values)

    def test_code1_clockwise_example(self):
        patch = HSCube(np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32))  # [[a,b],[c,d]]
        out = augment(patch, 1).values[0]
        np.testing.assert_array_equal(out, [[3.0, 1.0], [4.0, 2.0]])  # [[c,a],[d,b]]

    def test_rot180_involution(self, rng):
        cube = HSCube(rng.random((2, 5, 5), dtype=np.float32))
        np.testing.assert_array_equal(augment(augment(cube, 2), 2).values, cube.values)

    @given(st.integers(0, 7))
    def test_inverse_restores_exactly(self, code):
        cube = HSCube(np.random.default_rng(code).random((2, 6, 6), dtype=np.float32))
        back = augment(augment(cube, code), inverse_code(code))
        np.testing.assert_array_equal(back.values, cube.values)

    @given(st.integers(0, 7))
    def test_preserves_multiset(self, code):
        cube = HSCube(np.random.default_rng(100 + code).random((1, 4, 4), dtype=np.float32))
        out = augment(cube, code)
        assert sorted(out.values.reshape(-1)) == sorted(cube.values.reshape(-1))

    def test_codes_distinct(self, rng):
        # the 8 transforms of an asymmetric patch are pairwise different
        cube = HSCube(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
        images = [augment(cube, c).values.tobytes() for c in range(8)]
        assert len(set(images)) == 8

    def test_bad_code(self, rng):
        with pytest.raises(ParameterError):
            augment(HSCube(rng.random((1, 2, 2), dtype=np.float32)), 8)


class TestMakeLR:
    def test_constant_preserved(self):
        cube = HSCube(np.full((3, 16, 16), 0.5, np.float32))
        lr = make_lr(cube, 4)
        assert np.abs(lr.values - 0.5).max() < 1e-6
        assert lr.values.shape == (3, 4, 4)

    def test_matches_bicubic_oracle_per_band(self, rng):
        vals = (0.1 + 0.8 * rng.random((3, 64, 64))).astype(np.float32)
        lr = make_lr(HSCube(vals), 4)
        assert lr.values.shape == (3, 16, 16)
        for b in range(3):
            ref = bicubic_direct(vals[b].astype(np.float64), 16, 16)
            assert np.abs(lr.values[b] - ref).max() < 1e-5

    def test_noise_reproducible(self, rng):
        vals = rng.random((2, 16, 16), dtype=np.float32)
        a = make_lr(HSCube(vals), 4, 0.01, np.random.default_rng(5))
        b = make_lr(HSCube(vals), 4, 0.01, np.random.default_rng(5))
        assert a.values.tobytes() == b.values.tobytes()
        c = make_lr(HSCube(vals), 4, 0.01, np.random.default_rng(6))
        assert a.values.tobytes() != c.values.tobytes()

    def test_output_in_unit_range(self, rng):
        vals = rng.random((2, 16, 16), dtype=np.float32)
        lr = make_lr(HSCube(vals), 2, 0.3, np.random.default_rng(0))
        assert lr.values.min() >= 0.0 and lr.values.max() <= 1.0

    def test_smooth_cube_mean_nearly_preserved(self, rng):
        cube = random_smooth_cube(4, 32, 32, rng)
        lr = make_lr(cube, 4)
        assert abs(float(lr.values.mean()) - float(cube.values.mean())) < 1e-3

    def test_errors(self, rng):
        cube = HSCube(rng.random((1, 15, 16), dtype=np.float32))
        with pytest.raises(ParameterError):
            make_lr(cube, 4)  # 15 not divisible
        with pytest.raises(ParameterError):
            make_lr(HSCube(rng.random((1, 16, 16), dtype=np.float32)), 3)
        with pytest.raises(ParameterError):
            make_lr(HSCube(rng.random((1, 16, 16), dtype=np.float32)), 4, -0.1)
        with pytest.raises(ParameterError):
            make_lr(HSCube(rng.random((1, 16, 16), dtype=np.float32)), 4, 0.1)  # no rng

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, rng, sigma):
        # nan would add no noise and inf would saturate every value to 0 or 1
        with pytest.raises(ParameterError, match="finite"):
            make_lr(HSCube(rng.random((1, 16, 16), dtype=np.float32)), 4, sigma,
                    np.random.default_rng(0))


class TestSyntheticCubes:
    def test_range_and_shape(self, rng):
        cube = random_smooth_cube(31, 64, 64, rng, name="toy")
        assert cube.values.shape == (31, 64, 64)
        assert cube.values.min() >= 0.05 - 1e-6
        assert cube.values.max() <= 0.95 + 1e-6

    def test_deterministic_given_rng_seed(self):
        a = random_smooth_cube(4, 16, 16, np.random.default_rng(3))
        b = random_smooth_cube(4, 16, 16, np.random.default_rng(3))
        assert a.values.tobytes() == b.values.tobytes()

    def test_spectra_are_smooth(self, rng):
        # neighboring bands should be highly correlated
        cube = random_smooth_cube(16, 32, 32, rng)
        flat = cube.values.reshape(16, -1).astype(np.float64)
        cors = [np.corrcoef(flat[i], flat[i + 1])[0, 1] for i in range(15)]
        assert min(cors) > 0.9
