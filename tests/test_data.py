import hashlib
import os
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from setsum.data import (DatasetManifest, ImageRecord, SyntheticConfig, TensorFormatError,
                         center_of_mass_crop, generate_blob_image, generate_dataset,
                         load_split, read_manifest, read_tensor, rescale_intensity,
                         write_atomic, write_csv, write_manifest, write_tensor)


class TestGenerateBlobImage:
    def test_fixed_count(self):
        cfg = SyntheticConfig(blob_count_range=(3, 3))
        img, count, volume = generate_blob_image(cfg, np.random.default_rng(0))
        assert count == 3
        assert img.shape == (1, 16, 16)

    def test_empty_image(self):
        cfg = SyntheticConfig(blob_count_range=(0, 0), noise_sigma=0.0)
        img, count, volume = generate_blob_image(cfg, np.random.default_rng(1))
        npt.assert_array_equal(img, 0.0)
        assert count == 0 and volume == 0

    def test_volume_label_matches_voxel_scan(self):
        cfg = SyntheticConfig(blob_count_range=(2, 6), noise_sigma=0.05, seed=0)
        clean_cfg = SyntheticConfig(blob_count_range=(2, 6), noise_sigma=0.0, seed=0)
        for seed in range(10):
            _, count, volume = generate_blob_image(cfg, np.random.default_rng(seed))
            # same draws up to the noise step reproduce the noise-free field
            clean, count2, volume2 = generate_blob_image(clean_cfg, np.random.default_rng(seed))
            assert (count, volume) == (count2, volume2)
            scanned = sum(1 for v in clean[0].ravel() if v > cfg.volume_threshold)
            assert volume == scanned

    def test_intensities_non_negative(self):
        cfg = SyntheticConfig(noise_sigma=0.5)
        img, _, _ = generate_blob_image(cfg, np.random.default_rng(3))
        assert img.min() >= 0.0

    def test_impossible_placement_rejected(self):
        cfg = SyntheticConfig(image_extent=(8, 8), blob_count_range=(30, 30),
                              blob_sigma_range=(1.0, 1.2), noise_sigma=0.0)
        with pytest.raises(ValueError, match="could not place"):
            generate_blob_image(cfg, np.random.default_rng(4))

    def test_extent_too_small_for_sigma_rejected(self):
        with pytest.raises(ValueError, match="4x sigma"):
            SyntheticConfig(image_extent=(4, 4), blob_sigma_range=(1.0, 1.5))

    def test_extent_of_exactly_4x_sigma_rejected(self):
        # placement keeps 2 sigma from each border, which leaves no room here
        with pytest.raises(ValueError, match="needs > 4x sigma"):
            SyntheticConfig(image_extent=(4, 4), blob_sigma_range=(1.0, 1.0),
                            blob_count_range=(1, 1))

    def test_dims_follow_image_extent(self):
        assert SyntheticConfig(image_extent=(8, 8, 8)).dims == 3
        with pytest.raises(ValueError, match="2 or 3 extents"):
            SyntheticConfig(image_extent=(8, 8, 8, 8))


class TestCenterOfMassCrop:
    def test_point_mass(self):
        img = np.zeros((1, 10, 10))
        img[0, 5, 5] = 3.0
        out = center_of_mass_crop(img, (3, 3))
        assert out.shape == (1, 3, 3)
        assert out[0, 1, 1] == 3.0

    def test_uniform_image_geometric_center(self):
        # two equal masses symmetric about (4, 4) keep the center there;
        # a 3x3 window at rows/cols 3..5 contains neither mass
        img = np.zeros((1, 9, 9))
        img[0, 1, 1] = 2.0
        img[0, 7, 7] = 2.0
        out = center_of_mass_crop(img, (3, 3))
        npt.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_two_point_weighted_mean_oracle(self):
        img = np.zeros((1, 16, 16))
        img[0, 2, 2] = 1.0
        img[0, 6, 6] = 3.0
        # weighted center: (1*2 + 3*6) / 4 = 5.0 on both axes
        out = center_of_mass_crop(img, (5, 5))
        expected_window = img[0, 3:8, 3:8]
        npt.assert_array_equal(out[0], expected_window)

    def test_all_zero_image_uses_geometric_center(self):
        img = np.zeros((1, 11, 11))
        out = center_of_mass_crop(img, (3, 3))
        assert out.shape == (1, 3, 3)

    def test_window_clamped_at_border(self):
        img = np.zeros((1, 8, 8))
        img[0, 0, 0] = 1.0
        out = center_of_mass_crop(img, (5, 5))
        assert out.shape == (1, 5, 5)
        assert out[0, 0, 0] == 1.0

    def test_commutes_with_positive_scaling(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, size=(1, 12, 12))
        a = center_of_mass_crop(img, (6, 6))
        b = center_of_mass_crop(2.5 * img, (6, 6))
        npt.assert_allclose(2.5 * a, b, atol=1e-12)

    def test_crop_exceeding_image_rejected(self):
        with pytest.raises(ValueError, match="axis 1"):
            center_of_mass_crop(np.zeros((1, 8, 8)), (8, 9))


class TestRescaleIntensity:
    def test_endpoints(self):
        out = rescale_intensity(np.array([[2.0, 4.0]]))
        npt.assert_array_equal(out, [[0.0, 1.0]])

    def test_constant_maps_to_zeros(self):
        npt.assert_array_equal(rescale_intensity(np.full((2, 3), 7.0)), 0.0)

    def test_unit_range_for_non_constant(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(1, 10, 10)) * 17 - 4
        out = rescale_intensity(img)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(1, 6, 6))
        once = rescale_intensity(img)
        npt.assert_allclose(rescale_intensity(once), once, atol=1e-15)


class TestTensorFile:
    def test_round_trip_bit_identical(self, tmp_path):
        arr = np.random.default_rng(8).normal(size=(3, 16, 16))
        path = tmp_path / "t.sstf"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        write_tensor(tmp_path / "t2.sstf", back)
        assert (tmp_path / "t.sstf").read_bytes() == (tmp_path / "t2.sstf").read_bytes()

    @pytest.mark.parametrize("shape", [(1, 0, 4), (0,)])
    def test_zero_extent_rejected_before_writing(self, tmp_path, shape):
        path = tmp_path / "t.sstf"
        with pytest.raises(ValueError, match="zero extent"):
            write_tensor(path, np.zeros(shape))
        assert not path.exists()

    def test_wrong_magic_named_in_error(self, tmp_path):
        path = tmp_path / "bad.sstf"
        path.write_bytes(b"NOPE!" + bytes(20))
        with pytest.raises(TensorFormatError, match="SSTF1"):
            read_tensor(path)

    def test_payload_length_mismatch(self, tmp_path):
        arr = np.zeros(100)
        path = tmp_path / "t.sstf"
        write_tensor(path, arr)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # drop one value
        with pytest.raises(TensorFormatError, match="declares 100"):
            read_tensor(path)

    def test_rank_zero_rejected(self, tmp_path):
        # write_tensor refuses a rank-0 array, so no valid file declares 0 dims
        path = tmp_path / "t.sstf"
        path.write_bytes(b"SSTF1\x00" + np.float64(3.5).tobytes())
        with pytest.raises(TensorFormatError, match="dimension count 0"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.sstf"
        path.write_bytes(b"SSTF1\x02\x01")
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(path)

    def test_value_count_does_not_wrap(self, tmp_path):
        # four extents of 65536 declare 2^64 values, which a 64-bit product
        # wraps to 0, matching an empty payload
        path = tmp_path / "t.sstf"
        path.write_bytes(b"SSTF1\x04" + (65536).to_bytes(4, "little") * 4)
        with pytest.raises(TensorFormatError, match="declares 18446744073709551616"):
            read_tensor(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [ImageRecord("images/a.sstf", 3, 40, "train"),
                   ImageRecord("images/b.sstf", 0, 0, "test")]
        manifest = DatasetManifest(records, label_kind="volume", base_dir=tmp_path)
        write_manifest(tmp_path / "manifest.csv", manifest)
        back = read_manifest(tmp_path / "manifest.csv", label_kind="volume")
        assert back.records == records
        assert back.label_of(records[0]) == 40.0

    @pytest.mark.parametrize("second", ["a.sstf", "./a.sstf", "sub/../a.sstf"])
    def test_duplicate_path_rejected(self, tmp_path, second):
        path = tmp_path / "m.csv"
        path.write_text("path,count_label,volume_label,split\n"
                        f"a.sstf,1,1,train\n{second},2,2,test\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: duplicate path"):
            read_manifest(path)

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,count_label,volume_label,split\na.sstf,1,1,banana\n")
        with pytest.raises(ValueError, match="unknown split"):
            read_manifest(path)

    @pytest.mark.parametrize("labels, message", [
        ("1.5,1", "labels must be integers"),
        ("1,-1", "labels must be non-negative"),
        (f"{2 ** 53 + 1},1", "labels must be at most 2**53")],
        ids=["non-integer", "negative", "above-2**53"])
    def test_bad_label_rejected_with_line(self, tmp_path, labels, message):
        path = tmp_path / "m.csv"
        path.write_text("path,count_label,volume_label,split\n"
                        f"a.sstf,1,1,train\nb.sstf,{labels},test\n")
        with pytest.raises(ValueError, match=re.escape(f"m.csv:3: {message}")):
            read_manifest(path)

    def test_label_of_2_to_the_53_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"path,count_label,volume_label,split\na.sstf,{2 ** 53},1,train\n")
        manifest = read_manifest(path)
        assert manifest.label_of(manifest.records[0]) == 2.0 ** 53

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,count,volume,split\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(path)

    @pytest.mark.parametrize("rec_path", ["/tmp/a.sstf", "../a.sstf", "images/../../a.sstf",
                                          "", ".", "images/.."])
    def test_path_outside_manifest_directory_rejected(self, tmp_path, rec_path):
        path = tmp_path / "m.csv"
        path.write_text("path,count_label,volume_label,split\n"
                        f"images/b.sstf,1,1,train\n{rec_path},1,1,train\n")
        with pytest.raises(ValueError,
                           match=r"m\.csv:3: .*names no file inside the manifest's directory"):
            read_manifest(path)

    def test_path_that_stays_inside_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,count_label,volume_label,split\n"
                        "images/../b.sstf,1,1,train\n")
        assert read_manifest(path).records[0].path == "images/../b.sstf"


class TestAtomicWrites:
    def test_csv_cells(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["name", "x", "y", "n"], [("a", 0.1, None, 3)])
        assert (tmp_path / "a.csv").read_bytes() == b"name,x,y,n\r\na,0.1,NA,3\r\n"

    def test_failing_rows_keep_previous_file(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["x"], [(1.0,), (2.0,)])
        before = path.read_bytes()

        def rows():
            yield (3.0,)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(path, ["x"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_failed_replace_removes_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("setsum.data.os.replace", no_replace)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_data_synced_before_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr("setsum.data.os.fsync", fsync)
        monkeypatch.setattr("setsum.data.os.replace", replace)
        path = tmp_path / "a.bin"
        write_atomic(path, b"new")
        inode = path.stat().st_ino
        assert calls == [("fsync", inode), ("replace", inode)]
        assert path.read_bytes() == b"new"


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestGenerateDataset:
    def test_labels_exact_and_deterministic(self, tmp_path):
        from dataclasses import replace
        from setsum.data import split_count_sequence
        cfg = SyntheticConfig(blob_count_range=(0, 5), seed=11)
        manifest = generate_dataset(tmp_path / "d1", cfg, 6, 2, 4)
        assert len(manifest.records) == 12
        planned = (split_count_sequence((0, 5), 6) + split_count_sequence((0, 5), 2)
                   + split_count_sequence((0, 5), 4))
        for idx, rec in enumerate(manifest.records):
            clean_cfg = replace(cfg, noise_sigma=0.0,
                                blob_count_range=(planned[idx], planned[idx]))
            clean, count, volume = generate_blob_image(
                clean_cfg, np.random.default_rng([cfg.seed, idx]))
            assert rec.count_label == count == planned[idx]
            assert rec.volume_label == volume
            scanned = int(np.count_nonzero(clean > cfg.volume_threshold))
            assert rec.volume_label == scanned
        generate_dataset(tmp_path / "d2", cfg, 6, 2, 4)
        assert _dir_digest(tmp_path / "d1") == _dir_digest(tmp_path / "d2")

    def test_split_count_sequence_covers_range(self):
        from setsum.data import split_count_sequence
        assert split_count_sequence((0, 8), 9) == list(range(9))
        seq = split_count_sequence((0, 8), 5)
        assert seq[0] == 0 and seq[-1] == 8 and seq == sorted(seq)
        assert split_count_sequence((0, 8), 1) == [4]
        assert split_count_sequence((0, 8), 0) == []
        assert split_count_sequence((3, 3), 4) == [3, 3, 3, 3]

    def test_split_sizes_and_loading(self, tmp_path):
        cfg = SyntheticConfig(seed=12)
        manifest = generate_dataset(tmp_path, cfg, 5, 2, 3)
        images, labels = load_split(manifest, "train")
        assert len(images) == 5 and labels.shape == (5,)
        assert all(im.shape == (1, 16, 16) for im in images)
        assert len(manifest.split_records("val")) == 2
        assert len(manifest.split_records("test")) == 3

    def test_rescale_applied(self, tmp_path):
        cfg = SyntheticConfig(blob_count_range=(2, 4), seed=13)
        manifest = generate_dataset(tmp_path, cfg, 2, 1, 1, rescale=True)
        images, _ = load_split(manifest, "train")
        for im in images:
            assert im.min() >= 0.0 and im.max() <= 1.0

    def test_crop_applied(self, tmp_path):
        cfg = SyntheticConfig(image_extent=(20, 20), blob_count_range=(1, 3), seed=14)
        manifest = generate_dataset(tmp_path, cfg, 2, 1, 1, crop_extent=(12, 12))
        images, _ = load_split(manifest, "train")
        assert all(im.shape == (1, 12, 12) for im in images)
