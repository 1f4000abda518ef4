import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsum import augment
from setsum.augment import (AugmentationConfig, SampleSet, count_combinations,
                            make_epoch_sets, mixup_pair, random_geometric_augment,
                            virtual_label)

from oracles import enumerate_combinations


class TestVirtualLabel:
    def test_three_plus_two_is_five(self):
        assert virtual_label([3, 2]) == 5.0

    def test_empty_all_black_set(self):
        assert virtual_label([]) == 0.0

    def test_plain_addition(self):
        assert virtual_label([1.5, 0, 2.5, 4]) == 8.0


class TestCountCombinations:
    def test_small_case_by_enumeration(self):
        assert count_combinations(4, 2) == 10 == enumerate_combinations(4, 2)

    def test_pool_of_25_sets_of_4(self):
        assert count_combinations(25, 4) == 15275 == enumerate_combinations(25, 4)

    def test_singletons_only(self):
        for k in (1, 5, 100):
            assert count_combinations(k, 1) == k

    def test_exact_big_integers(self):
        value = count_combinations(500, 250)
        assert isinstance(value, int)
        assert value == pascal_row_sum(500, 250)

    def test_n_above_m_rejected(self):
        with pytest.raises(ValueError, match="1 <= n <= m"):
            count_combinations(4, 5)


def pascal_row_sum(m: int, n: int) -> int:
    # independent route: Pascal's triangle, integer arithmetic only
    row = [1]
    for _ in range(m):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return sum(row[1:n + 1])


class TestMakeEpochSets:
    def test_even_partition(self):
        sets = make_epoch_sets([1.0] * 8, 4, 0.0, np.random.default_rng(0))
        assert len(sets) == 2
        seen = sorted(i for s in sets for i in s.real_indices())
        assert seen == list(range(8))

    def test_black_padding_of_last_set(self):
        sets = make_epoch_sets([1.0] * 5, 4, 0.0, np.random.default_rng(1))
        assert len(sets) == 2
        assert len(sets[0].real_indices()) == 4
        assert len(sets[1].real_indices()) == 1
        assert sets[1].slots.count(None) == 3

    def test_substitution_rate_binomial(self):
        m, p = 10_000, 0.1
        sets = make_epoch_sets([1.0] * m, 4, p, np.random.default_rng(2))
        blacked = m - sum(len(s.real_indices()) for s in sets)
        sigma = math.sqrt(m * p * (1 - p))
        assert abs(blacked - m * p) < 3 * sigma

    def test_expected_real_slots_per_set(self):
        # the regularization dial: n*(1-p) real images per set on average
        n, p, m = 4, 0.3, 40_000
        sets = make_epoch_sets([1.0] * m, n, p, np.random.default_rng(3))
        mean_real = np.mean([len(s.real_indices()) for s in sets])
        sigma = math.sqrt(n * p * (1 - p) / len(sets))
        assert abs(mean_real - n * (1 - p)) < 3 * sigma

    @given(m=st.integers(1, 60), n=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_without_replacement_and_label_conservation(self, m, n, p, seed):
        labels = list(np.random.default_rng(seed + 1).uniform(0, 9, size=m))
        sets = make_epoch_sets(labels, n, p, np.random.default_rng(seed))
        assert len(sets) == -(-m // n)
        survivors = [i for s in sets for i in s.real_indices()]
        assert len(survivors) == len(set(survivors))  # no index twice
        assert set(survivors) <= set(range(m))
        total = sum(s.virtual_label for s in sets)
        assert total == pytest.approx(sum(labels[i] for i in survivors), abs=1e-9)
        for s in sets:
            assert len(s.slots) == n
            assert s.virtual_label == pytest.approx(
                virtual_label([labels[i] for i in s.real_indices()]), abs=1e-12)

    def test_p_zero_is_exact_permutation(self):
        labels = list(range(23))
        sets = make_epoch_sets(labels, 4, 0.0, np.random.default_rng(4))
        survivors = sorted(i for s in sets for i in s.real_indices())
        assert survivors == list(range(23))
        assert sum(s.virtual_label for s in sets) == sum(labels)

    @pytest.mark.parametrize("n, p, message", [(0, 0.1, "set size n"),
                                               (-1, 0.1, "set size n"),
                                               (4, -0.1, "black probability p"),
                                               (4, 1.1, "black probability p")])
    def test_bad_n_or_p_rejected(self, n, p, message):
        with pytest.raises(ValueError, match=message):
            make_epoch_sets([1.0] * 8, n, p, np.random.default_rng(0))

    def test_n1_p0_reduces_to_per_sample_training(self):
        labels = [3.0, 1.0, 4.0, 1.0, 5.0]
        sets = make_epoch_sets(labels, 1, 0.0, np.random.default_rng(5))
        assert len(sets) == 5
        for s in sets:
            (idx,) = s.slots
            assert s.virtual_label == labels[idx]


class TestGeometricAugment:
    def test_degenerate_config_is_identity(self):
        img = np.random.default_rng(7).normal(size=(1, 9, 9))
        cfg = AugmentationConfig(flip_axes=(), rotation_range_radians=0.0,
                                 translation_range_voxels=0)
        out = random_geometric_augment(img, cfg, np.random.default_rng(0))
        npt.assert_array_equal(out, img)

    def test_flip_twice_restores_original(self):
        img = np.random.default_rng(8).normal(size=(2, 6, 6))
        cfg = AugmentationConfig(flip_axes=(0, 1), rotation_range_radians=0.0,
                                 translation_range_voxels=0)
        once = random_geometric_augment(img, cfg, np.random.default_rng(42))
        twice = random_geometric_augment(once, cfg, np.random.default_rng(42))
        npt.assert_array_equal(twice, img)

    def test_pure_integer_translation_moves_hot_voxel(self):
        img = np.zeros((1, 8, 8))
        img[0, 3, 4] = 1.0
        cfg = AugmentationConfig(flip_axes=(), rotation_range_radians=0.0,
                                 translation_range_voxels=2)
        # find a seed whose two offset draws are (+2, 0)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            if tuple(rng.integers(-2, 3, size=2)) == (2, 0):
                break
        else:
            pytest.fail("no seed found for offsets (+2, 0)")
        out = random_geometric_augment(img, cfg, np.random.default_rng(seed))
        expected = np.zeros((1, 8, 8))
        expected[0, 5, 4] = 1.0
        npt.assert_array_equal(out, expected)

    def test_rotation_keeps_shape_and_range(self):
        img = np.random.default_rng(9).uniform(0, 1, size=(1, 12, 12))
        cfg = AugmentationConfig(flip_axes=(), rotation_range_radians=0.2,
                                 translation_range_voxels=0)
        out = random_geometric_augment(img, cfg, np.random.default_rng(10))
        assert out.shape == img.shape
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12

    def test_3d_augment(self):
        img = np.random.default_rng(11).uniform(0, 1, size=(1, 7, 7, 7))
        cfg = AugmentationConfig(flip_axes=(0, 1, 2), rotation_range_radians=0.2,
                                 translation_range_voxels=2)
        out = random_geometric_augment(img, cfg, np.random.default_rng(12))
        assert out.shape == img.shape
        assert np.isfinite(out).all()

    def test_bad_flip_axis_rejected(self):
        with pytest.raises(ValueError, match="flip axis"):
            random_geometric_augment(np.zeros((1, 4, 4)),
                                     AugmentationConfig(flip_axes=(2,)),
                                     np.random.default_rng(0))


def ndimage_rotate(image, angles):
    """Reference rotation: one ``scipy.ndimage.affine_transform`` per channel."""
    from scipy import ndimage
    image = np.ascontiguousarray(image)
    m = augment._rotation_matrix(angles, image.ndim - 1).T
    center = (np.asarray(image.shape[1:], dtype=np.float64) - 1.0) / 2.0
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        ndimage.affine_transform(image[c], m, offset=center - m @ center, output=out[c],
                                 order=1, mode="constant", cval=0.0)
    return out


def ndimage_augment(image, config, rng):
    """Reference augmentation: flips, then the ndimage rotation, then the shift."""
    d = image.ndim - 1
    out = image
    for ax in config.flip_axes:
        if rng.random() < 0.5:
            out = np.flip(out, axis=ax + 1)
    if config.rotation_range_radians > 0.0:
        r = config.rotation_range_radians
        out = ndimage_rotate(out, [rng.uniform(-r, r) for _ in range(1 if d == 2 else 3)])
    if config.translation_range_voxels > 0:
        t = config.translation_range_voxels
        out = augment._integer_shift(out, [int(rng.integers(-t, t + 1)) for _ in range(d)])
    return out


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    npt.assert_array_equal(np.ascontiguousarray(actual).view(np.int64),
                           np.ascontiguousarray(expected).view(np.int64))


def rotation_sweep(d, seed):
    """Angles 0, every +-pi/2 combination, and random draws in +-0.3."""
    k = 1 if d == 2 else 3
    quarter = [0.0, math.pi / 2, -math.pi / 2]
    rng = np.random.default_rng(seed)
    return ([[0.0] * k] + [list(a) for a in itertools.product(quarter, repeat=k)][1:]
            + [list(rng.uniform(-0.3, 0.3, size=k)) for _ in range(6)])


class TestRotateMatchesNdimage:
    @pytest.mark.parametrize("extent", [(16, 16), (7, 12), (12, 7), (1, 5), (1, 1),
                                        (6, 6, 6), (4, 7, 5), (1, 3, 1), (1, 1, 1)])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_bit_identical_over_sweep(self, extent, channels):
        d = len(extent)
        rng = np.random.default_rng(sum(extent) * 10 + channels)
        image = rng.standard_normal((channels,) + extent)
        image[rng.random(image.shape) < 0.2] = -0.0
        flipped = np.flip(image, axis=tuple(range(1, d + 1)))
        assert not flipped.flags.c_contiguous or image.size == channels
        for angles in rotation_sweep(d, seed=d):
            for source in (image, flipped):
                assert_same_bits(augment._rotate(source, angles), ndimage_rotate(source, angles))

    @pytest.mark.parametrize("extent, flips", [((16, 16), (0, 1)), ((9, 6), (1,)),
                                               ((8, 8, 8), (0, 1, 2)), ((5, 7, 6), (2,))])
    def test_augment_matches_flip_ndimage_shift(self, extent, flips):
        cfg = AugmentationConfig(flip_axes=flips, rotation_range_radians=0.2,
                                 translation_range_voxels=2)
        image = np.random.default_rng(len(extent)).uniform(-0.5, 1.0, size=(1,) + extent)
        for seed in range(8):
            expected = ndimage_augment(image, cfg, np.random.default_rng(seed))
            actual = random_geometric_augment(image, cfg, np.random.default_rng(seed))
            assert_same_bits(actual, expected)


class TestMixup:
    def test_lambda_one_returns_first(self):
        x1 = np.random.default_rng(13).normal(size=(1, 4, 4))
        x2 = np.random.default_rng(14).normal(size=(1, 4, 4))
        x, y = mixup_pair(x1, 2.0, x2, 4.0, 1.0)
        npt.assert_array_equal(x, x1)
        assert y == 2.0

    def test_midpoint_label(self):
        x1, x2 = np.zeros((1, 2, 2)), np.ones((1, 2, 2))
        _, y = mixup_pair(x1, 2.0, x2, 4.0, 0.5)
        assert y == 3.0

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(15)
        x1, x2 = rng.normal(size=(1, 5, 5)), rng.normal(size=(1, 5, 5))
        lam = 0.3
        x, _ = mixup_pair(x1, 0.0, x2, 0.0, lam)
        expected = np.array([[lam * x1[0, i, j] + (1 - lam) * x2[0, i, j]
                              for j in range(5)] for i in range(5)])
        npt.assert_allclose(x[0], expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mixup_pair(np.zeros((1, 2, 2)), 0.0, np.zeros((1, 3, 3)), 0.0, 0.5)
