"""HOG descriptor behaviour."""

import numpy as np
import pytest

from facerel import ops
from facerel.hog import HogConfig, cell_histograms, compute_hog, compute_hog_batch

from oracles import naive_hog

CFG = HogConfig(cell=8, block=2, bins=9, eps=1e-5)


def test_length_formula():
    # 48x48 at cell 8 -> 6x6 cells -> 5x5 blocks of 2x2x9
    assert CFG.length_for(48, 48) == 5 * 5 * 2 * 2 * 9
    assert compute_hog(np.zeros((48, 48)), CFG).shape == (900,)


def test_constant_image_is_all_zero():
    h = compute_hog(np.full((32, 32), 0.7), CFG)
    np.testing.assert_array_equal(h, np.zeros_like(h))


def test_vertical_step_edge_concentrates_in_first_bin():
    img = np.zeros((32, 32))
    img[:, 16:] = 1.0  # gradient along x only -> unsigned orientation 0
    h = compute_hog(img, CFG)
    mass_by_bin = h.reshape(-1, CFG.bins).sum(axis=0)
    assert mass_by_bin[0] > 0
    assert np.all(mass_by_bin[1:] == 0.0)


def test_horizontal_edge_lands_in_vertical_bin():
    img = np.zeros((32, 32))
    img[16:, :] = 1.0  # gradient along y -> orientation pi/2 -> middle bin
    h = compute_hog(img, CFG)
    mass_by_bin = h.reshape(-1, CFG.bins).sum(axis=0)
    assert np.argmax(mass_by_bin) == CFG.bins // 2


def test_intensity_scaling_cancels():
    rng = np.random.default_rng(0)
    img = rng.random((48, 48))
    h1 = compute_hog(img, CFG)
    h2 = compute_hog(2.0 * img, CFG)
    denom = np.maximum(np.abs(h1), 1e-3)
    assert np.max(np.abs(h1 - h2) / denom) < 1e-6


def test_deterministic():
    rng = np.random.default_rng(1)
    img = rng.random((48, 48))
    np.testing.assert_array_equal(compute_hog(img, CFG), compute_hog(img, CFG))


def test_rejects_image_smaller_than_block():
    with pytest.raises(ValueError, match="smaller than one"):
        compute_hog(np.zeros((12, 12)), CFG)  # only one 8px cell per axis


def test_cell_histograms_shape():
    hist = cell_histograms(np.zeros((40, 48)), CFG)
    assert hist.shape == (5, 6, 9)


def test_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        compute_hog(np.zeros((3, 32, 32)), CFG)


def test_rejects_all_nan_image():
    with pytest.raises(ValueError, match="2304 non-finite pixel"):
        cell_histograms(np.full((48, 48), np.nan), CFG)


def test_rejects_single_inf_pixel():
    img = np.zeros((48, 48))
    img[3, 7] = np.inf
    with pytest.raises(ValueError, match="1 non-finite pixel.*row 3, column 7"):
        compute_hog(img, CFG)


def test_batch_spanning_chunks_matches_singles_and_naive():
    imgs = np.random.default_rng(2).random((24, 48, 48))
    assert imgs.nbytes * 10 > 2 * ops.SCRATCH_BYTES  # several chunks
    batched = compute_hog_batch(imgs, CFG)
    np.testing.assert_array_equal(batched, np.stack([compute_hog(im, CFG) for im in imgs]))
    for i in (0, 11, 23):
        np.testing.assert_array_equal(batched[i], naive_hog(imgs[i], 8, 2, 9, 1e-5))


def test_batch_names_the_non_finite_image():
    imgs = np.zeros((5, 32, 32))
    imgs[3, 4, 9] = np.nan
    with pytest.raises(ValueError, match="image 3 has 1 non-finite pixel.*row 4, column 9"):
        compute_hog_batch(imgs, CFG)


def test_batch_rejects_single_image():
    with pytest.raises(ValueError, match=r"\(N, H, W\) stack"):
        compute_hog_batch(np.zeros((32, 32)), CFG)


def test_batch_rejects_images_of_another_size():
    imgs = [np.zeros((48, 48))] * 12 + [np.zeros((40, 48))]
    with pytest.raises(ValueError, match=r"image 12 has shape \(40, 48\), not \(48, 48\)"):
        compute_hog_batch(imgs, CFG)
