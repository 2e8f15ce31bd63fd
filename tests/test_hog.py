"""HOG descriptor behaviour."""

import numpy as np
import pytest

from facerel import ops
from facerel.hog import BINS, BLOCK, CELL, EPS, compute_hog, compute_hog_batch

from oracles import naive_hog


def test_length_formula():
    # 48x48 at cell 8 -> 6x6 cells -> 5x5 blocks of 2x2x9
    assert (CELL, BLOCK, BINS) == (8, 2, 9)
    assert compute_hog(np.zeros((48, 48))).shape == (5 * 5 * 2 * 2 * 9,)
    assert compute_hog(np.zeros((16, 40))).shape == (1 * 4 * 2 * 2 * 9,)


def test_constant_image_is_all_zero():
    h = compute_hog(np.full((32, 32), 0.7))
    np.testing.assert_array_equal(h, np.zeros_like(h))


def test_vertical_step_edge_concentrates_in_first_bin():
    img = np.zeros((32, 32))
    img[:, 16:] = 1.0  # gradient along x only -> unsigned orientation 0
    h = compute_hog(img)
    mass_by_bin = h.reshape(-1, BINS).sum(axis=0)
    assert mass_by_bin[0] > 0
    assert np.all(mass_by_bin[1:] == 0.0)


def test_horizontal_edge_lands_in_vertical_bin():
    img = np.zeros((32, 32))
    img[16:, :] = 1.0  # gradient along y -> orientation pi/2 -> middle bin
    h = compute_hog(img)
    mass_by_bin = h.reshape(-1, BINS).sum(axis=0)
    assert np.argmax(mass_by_bin) == BINS // 2


def test_intensity_scaling_cancels():
    rng = np.random.default_rng(0)
    img = rng.random((48, 48))
    h1 = compute_hog(img)
    h2 = compute_hog(2.0 * img)
    denom = np.maximum(np.abs(h1), 1e-3)
    assert np.max(np.abs(h1 - h2) / denom) < 1e-6


def test_deterministic():
    rng = np.random.default_rng(1)
    img = rng.random((48, 48))
    np.testing.assert_array_equal(compute_hog(img), compute_hog(img))


def test_rejects_image_smaller_than_block():
    # a side under 16 pixels holds fewer than two 8px cells
    for shape in ((12, 12), (15, 48), (48, 15)):
        with pytest.raises(ValueError, match="smaller than one"):
            compute_hog(np.zeros(shape))


def test_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        compute_hog(np.zeros((3, 32, 32)))


def test_rejects_all_nan_image():
    with pytest.raises(ValueError, match="2304 non-finite pixel"):
        compute_hog(np.full((48, 48), np.nan))


def test_rejects_single_inf_pixel():
    img = np.zeros((48, 48))
    img[3, 7] = np.inf
    with pytest.raises(ValueError, match="1 non-finite pixel.*row 3, column 7"):
        compute_hog(img)


def test_batch_spanning_chunks_matches_singles_and_naive():
    imgs = np.random.default_rng(2).random((24, 48, 48))
    assert imgs.nbytes * 10 > 2 * ops.SCRATCH_BYTES  # several chunks
    batched = compute_hog_batch(imgs)
    np.testing.assert_array_equal(batched, np.stack([compute_hog(im) for im in imgs]))
    for i in (0, 11, 23):
        np.testing.assert_array_equal(batched[i], naive_hog(imgs[i], CELL, BLOCK, BINS, EPS))


def test_batch_names_the_non_finite_image():
    imgs = np.zeros((5, 32, 32))
    imgs[3, 4, 9] = np.nan
    with pytest.raises(ValueError, match="image 3 has 1 non-finite pixel.*row 4, column 9"):
        compute_hog_batch(imgs)


def test_batch_rejects_single_image():
    with pytest.raises(ValueError, match=r"\(N, H, W\) stack"):
        compute_hog_batch(np.zeros((32, 32)))


def test_batch_rejects_images_of_another_size():
    imgs = [np.zeros((48, 48))] * 12 + [np.zeros((40, 48))]
    with pytest.raises(ValueError, match=r"image 12 has shape \(40, 48\), not \(48, 48\)"):
        compute_hog_batch(imgs)


_X = np.arange(32.0)


@pytest.mark.parametrize(
    "img",
    [
        np.tile(-_X, (32, 1)),                           # gx = -1, gy = +0: arctan2 is pi
        np.add.outer(-1e-300 * _X, _X),                  # column 0: arctan2 is -1e-300
        -np.add.outer(-1e-300 * _X, _X),                 # column 0: pi - 1e-300 rounds to pi
        np.add.outer(_X, -_X) + np.random.default_rng(3).random((32, 32)) * 1e-12,
    ],
    ids=["exact-pi", "tiny-negative", "rounds-to-pi", "anti-diagonal"],
)
def test_orientation_fold_at_the_pi_seam_matches_naive(img):
    np.testing.assert_array_equal(compute_hog(img), naive_hog(img, CELL, BLOCK, BINS, EPS))


def test_tables_follow_geometry_and_config(monkeypatch):
    # tables keyed on too few fields would hand one geometry another's
    # indices; 50 x 37 is 37 x 50 transposed, and 17 x 50 has the cell grid
    # of 16 x 50
    rng = np.random.default_rng(8)
    for _ in range(2):
        for h, w in ((48, 48), (37, 50), (50, 37), (17, 50), (16, 50)):
            monkeypatch.setattr(ops, "SCRATCH_BYTES", 2 * 10 * h * w * 8)  # two images a chunk
            imgs = rng.random((5, h, w))
            want = np.stack([naive_hog(im, CELL, BLOCK, BINS, EPS) for im in imgs])
            np.testing.assert_array_equal(compute_hog(imgs[0]), want[0])
            np.testing.assert_array_equal(compute_hog_batch(imgs), want)
