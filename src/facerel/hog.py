"""Histogram-of-oriented-gradients features for grayscale face crops.

One fixed recipe, the module constants: per-pixel gradients (central
differences inside, one-sided at the borders), gradient magnitude binned by
unsigned orientation over [0, pi) into ``BINS`` bins per ``CELL`` x ``CELL``
pixel cell, overlapping blocks of ``BLOCK`` x ``BLOCK`` cells normalized by
their L2 norm with the guard ``EPS``, all block vectors concatenated
row-major.  The bridge bank is built and queried with this recipe only, and
a bank file records it so that ``bridge.load_bank`` can refuse any other.

``compute_hog_batch`` runs the recipe over many images at once, in chunks of
as many images as fit ``ops.SCRATCH_BYTES`` of scratch, and
``compute_hog`` is its one-image case.  Every sum keeps the per-image order
(a cell's pixels in row-major order, a block's squares in one contiguous
row), so an image's bits do not depend on the stack around it.

The index tables of a geometry (each pixel's cell, each block's cells) are
built once by ``_tables``, keyed on image height and width, kept in an LRU
cache of 32 entries and marked read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import ops

CELL = 8        # cell side, pixels
BLOCK = 2       # block side, cells
BINS = 9        # unsigned orientation bins over [0, pi)
EPS = 1e-5      # block normalization guard


def _one_image(image) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got ndim={img.ndim}")
    return img[None]


def _checked_stack(images, first: int | None = None) -> np.ndarray:
    """``images`` as a finite (N, H, W) float64 stack with room for one block.

    ``first`` is the index of the stack's first image in the caller's batch,
    named in messages; None for a lone image.
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ValueError(f"expected an (N, H, W) stack of grayscale images, got ndim={imgs.ndim}")
    h, w = imgs.shape[1:]
    if min(h, w) < BLOCK * CELL:
        raise ValueError(
            f"image {h}x{w} is smaller than one {BLOCK}x{BLOCK}-cell block of {CELL}-pixel cells"
        )
    finite = np.isfinite(imgs)
    if not finite.all():
        bad = np.argwhere(~finite)
        which = "image" if first is None else f"image {first + bad[0, 0]}"
        raise ValueError(
            f"{which} has {len(bad)} non-finite pixel(s), first at row {bad[0, 1]}, "
            f"column {bad[0, 2]}"
        )
    return imgs


@lru_cache(maxsize=32)
def _tables(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only index tables of one image geometry.

    ``scatter`` (used rows, used columns) holds each pixel's ``cell * BINS``,
    the base its orientation bin is added to for ``bincount``.  ``gather``
    (by * bx, BLOCK * BLOCK * BINS) lists each block's (cell row, cell
    column, bin) entries of an image's flat histogram, row-major.
    """
    cy, cx = h // CELL, w // CELL
    rows = np.arange(cy * CELL) // CELL
    cols = np.arange(cx * CELL) // CELL
    scatter = (rows[:, None] * cx + cols) * BINS
    flat = np.arange(cy * cx * BINS).reshape(cy, cx, BINS)
    windows = np.lib.stride_tricks.sliding_window_view(flat, (BLOCK, BLOCK), axis=(0, 1))
    gather = windows.transpose(0, 1, 3, 4, 2).reshape(-1, BLOCK * BLOCK * BINS)
    scatter.setflags(write=False)
    gather.setflags(write=False)
    return scatter, gather


def _gradient(f: np.ndarray, axis: int) -> np.ndarray:
    """``np.gradient(f, axis=axis)``: central differences inside, one-sided at the ends."""
    f = np.moveaxis(f, axis, 0)
    g = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    g[1:-1] /= 2.0
    np.subtract(f[1], f[0], out=g[0])
    np.subtract(f[-1], f[-2], out=g[-1])
    return np.moveaxis(g, 0, axis)


def _histograms(imgs: np.ndarray) -> np.ndarray:
    """Per-cell histograms of a checked stack, shape (N, cy * cx * bins)."""
    n, h, w = imgs.shape
    scatter, _ = _tables(h, w)
    used_h, used_w = scatter.shape
    gy = _gradient(imgs, 1)[:, :used_h, :used_w]
    gx = _gradient(imgs, 2)[:, :used_h, :used_w]
    mag = np.hypot(gx, gy)
    # unsigned orientation in [0, pi]: np.mod(theta, pi) spelled out for
    # arctan2's range, the same bits up to the sign of a zero at a third of
    # the cost (np.mod is fmod plus this fold)
    theta = np.arctan2(gy, gx)
    theta[theta == np.pi] = 0.0
    np.add(theta, np.pi, out=theta, where=theta < 0)
    theta /= np.pi / BINS
    idx = np.minimum(theta.astype(np.int64), BINS - 1)

    # One bincount over (image, cell, bin) indices adds each cell's pixels in
    # row-major order, as a per-image scatter would.
    length = (h // CELL) * (w // CELL) * BINS
    idx += scatter
    idx += np.arange(0, n * length, length)[:, None, None]
    return np.bincount(idx.ravel(), weights=mag.ravel(), minlength=n * length).reshape(n, length)


def compute_hog_batch(images) -> np.ndarray:
    """The descriptor of every image, shape (N, D).

    ``images`` is an (N, H, W) array or a sequence of N equal-size 2-D
    images.  A sequence is stacked one chunk at a time, so a large batch is
    never copied whole.
    """
    n = len(images)
    imgs = _checked_stack(images[:1], None if n == 1 else 0)
    h, w = imgs.shape[1:]
    _, gather = _tables(h, w)
    out = np.empty((n, gather.size))
    # about ten pixel-sized float64/int64 temporaries live at once per image
    for lo, hi in ops.sample_blocks(n, 10 * h * w * out.itemsize):
        if n > 1:  # a lone image was checked above
            for k, img in enumerate(images[lo:hi], lo):
                if np.shape(img) != (h, w):
                    raise ValueError(f"image {k} has shape {np.shape(img)}, not {(h, w)} like image 0")
            imgs = _checked_stack(images[lo:hi], lo)
        # each block's (cell row, cell column, bin) values as one contiguous
        # row; np.take writes them C-ordered, where fancy indexing would not
        blocks = np.take(_histograms(imgs), gather, axis=1)
        norm = np.sqrt(np.sum(blocks * blocks, axis=-1, keepdims=True) + EPS * EPS)
        np.divide(blocks, norm, out=out[lo:hi].reshape(blocks.shape))
    return out


def compute_hog(image: np.ndarray) -> np.ndarray:
    """The full descriptor of one image: block-normalized cell histograms, concatenated."""
    return compute_hog_batch(_one_image(image))[0]
