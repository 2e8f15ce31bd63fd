"""Histogram-of-oriented-gradients features for grayscale face crops.

Standard recipe: per-pixel gradients (central differences inside, one-sided
at the borders), gradient magnitude binned by unsigned orientation over
[0, pi) into per-cell histograms, overlapping blocks of cells normalized by
their L2 norm with an epsilon guard, all block vectors concatenated row-major.

``compute_hog_batch`` runs the recipe over many images at once, in chunks of
as many images as fit ``ops.SCRATCH_BYTES`` of scratch, and
``compute_hog`` is its one-image case.  Every sum keeps the per-image order
(a cell's pixels in row-major order, a block's squares in one contiguous
row), so an image's bits do not depend on the stack around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops


@dataclass(frozen=True)
class HogConfig:
    cell: int = 8         # cell side, pixels
    block: int = 2        # block side, cells
    bins: int = 9         # unsigned orientation bins over [0, pi)
    eps: float = 1e-5     # block normalization guard

    def __post_init__(self):
        if self.cell < 1 or self.block < 1 or self.bins < 1:
            raise ValueError("cell, block and bins must all be >= 1")
        if self.eps <= 0:
            raise ValueError("normalization epsilon must be positive")

    def to_dict(self) -> dict:
        return {"cell": self.cell, "block": self.block, "bins": self.bins, "eps": self.eps}

    @staticmethod
    def from_dict(d: dict) -> "HogConfig":
        return HogConfig(int(d["cell"]), int(d["block"]), int(d["bins"]), float(d["eps"]))

    def length_for(self, height: int, width: int) -> int:
        cy, cx = height // self.cell, width // self.cell
        by, bx = cy - self.block + 1, cx - self.block + 1
        if by < 1 or bx < 1:
            raise ValueError(
                f"image {height}x{width} is smaller than one {self.block}x{self.block}-cell block"
            )
        return by * bx * self.block * self.block * self.bins


def _one_image(image) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got ndim={img.ndim}")
    return img[None]


def _checked_stack(images, cfg: HogConfig, first: int | None = None) -> np.ndarray:
    """``images`` as a finite (N, H, W) float64 stack with room for one block.

    ``first`` is the index of the stack's first image in the caller's batch,
    named in messages; None for a lone image.
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ValueError(f"expected an (N, H, W) stack of grayscale images, got ndim={imgs.ndim}")
    cfg.length_for(*imgs.shape[1:])
    finite = np.isfinite(imgs)
    if not finite.all():
        bad = np.argwhere(~finite)
        which = "image" if first is None else f"image {first + bad[0, 0]}"
        raise ValueError(
            f"{which} has {len(bad)} non-finite pixel(s), first at row {bad[0, 1]}, "
            f"column {bad[0, 2]}"
        )
    return imgs


def _histograms(imgs: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """Per-cell histograms of a checked stack, shape (N, cy, cx, bins)."""
    n, h, w = imgs.shape
    cy, cx = h // cfg.cell, w // cfg.cell
    gy, gx = np.gradient(imgs, axis=(1, 2))
    mag = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)  # unsigned orientation in [0, pi)
    bin_idx = np.minimum((theta / (np.pi / cfg.bins)).astype(np.int64), cfg.bins - 1)

    # One bincount over (image, cell, bin) indices adds each cell's pixels in
    # row-major order, as a per-image scatter would.
    used_h, used_w = cy * cfg.cell, cx * cfg.cell
    cell = (np.arange(used_h) // cfg.cell)[:, None] * cx + np.arange(used_w) // cfg.cell
    idx = (np.arange(n)[:, None, None] * (cy * cx) + cell) * cfg.bins
    idx += bin_idx[:, :used_h, :used_w]
    hist = np.bincount(
        idx.ravel(), weights=mag[:, :used_h, :used_w].ravel(), minlength=n * cy * cx * cfg.bins
    )
    return hist.reshape(n, cy, cx, cfg.bins)


def cell_histograms(image: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """Unnormalized per-cell orientation histograms, shape (cy, cx, bins)."""
    return _histograms(_checked_stack(_one_image(image), cfg), cfg)[0]


def compute_hog_batch(images, cfg: HogConfig | None = None) -> np.ndarray:
    """The descriptor of every image, shape (N, D).

    ``images`` is an (N, H, W) array or a sequence of N equal-size 2-D
    images.  A sequence is stacked one chunk at a time, so a large batch is
    never copied whole.
    """
    cfg = cfg or HogConfig()
    n = len(images)
    h, w = _checked_stack(images[:1], cfg).shape[1:]
    b = cfg.block
    by, bx = h // cfg.cell - b + 1, w // cfg.cell - b + 1
    out = np.empty((n, cfg.length_for(h, w)))
    # about ten pixel-sized float64/int64 temporaries live at once per image
    for lo, hi in ops.sample_blocks(n, 10 * h * w * out.itemsize):
        for k, img in enumerate(images[lo:hi], lo):
            if np.shape(img) != (h, w):
                raise ValueError(f"image {k} has shape {np.shape(img)}, not {(h, w)} like image 0")
        imgs = _checked_stack(images[lo:hi], cfg, None if n == 1 else lo)
        hist = _histograms(imgs, cfg)
        # each block's (cell row, cell column, bin) values as one contiguous row
        windows = np.lib.stride_tricks.sliding_window_view(hist, (b, b), axis=(1, 2))
        blocks = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
        blocks = blocks.reshape(hi - lo, by, bx, b * b * cfg.bins)
        norm = np.sqrt(np.sum(blocks * blocks, axis=-1, keepdims=True) + cfg.eps * cfg.eps)
        np.divide(blocks, norm, out=out[lo:hi].reshape(blocks.shape))
    return out


def compute_hog(image: np.ndarray, cfg: HogConfig | None = None) -> np.ndarray:
    """The full descriptor of one image: block-normalized cell histograms, concatenated."""
    return compute_hog_batch(_one_image(image), cfg)[0]
