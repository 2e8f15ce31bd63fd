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

The index tables of a geometry (each pixel's cell, each block's cells) are
built once by ``_tables``, keyed on image height, image width and the
``HogConfig``, kept in an LRU cache of 32 entries and marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import ops


@dataclass(frozen=True)
class HogConfig:
    cell: int = 8         # cell side, pixels
    block: int = 2        # block side, cells
    bins: int = 9         # unsigned orientation bins over [0, pi)
    eps: float = 1e-5     # block normalization guard

    def __post_init__(self):
        for name in ("cell", "block", "bins"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"HogConfig {name} must be an int, got {v!r}")
            if v < 1:
                raise ValueError(f"HogConfig {name} must be >= 1, got {v}")
        eps = self.eps
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0 < eps < math.inf:
            raise ValueError(f"HogConfig eps must be a finite number > 0, got {eps!r}")

    def to_dict(self) -> dict:
        return {"cell": self.cell, "block": self.block, "bins": self.bins, "eps": self.eps}

    @staticmethod
    def from_dict(d: dict) -> "HogConfig":
        if not isinstance(d, dict):
            raise ValueError(f"HogConfig fields must be a dict, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(HogConfig)})
        if unknown:
            raise ValueError(f"unknown HogConfig field(s) {unknown}")
        return HogConfig(d["cell"], d["block"], d["bins"], d["eps"])

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
    h, w = imgs.shape[1:]
    cfg.length_for(h, w)
    if h < 2 or w < 2:
        raise ValueError(f"image {h}x{w} needs at least 2 pixels a side for its gradients")
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
def _tables(h: int, w: int, cfg: HogConfig) -> tuple[np.ndarray, np.ndarray]:
    """The read-only index tables of one image geometry.

    ``scatter`` (used rows, used columns) holds each pixel's ``cell * bins``,
    the base its orientation bin is added to for ``bincount``.  ``gather``
    (by * bx, block * block * bins) lists each block's (cell row, cell
    column, bin) entries of an image's flat histogram, row-major.
    """
    cy, cx, b = h // cfg.cell, w // cfg.cell, cfg.block
    rows = np.arange(cy * cfg.cell) // cfg.cell
    cols = np.arange(cx * cfg.cell) // cfg.cell
    scatter = (rows[:, None] * cx + cols) * cfg.bins
    flat = np.arange(cy * cx * cfg.bins).reshape(cy, cx, cfg.bins)
    windows = np.lib.stride_tricks.sliding_window_view(flat, (b, b), axis=(0, 1))
    gather = windows.transpose(0, 1, 3, 4, 2).reshape(-1, b * b * cfg.bins)
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


def _histograms(imgs: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """Per-cell histograms of a checked stack, shape (N, cy * cx * bins)."""
    n, h, w = imgs.shape
    scatter, _ = _tables(h, w, cfg)
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
    theta /= np.pi / cfg.bins
    idx = np.minimum(theta.astype(np.int64), cfg.bins - 1)

    # One bincount over (image, cell, bin) indices adds each cell's pixels in
    # row-major order, as a per-image scatter would.
    length = (h // cfg.cell) * (w // cfg.cell) * cfg.bins
    idx += scatter
    idx += np.arange(0, n * length, length)[:, None, None]
    return np.bincount(idx.ravel(), weights=mag.ravel(), minlength=n * length).reshape(n, length)


def compute_hog_batch(images, cfg: HogConfig | None = None) -> np.ndarray:
    """The descriptor of every image, shape (N, D).

    ``images`` is an (N, H, W) array or a sequence of N equal-size 2-D
    images.  A sequence is stacked one chunk at a time, so a large batch is
    never copied whole.
    """
    cfg = cfg or HogConfig()
    n = len(images)
    imgs = _checked_stack(images[:1], cfg, None if n == 1 else 0)
    h, w = imgs.shape[1:]
    _, gather = _tables(h, w, cfg)
    out = np.empty((n, gather.size))
    # about ten pixel-sized float64/int64 temporaries live at once per image
    for lo, hi in ops.sample_blocks(n, 10 * h * w * out.itemsize):
        if n > 1:  # a lone image was checked above
            for k, img in enumerate(images[lo:hi], lo):
                if np.shape(img) != (h, w):
                    raise ValueError(f"image {k} has shape {np.shape(img)}, not {(h, w)} like image 0")
            imgs = _checked_stack(images[lo:hi], cfg, lo)
        # each block's (cell row, cell column, bin) values as one contiguous
        # row; np.take writes them C-ordered, where fancy indexing would not
        blocks = np.take(_histograms(imgs, cfg), gather, axis=1)
        norm = np.sqrt(np.sum(blocks * blocks, axis=-1, keepdims=True) + cfg.eps * cfg.eps)
        np.divide(blocks, norm, out=out[lo:hi].reshape(blocks.shape))
    return out


def compute_hog(image: np.ndarray, cfg: HogConfig | None = None) -> np.ndarray:
    """The full descriptor of one image: block-normalized cell histograms, concatenated."""
    return compute_hog_batch(_one_image(image), cfg)[0]
