"""Histogram-of-oriented-gradients features for grayscale face crops.

Standard recipe: per-pixel gradients (central differences inside, one-sided
at the borders), gradient magnitude binned by unsigned orientation over
[0, pi) into per-cell histograms, overlapping blocks of cells normalized by
their L2 norm with an epsilon guard, all block vectors concatenated row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def cell_histograms(image: np.ndarray, cfg: HogConfig) -> np.ndarray:
    """Unnormalized per-cell orientation histograms, shape (cy, cx, bins)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got ndim={img.ndim}")
    h, w = img.shape
    cy, cx = h // cfg.cell, w // cfg.cell
    if cy < cfg.block or cx < cfg.block:
        raise ValueError(
            f"image {h}x{w} is smaller than one {cfg.block}x{cfg.block}-cell block"
        )

    if not np.isfinite(img).all():
        bad = np.argwhere(~np.isfinite(img))
        raise ValueError(
            f"image has {len(bad)} non-finite pixel(s), first at row {bad[0, 0]}, "
            f"column {bad[0, 1]}"
        )

    gy, gx = np.gradient(img)
    mag = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)  # unsigned orientation in [0, pi)
    bin_idx = np.minimum((theta / (np.pi / cfg.bins)).astype(np.int64), cfg.bins - 1)

    hist = np.zeros((cy, cx, cfg.bins))
    used_h, used_w = cy * cfg.cell, cx * cfg.cell
    cell_y = np.arange(used_h) // cfg.cell
    cell_x = np.arange(used_w) // cfg.cell
    np.add.at(
        hist,
        (
            cell_y[:, None].repeat(used_w, 1),
            cell_x[None, :].repeat(used_h, 0),
            bin_idx[:used_h, :used_w],
        ),
        mag[:used_h, :used_w],
    )
    return hist


def compute_hog(image: np.ndarray, cfg: HogConfig | None = None) -> np.ndarray:
    """The full descriptor: block-normalized cell histograms, concatenated."""
    cfg = cfg or HogConfig()
    hist = cell_histograms(image, cfg)
    cy, cx, _ = hist.shape
    blocks = []
    for by in range(cy - cfg.block + 1):
        for bx in range(cx - cfg.block + 1):
            v = hist[by : by + cfg.block, bx : bx + cfg.block].reshape(-1)
            blocks.append(v / np.sqrt(np.sum(v * v) + cfg.eps * cfg.eps))
    return np.concatenate(blocks)
