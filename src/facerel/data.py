"""Dataset vocabularies, sample types, manifest I/O, batching, spatial cues.

Two corpus kinds share one line-delimited manifest format, selected by the
header line ``#facerel-manifest v1 <attributes|pairs> <split>``:

* attribute rows: ``<image-path> <landmark-path> <dataset-id> <20 labels>``
  where each label is ``0``, ``1`` or ``?`` for missing.  A missing label is
  recorded in the sample's mask and never defaulted.
* pair rows: ``<image-path> <left-box> <right-box> <8 labels>`` with a box
  written ``x,y,w,h``: x and y in image pixels (upper-left corner), w and h
  normalized by image width and height respectively.

Paths are relative to the manifest's directory; images and landmarks are
``.npy`` arrays, (H, W) grayscale in [0, 1] and (10, 2) box-normalized points
in the one fixed layout of ``bridge.POINT_NAMES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bridge import check_landmarks

MANIFEST_VERSION = 1

ATTRIBUTE_NAMES = (
    "gender",
    "left_profile", "left", "frontal", "right", "right_profile",
    "angry", "disgust", "fear", "happy", "sad", "surprise", "neutral",
    "smiling", "mouth_opened",
    "young", "goatee", "no_beard", "sideburns", "five_oclock_shadow",
)

ATTRIBUTE_GROUPS = {
    "gender": (0,),
    "pose": (1, 2, 3, 4, 5),
    "expression": (6, 7, 8, 9, 10, 11, 12, 13, 14),
    "age": (15, 16, 17, 18, 19),
}

RELATION_NAMES = (
    "dominant", "competitive", "trusting", "warm",
    "friendly", "attached", "demonstrative", "assured",
)

N_ATTRIBUTES = len(ATTRIBUTE_NAMES)
N_RELATIONS = len(RELATION_NAMES)
assert sum(len(v) for v in ATTRIBUTE_GROUPS.values()) == N_ATTRIBUTES == 20
assert N_RELATIONS == 8


@dataclass(frozen=True)
class Box:
    """Face bounding box: corner in pixels, extent as image fractions."""

    x: int
    y: int
    w: float
    h: float

    def pixel_extent(self, image_w: int, image_h: int) -> tuple[int, int]:
        return int(round(self.w * image_w)), int(round(self.h * image_h))

    def encode(self) -> str:
        return f"{self.x},{self.y},{self.w!r},{self.h!r}"

    @staticmethod
    def decode(text: str) -> "Box":
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"box must be x,y,w,h, got {text!r}")
        box = Box(int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]))
        if not np.isfinite([box.w, box.h]).all():
            raise ValueError(f"box extent must be finite, got {text!r}")
        return box


@dataclass
class Sample:
    """One annotated face from an attribute corpus."""

    image: np.ndarray          # (H, W) grayscale in [0, 1]
    landmarks: np.ndarray      # (10, 2) box-normalized, in bridge.POINT_NAMES order
    labels: np.ndarray         # (20,) in {0, 1}; meaningful only where mask
    mask: np.ndarray           # (20,) bool, True = label present
    dataset_id: str


@dataclass
class PairSample:
    """One face pair with relation labels and scene geometry."""

    left_face: np.ndarray      # cropped + resized to the trunk geometry
    right_face: np.ndarray
    left_box: Box
    right_box: Box
    image_dims: tuple[int, int]   # (width, height) of the source image
    relations: np.ndarray         # (8,) in {0, 1}


# records: what the manifest stores, decoupled from array loading -----------


@dataclass(frozen=True)
class AttrRecord:
    image_path: str
    landmark_path: str
    dataset_id: str
    labels: tuple[float, ...]    # 20 entries; value ignored where not present
    mask: tuple[bool, ...]


@dataclass(frozen=True)
class PairRecord:
    image_path: str
    left_box: Box
    right_box: Box
    relations: tuple[int, ...]


def _header_line(kind: str, split: str) -> str:
    return f"#facerel-manifest v{MANIFEST_VERSION} {kind} {split}"


def write_manifest(path, kind: str, split: str, records) -> None:
    if kind not in ("attributes", "pairs"):
        raise ValueError(f"unknown manifest kind {kind!r}")
    lines = [_header_line(kind, split)]
    for rec in records:
        if kind == "attributes":
            labels = " ".join(
                ("1" if l == 1 else "0") if m else "?"
                for l, m in zip(rec.labels, rec.mask)
            )
            lines.append(f"{rec.image_path} {rec.landmark_path} {rec.dataset_id} {labels}")
        else:
            labels = " ".join(str(int(r)) for r in rec.relations)
            lines.append(
                f"{rec.image_path} {rec.left_box.encode()} {rec.right_box.encode()} {labels}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> tuple[str, str, list]:
    """Parse a manifest into (kind, split, records); errors carry line numbers."""
    kind, split, numbered = _read_numbered(Path(path))
    return kind, split, [rec for _, rec in numbered]


def _read_numbered(path: Path) -> tuple[str, str, list[tuple[int, AttrRecord | PairRecord]]]:
    """``read_manifest`` with each record paired with its line number."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#facerel-manifest"):
        raise ValueError(f"{path}:1: missing manifest header")
    head = lines[0].split()
    if len(head) != 4 or head[1] != f"v{MANIFEST_VERSION}":
        raise ValueError(f"{path}:1: unsupported manifest header {lines[0]!r}")
    kind, split = head[2], head[3]
    if kind not in ("attributes", "pairs"):
        raise ValueError(f"{path}:1: unknown manifest kind {kind!r}")

    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if kind == "attributes":
                if len(parts) != 3 + N_ATTRIBUTES:
                    raise ValueError(
                        f"expected {3 + N_ATTRIBUTES} fields, got {len(parts)}"
                    )
                labels, mask = [], []
                for tok in parts[3:]:
                    if tok == "?":
                        labels.append(0.0)
                        mask.append(False)
                    elif tok in ("0", "1"):
                        labels.append(float(tok))
                        mask.append(True)
                    else:
                        raise ValueError(f"label must be 0, 1 or ?, got {tok!r}")
                records.append(
                    (ln, AttrRecord(parts[0], parts[1], parts[2], tuple(labels), tuple(mask)))
                )
            else:
                if len(parts) != 3 + N_RELATIONS:
                    raise ValueError(
                        f"expected {3 + N_RELATIONS} fields, got {len(parts)}"
                    )
                rel = []
                for tok in parts[3:]:
                    if tok not in ("0", "1"):
                        raise ValueError(f"relation label must be 0 or 1, got {tok!r}")
                    rel.append(int(tok))
                records.append(
                    (ln, PairRecord(parts[0], Box.decode(parts[1]), Box.decode(parts[2]),
                                    tuple(rel)))
                )
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: {e}") from None
    return kind, split, records


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize of a 2-D array."""
    h, w = img.shape
    ys = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1)
    return img[ys][:, xs]


def _load_array(base: Path, rel: str, where: str) -> np.ndarray:
    p = base / rel
    if not p.exists():
        raise ValueError(f"{where}: referenced file {rel!r} does not exist")
    try:
        return np.load(p)
    except (OSError, EOFError, ValueError) as e:
        raise ValueError(f"{where}: referenced file {rel!r} cannot be read: {e}") from e


def _load_image(base: Path, rel: str, where: str) -> np.ndarray:
    """A referenced (H, W) grayscale image, checked to be finite and in [0, 1]."""
    img = np.asarray(_load_array(base, rel, where), dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"{where}: image {rel!r} has shape {img.shape}, not (H, W)")
    if not np.isfinite(img).all():
        raise ValueError(f"{where}: image {rel!r} has non-finite pixels")
    if np.any((img < 0.0) | (img > 1.0)):
        raise ValueError(
            f"{where}: image {rel!r} has pixels outside [0, 1] "
            f"(range {img.min()!r}..{img.max()!r})"
        )
    return img


def _crop_box(img: np.ndarray, box: Box, where: str) -> np.ndarray:
    h, w = img.shape
    wp, hp = box.pixel_extent(w, h)
    if box.w <= 0 or box.h <= 0 or wp < 1 or hp < 1:
        raise ValueError(f"{where}: zero-area box {box}")
    if box.x < 0 or box.y < 0 or box.x + wp > w or box.y + hp > h:
        raise ValueError(f"{where}: box {box} falls outside the {w}x{h} image")
    return img[box.y : box.y + hp, box.x : box.x + wp]


def pair_sample(image: np.ndarray, box_a: Box, box_b: Box, relations,
                face_size: tuple[int, int], where: str) -> PairSample:
    """The face pair of ``image``: the box with the smaller image-space x is
    the left face; each face is cropped, checked to lie inside the image, and
    resized to ``face_size`` (height, width).  ``where`` prefixes errors."""
    if box_b.x < box_a.x:
        box_a, box_b = box_b, box_a
    h, w = image.shape
    fh, fw = face_size
    return PairSample(
        left_face=resize_nearest(_crop_box(image, box_a, where), fh, fw),
        right_face=resize_nearest(_crop_box(image, box_b, where), fh, fw),
        left_box=box_a,
        right_box=box_b,
        image_dims=(w, h),
        relations=np.array(relations, dtype=np.float64),
    )


def load_manifest(path, face_size: tuple[int, int] = (48, 48)):
    """Load every referenced array and validate it; returns Samples or PairSamples.

    Every face comes out ``face_size`` (height, width): an attribute image
    must already be that size, and pair faces are cut out and resized to it
    by ``pair_sample``.  Landmarks must be in the fixed layout (see
    ``bridge.check_landmarks``).
    """
    path = Path(path)
    kind, split, records = _read_numbered(path)
    base = path.parent
    out = []
    for ln, rec in records:
        where = f"{path}:{ln}"
        if kind == "attributes":
            img = _load_image(base, rec.image_path, where)
            if img.shape != tuple(face_size):
                raise ValueError(
                    f"{where}: image {rec.image_path!r} is {img.shape[0]}x{img.shape[1]}, "
                    f"not the face size {face_size[0]}x{face_size[1]}"
                )
            lm = _load_array(base, rec.landmark_path, where)
            try:
                lm = check_landmarks(lm)
            except ValueError as e:
                raise ValueError(f"{where}: {rec.landmark_path!r}: {e}") from None
            out.append(
                Sample(
                    image=img,
                    landmarks=lm,
                    labels=np.array(rec.labels),
                    mask=np.array(rec.mask, dtype=bool),
                    dataset_id=rec.dataset_id,
                )
            )
        else:
            img = _load_image(base, rec.image_path, where)
            out.append(pair_sample(img, rec.left_box, rec.right_box, rec.relations,
                                   face_size, where))
    return kind, split, out


def batch_iter(dataset, batch_size: int, seed: int, epoch: int):
    """Seeded permutation per (seed, epoch); every sample exactly once.

    The final short batch is emitted.  Identical (seed, epoch) pairs yield
    identical order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        yield [dataset[int(i)] for i in order[start : start + batch_size]]


def spatial_cues(pair: PairSample) -> np.ndarray:
    """The 11 geometry features of a pair.

    Corner coordinates are normalized by the image dimensions; widths and
    heights are already stored as image fractions.  Layout:
    [xl, yl, wl, hl, xr, yr, wr, hr, (xl-xr)/wl, (yl-yr)/hl, wl/wr].
    """
    w_img, h_img = pair.image_dims
    lb, rb = pair.left_box, pair.right_box
    for name, box in (("left", lb), ("right", rb)):
        if box.w <= 0 or box.h <= 0:
            raise ValueError(f"zero-area {name} box {box}")
    xl, yl = lb.x / w_img, lb.y / h_img
    xr, yr = rb.x / w_img, rb.y / h_img
    return np.array(
        [
            xl, yl, lb.w, lb.h,
            xr, yr, rb.w, rb.h,
            (xl - xr) / lb.w,
            (yl - yr) / lb.h,
            lb.w / rb.w,
        ]
    )


N_SPATIAL_CUES = 11


def attr_batch_arrays(samples: list[Sample]):
    """Stack a batch of attribute samples into network-ready arrays."""
    images = np.stack([s.image for s in samples])[:, None, :, :]  # (N,1,H,W)
    labels = np.stack([s.labels for s in samples])
    mask = np.stack([s.mask for s in samples])
    return images, labels, mask
