"""Dataset vocabularies, sample types, manifest I/O, batching, spatial cues.

Two corpus kinds share one line-delimited manifest format, selected by the
header line ``#facerel-manifest v1 <attributes|pairs> <split>``:

* attribute rows: ``<image-path> <landmark-path> <dataset-id> <20 labels>``
  where each label is ``0``, ``1`` or ``?`` for missing.  A missing label is
  recorded in the sample's mask and never defaulted.
* pair rows: ``<image-path> <left-box> <right-box> <8 labels>`` with a box
  written ``x,y,w,h``: x and y in image pixels (upper-left corner), w and h
  normalized by image width and height respectively.

A manifest is UTF-8 text.  Paths are relative to the manifest's directory;
images and landmarks are ``.npy`` arrays of bools, ints or floats, (H, W)
grayscale in [0, 1] and (10, 2) box-normalized points in the one fixed layout
of ``bridge.POINT_NAMES``.

The parser accepts a line only if formatting what it read gives the same
text back, so the reader refuses a number the writer would not write
(``+4``, ``3_0``, ``0.250``, a non-ASCII digit) or spacing but one space.
The writer parses each line it makes and refuses a row starting with ``#``,
so a path holding whitespace, a label other than 0 or 1, a box corner that
is not an int or a wrong label count is refused before any file is written.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return f"{self.x},{self.y},{float(self.w)!r},{float(self.h)!r}"

    @staticmethod
    def decode(text: str) -> "Box":
        """The box ``encode`` writes as ``text``; any other text (``+4``, ``0.250``)
        raises ``ValueError`` naming the field and the box."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"box must be x,y,w,h, got {text!r}")
        values = []
        for name, cast, tok in zip("xywh", (int, int, float, float), parts):
            try:
                values.append(cast(tok))
            except ValueError:
                raise ValueError(f"box field {name} must be {'an int' if cast is int else 'a number'}"
                                 f", got {tok!r} in {text!r}") from None
        box = Box(*values)
        if not np.isfinite([box.w, box.h]).all():
            raise ValueError(f"box extent must be finite, got {text!r}")
        for name, tok, want in zip("xywh", parts, box.encode().split(",")):
            if tok != want:
                raise ValueError(f"box field {name} must be written {want!r}, got {tok!r} "
                                 f"in {text!r}")
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


def _parse_header(line: str) -> tuple[str, str]:
    """The (kind, split) ``_header_line`` writes as ``line``; raises ``ValueError``."""
    head = line.split()
    if head[:1] != ["#facerel-manifest"]:
        raise ValueError("missing manifest header")
    if len(head) != 4 or _header_line(head[2], head[3]) != line:
        raise ValueError(f"unsupported manifest header {line!r}")
    if head[2] not in ("attributes", "pairs"):
        raise ValueError(f"unknown manifest kind {head[2]!r}")
    return head[2], head[3]


def _format_row(kind: str, rec: AttrRecord | PairRecord) -> str:
    """One manifest row, each label written as its own text (0.5 stays 0.5)."""
    if kind == "pairs":
        fields = [rec.image_path, rec.left_box.encode(), rec.right_box.encode(),
                  *(f"{r:.17g}" for r in rec.relations)]
    else:
        fields = [rec.image_path, rec.landmark_path, rec.dataset_id,
                  *(f"{l:.17g}" if m else "?" for l, m in zip(rec.labels, rec.mask, strict=True))]
    return " ".join(fields)


def _parse_row(kind: str, line: str) -> AttrRecord | PairRecord:
    """The record ``_format_row`` writes as ``line``; raises ``ValueError`` naming the fault."""
    parts = line.split()
    n_labels = N_ATTRIBUTES if kind == "attributes" else N_RELATIONS
    if len(parts) != 3 + n_labels:
        raise ValueError(f"expected {3 + n_labels} fields, got {len(parts)}")
    tokens = parts[3:]
    allowed = ("0", "1", "?") if kind == "attributes" else ("0", "1")
    bad = [tok for tok in tokens if tok not in allowed]
    if bad:
        raise ValueError(f"label must be {', '.join(allowed[:-1])} or {allowed[-1]}, "
                         f"got {bad[0]!r}")
    if kind == "pairs":
        rec = PairRecord(parts[0], Box.decode(parts[1]), Box.decode(parts[2]),
                         tuple(int(tok) for tok in tokens))
    else:
        rec = AttrRecord(parts[0], parts[1], parts[2],
                         tuple(0.0 if tok == "?" else float(tok) for tok in tokens),
                         tuple(tok != "?" for tok in tokens))
    if _format_row(kind, rec) != line:  # every token reads back as itself: the spacing differs
        raise ValueError(f"fields must be separated by one space, got {line!r}")
    return rec


def write_manifest(path, kind: str, split: str, records) -> None:
    """Write ``records`` under a header, keeping only lines that read back
    as themselves; any other raises ``ValueError`` naming the split or the
    record index, and no file is written."""
    if kind not in ("attributes", "pairs"):
        raise ValueError(f"unknown manifest kind {kind!r}")
    lines = [_header_line(kind, split)]
    try:
        _parse_header(lines[0])
    except ValueError as e:
        raise ValueError(f"split {split!r} cannot be written: {e}") from None
    for i, rec in enumerate(records):
        try:
            line = _format_row(kind, rec)
            if line.startswith("#"):
                raise ValueError(f"the row {line!r} does not read back as itself, but as a comment")
            _parse_row(kind, line)
        except (TypeError, ValueError) as e:  # TypeError: a field of another type
            raise ValueError(f"record {i} cannot be written: {e}") from None
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> tuple[str, str, list[tuple[int, AttrRecord | PairRecord]]]:
    """Parse a manifest into (kind, split, [(line number, record), ...]);
    errors carry line numbers."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        ln = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{ln}: not UTF-8 ({e.reason} at byte {e.start})") from None
    try:
        kind, split = _parse_header(lines[0] if lines else "")
    except ValueError as e:
        raise ValueError(f"{path}:1: {e}") from None
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            records.append((ln, _parse_row(kind, line)))
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
    """A referenced ``.npy`` array of bools, ints or floats."""
    p = base / rel
    if not p.exists():
        raise ValueError(f"{where}: referenced file {rel!r} does not exist")
    try:
        arr = np.load(p)
    except (OSError, EOFError, ValueError) as e:
        raise ValueError(f"{where}: referenced file {rel!r} cannot be read: {e}") from e
    if not isinstance(arr, np.ndarray):  # np.load opens an .npz archive as a mapping
        arr.close()
        raise ValueError(f"{where}: referenced file {rel!r} is an .npz archive, not one array")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{where}: referenced file {rel!r} holds dtype {arr.dtype}, "
                         "not bool, int, uint or float")
    return arr


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
    kind, split, records = read_manifest(path)
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
    if isinstance(batch_size, bool) or not isinstance(batch_size, int) or batch_size < 1:
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")
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
