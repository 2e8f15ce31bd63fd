"""Synthetic face corpora with planted, recoverable structure.

Every face is rendered from a small set of latent factors, each of which
controls one visual device on the canvas:

* pose mode      -> orientation of the background stripe texture, and the
                    horizontal shift / squeeze of the landmark layout;
* gender         -> brightness of the upper-left edge strip;
* expression     -> which of seven glyphs fills the mouth region;
* smiling        -> bright patches at the mouth corners;
* mouth opened   -> a dark slot under the glyph;
* young          -> brightness of the upper-right edge strip;
* beard style    -> chin-band pattern (clean / goatee / sideburns / shadow).

Attribute labels are exact functions of the latents, so they are recoverable
by construction.  Relation labels for face pairs come from a fixed rule table
over the two faces' latents and the pair geometry; the generator samples the
labels first (hitting the positive rates exactly, up to rounding) and then
synthesizes latents consistent with them.

``SynthConfig`` sets only the face size and the corpus sizes.  Everything
else is a module constant: ``POSE_MODES`` (pose modes), ``NOISE`` (std of the
Gaussian pixel noise), ``LANDMARK_JITTER`` (std of the landmark jitter,
box-normalized), ``SCENE_HEIGHT`` and ``SCENE_WIDTH`` (pair scene extent in
pixels), ``RELATION_RATES`` (positive rate per relation trait, mirroring
``RELATION_IMBALANCE_COUNTS``) and ``CORPUS_GROUPS`` (the attribute groups
each of corpora a, b and c labels).

``render_face`` builds what depends only on the geometry once per process,
each in an LRU cache of 128 entries and read-only: the coordinate grid
(``_grid``, keyed on height and width), the stripe background
(``_background``, keyed on pose mode and face size) and the glyph mask
(``_glyph_mask``, keyed on expression and mouth-region height and width).
A face copies its background and draws on the copy.  The module constants
are not meant to be patched: ``POSE_MODES`` is read when a background is
built, and a cached background keeps the value it saw.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import (
    ATTRIBUTE_GROUPS,
    ATTRIBUTE_NAMES,
    RELATION_NAMES,
    AttrRecord,
    Box,
    PairRecord,
    PairSample,
    Sample,
    pair_sample,
    write_manifest,
)

#: canonical 10-point landmark layout (box-normalized), frontal pose
BASE_POINTS = np.array(
    [
        [0.30, 0.30], [0.70, 0.30],   # brows
        [0.30, 0.42], [0.70, 0.42],   # eyes
        [0.50, 0.50],                 # nose bridge
        [0.50, 0.62],                 # nose tip
        [0.35, 0.75], [0.65, 0.75],   # mouth corners
        [0.50, 0.82],                 # lower lip
        [0.50, 0.95],                 # chin
    ]
)

#: training-split positive:negative counts of the relation corpus whose
#: imbalance ``RELATION_RATES`` mirrors
RELATION_IMBALANCE_COUNTS = {
    "dominant": (418, 7041),
    "competitive": (538, 6921),
    "trusting": (6288, 1171),
    "warm": (6224, 1235),
    "friendly": (6790, 669),
    "attached": (6407, 1052),
    "demonstrative": (6555, 904),
    "assured": (6595, 864),
}

RELATION_RATES = {
    name: pos / (pos + neg) for name, (pos, neg) in RELATION_IMBALANCE_COUNTS.items()
}

CORPUS_GROUPS = {
    "a": ("gender",),
    "b": ("expression",),
    "c": ("gender", "pose", "expression", "age"),
}

POSE_MODES = 10
NOISE = 0.03
LANDMARK_JITTER = 0.008
SCENE_HEIGHT = 64
SCENE_WIDTH = 160

#: human-readable rule table; the executable form is ``relation_labels``
RELATION_RULES = {
    "dominant": "left/right face width ratio exceeds 1.2",
    "competitive": "left face expression is angry",
    "trusting": "pose modes differ by at most 1",
    "warm": "both faces smiling",
    "friendly": "right face expression is happy",
    "attached": "horizontal corner distance is at most 0.45 of image width",
    "demonstrative": "at least one mouth opened",
    "assured": "both faces young",
}

EXPR_ANGRY, EXPR_HAPPY = 0, 3
N_EXPR = 7


@dataclass(frozen=True)
class FaceLatents:
    mode: int        # pose mode in [0, POSE_MODES)
    gender: int
    expr: int        # base expression class in [0, 7)
    smiling: int
    mouth_open: int
    young: int
    beard: int       # 0 clean, 1 goatee, 2 sideburns, 3 shadow


@dataclass(frozen=True)
class PairGeometry:
    left_x: int
    left_y: int
    left_size: int     # square face extent in scene pixels
    right_x: int
    right_y: int
    right_size: int


@dataclass(frozen=True)
class PairLatents:
    left: FaceLatents
    right: FaceLatents
    geometry: PairGeometry


@dataclass
class SynthConfig:
    image_size: int = 48
    n_a: int = 400
    n_b: int = 400
    n_c: int = 400
    n_pairs_train: int = 400
    n_pairs_test: int = 200

    def __post_init__(self):
        for name, v in asdict(self).items():
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"SynthConfig {name} must be an int >= 1, got {v!r}")

    @property
    def corpus_groups(self) -> dict[str, tuple[str, ...]]:
        """``CORPUS_GROUPS``, readable off a config."""
        return CORPUS_GROUPS


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _rect(img: np.ndarray, y0: float, y1: float, x0: float, x1: float, value: float):
    s_y, s_x = img.shape
    img[int(y0 * s_y) : int(y1 * s_y), int(x0 * s_x) : int(x1 * s_x)] = value


def _mode_angle(mode: int) -> float:
    return np.deg2rad(-80.0 + 160.0 * mode / (POSE_MODES - 1))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def _grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates in [0, 1) of an ``h`` x ``w`` canvas."""
    yy, xx = np.meshgrid(np.linspace(0, 1, h, endpoint=False),
                         np.linspace(0, 1, w, endpoint=False), indexing="ij")
    return _read_only(yy), _read_only(xx)


@lru_cache(maxsize=128)
def _background(mode: int, size: int) -> np.ndarray:
    """The stripe texture of one pose mode on a ``size`` x ``size`` canvas."""
    yy, xx = _grid(size, size)
    theta = _mode_angle(mode)
    phase = np.cos(theta) * xx + np.sin(theta) * yy
    return _read_only(0.45 + 0.18 * np.sin(2 * np.pi * phase / 0.18))


@lru_cache(maxsize=128)
def _glyph_mask(expr: int, h: int, w: int) -> np.ndarray:
    """The pixels one expression's glyph fills in an ``h`` x ``w`` mouth region."""
    gy, gx = _grid(h, w)
    if expr == 0:    # angry: X cross
        mask = (np.abs(gy - gx) < 0.18) | (np.abs(gy - (1 - gx)) < 0.18)
    elif expr == 1:  # disgust: horizontal bars
        mask = np.sin(2 * np.pi * 3 * gy) > 0
    elif expr == 2:  # fear: vertical bars
        mask = np.sin(2 * np.pi * 3 * gx) > 0
    elif expr == 3:  # happy: lower half filled
        mask = gy > 0.5
    elif expr == 4:  # sad: upper half filled
        mask = gy < 0.5
    elif expr == 5:  # surprise: ring
        r = np.hypot(gy - 0.5, gx - 0.5)
        mask = (r > 0.22) & (r < 0.42)
    else:            # neutral: thin middle line
        mask = np.abs(gy - 0.5) < 0.12
    return _read_only(mask)


def render_face(lat: FaceLatents, rng: np.random.Generator, size: int) -> np.ndarray:
    """One grayscale face crop in [0, 1], square with side ``size``."""
    img = _background(lat.mode, size).copy()

    _rect(img, 0.0, 0.5, 0.0, 0.125, 0.9 if lat.gender else 0.1)
    _rect(img, 0.0, 0.5, 0.875, 1.0, 0.9 if lat.young else 0.1)

    # expression glyph in the mouth region
    gy0, gy1, gx0, gx1 = 0.58, 0.79, 0.3, 0.7
    region = img[int(gy0 * size) : int(gy1 * size), int(gx0 * size) : int(gx1 * size)]
    region[_glyph_mask(lat.expr, *region.shape)] = 0.98

    _rect(img, 0.6, 0.7, 0.16, 0.27, 0.98 if lat.smiling else 0.02)
    _rect(img, 0.6, 0.7, 0.73, 0.84, 0.98 if lat.smiling else 0.02)
    if lat.mouth_open:
        _rect(img, 0.82, 0.9, 0.38, 0.62, 0.02)

    if lat.beard == 1:
        _rect(img, 0.92, 1.0, 0.4, 0.6, 0.05)
    elif lat.beard == 2:
        _rect(img, 0.8, 1.0, 0.0, 0.125, 0.05)
        _rect(img, 0.8, 1.0, 0.875, 1.0, 0.05)
    elif lat.beard == 3:
        band = img[int(0.92 * size) :, int(0.16 * size) : int(0.84 * size)]
        checker = (np.add.outer(np.arange(band.shape[0]), np.arange(band.shape[1])) % 2)
        band[:] = np.where(checker, 0.25, 0.6)

    img += rng.normal(0.0, NOISE, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img)


def face_landmarks(mode: int, rng: np.random.Generator) -> np.ndarray:
    """Landmark layout for one pose mode, with small isotropic jitter."""
    dx = -0.18 + 0.36 * mode / (POSE_MODES - 1)
    dy = 0.05 * ((mode % 3) - 1)
    sx = 1.0 - 0.22 * (mode % 2)
    pts = BASE_POINTS.copy()
    pts[:, 0] = 0.5 + (pts[:, 0] - 0.5) * sx + dx
    pts[:, 1] = pts[:, 1] + dy
    pts = pts + rng.normal(0.0, LANDMARK_JITTER, size=pts.shape)
    return np.clip(pts, 0.0, 1.0)


def attribute_labels(lat: FaceLatents) -> np.ndarray:
    """The 20 binary attributes as an exact function of the latents."""
    v = np.zeros(len(ATTRIBUTE_NAMES))
    v[0] = lat.gender
    v[1 + (lat.mode * 5) // POSE_MODES] = 1.0
    v[6 + lat.expr] = 1.0
    v[13] = lat.smiling
    v[14] = lat.mouth_open
    v[15] = lat.young
    v[16] = 1.0 if lat.beard == 1 else 0.0
    v[17] = 1.0 if lat.beard == 0 else 0.0
    v[18] = 1.0 if lat.beard == 2 else 0.0
    v[19] = 1.0 if lat.beard == 3 else 0.0
    return v


def relation_labels(pl: PairLatents) -> np.ndarray:
    """The 8 relation traits as an exact function of pair latents + geometry."""
    g = pl.geometry
    out = np.zeros(len(RELATION_NAMES))
    out[0] = 1.0 if g.left_size / g.right_size > 1.2 else 0.0
    out[1] = 1.0 if pl.left.expr == EXPR_ANGRY else 0.0
    out[2] = 1.0 if abs(pl.left.mode - pl.right.mode) <= 1 else 0.0
    out[3] = 1.0 if pl.left.smiling and pl.right.smiling else 0.0
    out[4] = 1.0 if pl.right.expr == EXPR_HAPPY else 0.0
    out[5] = 1.0 if (g.right_x - g.left_x) / SCENE_WIDTH <= 0.45 else 0.0
    out[6] = 1.0 if pl.left.mouth_open or pl.right.mouth_open else 0.0
    out[7] = 1.0 if pl.left.young and pl.right.young else 0.0
    return out


# ---------------------------------------------------------------------------
# attribute corpora
# ---------------------------------------------------------------------------


def _mask_for_groups(groups) -> np.ndarray:
    mask = np.zeros(len(ATTRIBUTE_NAMES), dtype=bool)
    for g in groups:
        for idx in ATTRIBUTE_GROUPS[g]:
            mask[idx] = True
    return mask


def sample_face_latents(rng: np.random.Generator) -> FaceLatents:
    return FaceLatents(
        mode=int(rng.integers(POSE_MODES)),
        gender=int(rng.integers(2)),
        expr=int(rng.integers(N_EXPR)),
        smiling=int(rng.integers(2)),
        mouth_open=int(rng.integers(2)),
        young=int(rng.integers(2)),
        beard=int(rng.integers(4)),
    )


def synth_attr_corpus(
    cfg: SynthConfig, dataset_id: str, n: int, groups, seed
) -> tuple[list[Sample], list[FaceLatents]]:
    """A corpus of faces labeled only for the given attribute groups."""
    rng = np.random.default_rng(seed)
    mask = _mask_for_groups(groups)
    samples, latents = [], []
    for _ in range(n):
        lat = sample_face_latents(rng)
        img = render_face(lat, rng, cfg.image_size)
        lm = face_landmarks(lat.mode, rng)
        samples.append(
            Sample(
                image=img,
                landmarks=lm,
                labels=attribute_labels(lat),
                mask=mask.copy(),
                dataset_id=dataset_id,
            )
        )
        latents.append(lat)
    return samples, latents


# ---------------------------------------------------------------------------
# relation pairs
# ---------------------------------------------------------------------------


def _plant_exact_counts(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    n_pos = int(round(n * rate))
    vec = np.zeros(n, dtype=np.int64)
    vec[:n_pos] = 1
    return vec[rng.permutation(n)]


#: The (left, right) flag pairs a rule on two faces' binary flags draws from:
#: not both set, and at least one set.
_NOT_BOTH = ((0, 0), (0, 1), (1, 0))
_EITHER = ((0, 1), (1, 0), (1, 1))


def _latents_for_pair(labels: dict[str, int], rng: np.random.Generator) -> PairLatents:
    """Invert the rule table: draw latents consistent with the planted labels."""
    expr_l = EXPR_ANGRY if labels["competitive"] else int(
        rng.choice([e for e in range(N_EXPR) if e != EXPR_ANGRY])
    )
    expr_r = EXPR_HAPPY if labels["friendly"] else int(
        rng.choice([e for e in range(N_EXPR) if e != EXPR_HAPPY])
    )

    mode_l = int(rng.integers(POSE_MODES))
    if labels["trusting"]:
        near = [m for m in range(POSE_MODES) if abs(m - mode_l) <= 1]
        mode_r = int(rng.choice(near))
    else:
        far = [m for m in range(POSE_MODES) if abs(m - mode_l) > 1]
        mode_r = int(rng.choice(far))

    s_l, s_r = (1, 1) if labels["warm"] else _NOT_BOTH[int(rng.integers(3))]
    y_l, y_r = (1, 1) if labels["assured"] else _NOT_BOTH[int(rng.integers(3))]
    mo_l, mo_r = _EITHER[int(rng.integers(3))] if labels["demonstrative"] else (0, 0)

    if labels["dominant"]:
        size_l = int(rng.choice([54, 56]))
        size_r = int(rng.choice([40, 42]))
    else:
        size_l = int(rng.choice([44, 46, 48]))
        size_r = int(rng.choice([44, 46, 48]))

    left_x = int(rng.integers(2, 11))
    gap = int(rng.integers(60, 71)) if labels["attached"] else int(rng.integers(78, 99))
    right_x = left_x + gap
    left_y = int(rng.integers(2, SCENE_HEIGHT - size_l - 1))
    right_y = int(rng.integers(2, SCENE_HEIGHT - size_r - 1))

    left = FaceLatents(mode_l, int(rng.integers(2)), expr_l, s_l, mo_l, y_l,
                       int(rng.integers(4)))
    right = FaceLatents(mode_r, int(rng.integers(2)), expr_r, s_r, mo_r, y_r,
                        int(rng.integers(4)))
    geom = PairGeometry(left_x, left_y, size_l, right_x, right_y, size_r)
    return PairLatents(left, right, geom)


def render_scene(pl: PairLatents, rng: np.random.Generator) -> np.ndarray:
    scene = np.clip(0.5 + rng.normal(0.0, 0.01, size=(SCENE_HEIGHT, SCENE_WIDTH)), 0.0, 1.0)
    for lat, x, y, size in (
        (pl.left, pl.geometry.left_x, pl.geometry.left_y, pl.geometry.left_size),
        (pl.right, pl.geometry.right_x, pl.geometry.right_y, pl.geometry.right_size),
    ):
        face = render_face(lat, rng, size)
        scene[y : y + size, x : x + size] = face
    return scene


def _boxes_for(pl: PairLatents) -> tuple[Box, Box]:
    g = pl.geometry
    return (
        Box(g.left_x, g.left_y, g.left_size / SCENE_WIDTH, g.left_size / SCENE_HEIGHT),
        Box(g.right_x, g.right_y, g.right_size / SCENE_WIDTH, g.right_size / SCENE_HEIGHT),
    )


def synth_pair_corpus(
    cfg: SynthConfig, n: int, seed
) -> tuple[list[PairSample], list[np.ndarray], list[PairLatents]]:
    """``n`` scene images with planted relation labels hitting
    ``RELATION_RATES`` exactly (up to rounding)."""
    rng = np.random.default_rng(seed)
    planted = {name: _plant_exact_counts(n, RELATION_RATES[name], rng) for name in RELATION_NAMES}
    samples, scenes, latents = [], [], []
    for i in range(n):
        labels = {name: int(planted[name][i]) for name in RELATION_NAMES}
        pl = _latents_for_pair(labels, rng)
        scene = render_scene(pl, rng)
        samples.append(
            pair_sample(scene, *_boxes_for(pl), relation_labels(pl),
                        (cfg.image_size, cfg.image_size), f"synthetic scene {i}")
        )
        scenes.append(scene)
        latents.append(pl)
    return samples, scenes, latents


# ---------------------------------------------------------------------------
# on-disk dataset
# ---------------------------------------------------------------------------


def write_synth_dataset(cfg: SynthConfig, seed: int, out_dir) -> dict[str, str]:
    """Generate and write the three attribute corpora plus the pair splits.

    Returns the manifest paths, keyed ``corpus_a/b/c`` and ``pairs_train/test``.
    Everything written is a deterministic function of (cfg, seed).
    """
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "landmarks").mkdir(exist_ok=True)
    (out / "scenes").mkdir(exist_ok=True)

    paths: dict[str, str] = {}
    sidecar: dict = {"config": asdict(cfg), "seed": seed, "rules": RELATION_RULES,
                     "latents": {}}

    corpora = (("a", cfg.n_a, 0), ("b", cfg.n_b, 1), ("c", cfg.n_c, 2))
    for cid, n, sub in corpora:
        samples, latents = synth_attr_corpus(
            cfg, f"synth-{cid}", n, CORPUS_GROUPS[cid], seed=[seed, sub]
        )
        records = []
        for i, s in enumerate(samples):
            img_rel = f"images/{cid}_{i:05d}.npy"
            lm_rel = f"landmarks/{cid}_{i:05d}.npy"
            np.save(out / img_rel, s.image)
            np.save(out / lm_rel, s.landmarks)
            records.append(
                AttrRecord(img_rel, lm_rel, s.dataset_id,
                           tuple(s.labels.tolist()), tuple(bool(m) for m in s.mask))
            )
        manifest = out / f"corpus_{cid}.txt"
        write_manifest(manifest, "attributes", "train", records)
        paths[f"corpus_{cid}"] = str(manifest)
        sidecar["latents"][f"corpus_{cid}"] = [asdict(l) for l in latents]

    for split, n, sub in (("train", cfg.n_pairs_train, 3), ("test", cfg.n_pairs_test, 4)):
        samples, scenes, latents = synth_pair_corpus(cfg, n, seed=[seed, sub])
        records = []
        for i, (s, scene) in enumerate(zip(samples, scenes)):
            rel = f"scenes/{split}_{i:05d}.npy"
            np.save(out / rel, scene)
            records.append(
                PairRecord(rel, s.left_box, s.right_box,
                           tuple(int(r) for r in s.relations))
            )
        manifest = out / f"pairs_{split}.txt"
        write_manifest(manifest, "pairs", split, records)
        paths[f"pairs_{split}"] = str(manifest)
        sidecar["latents"][f"pairs_{split}"] = [asdict(l) for l in latents]

    with open(out / "synth_config.json", "w") as f:
        json.dump(sidecar, f, sort_keys=True, indent=1)
    paths["config"] = str(out / "synth_config.json")
    return paths
