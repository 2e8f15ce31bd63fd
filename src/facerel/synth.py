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
labels first (hitting the configured positive rates exactly, up to rounding)
and then synthesizes latents consistent with them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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
    resize_nearest,
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

#: training-split positive:negative counts of the relation corpus this
#: generator's default imbalance mirrors
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

DEFAULT_RELATION_RATES = {
    name: pos / (pos + neg) for name, (pos, neg) in RELATION_IMBALANCE_COUNTS.items()
}

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
    mode: int        # pose mode in [0, pose_modes)
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
    pose_modes: int = 10
    noise: float = 0.03
    landmark_jitter: float = 0.008
    scene_height: int = 64
    scene_width: int = 160
    relation_rates: dict = field(default_factory=lambda: dict(DEFAULT_RELATION_RATES))
    corpus_groups: dict = field(
        default_factory=lambda: {
            "a": ("gender",),
            "b": ("expression",),
            "c": ("gender", "pose", "expression", "age"),
        }
    )

    def __post_init__(self):
        for n in (self.n_a, self.n_b, self.n_c, self.n_pairs_train, self.n_pairs_test):
            if n < 1:
                raise ValueError("corpus sizes must all be >= 1")
        if self.pose_modes < 1:
            raise ValueError("pose_modes must be >= 1")
        unknown = set(self.relation_rates) - set(RELATION_NAMES)
        if unknown:
            raise ValueError(f"unknown relation traits in rates: {sorted(unknown)}")
        for name, groups in self.corpus_groups.items():
            bad = set(groups) - set(ATTRIBUTE_GROUPS)
            if bad:
                raise ValueError(f"corpus {name!r} names unknown groups {sorted(bad)}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _rect(img: np.ndarray, y0: float, y1: float, x0: float, x1: float, value: float):
    s_y, s_x = img.shape
    img[int(y0 * s_y) : int(y1 * s_y), int(x0 * s_x) : int(x1 * s_x)] = value


def _mode_angle(mode: int, pose_modes: int) -> float:
    if pose_modes == 1:
        return 0.0
    return np.deg2rad(-80.0 + 160.0 * mode / (pose_modes - 1))


def render_face(lat: FaceLatents, rng: np.random.Generator, size: int,
                noise: float, pose_modes: int) -> np.ndarray:
    """One grayscale face crop in [0, 1], square with side ``size``."""
    yy, xx = np.meshgrid(np.linspace(0, 1, size, endpoint=False),
                         np.linspace(0, 1, size, endpoint=False), indexing="ij")
    theta = _mode_angle(lat.mode, pose_modes)
    phase = np.cos(theta) * xx + np.sin(theta) * yy
    img = 0.45 + 0.18 * np.sin(2 * np.pi * phase / 0.18)

    _rect(img, 0.0, 0.5, 0.0, 0.125, 0.9 if lat.gender else 0.1)
    _rect(img, 0.0, 0.5, 0.875, 1.0, 0.9 if lat.young else 0.1)

    # expression glyph in the mouth region
    gy0, gy1, gx0, gx1 = 0.58, 0.79, 0.3, 0.7
    ys = slice(int(gy0 * size), int(gy1 * size))
    xs = slice(int(gx0 * size), int(gx1 * size))
    g_h, g_w = img[ys, xs].shape
    gy, gx = np.meshgrid(np.linspace(0, 1, g_h, endpoint=False),
                         np.linspace(0, 1, g_w, endpoint=False), indexing="ij")
    e = lat.expr
    if e == 0:    # angry: X cross
        mask = (np.abs(gy - gx) < 0.18) | (np.abs(gy - (1 - gx)) < 0.18)
    elif e == 1:  # disgust: horizontal bars
        mask = np.sin(2 * np.pi * 3 * gy) > 0
    elif e == 2:  # fear: vertical bars
        mask = np.sin(2 * np.pi * 3 * gx) > 0
    elif e == 3:  # happy: lower half filled
        mask = gy > 0.5
    elif e == 4:  # sad: upper half filled
        mask = gy < 0.5
    elif e == 5:  # surprise: ring
        r = np.hypot(gy - 0.5, gx - 0.5)
        mask = (r > 0.22) & (r < 0.42)
    else:         # neutral: thin middle line
        mask = np.abs(gy - 0.5) < 0.12
    region = img[ys, xs]
    region[mask] = 0.98
    img[ys, xs] = region

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

    img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def face_landmarks(mode: int, rng: np.random.Generator, jitter: float,
                   pose_modes: int) -> np.ndarray:
    """Landmark layout for one pose mode, with small isotropic jitter."""
    if pose_modes == 1:
        dx, dy, sx = 0.0, 0.0, 1.0
    else:
        dx = -0.18 + 0.36 * mode / (pose_modes - 1)
        dy = 0.05 * ((mode % 3) - 1)
        sx = 1.0 - 0.22 * (mode % 2)
    pts = BASE_POINTS.copy()
    pts[:, 0] = 0.5 + (pts[:, 0] - 0.5) * sx + dx
    pts[:, 1] = pts[:, 1] + dy
    pts = pts + rng.normal(0.0, jitter, size=pts.shape)
    return np.clip(pts, 0.0, 1.0)


def attribute_labels(lat: FaceLatents, pose_modes: int) -> np.ndarray:
    """The 20 binary attributes as an exact function of the latents."""
    v = np.zeros(len(ATTRIBUTE_NAMES))
    v[0] = lat.gender
    v[1 + (lat.mode * 5) // pose_modes] = 1.0
    v[6 + lat.expr] = 1.0
    v[13] = lat.smiling
    v[14] = lat.mouth_open
    v[15] = lat.young
    v[16] = 1.0 if lat.beard == 1 else 0.0
    v[17] = 1.0 if lat.beard == 0 else 0.0
    v[18] = 1.0 if lat.beard == 2 else 0.0
    v[19] = 1.0 if lat.beard == 3 else 0.0
    return v


def relation_labels(pl: PairLatents, scene_width: int) -> np.ndarray:
    """The 8 relation traits as an exact function of pair latents + geometry."""
    g = pl.geometry
    out = np.zeros(len(RELATION_NAMES))
    out[0] = 1.0 if g.left_size / g.right_size > 1.2 else 0.0
    out[1] = 1.0 if pl.left.expr == EXPR_ANGRY else 0.0
    out[2] = 1.0 if abs(pl.left.mode - pl.right.mode) <= 1 else 0.0
    out[3] = 1.0 if pl.left.smiling and pl.right.smiling else 0.0
    out[4] = 1.0 if pl.right.expr == EXPR_HAPPY else 0.0
    out[5] = 1.0 if (g.right_x - g.left_x) / scene_width <= 0.45 else 0.0
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


def sample_face_latents(rng: np.random.Generator, pose_modes: int) -> FaceLatents:
    return FaceLatents(
        mode=int(rng.integers(pose_modes)),
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
        lat = sample_face_latents(rng, cfg.pose_modes)
        img = render_face(lat, rng, cfg.image_size, cfg.noise, cfg.pose_modes)
        lm = face_landmarks(lat.mode, rng, cfg.landmark_jitter, cfg.pose_modes)
        samples.append(
            Sample(
                image=img,
                landmarks=lm,
                labels=attribute_labels(lat, cfg.pose_modes),
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


def _latents_for_pair(labels: dict[str, int], cfg: SynthConfig,
                      rng: np.random.Generator) -> PairLatents:
    """Invert the rule table: draw latents consistent with the planted labels."""
    p = cfg.pose_modes

    expr_l = EXPR_ANGRY if labels["competitive"] else int(
        rng.choice([e for e in range(N_EXPR) if e != EXPR_ANGRY])
    )
    expr_r = EXPR_HAPPY if labels["friendly"] else int(
        rng.choice([e for e in range(N_EXPR) if e != EXPR_HAPPY])
    )

    mode_l = int(rng.integers(p))
    if labels["trusting"]:
        near = [m for m in range(p) if abs(m - mode_l) <= 1]
        mode_r = int(rng.choice(near))
    else:
        far = [m for m in range(p) if abs(m - mode_l) > 1]
        if not far:  # degenerate mode count; trusting cannot be negative
            far = [mode_l]
        mode_r = int(rng.choice(far))

    if labels["warm"]:
        s_l, s_r = 1, 1
    else:
        s_l, s_r = [(0, 0), (0, 1), (1, 0)][int(rng.integers(3))]
    if labels["assured"]:
        y_l, y_r = 1, 1
    else:
        y_l, y_r = [(0, 0), (0, 1), (1, 0)][int(rng.integers(3))]
    if labels["demonstrative"]:
        mo_l, mo_r = [(0, 1), (1, 0), (1, 1)][int(rng.integers(3))]
    else:
        mo_l, mo_r = 0, 0

    if labels["dominant"]:
        size_l = int(rng.choice([54, 56]))
        size_r = int(rng.choice([40, 42]))
    else:
        size_l = int(rng.choice([44, 46, 48]))
        size_r = int(rng.choice([44, 46, 48]))

    left_x = int(rng.integers(2, 11))
    gap = int(rng.integers(60, 71)) if labels["attached"] else int(rng.integers(78, 99))
    right_x = left_x + gap
    left_y = int(rng.integers(2, cfg.scene_height - size_l - 1))
    right_y = int(rng.integers(2, cfg.scene_height - size_r - 1))

    left = FaceLatents(mode_l, int(rng.integers(2)), expr_l, s_l, mo_l, y_l,
                       int(rng.integers(4)))
    right = FaceLatents(mode_r, int(rng.integers(2)), expr_r, s_r, mo_r, y_r,
                        int(rng.integers(4)))
    geom = PairGeometry(left_x, left_y, size_l, right_x, right_y, size_r)
    return PairLatents(left, right, geom)


def render_scene(pl: PairLatents, cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    scene = np.clip(
        0.5 + rng.normal(0.0, 0.01, size=(cfg.scene_height, cfg.scene_width)), 0.0, 1.0
    )
    for lat, x, y, size in (
        (pl.left, pl.geometry.left_x, pl.geometry.left_y, pl.geometry.left_size),
        (pl.right, pl.geometry.right_x, pl.geometry.right_y, pl.geometry.right_size),
    ):
        face = render_face(lat, rng, size, cfg.noise, cfg.pose_modes)
        scene[y : y + size, x : x + size] = face
    return scene


def _boxes_for(pl: PairLatents, cfg: SynthConfig) -> tuple[Box, Box]:
    g = pl.geometry
    return (
        Box(g.left_x, g.left_y, g.left_size / cfg.scene_width, g.left_size / cfg.scene_height),
        Box(g.right_x, g.right_y, g.right_size / cfg.scene_width, g.right_size / cfg.scene_height),
    )


def synth_pair_corpus(
    cfg: SynthConfig, n: int, seed
) -> tuple[list[PairSample], list[np.ndarray], list[PairLatents]]:
    """``n`` scene images with planted relation labels hitting the configured
    positive rates exactly (up to rounding)."""
    rng = np.random.default_rng(seed)
    planted = {
        name: _plant_exact_counts(n, cfg.relation_rates.get(name, 0.5), rng)
        for name in RELATION_NAMES
    }
    samples, scenes, latents = [], [], []
    for i in range(n):
        labels = {name: int(planted[name][i]) for name in RELATION_NAMES}
        pl = _latents_for_pair(labels, cfg, rng)
        scene = render_scene(pl, cfg, rng)
        lbox, rbox = _boxes_for(pl, cfg)
        rel = relation_labels(pl, cfg.scene_width)
        fh = fw = cfg.image_size
        samples.append(
            PairSample(
                left_face=resize_nearest(
                    scene[lbox.y : lbox.y + pl.geometry.left_size,
                          lbox.x : lbox.x + pl.geometry.left_size], fh, fw),
                right_face=resize_nearest(
                    scene[rbox.y : rbox.y + pl.geometry.right_size,
                          rbox.x : rbox.x + pl.geometry.right_size], fh, fw),
                left_box=lbox,
                right_box=rbox,
                image_dims=(cfg.scene_width, cfg.scene_height),
                relations=rel,
            )
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
            cfg, f"synth-{cid}", n, cfg.corpus_groups[cid], seed=[seed, sub]
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
